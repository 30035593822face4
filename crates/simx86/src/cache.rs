//! A set-associative, write-back, write-allocate cache with true-LRU
//! replacement, operating on 64-byte line addresses.
//!
//! The lookup structures are packed for the simulator's hot path: tags
//! live in a dense per-set array probed with an invalid-tag sentinel,
//! and the set index is a mask rather than a modulo. Beside the tags,
//! each set keeps one [`SetState`]: its recency order (a permutation of
//! the set's way indices, one nibble per way, most recent first: nibble
//! 0 is the MRU way, probed first so unit-stride streams resolve repeat
//! hits in a single compare, and nibble `ways - 1` is the LRU way) and
//! `u16` masks of its valid and dirty ways. The first invalid way is the
//! valid mask's trailing-ones count, so choosing a victim never scans
//! the set. A line costs 8 bytes (its tag) plus 16 bytes per set. The
//! order is exact LRU, not an approximation: it ranks the ways by their
//! last touch, which is all a victim choice needs (golden snapshots pin
//! victim choice and statistics end to end). Associativity is therefore
//! capped at 16 ways (see [`CacheConfig::validate`]).

use crate::config::CacheConfig;

/// Tag value marking an empty way. Real line addresses are byte
/// addresses shifted right by the line shift, so they can never reach
/// `u64::MAX` (node heaps top out around bit 40).
const INVALID_TAG: u64 = u64::MAX;

/// A recency order before any touch: way `k` at rank `k`. Nibbles at
/// ranks `>= ways` are never read or moved.
const IDENTITY_ORDER: u64 = 0xFEDC_BA98_7654_3210;

/// `0x1` in every nibble: multiplying a way index by it broadcasts it.
const NIBBLE_ONES: u64 = 0x1111_1111_1111_1111;

/// Statistics one cache level keeps about its own behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand hits.
    pub hits: u64,
    /// Demand misses.
    pub misses: u64,
    /// Lines written back to the next level on eviction.
    pub writebacks: u64,
    /// Lines installed by prefetch rather than demand.
    pub prefetch_fills: u64,
}

/// The outcome of filling a line: the dirty line that had to be written
/// back, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Writeback {
    /// Line address (byte address >> line shift) of the evicted dirty line.
    pub line: u64,
}

/// Per-set replacement state.
#[derive(Debug, Clone, Copy)]
struct SetState {
    /// Nibble `k` is the way touched `k`-th most recently. Invalid ways
    /// keep their place; victim choice takes the first invalid way before
    /// consulting the order.
    order: u64,
    /// Bit `w` is set while way `w` holds a line.
    valid: u16,
    /// Bit `w` is set while way `w` holds a modified line (a subset of
    /// `valid`).
    dirty: u16,
}

/// One cache level.
#[derive(Debug, Clone)]
pub struct Cache {
    set_mask: u64,
    ways: usize,
    /// `sets * ways` tags; `INVALID_TAG` marks an empty way. Way `w` of
    /// set `s` lives in slot `s * ways + w`.
    tags: Vec<u64>,
    sets: Vec<SetState>,
    stats: CacheStats,
}

impl Cache {
    /// Builds a cache from its configuration.
    pub fn new(cfg: &CacheConfig) -> Self {
        cfg.validate("cache");
        let sets = cfg.sets();
        let ways = cfg.ways as usize;
        Self {
            set_mask: sets - 1,
            ways,
            tags: vec![INVALID_TAG; sets as usize * ways],
            sets: vec![
                SetState {
                    order: IDENTITY_ORDER,
                    valid: 0,
                    dirty: 0,
                };
                sets as usize
            ],
            stats: CacheStats::default(),
        }
    }

    /// The set `line` maps to.
    pub(crate) fn set_of(&self, line: u64) -> usize {
        (line & self.set_mask) as usize
    }

    /// Moves `slot`'s way to the front of its set's recency order.
    #[inline]
    fn touch(&mut self, set: usize, slot: usize) {
        let way = (slot - set * self.ways) as u64;
        let order = self.sets[set].order;
        if order & 0xF == way {
            return;
        }
        // The way's rank is the lowest zero nibble of `order ^ way…way`;
        // the borrow trick flags it exactly (false flags only appear
        // above a true zero). Ranks below it shift up by one nibble.
        let x = order ^ (way * NIBBLE_ONES);
        let flags = x.wrapping_sub(NIBBLE_ONES) & !x & (NIBBLE_ONES << 3);
        let rank = flags.trailing_zeros() / 4;
        debug_assert!(
            (rank as usize) < self.ways,
            "way missing from the recency order"
        );
        let below = (1u64 << (4 * rank)) - 1;
        let above = !(below | (0xF << (4 * rank)));
        self.sets[set].order = (order & above) | ((order & below) << 4) | way;
    }

    /// The slot a fill of an absent line into `set` evicts: the first
    /// invalid way, else the LRU way.
    #[inline]
    fn victim(&self, set: usize) -> usize {
        let state = self.sets[set];
        let free = state.valid.trailing_ones() as usize;
        let way = if free < self.ways {
            free
        } else {
            ((state.order >> (4 * (self.ways - 1))) & 0xF) as usize
        };
        set * self.ways + way
    }

    /// Finds the slot holding `line` in `set`, probing the MRU way first.
    #[inline]
    fn probe(&self, set: usize, line: u64) -> Option<usize> {
        let base = set * self.ways;
        let hint = base + (self.sets[set].order & 0xF) as usize;
        if self.tags[hint] == line {
            return Some(hint);
        }
        self.tags[base..base + self.ways]
            .iter()
            .position(|&t| t == line)
            .map(|way| base + way)
    }

    /// Records a demand hit on `slot`: recency, dirtiness, statistics.
    #[inline]
    fn hit(&mut self, set: usize, slot: usize, write: bool) {
        self.touch(set, slot);
        if write {
            self.sets[set].dirty |= 1 << (slot - set * self.ways);
        }
        self.stats.hits += 1;
    }

    /// Looks up a line; on a hit, refreshes LRU and (for writes) marks the
    /// line dirty. Returns whether it hit.
    #[inline]
    pub fn access(&mut self, line: u64, write: bool) -> bool {
        self.access_or_victim(line, write).is_ok()
    }

    /// Checks residency without touching LRU or stats.
    pub fn contains(&self, line: u64) -> bool {
        self.probe(self.set_of(line), line).is_some()
    }

    /// [`Self::access`] that, on a miss, also reports the slot a
    /// subsequent fill of `line` would evict. Redeem it with
    /// [`Self::fill_at`].
    #[inline]
    pub fn access_or_victim(&mut self, line: u64, write: bool) -> Result<(), usize> {
        let set = self.set_of(line);
        match self.probe(set, line) {
            Some(slot) => {
                self.hit(set, slot, write);
                Ok(())
            }
            None => {
                self.stats.misses += 1;
                Err(self.victim(set))
            }
        }
    }

    /// The slot a fill of `line` would evict, or `None` if `line` is
    /// resident. Like [`Self::contains`], it touches neither LRU nor
    /// stats. Redeem the slot with [`Self::fill_at`].
    pub fn victim_if_absent(&self, line: u64) -> Option<usize> {
        let set = self.set_of(line);
        match self.probe(set, line) {
            Some(_) => None,
            None => Some(self.victim(set)),
        }
    }

    /// Installs the absent `line` in `victim`, a slot obtained from
    /// [`Self::access_or_victim`] or [`Self::victim_if_absent`] for this
    /// line with no change to its set in between (other sets may change).
    /// Neither the set's tags, masks nor recency order have moved since
    /// the probe, so the victim is the one a fresh probe would choose.
    /// Returns the dirty line that must be written back, if any.
    ///
    /// `dirty` marks the new line dirty immediately (write-allocate stores);
    /// `prefetch` attributes the fill to the prefetcher in the stats.
    pub fn fill_at(
        &mut self,
        victim: usize,
        line: u64,
        dirty: bool,
        prefetch: bool,
    ) -> Option<Writeback> {
        debug_assert!(!self.contains(line), "fill_at requires an absent line");
        let set = self.set_of(line);
        debug_assert_eq!(victim, self.victim(set), "stale victim slot");
        let bit = 1u16 << (victim - set * self.ways);
        let state = &mut self.sets[set];
        let wb = if state.dirty & bit != 0 {
            self.stats.writebacks += 1;
            Some(Writeback {
                line: self.tags[victim],
            })
        } else {
            None
        };
        state.valid |= bit;
        if dirty {
            state.dirty |= bit;
        } else {
            state.dirty &= !bit;
        }
        self.tags[victim] = line;
        self.touch(set, victim);
        if prefetch {
            self.stats.prefetch_fills += 1;
        }
        wb
    }

    /// Installs a line (after a miss was serviced), evicting the LRU way.
    /// A line that is already present (e.g. raced by a prefetch) is only
    /// refreshed, and marked dirty if `dirty`. Returns the dirty line that
    /// must be written back, if any.
    pub fn fill(&mut self, line: u64, dirty: bool, prefetch: bool) -> Option<Writeback> {
        let set = self.set_of(line);
        match self.probe(set, line) {
            Some(slot) => {
                self.touch(set, slot);
                if dirty {
                    self.sets[set].dirty |= 1 << (slot - set * self.ways);
                }
                None
            }
            None => self.fill_at(self.victim(set), line, dirty, prefetch),
        }
    }

    /// Invalidates a line if present, returning whether it was dirty.
    pub fn invalidate(&mut self, line: u64) -> Option<bool> {
        let set = self.set_of(line);
        let slot = self.probe(set, line)?;
        let bit = 1u16 << (slot - set * self.ways);
        self.tags[slot] = INVALID_TAG;
        let state = &mut self.sets[set];
        let was_dirty = state.dirty & bit != 0;
        state.valid &= !bit;
        state.dirty &= !bit;
        Some(was_dirty)
    }

    /// Drops every line, returning the dirty line addresses in slot order
    /// (they would be written back by a real `wbinvd`).
    pub fn flush(&mut self) -> Vec<u64> {
        let mut dirty_lines = Vec::new();
        for (set, state) in self.sets.iter_mut().enumerate() {
            let mut dirty = state.dirty;
            while dirty != 0 {
                dirty_lines.push(self.tags[set * self.ways + dirty.trailing_zeros() as usize]);
                dirty &= dirty - 1;
            }
            state.valid = 0;
            state.dirty = 0;
        }
        self.tags.fill(INVALID_TAG);
        dirty_lines
    }

    /// Current statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets statistics without touching contents.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Number of currently valid lines (for tests and debugging).
    pub fn resident_lines(&self) -> usize {
        self.sets
            .iter()
            .map(|s| s.valid.count_ones() as usize)
            .sum()
    }

    /// Total capacity in lines.
    pub fn capacity_lines(&self) -> usize {
        self.tags.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets * 2 ways.
        Cache::new(&CacheConfig {
            size_bytes: 8 * 64,
            ways: 2,
            line_bytes: 64,
            latency: 1.0,
        })
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(7, false));
        c.fill(7, false, false);
        assert!(c.access(7, false));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Lines 0, 4, 8 all map to set 0 (4 sets).
        c.fill(0, false, false);
        c.fill(4, false, false);
        c.access(0, false); // 0 is now MRU, 4 LRU.
        c.fill(8, false, false); // must evict 4.
        assert!(c.contains(0));
        assert!(!c.contains(4));
        assert!(c.contains(8));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny();
        c.fill(0, true, false);
        c.fill(4, false, false);
        let wb = c.fill(8, false, false);
        assert_eq!(wb, Some(Writeback { line: 0 }));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_reports_nothing() {
        let mut c = tiny();
        c.fill(0, false, false);
        c.fill(4, false, false);
        assert_eq!(c.fill(8, false, false), None);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = tiny();
        c.fill(0, false, false);
        c.access(0, true);
        c.fill(4, false, false);
        let wb = c.fill(8, false, false);
        assert!(wb.is_some(), "written line must be written back");
    }

    #[test]
    fn refill_of_resident_line_no_eviction() {
        let mut c = tiny();
        c.fill(0, false, false);
        assert_eq!(c.fill(0, true, false), None);
        // The refill marked it dirty.
        c.fill(4, false, false);
        assert!(c.fill(8, false, false).is_some());
    }

    #[test]
    fn invalidate_reports_dirtiness() {
        let mut c = tiny();
        c.fill(3, true, false);
        assert_eq!(c.invalidate(3), Some(true));
        assert_eq!(c.invalidate(3), None);
        assert!(!c.contains(3));
    }

    #[test]
    fn flush_returns_dirty_lines_and_empties() {
        let mut c = tiny();
        c.fill(1, true, false);
        c.fill(2, false, false);
        c.fill(3, true, false);
        let mut dirty = c.flush();
        dirty.sort_unstable();
        assert_eq!(dirty, vec![1, 3]);
        assert_eq!(c.resident_lines(), 0);
    }

    #[test]
    fn prefetch_fills_counted() {
        let mut c = tiny();
        c.fill(1, false, true);
        assert_eq!(c.stats().prefetch_fills, 1);
    }

    #[test]
    fn contains_does_not_disturb_lru_or_stats() {
        let mut c = tiny();
        c.fill(0, false, false);
        c.fill(4, false, false);
        let s0 = c.stats();
        assert!(c.contains(0));
        assert_eq!(c.stats(), s0);
        // LRU order still 0 < 4, so filling evicts 0.
        c.fill(8, false, false);
        assert!(!c.contains(0));
    }

    #[test]
    fn capacity_accounting() {
        let mut c = tiny();
        assert_eq!(c.capacity_lines(), 8);
        for line in 0..32 {
            c.fill(line, false, false);
        }
        assert_eq!(c.resident_lines(), 8);
    }

    #[test]
    fn mru_hint_survives_invalidate_of_hinted_way() {
        let mut c = tiny();
        c.fill(0, false, false);
        c.fill(4, false, false); // hint now points at 4's way.
        assert_eq!(c.invalidate(4), Some(false));
        // The stale hint must not produce a phantom hit or miss a probe.
        assert!(!c.contains(4));
        assert!(c.access(0, false));
        assert!(!c.access(4, false));
    }

    #[test]
    fn eviction_tie_break_is_first_minimal_way() {
        // Both ways valid; evicting twice in a row must walk the ways in
        // recency order, not slot order quirks.
        let mut c = tiny();
        c.fill(0, false, false); // way 0
        c.fill(4, false, false); // way 1, now MRU
        c.fill(8, false, false); // evicts way 0 (oldest)
        assert!(!c.contains(0));
        assert!(c.contains(4));
        c.fill(12, false, false); // evicts way 1 (older than way 0's 8)
        assert!(!c.contains(4));
        assert!(c.contains(8));
        assert!(c.contains(12));
    }
}
