//! A set-associative, write-back, write-allocate cache with true-LRU
//! replacement, operating on 64-byte line addresses.
//!
//! The lookup structures are packed for the simulator's hot path: tags
//! live in a dense per-set array probed with an invalid-tag sentinel
//! (no separate `valid` bitmap to load), and the set index is a mask
//! rather than a modulo. Recency is one `u64` per set holding a
//! permutation of the set's way indices, one nibble per way, most
//! recent first: nibble 0 is the MRU way (probed first, so unit-stride
//! streams resolve repeat hits in a single compare) and nibble
//! `ways - 1` is the LRU way. A line costs 9 bytes (tag and dirty flag)
//! plus 8 bytes per set. The order is exact LRU, not an approximation:
//! it ranks the ways by their last touch, which is all a victim choice
//! needs (golden snapshots pin victim choice and statistics end to end).
//! Associativity is therefore capped at 16 ways (see
//! [`CacheConfig::validate`]).

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

/// One cache level.
#[derive(Debug, Clone)]
pub struct Cache {
    set_mask: u64,
    ways: usize,
    /// `sets * ways` tags; `INVALID_TAG` marks an empty way.
    tags: Vec<u64>,
    dirty: Vec<bool>,
    /// Per-set recency order: nibble `k` is the way touched `k`-th most
    /// recently. Invalid ways keep their place; victim choice skips
    /// them by taking the first invalid way before consulting the order.
    order: Vec<u64>,
    stats: CacheStats,
}

impl Cache {
    /// Builds a cache from its configuration.
    pub fn new(cfg: &CacheConfig) -> Self {
        cfg.validate("cache");
        let sets = cfg.sets();
        let ways = cfg.ways as usize;
        let slots = (sets as usize) * ways;
        Self {
            set_mask: sets - 1,
            ways,
            tags: vec![INVALID_TAG; slots],
            dirty: vec![false; slots],
            order: vec![IDENTITY_ORDER; sets as usize],
            stats: CacheStats::default(),
        }
    }

    fn set_of(&self, line: u64) -> usize {
        (line & self.set_mask) as usize
    }

    fn slot_range(&self, set: usize) -> std::ops::Range<usize> {
        set * self.ways..(set + 1) * self.ways
    }

    /// The slot of `set`'s most recently touched way.
    #[inline]
    fn mru_slot(&self, set: usize) -> usize {
        set * self.ways + (self.order[set] & 0xF) as usize
    }

    /// The slot of `set`'s least recently touched way.
    #[inline]
    fn lru_slot(&self, set: usize) -> usize {
        set * self.ways + ((self.order[set] >> (4 * (self.ways - 1))) & 0xF) as usize
    }

    /// Moves `slot`'s way to the front of its set's recency order.
    #[inline]
    fn touch(&mut self, set: usize, slot: usize) {
        let way = (slot - set * self.ways) as u64;
        let order = self.order[set];
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
        self.order[set] = (order & above) | ((order & below) << 4) | way;
    }

    /// The slot a fill of an absent line into `set` evicts: the first
    /// invalid way if `invalid` found one, else the LRU way.
    #[inline]
    fn victim(&self, set: usize, invalid: Option<usize>) -> usize {
        invalid.unwrap_or_else(|| self.lru_slot(set))
    }

    /// Finds the slot holding `line` in `set`, probing the MRU way first.
    #[inline]
    fn probe(&self, set: usize, line: u64) -> Option<usize> {
        let hint = self.mru_slot(set);
        if self.tags[hint] == line {
            return Some(hint);
        }
        let base = set * self.ways;
        self.tags[base..base + self.ways]
            .iter()
            .position(|&t| t == line)
            .map(|way| base + way)
    }

    /// Records a demand hit on `slot`: recency, dirtiness, statistics.
    #[inline]
    fn hit(&mut self, set: usize, slot: usize, write: bool, n: u64) {
        self.touch(set, slot);
        if write {
            self.dirty[slot] = true;
        }
        self.stats.hits += n;
    }

    /// Looks up a line; on a hit, refreshes LRU and (for writes) marks the
    /// line dirty. Returns whether it hit.
    #[inline]
    pub fn access(&mut self, line: u64, write: bool) -> bool {
        let set = self.set_of(line);
        if let Some(slot) = self.probe(set, line) {
            self.hit(set, slot, write, 1);
            return true;
        }
        self.stats.misses += 1;
        false
    }

    /// `n` consecutive hits to a resident line, folded into one update.
    ///
    /// Observationally equivalent to calling [`Self::access`]`(line, write)`
    /// `n` times when the line is resident and nothing else touches the
    /// cache in between: the first touch moves the line to the front of
    /// its set's recency order and the rest leave it there, dirtiness
    /// accumulates with OR, and the hit counter grows by `n`.
    ///
    /// # Panics
    ///
    /// Panics if the line is not resident (the batched caller must have
    /// proved residency, e.g. via the L1 hint list).
    pub fn access_repeat(&mut self, line: u64, write: bool, n: u64) {
        if n == 0 {
            return;
        }
        let set = self.set_of(line);
        let slot = self
            .probe(set, line)
            .expect("access_repeat requires a resident line");
        self.hit(set, slot, write, n);
    }

    /// Checks residency without touching LRU or stats.
    pub fn contains(&self, line: u64) -> bool {
        self.probe(self.set_of(line), line).is_some()
    }

    /// [`Self::access`] that, on a miss, also reports the slot a
    /// subsequent fill of `line` would evict — the miss probe walks the
    /// whole set anyway, so the victim comes for free. The slot stays
    /// valid until this cache's next mutating operation; redeem it with
    /// [`Self::fill_at`].
    pub fn access_or_victim(&mut self, line: u64, write: bool) -> Result<(), usize> {
        let set = self.set_of(line);
        let hint = self.mru_slot(set);
        if self.tags[hint] == line {
            self.hit(set, hint, write, 1);
            return Ok(());
        }
        let mut invalid = None;
        for slot in self.slot_range(set) {
            let tag = self.tags[slot];
            if tag == line {
                self.hit(set, slot, write, 1);
                return Ok(());
            }
            if tag == INVALID_TAG && invalid.is_none() {
                invalid = Some(slot);
            }
        }
        self.stats.misses += 1;
        Err(self.victim(set, invalid))
    }

    /// Installs `line` in `victim`, previously obtained from
    /// [`Self::access_or_victim`] with no intervening operation on this
    /// cache. Identical state evolution to [`Self::fill_absent`]: neither
    /// the tags nor the recency order have changed since the probe, so
    /// the victim is the one `fill_absent`'s scan would choose.
    pub fn fill_at(&mut self, victim: usize, line: u64, dirty: bool, prefetch: bool) -> Option<Writeback> {
        debug_assert!(!self.contains(line), "fill_at requires an absent line");
        let set = self.set_of(line);
        debug_assert_eq!(victim / self.ways, set, "victim slot from another set");
        self.install(set, victim, line, dirty, prefetch)
    }

    /// Installs a line (after a miss was serviced), evicting the LRU way.
    /// Returns the dirty line that must be written back, if any.
    ///
    /// `dirty` marks the new line dirty immediately (write-allocate stores);
    /// `prefetch` attributes the fill to the prefetcher in the stats.
    pub fn fill(&mut self, line: u64, dirty: bool, prefetch: bool) -> Option<Writeback> {
        let set = self.set_of(line);
        // One walk over the set decides whether the line is already
        // present (e.g. raced by a prefetch) and finds the first invalid
        // way; an invalid way always beats the LRU one.
        let mut invalid = None;
        for slot in self.slot_range(set) {
            let tag = self.tags[slot];
            if tag == line {
                self.touch(set, slot);
                if dirty {
                    self.dirty[slot] = true;
                }
                return None;
            }
            if tag == INVALID_TAG && invalid.is_none() {
                invalid = Some(slot);
            }
        }
        let victim = self.victim(set, invalid);
        self.install(set, victim, line, dirty, prefetch)
    }

    /// [`Self::fill`] for a line the caller has just proven absent (by a
    /// failed `access` or `contains` with no intervening operation): the
    /// presence scan is skipped, so the victim search can stop at the
    /// first invalid way. Identical state evolution to `fill` in that
    /// case — `fill`'s merged scan would have found no matching tag and
    /// chosen the same first-invalid or LRU victim.
    pub fn fill_absent(&mut self, line: u64, dirty: bool, prefetch: bool) -> Option<Writeback> {
        debug_assert!(!self.contains(line), "fill_absent requires an absent line");
        let set = self.set_of(line);
        let invalid = self
            .slot_range(set)
            .find(|&slot| self.tags[slot] == INVALID_TAG);
        let victim = self.victim(set, invalid);
        self.install(set, victim, line, dirty, prefetch)
    }

    /// One-scan combination of `contains` and [`Self::fill_absent`] for
    /// the prefetch path: if `line` is already present, *nothing* changes
    /// (no LRU refresh — exactly like a `contains` probe) and `None` is
    /// returned; otherwise the line is installed as by `fill_absent` and
    /// `Some(writeback)` is returned. The single walk tracks presence and
    /// the victim together, so the caller avoids the separate `contains`
    /// scan.
    pub fn fill_if_absent(
        &mut self,
        line: u64,
        dirty: bool,
        prefetch: bool,
    ) -> Option<Option<Writeback>> {
        let set = self.set_of(line);
        let mut invalid = None;
        for slot in self.slot_range(set) {
            let tag = self.tags[slot];
            if tag == line {
                return None;
            }
            if tag == INVALID_TAG && invalid.is_none() {
                invalid = Some(slot);
            }
        }
        let victim = self.victim(set, invalid);
        Some(self.install(set, victim, line, dirty, prefetch))
    }

    /// Shared tail of the fill paths: evict `victim`, install `line`.
    #[inline]
    fn install(&mut self, set: usize, victim: usize, line: u64, dirty: bool, prefetch: bool) -> Option<Writeback> {
        let wb = if self.tags[victim] != INVALID_TAG && self.dirty[victim] {
            self.stats.writebacks += 1;
            Some(Writeback {
                line: self.tags[victim],
            })
        } else {
            None
        };
        self.tags[victim] = line;
        self.dirty[victim] = dirty;
        self.touch(set, victim);
        if prefetch {
            self.stats.prefetch_fills += 1;
        }
        wb
    }

    /// Invalidates a line if present, returning whether it was dirty.
    pub fn invalidate(&mut self, line: u64) -> Option<bool> {
        let set = self.set_of(line);
        if let Some(slot) = self.probe(set, line) {
            self.tags[slot] = INVALID_TAG;
            let was_dirty = self.dirty[slot];
            self.dirty[slot] = false;
            return Some(was_dirty);
        }
        None
    }

    /// Drops every line, returning the dirty line addresses (they would be
    /// written back by a real `wbinvd`).
    pub fn flush(&mut self) -> Vec<u64> {
        let mut dirty_lines = Vec::new();
        for slot in 0..self.tags.len() {
            if self.tags[slot] != INVALID_TAG && self.dirty[slot] {
                dirty_lines.push(self.tags[slot]);
            }
            self.tags[slot] = INVALID_TAG;
            self.dirty[slot] = false;
        }
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
        self.tags.iter().filter(|&&t| t != INVALID_TAG).count()
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
