//! Model-based property test: the production set-associative cache must
//! behave identically to a straightforward reference implementation (a
//! per-set `Vec` in LRU order) across arbitrary sequences of every
//! operation the simulator uses — the plain access/fill/invalidate API,
//! the hot path's probe-then-fill at every level, invalidate-then-refill
//! and flushes — at 1, 2, 8 and 16 ways. The reference also tracks which
//! way each line occupies, so every victim slot the cache reports (first
//! invalid way, else the LRU way) is checked too.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use simx86::cache::{Cache, CacheStats};
use simx86::config::CacheConfig;

/// The oracle: per-set LRU lists, most-recent at the back.
struct RefCache {
    sets: u64,
    ways: usize,
    lru: Vec<Vec<(u64, bool, usize)>>, // (line, dirty, way)
    stats: CacheStats,
}

impl RefCache {
    fn new(sets: u64, ways: usize) -> Self {
        Self {
            sets,
            ways,
            lru: (0..sets).map(|_| Vec::new()).collect(),
            stats: CacheStats::default(),
        }
    }

    fn set_of(&self, line: u64) -> usize {
        (line % self.sets) as usize
    }

    /// The slot a fill of absent `line` takes: the lowest free way of
    /// its set, else the way of its LRU line.
    fn victim_slot(&self, line: u64) -> usize {
        let set = self.set_of(line);
        let entries = &self.lru[set];
        let way = if entries.len() < self.ways {
            (0..self.ways)
                .find(|w| entries.iter().all(|e| e.2 != *w))
                .expect("a free way")
        } else {
            entries[0].2
        };
        set * self.ways + way
    }

    fn access(&mut self, line: u64, write: bool) -> bool {
        let set = self.set_of(line);
        let entries = &mut self.lru[set];
        if let Some(pos) = entries.iter().position(|e| e.0 == line) {
            let (l, d, w) = entries.remove(pos);
            entries.push((l, d || write, w));
            self.stats.hits += 1;
            true
        } else {
            self.stats.misses += 1;
            false
        }
    }

    fn fill(&mut self, line: u64, dirty: bool, prefetch: bool) -> Option<u64> {
        let ways = self.ways;
        let set = self.set_of(line);
        if let Some(pos) = self.lru[set].iter().position(|e| e.0 == line) {
            let (l, d, w) = self.lru[set].remove(pos);
            self.lru[set].push((l, d || dirty, w));
            return None;
        }
        let way = self.victim_slot(line) - set * ways;
        let entries = &mut self.lru[set];
        let mut evicted_dirty = None;
        if entries.len() == ways {
            let (victim, was_dirty, _) = entries.remove(0);
            if was_dirty {
                evicted_dirty = Some(victim);
                self.stats.writebacks += 1;
            }
        }
        entries.push((line, dirty, way));
        if prefetch {
            self.stats.prefetch_fills += 1;
        }
        evicted_dirty
    }

    fn invalidate(&mut self, line: u64) -> Option<bool> {
        let set = self.set_of(line);
        let entries = &mut self.lru[set];
        entries
            .iter()
            .position(|e| e.0 == line)
            .map(|pos| entries.remove(pos).1)
    }

    fn contains(&self, line: u64) -> bool {
        self.lru[self.set_of(line)].iter().any(|e| e.0 == line)
    }

    fn flush(&mut self) -> Vec<u64> {
        let mut dirty: Vec<u64> = self
            .lru
            .iter_mut()
            .flat_map(|entries| entries.drain(..))
            .filter_map(|(l, d, _)| d.then_some(l))
            .collect();
        dirty.sort_unstable();
        dirty
    }
}

#[derive(Debug, Clone)]
enum Op {
    Access {
        line: u64,
        write: bool,
    },
    Fill {
        line: u64,
        dirty: bool,
        prefetch: bool,
    },
    Invalidate {
        line: u64,
    },
    Contains {
        line: u64,
    },
    /// `access_or_victim`, then `fill_at` on a miss (the demand path at
    /// every level).
    AccessOrFill {
        line: u64,
        write: bool,
        dirty: bool,
    },
    /// `victim_if_absent`, then `fill_at` if absent (the prefetch path).
    ProbeThenFill {
        line: u64,
        dirty: bool,
        prefetch: bool,
    },
    /// `invalidate`, then probe and fill an absent line of the same set,
    /// which must take the first invalid way.
    InvalidateThenFill {
        line: u64,
        dirty: bool,
    },
    Flush,
}

/// Raw line numbers; [`check`] folds them into a universe a little
/// larger than the cache so sets fill, conflict and evict.
fn op_strategy() -> impl Strategy<Value = Op> {
    let line = || 0u64..1 << 16;
    prop_oneof![
        (line(), any::<bool>()).prop_map(|(line, write)| Op::Access { line, write }),
        (line(), any::<bool>(), any::<bool>()).prop_map(|(line, dirty, prefetch)| Op::Fill {
            line,
            dirty,
            prefetch
        }),
        line().prop_map(|line| Op::Invalidate { line }),
        line().prop_map(|line| Op::Contains { line }),
        (line(), any::<bool>(), any::<bool>()).prop_map(|(line, write, dirty)| Op::AccessOrFill {
            line,
            write,
            dirty
        }),
        (line(), any::<bool>(), any::<bool>()).prop_map(|(line, dirty, prefetch)| {
            Op::ProbeThenFill {
                line,
                dirty,
                prefetch,
            }
        }),
        (line(), any::<bool>()).prop_map(|(line, dirty)| Op::InvalidateThenFill { line, dirty }),
        // Flushes are rare (one draw in 16 of this arm) so that sets get
        // the chance to fill all their ways between them.
        (line(), 0u8..16).prop_map(|(line, k)| match k {
            0 => Op::Flush,
            _ => Op::AccessOrFill {
                line,
                write: k & 1 == 0,
                dirty: k & 2 == 0
            },
        }),
    ]
}

/// Drives a `sets x ways` cache and the oracle through `ops`, comparing
/// every result, the statistics and the resident-line count after each
/// operation.
fn check(sets: u64, ways: u32, ops: &[Op]) -> Result<(), TestCaseError> {
    let cfg = CacheConfig {
        size_bytes: sets * ways as u64 * 64,
        ways,
        line_bytes: 64,
        latency: 1.0,
    };
    let mut cache = Cache::new(&cfg);
    let mut oracle = RefCache::new(sets, ways as usize);
    let universe = sets * (ways as u64 * 3 / 2 + 1);
    for op in ops {
        match *op {
            Op::Access { line, write } => {
                let line = line % universe;
                prop_assert_eq!(
                    cache.access(line, write),
                    oracle.access(line, write),
                    "access({}, {}) diverged",
                    line,
                    write
                );
            }
            Op::Fill {
                line,
                dirty,
                prefetch,
            } => {
                let line = line % universe;
                let got = cache.fill(line, dirty, prefetch).map(|wb| wb.line);
                prop_assert_eq!(
                    got,
                    oracle.fill(line, dirty, prefetch),
                    "fill({}, {}) diverged",
                    line,
                    dirty
                );
            }
            Op::Invalidate { line } => {
                let line = line % universe;
                prop_assert_eq!(
                    cache.invalidate(line),
                    oracle.invalidate(line),
                    "invalidate({}) diverged",
                    line
                );
            }
            Op::Contains { line } => {
                let line = line % universe;
                prop_assert_eq!(
                    cache.contains(line),
                    oracle.contains(line),
                    "contains({}) diverged",
                    line
                );
            }
            Op::AccessOrFill { line, write, dirty } => {
                let line = line % universe;
                let want_victim = (!oracle.contains(line)).then(|| oracle.victim_slot(line));
                let got = cache.access_or_victim(line, write);
                prop_assert_eq!(
                    got.err(),
                    want_victim,
                    "access_or_victim({}, {}) diverged",
                    line,
                    write
                );
                oracle.access(line, write);
                if let Err(victim) = got {
                    fill_at_checked(&mut cache, &mut oracle, victim, line, dirty, false)?;
                }
            }
            Op::ProbeThenFill {
                line,
                dirty,
                prefetch,
            } => {
                let line = line % universe;
                probe_then_fill(&mut cache, &mut oracle, line, dirty, prefetch)?;
            }
            Op::InvalidateThenFill { line, dirty } => {
                let line = line % universe;
                prop_assert_eq!(
                    cache.invalidate(line),
                    oracle.invalidate(line),
                    "invalidate({}) diverged",
                    line
                );
                let fresh = (line..)
                    .step_by(sets as usize)
                    .find(|&l| !oracle.contains(l))
                    .expect("an absent line of the set");
                probe_then_fill(&mut cache, &mut oracle, fresh, dirty, false)?;
            }
            Op::Flush => {
                let mut got = cache.flush();
                got.sort_unstable();
                prop_assert_eq!(got, oracle.flush(), "flush diverged");
                // Cleared masks: every set fills from way 0 again.
                for set in 0..sets {
                    prop_assert_eq!(
                        cache.victim_if_absent(set),
                        Some(set as usize * ways as usize),
                        "set {} kept a valid way across flush",
                        set
                    );
                }
            }
        }
        prop_assert_eq!(cache.stats(), oracle.stats, "stats diverged after {:?}", op);
        let resident: usize = oracle.lru.iter().map(Vec::len).sum();
        prop_assert_eq!(
            cache.resident_lines(),
            resident,
            "residency diverged after {:?}",
            op
        );
    }
    Ok(())
}

/// `fill_at(victim, ..)`, compared against the oracle's fill.
fn fill_at_checked(
    cache: &mut Cache,
    oracle: &mut RefCache,
    victim: usize,
    line: u64,
    dirty: bool,
    prefetch: bool,
) -> Result<(), TestCaseError> {
    let got = cache
        .fill_at(victim, line, dirty, prefetch)
        .map(|wb| wb.line);
    prop_assert_eq!(
        got,
        oracle.fill(line, dirty, prefetch),
        "fill_at({}, {}) diverged",
        line,
        dirty
    );
    Ok(())
}

/// The L2/L3 redemption: `victim_if_absent`, then `fill_at` if absent.
fn probe_then_fill(
    cache: &mut Cache,
    oracle: &mut RefCache,
    line: u64,
    dirty: bool,
    prefetch: bool,
) -> Result<(), TestCaseError> {
    let want = (!oracle.contains(line)).then(|| oracle.victim_slot(line));
    let got = cache.victim_if_absent(line);
    prop_assert_eq!(got, want, "victim_if_absent({}) diverged", line);
    if let Some(victim) = got {
        fill_at_checked(cache, oracle, victim, line, dirty, prefetch)?;
    }
    Ok(())
}

/// Ops that stress victim choice: redemption, invalidate-then-refill and
/// flushes, with plain accesses and fills to age the recency order.
fn victim_op_strategy() -> impl Strategy<Value = Op> {
    let line = || 0u64..1 << 16;
    prop_oneof![
        (line(), any::<bool>(), any::<bool>()).prop_map(|(line, dirty, prefetch)| {
            Op::ProbeThenFill {
                line,
                dirty,
                prefetch,
            }
        }),
        (line(), any::<bool>()).prop_map(|(line, dirty)| Op::InvalidateThenFill { line, dirty }),
        (line(), any::<bool>()).prop_map(|(line, write)| Op::Access { line, write }),
        (line(), 0u8..8).prop_map(|(line, k)| match k {
            0 => Op::Flush,
            _ => Op::AccessOrFill {
                line,
                write: k & 1 == 0,
                dirty: k & 2 == 0
            },
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn eight_way_victims_match_reference_model(
        ops in proptest::collection::vec(victim_op_strategy(), 1..400)
    ) {
        check(4, 8, &ops)?;
    }

    #[test]
    fn sixteen_way_victims_match_reference_model(
        ops in proptest::collection::vec(victim_op_strategy(), 1..600)
    ) {
        check(2, 16, &ops)?;
    }

    #[test]
    fn cache_matches_reference_model(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        check(4, 2, &ops)?;
    }

    #[test]
    fn direct_mapped_cache_matches_reference_model(
        ops in proptest::collection::vec(op_strategy(), 1..200)
    ) {
        check(4, 1, &ops)?;
    }

    #[test]
    fn eight_way_cache_matches_reference_model(
        ops in proptest::collection::vec(op_strategy(), 1..400)
    ) {
        check(4, 8, &ops)?;
    }

    #[test]
    fn sixteen_way_cache_matches_reference_model(
        ops in proptest::collection::vec(op_strategy(), 1..600)
    ) {
        // Two sets keep every set busy enough to fill all 16 ways, so
        // the last nibble of the recency order gets promoted and evicted.
        check(2, 16, &ops)?;
    }

    #[test]
    fn residency_never_exceeds_capacity(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        let cfg = CacheConfig {
            size_bytes: 16 * 64,
            ways: 4,
            line_bytes: 64,
            latency: 1.0,
        };
        let mut cache = Cache::new(&cfg);
        for op in ops {
            match op {
                Op::Access { line, write } => { cache.access(line % 64, write); }
                Op::Fill { line, dirty, prefetch } => { cache.fill(line % 64, dirty, prefetch); }
                Op::Invalidate { line } => { cache.invalidate(line % 64); }
                _ => {}
            }
            prop_assert!(cache.resident_lines() <= cache.capacity_lines());
        }
    }
}
