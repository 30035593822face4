//! Model-based property test: the production set-associative cache must
//! behave identically to a straightforward reference implementation (a
//! per-set `Vec` in LRU order) across arbitrary sequences of every
//! operation the simulator uses — the plain access/fill/invalidate API
//! and the hot path's probe-then-fill, absent-line fills, folded repeat
//! hits and flushes — at 1, 2, 8 and 16 ways.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use simx86::cache::{Cache, CacheStats};
use simx86::config::CacheConfig;

/// The oracle: per-set LRU lists, most-recent at the back.
struct RefCache {
    sets: u64,
    ways: usize,
    lru: Vec<Vec<(u64, bool)>>, // (line, dirty)
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

    fn access(&mut self, line: u64, write: bool) -> bool {
        let set = self.set_of(line);
        let entries = &mut self.lru[set];
        if let Some(pos) = entries.iter().position(|(l, _)| *l == line) {
            let (l, d) = entries.remove(pos);
            entries.push((l, d || write));
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
        let entries = &mut self.lru[set];
        if let Some(pos) = entries.iter().position(|(l, _)| *l == line) {
            let (l, d) = entries.remove(pos);
            entries.push((l, d || dirty));
            return None;
        }
        let mut evicted_dirty = None;
        if entries.len() == ways {
            let (victim, was_dirty) = entries.remove(0);
            if was_dirty {
                evicted_dirty = Some(victim);
                self.stats.writebacks += 1;
            }
        }
        entries.push((line, dirty));
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
            .position(|(l, _)| *l == line)
            .map(|pos| entries.remove(pos).1)
    }

    fn contains(&self, line: u64) -> bool {
        self.lru[self.set_of(line)].iter().any(|(l, _)| *l == line)
    }

    fn flush(&mut self) -> Vec<u64> {
        let mut dirty: Vec<u64> = self
            .lru
            .iter_mut()
            .flat_map(|entries| entries.drain(..))
            .filter_map(|(l, d)| d.then_some(l))
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
    /// `access_or_victim`, then `fill_at` on a miss (the L1 demand path).
    AccessOrFill {
        line: u64,
        write: bool,
        dirty: bool,
    },
    /// `fill_absent`, issued only when the line is absent.
    FillAbsent {
        line: u64,
        dirty: bool,
        prefetch: bool,
    },
    FillIfAbsent {
        line: u64,
        dirty: bool,
        prefetch: bool,
    },
    /// `access_repeat`, issued only when the line is resident.
    AccessRepeat {
        line: u64,
        write: bool,
        n: u64,
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
        (line(), any::<bool>(), any::<bool>()).prop_map(|(line, dirty, prefetch)| Op::FillAbsent {
            line,
            dirty,
            prefetch
        }),
        (line(), any::<bool>(), any::<bool>()).prop_map(|(line, dirty, prefetch)| {
            Op::FillIfAbsent {
                line,
                dirty,
                prefetch,
            }
        }),
        (line(), any::<bool>(), 0u64..5).prop_map(|(line, write, n)| Op::AccessRepeat {
            line,
            write,
            n
        }),
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
                let got = cache.access_or_victim(line, write);
                prop_assert_eq!(
                    got.is_ok(),
                    oracle.access(line, write),
                    "access_or_victim({}, {}) diverged",
                    line,
                    write
                );
                if let Err(victim) = got {
                    let got = cache.fill_at(victim, line, dirty, false).map(|wb| wb.line);
                    prop_assert_eq!(
                        got,
                        oracle.fill(line, dirty, false),
                        "fill_at({}, {}) diverged",
                        line,
                        dirty
                    );
                }
            }
            Op::FillAbsent {
                line,
                dirty,
                prefetch,
            } => {
                let line = line % universe;
                if !oracle.contains(line) {
                    let got = cache.fill_absent(line, dirty, prefetch).map(|wb| wb.line);
                    prop_assert_eq!(
                        got,
                        oracle.fill(line, dirty, prefetch),
                        "fill_absent({}, {}) diverged",
                        line,
                        dirty
                    );
                }
            }
            Op::FillIfAbsent {
                line,
                dirty,
                prefetch,
            } => {
                let line = line % universe;
                let got = cache
                    .fill_if_absent(line, dirty, prefetch)
                    .map(|wb| wb.map(|wb| wb.line));
                let want = (!oracle.contains(line)).then(|| oracle.fill(line, dirty, prefetch));
                prop_assert_eq!(got, want, "fill_if_absent({}, {}) diverged", line, dirty);
            }
            Op::AccessRepeat { line, write, n } => {
                let line = line % universe;
                if oracle.contains(line) {
                    cache.access_repeat(line, write, n);
                    for _ in 0..n {
                        oracle.access(line, write);
                    }
                }
            }
            Op::Flush => {
                let mut got = cache.flush();
                got.sort_unstable();
                prop_assert_eq!(got, oracle.flush(), "flush diverged");
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

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
