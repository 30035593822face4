//! Request keys, reply verification, and the load loops that drive a
//! `roofd` node: the cold fill, the warm-up pass, the open-loop rate
//! ladder and the closed loop.
//!
//! Load comes from this one process. The load loops use one connection
//! each: on the two-vCPU host the benchmark was tuned on, a second
//! client thread made every rate depend on whether the host lent both
//! cores at the time.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use experiments::snapshot::read_tree;
use experiments::sweep::run_one;
use experiments::{Experiment, Fidelity, RunStatus};
use roofline_loadgen::{Rng, Zipf};

use crate::node::Node;
use crate::stats::Samples;
use crate::sweep::build_id;
use crate::wire::{request_line, tree_digest, Conn};

/// Threads that compute the reference digests in set-up: two, the core
/// count of the host the benchmark was tuned on.
const DIGEST_THREADS: usize = 2;

/// The hit latency limit, in milliseconds, a ladder rung must meet at
/// its 99th percentile. Hits take a fraction of a millisecond; the limit
/// sits above the scheduling stalls a shared two-core host adds, so a
/// rung fails on a real backlog rather than on a noisy neighbour.
pub const HIT_P99_LIMIT_MS: f64 = 50.0;

/// Zipf exponent of every request mix: the default of the repository's
/// own traffic model, `roofd_loadgen`.
const ZIPF_S: f64 = 1.1;

/// The experiments the key set's variants cycle through: those whose
/// quick run on `snb` takes under 0.1 s and whose tree is as large as
/// most of the 19 (about 9 KB), so the tail outgrows the memory tier
/// with the fewest computes and its disk reads are full-sized.
const VARIANTS: [Experiment; 5] = [
    Experiment::E8,
    Experiment::E9,
    Experiment::E11,
    Experiment::E14,
    Experiment::E16,
];

/// One request tuple.
#[derive(Debug, Clone)]
pub struct Key {
    pub experiment: Experiment,
    pub platform: String,
    pub fidelity: Fidelity,
}

impl Key {
    pub fn quick(experiment: Experiment, platform: String) -> Key {
        Key {
            experiment,
            platform,
            fidelity: Fidelity::Quick,
        }
    }

    pub fn label(&self) -> String {
        format!(
            "{}@{}/{}",
            self.experiment.id(),
            self.platform,
            self.fidelity.label()
        )
    }
}

/// A stream for a benchmark seed. The seed is mixed first, because
/// [`Rng::new`] folds neighbouring seeds onto one stream.
pub fn rng(seed: u64, lane: u64) -> Rng {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    Rng::new(z ^ (z >> 31)).fork(lane)
}

/// `n` keys, `n >= 19`, in popularity order. The first 19 are the
/// traffic model of `roofd_loadgen`: every experiment at quick fidelity
/// on `snb`, ranked in registry order. The rest make the key set outgrow
/// the memory tier: [`VARIANTS`] in turn, on `snb+seed=<k>` for
/// `k = 1, 2, ...`, a fault suffix that arms no fault. The key set is
/// fixed, so its reference digests carry over between runs (see
/// [`reference_digests`]); the benchmark seed picks the request
/// sequence.
pub fn hit_keys(n: usize) -> Vec<Key> {
    let head = Experiment::ALL.map(|e| Key::quick(e, "snb".to_string()));
    let variants = (0..n.saturating_sub(head.len()))
        .map(|k| Key::quick(VARIANTS[k % VARIANTS.len()], format!("snb+seed={}", k + 1)));
    head.into_iter().chain(variants).collect()
}

/// `n` keys no node has seen: E11 at quick fidelity on `snb` under a
/// `drift` fault with a seeded fault seed, the one unbounded key
/// dimension. Each one forces a compute.
pub fn fresh_keys(seed: u64, n: usize) -> Vec<Key> {
    let mut rng = rng(seed, 2);
    let mut used = std::collections::BTreeSet::new();
    let mut keys = Vec::with_capacity(n);
    while keys.len() < n {
        let s = rng.next_u64() % 1_000_000_000;
        if used.insert(s) {
            keys.push(Key::quick(
                Experiment::E11,
                format!("snb+drift=0.05,seed={s}"),
            ));
        }
    }
    keys
}

/// Digest of the tree `run_one` writes for `key`, computed in-process:
/// the reference a served reply must match.
pub fn direct_digest(key: &Key, scratch: &Path) -> Result<u64, String> {
    let _ = std::fs::remove_dir_all(scratch);
    let outcome = run_one(key.experiment, &key.platform, key.fidelity, scratch)
        .map_err(|e| format!("run_one {}: {e}", key.label()))?;
    if outcome
        .manifest
        .entries
        .iter()
        .any(|e| e.status == RunStatus::Failed)
    {
        return Err(format!("run_one {} failed", key.label()));
    }
    let tree = read_tree(scratch).map_err(|e| format!("read {}: {e}", scratch.display()))?;
    let _ = std::fs::remove_dir_all(scratch);
    Ok(tree_digest(&tree))
}

/// The digests replies for `keys` must carry: [`direct_digests`],
/// cached under `state` per build of this binary, which holds the
/// `run_one` code. A direct tree depends only on its key and that code,
/// so a later run of the same build computes only keys it has not seen.
pub fn reference_digests(keys: &[Key], work: &Path, state: &Path) -> Result<Vec<u64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let path = state.join(format!("direct-{:016x}.txt", build_id(&[exe.as_path()])?));
    let mut known: BTreeMap<String, u64> = std::fs::read_to_string(&path)
        .unwrap_or_default()
        .lines()
        .filter_map(|l| {
            let (label, digest) = l.split_once(' ')?;
            Some((label.to_string(), u64::from_str_radix(digest, 16).ok()?))
        })
        .collect();
    let missing: Vec<Key> = keys
        .iter()
        .filter(|k| !known.contains_key(&k.label()))
        .cloned()
        .collect();
    if !missing.is_empty() {
        let digests = direct_digests(&missing, work)?;
        known.extend(missing.iter().map(|k| k.label()).zip(digests));
        let lines: String = known
            .iter()
            .map(|(k, d)| format!("{k} {d:016x}\n"))
            .collect();
        std::fs::create_dir_all(state).map_err(|e| format!("create {}: {e}", state.display()))?;
        std::fs::write(&path, lines).map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(keys.iter().map(|k| known[&k.label()]).collect())
}

/// [`direct_digest`] for every key, on [`DIGEST_THREADS`] threads.
pub fn direct_digests(keys: &[Key], work: &Path) -> Result<Vec<u64>, String> {
    let mut digests = vec![0u64; keys.len()];
    let chunks: Vec<Result<Vec<(usize, u64)>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..DIGEST_THREADS)
            .map(|t| {
                scope.spawn(move || {
                    let scratch = work.join(format!("direct-{t}"));
                    (t..keys.len())
                        .step_by(DIGEST_THREADS)
                        .map(|i| direct_digest(&keys[i], &scratch).map(|d| (i, d)))
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("digest thread panicked"))
            .collect()
    });
    for chunk in chunks {
        for (i, d) in chunk? {
            digests[i] = d;
        }
    }
    Ok(digests)
}

/// Operations attempted and failed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One request of a load loop.
struct Sample {
    /// Reply time minus the time the request was due, less the
    /// generator's own lateness (`lag_ms`): waiting behind the previous
    /// request on the connection counts, the generator oversleeping
    /// does not.
    latency_ms: f64,
    /// Send time minus the later of its due time and the previous
    /// reply: how late the generator itself was.
    lag_ms: f64,
    source: String,
    ok: bool,
    /// When the reply arrived.
    done: Instant,
}

/// Sends `request` and times it. The reply is correct only if its
/// artifact digest is `expected`.
fn exchange(conn: &mut Conn, request: &str, expected: u64, due: Instant, free: Instant) -> Sample {
    let sent = Instant::now();
    let reply = conn.round_trip(request);
    let done = Instant::now();
    let (source, digest) = match &reply {
        Ok(r) => (r.source().to_string(), r.digest()),
        Err(_) => (String::new(), None),
    };
    let ready = due.max(free);
    Sample {
        latency_ms: ms(done - sent) + ms(ready - due),
        lag_ms: ms(sent.saturating_duration_since(ready)),
        source,
        ok: digest == Some(expected),
        done,
    }
}

/// What a load phase saw.
#[derive(Debug, Default)]
pub struct Served {
    pub hit_ms: Samples,
    pub compute_ms: Samples,
    pub lag_ms: Samples,
    pub completions: u64,
    pub elapsed_s: f64,
    pub tally: Tally,
    /// True when the schedule slipped: the last request went out more
    /// than the hit limit after it was due.
    pub backlog: bool,
}

impl Served {
    pub fn rate(&self) -> f64 {
        self.completions as f64 / self.elapsed_s
    }

    /// The verdict of a rung or loop: hit p99 within the limit, no
    /// growing backlog, nothing failed.
    pub fn meets_limit(&self) -> bool {
        self.tally.failed == 0
            && !self.backlog
            && self.hit_ms.len() > 0
            && self.hit_ms.quantile(0.99) <= HIT_P99_LIMIT_MS
    }
}

fn collect(samples: Vec<Sample>, elapsed_s: f64, backlog: bool) -> Served {
    let (mut hit, mut compute, mut lag) = (Vec::new(), Vec::new(), Vec::new());
    let mut tally = Tally::default();
    let mut completions = 0;
    for s in samples {
        tally.record(s.ok);
        lag.push(s.lag_ms);
        if !s.ok {
            continue;
        }
        completions += 1;
        match s.source.as_str() {
            "mem" | "disk" => hit.push(s.latency_ms),
            "computed" => compute.push(s.latency_ms),
            _ => {}
        }
    }
    Served {
        hit_ms: Samples::new(hit),
        compute_ms: Samples::new(compute),
        lag_ms: Samples::new(lag),
        completions,
        elapsed_s,
        tally,
        backlog,
    }
}

/// One request for every key, one at a time on one connection. On keys
/// the node has not seen, each one computes, and no two overlap.
pub struct Fill {
    pub wall_s: f64,
    pub compute_ms: Samples,
    pub tally: Tally,
}

pub fn fill(node: &Node, keys: &[Key], expected: &[u64]) -> Result<Fill, String> {
    let mut conn = Conn::connect(&node.addr)?;
    let t0 = Instant::now();
    let samples = keys
        .iter()
        .zip(expected)
        .map(|(key, &digest)| {
            let now = Instant::now();
            exchange(&mut conn, &request_line(key), digest, now, now)
        })
        .collect();
    let wall_s = t0.elapsed().as_secs_f64();
    let served = collect(samples, wall_s, false);
    Ok(Fill {
        wall_s,
        compute_ms: served.compute_ms,
        tally: served.tally,
    })
}

/// One pass over the keys on one connection, coldest first, so the
/// memory tier ends up holding the hottest keys.
pub fn warm(node: &Node, keys: &[Key], expected: &[u64]) -> Result<Tally, String> {
    let mut conn = Conn::connect(&node.addr)?;
    let samples = (0..keys.len())
        .rev()
        .map(|i| {
            let now = Instant::now();
            exchange(&mut conn, &request_line(&keys[i]), expected[i], now, now)
        })
        .collect();
    Ok(collect(samples, 0.0, false).tally)
}

/// One open-loop rung: `rate` requests/s at fixed intervals on `conn`,
/// for `seconds`; keys drawn zipf by popularity rank. Latency counts
/// from when each request was due.
fn open_loop(
    conn: &mut Conn,
    requests: &[String],
    expected: &[u64],
    rate: f64,
    seconds: f64,
    rng: &mut Rng,
) -> Served {
    let zipf = Zipf::new(requests.len(), ZIPF_S);
    let start = Instant::now() + Duration::from_millis(20);
    let end = start + Duration::from_secs_f64(seconds);
    let interval = Duration::from_secs_f64(1.0 / rate);
    let mut due = start;
    let mut free = start;
    let mut out = Vec::new();
    let mut last_late = Duration::ZERO;
    while due < end {
        let i = zipf.sample(rng);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        last_late = Instant::now().saturating_duration_since(due);
        out.push(exchange(conn, &requests[i], expected[i], due, free));
        free = Instant::now();
        due += interval;
    }
    let elapsed = free.saturating_duration_since(start).as_secs_f64();
    collect(out, elapsed, ms(last_late) > HIT_P99_LIMIT_MS)
}

/// One pass of the open-loop ladder on one connection: rungs of
/// `rung_s` seconds at `start`, `start * step`, `start * step^2`, ...
/// requests/s, until two rungs in a row miss the limit, so that the
/// node is past its capacity, or `seconds` have gone. Returns the rungs
/// in order with their rates.
pub fn ladder(
    node: &Node,
    keys: &[Key],
    expected: &[u64],
    (start, step, rung_s): (f64, f64, f64),
    seconds: f64,
    seed: u64,
) -> Result<Vec<(f64, Served)>, String> {
    let requests: Vec<String> = keys.iter().map(request_line).collect();
    let mut conn = Conn::connect(&node.addr)?;
    let mut rng = rng(seed, 100);
    let t0 = Instant::now();
    let mut rungs: Vec<(f64, Served)> = Vec::new();
    let mut rate = start;
    while t0.elapsed().as_secs_f64() + rung_s <= seconds {
        let rung = open_loop(&mut conn, &requests, expected, rate, rung_s, &mut rng);
        rungs.push((rate, rung));
        let missed = |r: &(f64, Served)| !r.1.meets_limit();
        if rungs.len() >= 2 && rungs[rungs.len() - 2..].iter().all(missed) {
            break;
        }
        rate *= step;
    }
    Ok(rungs)
}

/// Length of the windows a closed loop's rate is counted in, seconds.
const WINDOW_S: f64 = 0.5;

/// The closed loop on one connection: the next zipf-drawn request goes
/// out when the previous reply arrives, for `seconds`. Also returns the
/// completion rate of each [`WINDOW_S`] window, so that a stall of the
/// host moves one window rather than the whole loop.
pub fn closed_loop(
    node: &Node,
    keys: &[Key],
    expected: &[u64],
    seconds: f64,
    seed: u64,
) -> Result<(Served, Samples), String> {
    let requests: Vec<String> = keys.iter().map(request_line).collect();
    let zipf = Zipf::new(keys.len(), ZIPF_S);
    let mut conn = Conn::connect(&node.addr)?;
    let mut rng = rng(seed, 200);
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let mut samples = Vec::new();
    while Instant::now() < end {
        let now = Instant::now();
        let i = zipf.sample(&mut rng);
        samples.push(exchange(&mut conn, &requests[i], expected[i], now, now));
    }
    let elapsed = start.elapsed().as_secs_f64();
    let mut counts = vec![0u32; (seconds / WINDOW_S) as usize];
    for s in samples.iter().filter(|s| s.ok) {
        let w = (s.done - start).as_secs_f64() / WINDOW_S;
        if let Some(c) = counts.get_mut(w as usize) {
            *c += 1;
        }
    }
    let rates = Samples::new(counts.iter().map(|&c| f64::from(c) / WINDOW_S).collect());
    Ok((collect(samples, elapsed, false), rates))
}
