//! `perfbench` — the end-to-end and per-layer benchmark of this
//! repository.
//!
//! ```text
//! cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sweep_quick|roofd_hits> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. It builds `repro` and `roofd` from
//! source into its own target directory, runs the workload, checks every
//! output, and prints one JSON object as the last line of stdout:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` runs the same workload and adds
//! spans around calls into each layer, reporting the per-layer metrics.
//! A human-readable summary, with the sample count behind every
//! percentile, goes to stderr. `perfbench/METRICS.md` defines every
//! metric and the workload it should move.

mod load;
mod node;
mod probes;
mod stats;
mod sweep;
mod trace;
mod wire;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use load::{Tally, HIT_P99_LIMIT_MS};
use node::Node;
use probes::Layer;
use stats::{median, Samples};
use trace::Tracer;

/// Keys of roofd_hits: the 19 of the traffic model plus 150 variants,
/// about 1.45 MB of artifact trees, so they overflow the node's 1 MB
/// memory tier.
const HIT_KEYS: usize = 19 + 150;
/// Node starts per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// The open-loop ladder: first rate (requests/s), the factor between
/// rungs, and each rung's length in seconds.
const LADDER: (f64, f64, f64) = (6000.0, 1.08, 0.25);
/// Passes of the ladder; `sustained_rps` is the median of their knees.
const LADDER_PASSES: usize = 3;
/// Share of roofd_hits' serving phase given to the saturating closed
/// loop behind `throughput_rps`; the ladder gets the rest.
const CLOSED_SHARE: f64 = 0.25;
/// Length of a sweep workload's closed-loop serve-back, seconds.
const SERVE_BACK_S: f64 = 3.0;
/// Never-seen keys each run asks its node for after the serving phase:
/// `compute_p50_ms` and `compute_p90_ms` are their percentiles, with
/// ten samples beyond the p90.
const MISSES: usize = 100;
/// A run whose generator was later than this at p99 is invalid.
const LAG_LIMIT_MS: f64 = HIT_P99_LIMIT_MS;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    SweepQuick,
    RoofdHits,
}

impl Workload {
    fn parse(s: &str) -> Result<Workload, String> {
        Ok(match s {
            "sweep_quick" => Workload::SweepQuick,
            "roofd_hits" => Workload::RoofdHits,
            other => return Err(format!("unknown workload `{other}`")),
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::SweepQuick => "sweep_quick",
            Workload::RoofdHits => "roofd_hits",
        }
    }

    /// The `repro` command line of a sweep workload.
    fn repro_args(self) -> Option<&'static [&'static str]> {
        match self {
            Workload::SweepQuick => Some(&["-e", "all", "-f", "quick", "-p", "snb", "--jobs", "1"]),
            Workload::RoofdHits => None,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                seconds = Some(s).filter(|s| *s > 0.0 && *s <= 600.0);
                seconds.ok_or_else(bad)?;
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The repository root this binary was built from.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// Builds `repro` and `roofd` into this binary's target directory and
/// returns their paths.
fn build(release: &Path) -> Result<(PathBuf, PathBuf), String> {
    let target = release.parent().ok_or("binary has no target directory")?;
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "--offline",
            "--manifest-path",
        ])
        .arg(repo_root().join("Cargo.toml"))
        .args([
            "-p",
            "experiments",
            "--bin",
            "repro",
            "-p",
            "roofline-service",
            "--bin",
            "roofd",
        ])
        .arg("--target-dir")
        .arg(target)
        .status()
        .map_err(|e| format!("run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build of repro and roofd failed: {status}"));
    }
    Ok((release.join("repro"), release.join("roofd")))
}

fn run(args: &Args) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let release = exe.parent().ok_or("binary has no directory")?;
    let (repro, roofd) = build(release)?;
    let base = release
        .parent()
        .ok_or("binary has no target directory")?
        .join("perfbench");
    let work = base.join(format!("work-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let tracer = Tracer::new();
    let result = run_workload(args, &repro, &roofd, &base, &work, &tracer);
    let _ = std::fs::remove_dir_all(&work);
    if args.trace {
        let path =
            base.join("traces")
                .join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed));
        let written = std::fs::create_dir_all(path.parent().expect("traces dir"))
            .and_then(|()| std::fs::write(&path, tracer.to_jsonl()));
        match written {
            Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(e) => eprintln!(
                "perfbench: could not write spans to {}: {e}",
                path.display()
            ),
        }
    }
    result
}

/// Everything one run measured, before it is split into the end-to-end
/// and per-layer reports.
struct Measured {
    tally: Tally,
    invalid: Option<String>,
    e2e: Layer,
    layer: Layer,
}

fn run_workload(
    args: &Args,
    repro: &Path,
    roofd: &Path,
    base: &Path,
    work: &Path,
    tracer: &Tracer,
) -> Result<String, String> {
    let calib_ms = probes::calib_ms();
    eprintln!("perfbench: host.calib_ms = {calib_ms:.3} ms");
    let m = measure(args, repro, roofd, base, work, tracer, calib_ms)?;
    let correct = m.tally.failed == 0 && m.invalid.is_none();
    if let Some(why) = &m.invalid {
        eprintln!("perfbench: run invalid: {why}");
    }
    eprintln!(
        "perfbench: {} attempted, {} failed, correct={correct}",
        m.tally.attempted, m.tally.failed
    );
    let metrics = if args.trace { &m.layer } else { &m.e2e };
    let mut json = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number: {value}"));
        }
        eprintln!("perfbench: {name} = {value} {unit}");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        m.tally.attempted.max(1),
        m.tally.failed
    ))
}

fn measure(
    args: &Args,
    repro: &Path,
    roofd: &Path,
    base: &Path,
    work: &Path,
    tracer: &Tracer,
    calib_ms: f64,
) -> Result<Measured, String> {
    let workload = args.workload;
    let golden_root = repo_root().join("tests").join("golden");
    let mut tally = Tally::default();

    // The key set and the digest every reply for each key must carry,
    // and the never-seen keys with theirs.
    let (keys, expected) = match workload {
        Workload::SweepQuick => sweep::pinned_keys(&golden_root)?,
        Workload::RoofdHits => {
            let keys = load::hit_keys(HIT_KEYS);
            let t0 = Instant::now();
            let expected = load::reference_digests(&keys, work, &base.join("state"))?;
            eprintln!(
                "perfbench: reference digests of {} keys in {:.3} s",
                keys.len(),
                t0.elapsed().as_secs_f64()
            );
            (keys, expected)
        }
    };
    let fresh = load::fresh_keys(args.seed, MISSES);
    let fresh_expected = load::direct_digests(&fresh, work)?;

    // Cold fill: every key computes once, on an empty cache.
    let cache = work.join("cache");
    let _ = std::fs::remove_dir_all(&cache);
    let node = Node::start(roofd, &cache)?;
    let fill = load::fill(&node, &keys, &expected)?;
    tally.add(fill.tally);
    node.shutdown()?;
    eprintln!(
        "perfbench: cold fill of {} keys in {:.3} s",
        keys.len(),
        fill.wall_s
    );

    // Set-up, several times: start a node on the filled cache until it
    // accepts, then warm it with one pass over the keys.
    let mut setups = Vec::new();
    let mut live: Option<Node> = None;
    for _ in 0..SETUPS {
        if let Some(n) = live.take() {
            n.shutdown()?;
        }
        let t0 = Instant::now();
        let n = Node::start(roofd, &cache)?;
        tally.add(load::warm(&n, &keys, &expected)?);
        setups.push(t0.elapsed().as_secs_f64());
        live = Some(n);
    }
    let node = live.expect("at least one set-up");

    let before = node.stats()?;

    // A sweep workload: `repro` until `--seconds` have passed, at least
    // once, beside the idle node; then the node's serve-back.
    let mut sweep_wall = Vec::new();
    let mut sweep_rss = 0.0f64;
    if let Some(repro_args) = workload.repro_args() {
        let t0 = Instant::now();
        while sweep_wall.is_empty() || t0.elapsed().as_secs_f64() < args.seconds {
            let s = sweep::run_repro(repro, repro_args, &work.join("out"), &work.join("repro"))?;
            tally.add(sweep::check_cells(&s.tree, &golden_root)?);
            let digest = wire::tree_digest(&s.tree);
            eprintln!(
                "perfbench: sweep tree digest {digest:016x} in {:.3} s",
                s.wall_s
            );
            tally.add(sweep::check_digest(
                repro,
                &base.join("state"),
                workload.name(),
                digest,
            )?);
            sweep_wall.push(s.wall_s);
            sweep_rss = sweep_rss.max(s.peak_rss_mb);
        }
    }

    // The serving part. roofd_hits: a saturating closed loop, then
    // passes of the open-loop ladder, each until it passes the node's
    // capacity. A sweep's serve-back: the closed loop alone.
    let closed_s = match workload {
        Workload::RoofdHits => args.seconds * CLOSED_SHARE,
        Workload::SweepQuick => SERVE_BACK_S,
    };
    let (closed, windows) = load::closed_loop(&node, &keys, &expected, closed_s, args.seed)?;
    tally.add(closed.tally);
    let throughput = windows.median();
    eprintln!(
        "perfbench: closed loop: {}",
        windows.describe("window rate", "/s", 0.9)
    );
    let (hits, lag, sustained) = if workload == Workload::RoofdHits {
        let pass_s = (args.seconds - closed_s) / LADDER_PASSES as f64;
        let (mut knees, mut hits, mut lag) = (Vec::new(), Vec::new(), Vec::new());
        for pass in 0..LADDER_PASSES {
            let seed = args.seed ^ ((pass as u64) << 40);
            let rungs = load::ladder(&node, &keys, &expected, LADDER, pass_s, seed)?;
            let mut knee = 0.0;
            for (rate, rung) in &rungs {
                tally.add(rung.tally);
                lag.extend(rung.lag_ms.values());
                if rung.meets_limit() {
                    knee = rung.rate();
                    // Hit latency pools the rungs the node sustained.
                    hits.extend(rung.hit_ms.values());
                }
                eprintln!(
                    "perfbench: pass {pass} rung {rate:.0} rps: achieved {:.1} rps, backlog={}, {}",
                    rung.rate(),
                    rung.backlog,
                    rung.hit_ms.describe("hit", "ms", 0.99)
                );
            }
            knees.push(knee);
        }
        eprintln!("perfbench: ladder knees {knees:?} rps");
        (Samples::new(hits), Samples::new(lag), median(&knees))
    } else {
        // A closed loop runs at one rate: it sustained it if its hits met
        // the limit.
        let sustained = if closed.meets_limit() {
            throughput
        } else {
            0.0
        };
        (closed.hit_ms, closed.lag_ms, sustained)
    };
    // The serving node's peak, before it computes anything: after the
    // misses it read 2.3 MB higher in some runs than in others.
    let node_rss = node.peak_rss_mb()?;
    // The misses: never-seen keys, one at a time, each a compute, an LRU
    // insert and a disk spill.
    let misses = load::fill(&node, &fresh, &fresh_expected)?;
    tally.add(misses.tally);
    let computes = misses.compute_ms;
    let after = node.stats()?;
    // A node counter's change over serving and the misses.
    let counter = |name: &str| {
        let get = |s: &[(String, u64)]| s.iter().find(|(k, _)| k == name).map_or(0, |(_, v)| *v);
        get(&after).saturating_sub(get(&before)) as f64
    };
    let round_trips = if args.trace {
        Some(probes::round_trip_us(tracer, &node, &keys[0])?)
    } else {
        None
    };
    node.shutdown()?;

    eprintln!("perfbench: {}", hits.describe("hit", "ms", 0.99));
    eprintln!("perfbench: {}", computes.describe("compute", "ms", 0.9));
    let served = counter("mem_hits") + counter("disk_hits");
    eprintln!(
        "perfbench: hits served from memory {:.4}, from disk {:.4}",
        counter("mem_hits") / served.max(1.0),
        counter("disk_hits") / served.max(1.0)
    );
    eprintln!("perfbench: {}", lag.describe("generator lag", "ms", 0.99));
    let invalid = (lag.quantile(0.99) > LAG_LIMIT_MS).then(|| {
        format!(
            "the load generator ran {:.3} ms late at p99",
            lag.quantile(0.99)
        )
    });
    let (wall_s, peak_rss_mb) = match workload.repro_args() {
        Some(_) => (median(&sweep_wall), sweep_rss),
        None => (fill.wall_s, node_rss),
    };
    let e2e: Layer = vec![
        ("setup_s".into(), median(&setups), "s"),
        ("peak_rss_mb".into(), peak_rss_mb, "MiB"),
        ("wall_s".into(), wall_s, "s"),
    ];

    let mut layer = Layer::new();
    if args.trace {
        layer.extend(probes::simx86(tracer));
        layer.extend(probes::perfmon(tracer));
        layer.extend(probes::experiments(tracer, work, args.seed)?);
        let service = probes::service(tracer, &keys[0])?;
        layer.extend(service.layer);
        let rtt_us = round_trips.expect("round trips are measured when tracing");
        layer.push((
            "service.transport.us".into(),
            rtt_us - service.dispatch_us,
            "us",
        ));
        layer.push((
            "service.disk_load.us".into(),
            probes::disk_load_us(tracer, &cache, &keys)?,
            "us",
        ));
        let names = [
            "mem_hits",
            "disk_hits",
            "misses",
            "coalesced",
            "busy",
            "evictions",
            "timeouts",
        ];
        for name in names {
            layer.push((format!("service.{name}"), counter(name), "count"));
        }
        let answered = counter("mem_hits") + counter("disk_hits");
        let asked = answered + counter("misses") + counter("coalesced");
        layer.push((
            "service.hit_ratio".into(),
            if asked > 0.0 { answered / asked } else { 0.0 },
            "ratio",
        ));
        layer.push(("compute_p50_ms".into(), computes.median(), "ms"));
        layer.push(("compute_p90_ms".into(), computes.quantile(0.9), "ms"));
        layer.push(("throughput_rps".into(), throughput, "1/s"));
        layer.push(("sustained_rps".into(), sustained, "1/s"));
        layer.push(("hit_p50_ms".into(), hits.median(), "ms"));
        layer.push(("hit_p99_ms".into(), hits.quantile(0.99), "ms"));
        layer.push(("loadgen.lag_p99_ms".into(), lag.quantile(0.99), "ms"));
        layer.push(("host.calib_ms".into(), calib_ms, "ms"));
        layer.push((
            "trace.overhead_share".into(),
            service.overhead_share,
            "share",
        ));
        let share = tally.failed as f64 / tally.attempted.max(1) as f64;
        layer.push(("error_share".into(), share, "share"));
    }
    let _ = std::fs::remove_dir_all(&cache);
    Ok(Measured {
        tally,
        invalid,
        e2e,
        layer,
    })
}
