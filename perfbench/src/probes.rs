//! Per-layer probes for the traced run: spans recorded here, in the
//! benchmark's own code, around calls into the public functions of
//! `simx86`, `perfmon`, `experiments`, `roofline_service` and
//! `roofline_core`. Each probe is repeated and reported as the median
//! over its spans.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use bench::harness::{
    bench_dram_stream, bench_dram_stream_noprefetch, bench_fp_ports, bench_frontend_only,
    bench_l1_hit_stream, bench_store_stream, MicroResult,
};
use experiments::platforms::machine_by_name;
use experiments::registry::run_experiment;
use experiments::sweep::{run_one, run_sweep_with, SweepConfig};
use experiments::{Experiment, Fidelity};
use perfmon::peaks::{measure_bandwidth, BwPattern};
use perfmon::{measured_roofline, MeasureConfig, Measurer};
use roofline_core::json::{Envelope, Json};
use roofline_service::cache::{CacheKey, DiskStore};
use roofline_service::engine::{Engine, EngineConfig, Outcome, Request};
use roofline_service::protocol::dispatch_line;
use simx86::config::sandy_bridge;
use simx86::isa::{Precision, Reg, VecWidth};
use simx86::{Machine, SlicedFn, ThreadProgram};

use crate::load::Key;
use crate::stats::median;
use crate::trace::Tracer;
use crate::wire::{request_line, Conn};

/// Repetitions of every simulator and perfmon probe.
const REPS: usize = 5;
/// Calls per timed batch of the sub-microsecond service probes.
const BATCH: usize = 200;
/// Batches per service probe.
const BATCHES: usize = 15;

const W: VecWidth = VecWidth::Y256;
const P: Precision = Precision::F64;

/// `(metric name, value, unit)` triples, in report order.
pub type Layer = Vec<(String, f64, &'static str)>;

/// A fixed host loop timed in this process: the yardstick that lets
/// numbers from different machines be compared. Median of five, in ms.
pub fn calib_ms() -> f64 {
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let mut x = black_box(0x2545_f491_4f6c_dd1du64);
            for _ in 0..20_000_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            black_box(x);
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

/// The simulator: the harness bodies of `bench::harness`, plus a
/// two-core stream through `run_parallel` and a dirty-cache flush.
pub fn simx86(t: &Tracer) -> Layer {
    type Body = fn(u64) -> MicroResult;
    let micro: [(&str, Body, u64); 6] = [
        ("dram_stream", bench_dram_stream, 400_000),
        (
            "dram_stream_noprefetch",
            bench_dram_stream_noprefetch,
            200_000,
        ),
        ("store_stream", bench_store_stream, 400_000),
        ("l1_hit", bench_l1_hit_stream, 4_000_000),
        ("fp_ports", bench_fp_ports, 400_000_000),
        ("frontend", bench_frontend_only, 400_000_000),
    ];
    let mut out = Layer::new();
    for (id, body, ops) in micro {
        let name = format!("simx86.{id}");
        let ns: Vec<f64> = (0..REPS)
            .map(|_| t.span(&name, || 1e3 / body(ops).mops_per_s))
            .collect();
        out.push((format!("{name}.ns_per_op"), median(&ns), "ns"));
    }
    let ns: Vec<f64> = (0..REPS)
        .map(|_| t.span("simx86.parallel_stream", || parallel_stream_ns(200_000)))
        .collect();
    out.push(("simx86.parallel_stream.ns_per_op".into(), median(&ns), "ns"));
    let ms: Vec<f64> = (0..REPS).map(|_| flush_ms(t)).collect();
    out.push(("simx86.flush_caches.ms".into(), median(&ms), "ms"));
    out
}

/// Two cores each streaming `per_core` cold loads through
/// `Machine::run_parallel`; wall ns per simulated load.
fn parallel_stream_ns(per_core: u64) -> f64 {
    const SLICES: u64 = 16;
    let mut m = Machine::new(sandy_bridge());
    let bufs = [m.alloc(per_core * 32), m.alloc(per_core * 32)];
    let chunk = per_core / SLICES;
    let programs: Vec<Box<dyn ThreadProgram + '_>> = bufs
        .iter()
        .map(|&buf| {
            Box::new(SlicedFn::new(SLICES as usize, move |cpu, s| {
                cpu.load_run(Reg::new(0), buf.at(s as u64 * chunk * 32), 32, W, P, chunk);
            })) as Box<dyn ThreadProgram>
        })
        .collect();
    let t0 = Instant::now();
    m.run_parallel(programs);
    t0.elapsed().as_secs_f64() * 1e9 / (2 * chunk * SLICES) as f64
}

/// Dirties the whole hierarchy with a store stream, then times the
/// flush the cold-cache protocol performs before every repetition.
fn flush_ms(t: &Tracer) -> f64 {
    let mut m = Machine::new(sandy_bridge());
    let buf = m.alloc(24 << 20);
    m.run(0, |cpu| {
        cpu.store_run(Reg::new(8), buf.at(0), 32, W, P, (24 << 20) / 32)
    });
    t.span("simx86.flush_caches", || {
        let t0 = Instant::now();
        m.flush_caches();
        t0.elapsed().as_secs_f64() * 1e3
    })
}

/// The measurement protocol: harness overhead over a bare run, the
/// measured roofline on one socket and on two, and one bandwidth pass.
pub fn perfmon(t: &Tracer) -> Layer {
    let n = 64 * 1024;
    let region = |buf: simx86::Buffer| {
        move |cpu: &mut simx86::Cpu<'_>| cpu.load_run(Reg::new(0), buf.at(0), 32, W, P, n)
    };
    let ratios: Vec<f64> = (0..REPS)
        .map(|_| {
            let mut m = Machine::new(sandy_bridge());
            let buf = m.alloc(n * 32);
            let bare = t.span("perfmon.bare_run", || {
                let t0 = Instant::now();
                m.flush_caches();
                m.run(0, region(buf));
                t0.elapsed().as_secs_f64()
            });
            let measured = t.span("perfmon.measure", || {
                let t0 = Instant::now();
                black_box(Measurer::new(&mut m, MeasureConfig::default()).measure(region(buf)));
                t0.elapsed().as_secs_f64()
            });
            measured / bare
        })
        .collect();
    let secs = |name: &str, body: &dyn Fn()| -> f64 {
        let s: Vec<f64> = (0..REPS)
            .map(|_| {
                t.span(name, || {
                    let t0 = Instant::now();
                    body();
                    t0.elapsed().as_secs_f64()
                })
            })
            .collect();
        median(&s)
    };
    let roofline = secs("perfmon.roofline", &|| {
        black_box(measured_roofline(&mut machine_by_name("snb"), 1));
    });
    let numa = secs("perfmon.roofline_numa", &|| {
        let mut m = machine_by_name("snb-2s");
        let cores = m.config().cores;
        black_box(measured_roofline(&mut m, cores));
    });
    let bandwidth = secs("perfmon.bandwidth", &|| {
        black_box(measure_bandwidth(
            &mut machine_by_name("snb"),
            BwPattern::Triad,
            1,
            4 << 20,
        ));
    });
    vec![
        (
            "perfmon.measure.overhead_ratio".into(),
            median(&ratios),
            "ratio",
        ),
        ("perfmon.roofline.s".into(), roofline, "s"),
        ("perfmon.roofline_numa.s".into(), numa, "s"),
        ("perfmon.bandwidth.s".into(), bandwidth, "s"),
    ]
}

/// The experiment layer: one serial quick sweep of every experiment
/// in-process, writing artifacts, with a span around each
/// `run_experiment`; plus `run_one` on never-seen fault-suffix keys.
pub fn experiments(t: &Tracer, work: &Path, seed: u64) -> Result<Layer, String> {
    let mut config = SweepConfig::new(Experiment::ALL.to_vec(), "snb", Fidelity::Quick);
    let out_dir = work.join("probe-sweep");
    config.out_dir = Some(out_dir.clone());
    t.span("experiments.sweep", || {
        let parent = t.current();
        run_sweep_with(&config, |e, p, f| {
            t.span_in(parent, &format!("experiments.{}", e.id()), || {
                run_experiment(e, p, f)
            })
        })
    })
    .map_err(|e| format!("probe sweep: {e}"))?;
    let _ = std::fs::remove_dir_all(&out_dir);
    // What the sweep span spends outside `run_experiment`: staging the
    // artifacts, committing them, and writing the manifest.
    let write_s = t.self_secs(&t.spans_named("experiments.sweep")[0]);
    let each = |e: Experiment| t.durations(&format!("experiments.{}", e.id())).median();
    let pinned = [
        Experiment::E4,
        Experiment::E6,
        Experiment::E12,
        Experiment::E13,
    ];
    let all: f64 = Experiment::ALL.iter().map(|&e| each(e)).sum();
    let other = all - pinned.iter().map(|&e| each(e)).sum::<f64>();
    let mut out: Layer = pinned
        .iter()
        .map(|&e| (format!("experiments.{}.s", e.id()), each(e), "s"))
        .collect();
    out.push(("experiments.other.s".into(), other, "s"));
    out.push(("experiments.write.s".into(), write_s, "s"));

    let scratch = work.join("probe-run-one");
    let ms: Vec<f64> = (0..10u64)
        .map(|k| {
            let platform = format!("snb+drift=0.05,seed={}", 900_000_000 + seed % 1000 * 10 + k);
            t.span("experiments.run_one", || {
                let t0 = Instant::now();
                let done = run_one(Experiment::E11, &platform, Fidelity::Quick, &scratch);
                let took = t0.elapsed().as_secs_f64() * 1e3;
                done.map(|_| took).map_err(|e| format!("run_one: {e}"))
            })
        })
        .collect::<Result<_, _>>()?;
    let _ = std::fs::remove_dir_all(&scratch);
    out.push(("experiments.run_one.ms".into(), median(&ms), "ms"));
    Ok(out)
}

/// Median microseconds per call of `body`, timed in batches of
/// [`BATCH`] calls, one span per batch.
fn per_call_us(t: &Tracer, name: &str, mut body: impl FnMut()) -> f64 {
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            t.span(name, || {
                let t0 = Instant::now();
                for _ in 0..BATCH {
                    body();
                }
                t0.elapsed().as_secs_f64() * 1e6 / BATCH as f64
            })
        })
        .collect();
    median(&batches)
}

/// The in-process serving path for the workload's hottest key: a
/// memory-tier `Engine::submit`, `protocol::dispatch_line`, and the
/// envelope parse and serialize of `core::json`. Also returns the
/// tracing overhead: the same submits with one span each over bare.
pub struct ServiceProbe {
    pub layer: Layer,
    pub dispatch_us: f64,
    pub overhead_share: f64,
}

pub fn service(t: &Tracer, hot: &Key) -> Result<ServiceProbe, String> {
    let engine = Engine::new(EngineConfig {
        cache_dir: None,
        ..EngineConfig::default()
    });
    let req = Request::new(hot.experiment, hot.platform.clone(), hot.fidelity);
    let submit = || match engine.submit(&req) {
        Outcome::Done(done) => black_box(done),
        other => panic!("in-process submit of {} gave {other:?}", hot.label()),
    };
    let source = submit().source;
    if source.as_str() != "computed" {
        return Err(format!("first in-process submit was {}", source.as_str()));
    }
    let submit_us = per_call_us(t, "service.submit", || {
        submit();
    });
    let line = Envelope::new("run")
        .field("experiment", Json::str(hot.experiment.id()))
        .field("platform", Json::str(&hot.platform))
        .field("fidelity", Json::str(hot.fidelity.label()))
        .to_line();
    let dispatch_us = per_call_us(t, "service.dispatch", || {
        black_box(dispatch_line(&engine, &line));
    });
    let reply = dispatch_line(&engine, &line).to_line();
    let json_us = per_call_us(t, "core.json", || {
        let env = Envelope::parse_line(&reply).expect("a served reply parses");
        black_box(env.to_line());
    });

    // Tracing overhead: alternate bare batches with batches that open
    // one span per submit.
    let (mut bare, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..BATCHES {
        let t0 = Instant::now();
        for _ in 0..BATCH {
            submit();
        }
        bare.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        for _ in 0..BATCH {
            t.span("trace.overhead.submit", submit);
        }
        traced.push(t0.elapsed().as_secs_f64());
    }
    Ok(ServiceProbe {
        layer: vec![
            ("service.submit.us".into(), submit_us, "us"),
            ("service.dispatch.us".into(), dispatch_us, "us"),
            ("core.json.us".into(), json_us, "us"),
        ],
        dispatch_us,
        overhead_share: median(&traced) / median(&bare) - 1.0,
    })
}

/// Median round trip of a memory-tier hit against the live node, in µs.
pub fn round_trip_us(t: &Tracer, node: &crate::node::Node, hot: &Key) -> Result<f64, String> {
    let mut conn = Conn::connect(&node.addr)?;
    let request = request_line(hot);
    let mut us = Vec::new();
    for _ in 0..500 {
        let took = t.span("service.round_trip", || {
            let t0 = Instant::now();
            let reply = conn.round_trip(&request)?;
            let took = t0.elapsed().as_secs_f64() * 1e6;
            reply
                .digest()
                .map(|_| took)
                .ok_or("round trip got no result".to_string())
        });
        us.push(took?);
    }
    Ok(median(&us))
}

/// `DiskStore::load` of every key from a stopped node's cache directory,
/// median µs.
pub fn disk_load_us(t: &Tracer, cache_dir: &Path, keys: &[Key]) -> Result<f64, String> {
    let store = DiskStore::new(cache_dir);
    let us: Vec<f64> = keys
        .iter()
        .map(|k| {
            let key = CacheKey::new(k.experiment, &k.platform, k.fidelity);
            t.span("service.disk_load", || {
                let t0 = Instant::now();
                let hit = store.load(&key).is_some();
                let took = t0.elapsed().as_secs_f64() * 1e6;
                hit.then_some(took)
                    .ok_or_else(|| format!("no disk entry for {}", k.label()))
            })
        })
        .collect::<Result<_, _>>()?;
    Ok(median(&us))
}
