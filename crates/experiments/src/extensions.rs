//! Extension experiments beyond the paper's core set:
//!
//! * **E17** — two-socket NUMA execution: local vs. remote memory latency
//!   and bandwidth, correctly pinned vs. unpinned allocation (the
//!   `numactl` discipline the methodology demands for multi-socket runs).
//! * **E18** — cache-aware ("hierarchical") roofline: per-level bandwidth
//!   roofs from warm-sweep measurements, with cache-resident and
//!   DRAM-streaming kernels placed against their respective roofs,
//!   including the irregular-gather SpMV kernel.

use crate::output::{text_table, ExperimentOutput, Figure};
use crate::platforms::{config_by_name, machine_by_name, Fidelity};
use kernels::blas1::{Daxpy, Ddot};
use kernels::spmv::{Csr, Spmv};
use kernels::Kernel;
use perfmon::harness::{CacheProtocol, MeasureConfig, Measurer};
use perfmon::peaks::{measure_bandwidth_warm, measure_peak_compute, BwPattern, Mix};
use roofline_core::model::{BandwidthRoof, Ceiling, Roofline};
use roofline_core::plot::{ascii::render_ascii, svg::render_svg, PlotSpec};
use roofline_core::prelude::*;
use simx86::isa::{Precision, Reg, VecWidth};
use simx86::{Cpu, SlicedFn, ThreadProgram};

const W4: VecWidth = VecWidth::Y256;
const P: Precision = Precision::F64;

fn stream_program(
    buf: simx86::Buffer,
    lines: u64,
    slices: usize,
) -> SlicedFn<impl FnMut(&mut Cpu<'_>, usize)> {
    SlicedFn::new(slices, move |cpu: &mut Cpu<'_>, s| {
        let chunk = lines / slices as u64;
        for i in s as u64 * chunk..(s as u64 + 1) * chunk {
            cpu.load(Reg::new(0), buf.base() + i * 64, W4, P);
        }
    })
}

fn idle_program() -> SlicedFn<impl FnMut(&mut Cpu<'_>, usize)> {
    SlicedFn::new(1, |cpu: &mut Cpu<'_>, _| cpu.overhead(1))
}

/// Streams `lines` cache lines on the given cores, each from a buffer on
/// the given node, and returns the aggregate bandwidth in GB/s.
fn numa_stream_gbps(platform: &str, placements: &[(usize, usize)], lines: u64) -> f64 {
    let mut m = machine_by_name(platform);
    let max_core = placements.iter().map(|&(c, _)| c).max().unwrap();
    let mut bufs: Vec<Option<simx86::Buffer>> = vec![None; max_core + 1];
    for &(core, node) in placements {
        bufs[core] = Some(m.alloc_on(node, lines * 64));
    }
    let t0 = m.tsc();
    let programs: Vec<Box<dyn ThreadProgram + '_>> = (0..=max_core)
        .map(|core| match bufs[core] {
            Some(buf) => Box::new(stream_program(buf, lines, 16)) as Box<dyn ThreadProgram>,
            None => Box::new(idle_program()) as Box<dyn ThreadProgram>,
        })
        .collect();
    m.run_parallel(programs);
    let secs = (m.tsc() - t0) / m.tsc_hz();
    (placements.len() as u64 * lines * 64) as f64 / secs / 1e9
}

/// E17 — NUMA placement experiments on the two-socket platform.
pub fn run_e17(fidelity: Fidelity) -> ExperimentOutput {
    let platform = "snb-2s";
    let mut out = ExperimentOutput::new("E17", "Two-socket NUMA execution (snb-2s)".to_string());
    let cfg = config_by_name(platform);
    let lines = fidelity.scale(60_000, 12_000);

    // Latency: one cold load, local vs remote.
    let latency = |core: usize, node: usize| {
        let mut m = machine_by_name(platform);
        m.set_prefetch(false, false);
        let buf = m.alloc_on(node, 64);
        let t0 = m.tsc();
        m.run(core, |cpu| cpu.load(Reg::new(0), buf.base(), W4, P));
        m.tsc() - t0
    };
    let lat_local = latency(0, 0);
    let lat_remote = latency(0, 1);

    let scenarios: Vec<(&str, Vec<(usize, usize)>)> = vec![
        ("1 thread, local", vec![(0, 0)]),
        ("1 thread, remote", vec![(0, 1)]),
        ("2 threads, same socket+node", vec![(0, 0), (1, 0)]),
        ("2 threads, pinned (1/socket)", vec![(0, 0), (4, 1)]),
        ("2 threads, both on node 0", vec![(0, 0), (4, 0)]),
        (
            "8 threads, pinned",
            (0..8).map(|c| (c, if c < 4 { 0 } else { 1 })).collect(),
        ),
        ("8 threads, all on node 0", (0..8).map(|c| (c, 0)).collect(),),
    ];
    let mut rows = Vec::new();
    let mut results = Vec::new();
    for (name, placements) in &scenarios {
        let gbps = numa_stream_gbps(platform, placements, lines);
        rows.push(vec![
            name.to_string(),
            placements.len().to_string(),
            format!("{gbps:.2}"),
            format!("{:.1}%", gbps / (2.0 * cfg.dram_gbps) * 100.0),
        ]);
        results.push((name.to_string(), gbps));
    }
    out.tables.push(text_table(
        "streaming read bandwidth by placement",
        &["scenario", "threads", "GB/s", "of 2-socket peak"],
        &rows,
    ));
    out.finding(
        "remote latency penalty",
        format!(
            "{:.0} cycles ({:.0} local → {:.0} remote)",
            lat_remote - lat_local,
            lat_local,
            lat_remote
        ),
    );
    let get = |name: &str| results.iter().find(|(n, _)| n == name).unwrap().1;
    out.finding(
        "pinned 2-thread vs same-node 2-thread",
        format!(
            "{:.2}x",
            get("2 threads, pinned (1/socket)") / get("2 threads, same socket+node")
        ),
    );
    out.finding(
        "8-thread pinned vs unpinned",
        format!(
            "{:.2}x",
            get("8 threads, pinned") / get("8 threads, all on node 0")
        ),
    );
    out
}

/// Builds a cache-aware roofline for a platform: compute ceilings plus one
/// bandwidth roof per memory level (L1/L2/L3/DRAM), each measured with a
/// warm read sweep sized to the level.
pub fn cache_aware_roofline(platform: &str, fidelity: Fidelity) -> Roofline {
    let cfg = config_by_name(platform);
    let flops_target = fidelity.scale(200_000, 60_000);

    let mut builder = Roofline::builder(format!("{}-hier-1t", cfg.name))
        .frequency(Hertz::from_ghz(cfg.nominal_ghz));
    for (label, width, mix) in [
        ("AVX balanced", W4, Mix::Balanced),
        ("scalar balanced", VecWidth::Scalar, Mix::Balanced),
    ] {
        let mut m = machine_by_name(platform);
        let gf = measure_peak_compute(&mut m, width, P, mix, 1, flops_target);
        builder = builder.ceiling(Ceiling::new(
            label,
            FlopsPerCycle::new(gf.get() / cfg.nominal_ghz),
        ));
    }

    // One roof per level: working set at half the level's capacity (and
    // 4x L3 for DRAM), enough passes to amortize the priming.
    let levels: [(&str, u64); 4] = [
        ("L1", cfg.l1.size_bytes / 2),
        ("L2", cfg.l2.size_bytes / 2),
        ("L3", cfg.l3.size_bytes / 2),
        ("DRAM", 4 * cfg.l3.size_bytes),
    ];
    for (label, bytes) in levels {
        let passes = (16 * 1024 * 1024 / bytes).clamp(1, 256);
        let mut m = machine_by_name(platform);
        let bw = measure_bandwidth_warm(&mut m, BwPattern::Read, bytes, passes);
        builder = builder.roof(BandwidthRoof::new(label, bw));
    }
    builder.build().expect("hierarchical roofline is well-formed")
}

/// E18 — the hierarchical roofline figure with cache-resident `ddot`
/// points, a DRAM-streaming `daxpy`, and the irregular SpMV.
pub fn run_e18(platform: &str, fidelity: Fidelity) -> ExperimentOutput {
    let mut out = ExperimentOutput::new(
        "E18",
        format!("Cache-aware roofline with SpMV ({platform})"),
    );
    let model = cache_aware_roofline(platform, fidelity);

    let mut rows = Vec::new();
    for roof in model.roofs() {
        rows.push(vec![
            roof.name().to_string(),
            format!("{:.1}", roof.bandwidth().get()),
        ]);
    }
    out.tables.push(text_table(
        "per-level bandwidth roofs (read, warm)",
        &["level", "GB/s"],
        &rows,
    ));

    // Cache-resident ddot at sizes pinned to each level (warm), plus
    // streaming kernels (cold).
    let cfg = config_by_name(platform);
    let mut points = Vec::new();
    for (label, ws_bytes) in [
        ("ddot@L2", cfg.l2.size_bytes / 2),
        ("ddot@L3", cfg.l3.size_bytes / 2),
    ] {
        let n = ws_bytes / 16; // two vectors of 8 B elements
        let mut m = machine_by_name(platform);
        let k = Ddot::new(&mut m, n);
        let mcfg = MeasureConfig {
            protocol: CacheProtocol::Warm { priming_runs: 2 },
            ..MeasureConfig::default()
        };
        let mut measurer = Measurer::new(&mut m, mcfg);
        let r = measurer.measure(|cpu| k.emit(cpu));
        points.push((label.to_string(), r.to_measurement()));
    }
    {
        let n = fidelity.scale(1 << 20, 1 << 15);
        let mut m = machine_by_name(platform);
        let k = Daxpy::new(&mut m, n);
        let mut measurer = Measurer::new(&mut m, MeasureConfig::default());
        let r = measurer.measure(|cpu| k.emit(cpu));
        points.push(("daxpy@DRAM".to_string(), r.to_measurement()));
    }
    {
        let rows_ = fidelity.scale(1 << 14, 1 << 11) as usize;
        let cols = fidelity.scale(1 << 16, 1 << 13) as usize;
        let mut m = machine_by_name(platform);
        let a = Csr::random(rows_, cols, 8, 2024);
        let k = Spmv::new(&mut m, a);
        let mut measurer = Measurer::new(&mut m, MeasureConfig::default());
        let r = measurer.measure(|cpu| k.emit(cpu));
        points.push(("spmv".to_string(), r.to_measurement()));
    }

    let mut table_rows = Vec::new();
    let mut spec = PlotSpec::new(format!("E18 hierarchical roofline ({platform})"), model.clone());
    for (name, meas) in &points {
        let p = crate::points::point_from(name, meas, &model);
        table_rows.push(vec![
            name.clone(),
            format!("{:.4}", p.intensity().get()),
            format!("{:.3}", p.performance().get()),
        ]);
        spec = spec.point(p);
    }
    out.tables.push(text_table(
        "kernel positions",
        &["kernel", "I [f/B]", "P [GF/s]"],
        &table_rows,
    ));

    let mut fig = Figure::new(format!("e18_hier_{platform}"));
    fig.ascii = render_ascii(&spec, 76, 24).ok();
    fig.svg = render_svg(&spec, 900, 560).ok();
    out.figures.push(fig);

    out.finding(
        "roof ordering",
        format!(
            "L1 {:.0} > L2 {:.0} > L3 {:.0} > DRAM {:.0} GB/s",
            model.roof("L1").unwrap().bandwidth().get(),
            model.roof("L2").unwrap().bandwidth().get(),
            model.roof("L3").unwrap().bandwidth().get(),
            model.roof("DRAM").unwrap().bandwidth().get(),
        ),
    );
    let spmv_perf = points.last().unwrap().1.performance().get();
    out.finding("spmv performance", format!("{spmv_perf:.3} GF/s"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e17_pinning_matters() {
        let out = run_e17(Fidelity::Quick);
        let find = |k: &str| {
            out.findings
                .iter()
                .find(|(key, _)| key.contains(k))
                .unwrap()
                .1
                .clone()
        };
        let pinned_vs_same: f64 = find("pinned 2-thread")
            .trim_end_matches('x')
            .parse()
            .unwrap();
        assert!(
            pinned_vs_same > 1.5,
            "pinning across sockets should nearly double bandwidth: {pinned_vs_same}x"
        );
        let eight: f64 = find("8-thread").trim_end_matches('x').parse().unwrap();
        assert!(
            eight > 1.5,
            "8 pinned threads should beat node-0-only: {eight}x"
        );
        assert!(find("remote latency").contains("cycles"));
    }

    #[test]
    fn e18_roofs_ordered_and_points_present() {
        let out = run_e18("snb", Fidelity::Quick);
        let model = cache_aware_roofline("snb", Fidelity::Quick);
        let bw = |name: &str| model.roof(name).unwrap().bandwidth().get();
        assert!(bw("L1") > bw("L2"));
        assert!(bw("L2") > bw("L3"));
        assert!(bw("L3") > bw("DRAM"));
        let table = &out.tables[1];
        assert!(table.contains("spmv"), "{table}");
        assert!(table.contains("ddot@L2"), "{table}");
        assert!(out.figures[0].svg.is_some());
    }
}
