//! E10–E14: the kernel trajectory figures — each kernel swept over problem
//! size, plotted cold (and where instructive, warm) under the measured
//! single-thread roofline.

use crate::output::{text_table, ExperimentOutput, Figure};
use crate::platforms::{machine_by_name, roof_options, Fidelity};
use kernels::blas1::Daxpy;
use kernels::blas2::Dgemv;
use kernels::blas3::{DgemmBlocked, DgemmNaive};
use kernels::fft::Fft;
use kernels::wht::Wht;
use kernels::Kernel;
use perfmon::harness::{CacheProtocol, MeasureConfig, Measurer};
use perfmon::roofs::measured_roofline_with;
use roofline_core::model::Roofline;
use roofline_core::plot::{ascii::render_ascii, svg::render_svg, PlotSpec};
use roofline_core::prelude::*;

/// Sweeps a kernel constructor over sizes under a protocol, producing a
/// labelled trajectory.
pub fn sweep<K: Kernel>(
    platform: &str,
    label: &str,
    sizes: &[u64],
    protocol: CacheProtocol,
    build: impl Fn(&mut simx86::Machine, u64) -> K,
) -> Trajectory {
    let mut t = Trajectory::new(label);
    for &n in sizes {
        let mut m = machine_by_name(platform);
        let k = build(&mut m, n);
        let cfg = MeasureConfig {
            protocol,
            ..MeasureConfig::default()
        };
        let mut measurer = Measurer::new(&mut m, cfg);
        let r = measurer.measure(|cpu| k.emit(cpu));
        t.push(n, r.to_measurement());
    }
    t
}

fn single_thread_roofline(platform: &str, fidelity: Fidelity) -> Roofline {
    let mut m = machine_by_name(platform);
    measured_roofline_with(&mut m, 1, roof_options(fidelity))
}

fn trajectory_figure(
    out: &mut ExperimentOutput,
    name: &str,
    title: &str,
    roofline: Roofline,
    trajectories: Vec<Trajectory>,
) {
    let mut fig = Figure::new(name);
    let mut csv = String::new();
    for t in &trajectories {
        csv.push_str(&format!("# {}\n", t.name()));
        csv.push_str(&t.to_csv());
    }
    fig.csv = Some(csv);
    let mut spec = PlotSpec::new(title, roofline);
    for t in trajectories {
        spec = spec.trajectory(t);
    }
    fig.ascii = render_ascii(&spec, 72, 22).ok();
    fig.svg = render_svg(&spec, 860, 540).ok();
    out.figures.push(fig);
}

fn summarize_last(
    out: &mut ExperimentOutput,
    roofline: &Roofline,
    t: &Trajectory,
) {
    if let Some(tp) = t.points().last() {
        let name = format!("{}@{}", t.name(), tp.param);
        let point = crate::points::point_from(&name, &tp.measurement, roofline);
        out.finding(
            format!("{name} bound"),
            format!("{}", point.bound(roofline)),
        );
        out.finding(
            format!("{name} roof efficiency"),
            format!("{}", point.efficiency(roofline)),
        );
        out.finding(
            format!("{name} compute utilization"),
            format!("{}", point.compute_utilization(roofline)),
        );
    }
}

fn pow2_sizes(lo: u32, hi: u32, step: usize) -> Vec<u64> {
    (lo..=hi).step_by(step).map(|s| 1u64 << s).collect()
}

/// E10 — daxpy trajectory (cold and warm): the canonical bandwidth-bound
/// kernel riding the memory roof.
pub fn run_e10(platform: &str, fidelity: Fidelity) -> ExperimentOutput {
    let mut out = ExperimentOutput::new("E10", format!("daxpy trajectory ({platform})"));
    let sizes = match fidelity {
        Fidelity::Full => pow2_sizes(12, 22, 2),
        Fidelity::Quick => pow2_sizes(10, 16, 2),
    };
    let roofline = single_thread_roofline(platform, fidelity);
    let cold = sweep(platform, "daxpy cold", &sizes, CacheProtocol::Cold, Daxpy::new);
    let warm = sweep(
        platform,
        "daxpy warm",
        &sizes,
        CacheProtocol::Warm { priming_runs: 1 },
        Daxpy::new,
    );
    summarize_last(&mut out, &roofline, &cold);
    trajectory_figure(
        &mut out,
        &format!("e10_daxpy_{platform}"),
        &format!("E10 daxpy ({platform}, 1 thread)"),
        roofline,
        vec![cold, warm],
    );
    out
}

/// E11 — dgemv trajectory.
pub fn run_e11(platform: &str, fidelity: Fidelity) -> ExperimentOutput {
    let mut out = ExperimentOutput::new("E11", format!("dgemv trajectory ({platform})"));
    let sizes = match fidelity {
        Fidelity::Full => vec![64, 128, 256, 512, 1024, 2048],
        Fidelity::Quick => vec![32, 64, 128],
    };
    let roofline = single_thread_roofline(platform, fidelity);
    let cold = sweep(platform, "dgemv cold", &sizes, CacheProtocol::Cold, Dgemv::new);
    summarize_last(&mut out, &roofline, &cold);
    trajectory_figure(
        &mut out,
        &format!("e11_dgemv_{platform}"),
        &format!("E11 dgemv ({platform}, 1 thread)"),
        roofline,
        vec![cold],
    );
    out
}

/// E12 — dgemm naive vs blocked: the library-vs-reference contrast that
/// is the paper's flagship compute-bound result.
pub fn run_e12(platform: &str, fidelity: Fidelity) -> ExperimentOutput {
    let mut out = ExperimentOutput::new("E12", format!("dgemm trajectories ({platform})"));
    let sizes = match fidelity {
        Fidelity::Full => vec![16, 32, 64, 128, 192],
        Fidelity::Quick => vec![16, 32, 48],
    };
    let roofline = single_thread_roofline(platform, fidelity);
    let naive = sweep(
        platform,
        "dgemm naive",
        &sizes,
        CacheProtocol::Warm { priming_runs: 1 },
        DgemmNaive::new,
    );
    let blocked_sizes: Vec<u64> = sizes.iter().map(|&n| n.div_ceil(8) * 8).collect();
    let blocked = sweep(
        platform,
        "dgemm blocked",
        &blocked_sizes,
        CacheProtocol::Warm { priming_runs: 1 },
        DgemmBlocked::new,
    );
    // Utilization table at the largest size (warm runs can be fully
    // cache-resident, so build points via the zero-traffic-safe helper).
    let mut rows = Vec::new();
    for t in [&naive, &blocked] {
        if let Some(tp) = t.points().last() {
            let p = crate::points::point_from(t.name(), &tp.measurement, &roofline);
            rows.push(vec![
                p.name().to_string(),
                format!("{:.2}", p.performance().get()),
                format!("{}", p.compute_utilization(&roofline)),
                format!("{}", p.bound(&roofline)),
            ]);
        }
    }
    out.tables.push(text_table(
        "dgemm at largest size",
        &["kernel", "P [GF/s]", "utilization", "bound"],
        &rows,
    ));
    summarize_last(&mut out, &roofline, &blocked);
    summarize_last(&mut out, &roofline, &naive);
    trajectory_figure(
        &mut out,
        &format!("e12_dgemm_{platform}"),
        &format!("E12 dgemm naive vs blocked ({platform}, 1 thread)"),
        roofline,
        vec![naive, blocked],
    );
    out
}

/// E13 — FFT scalar vs vectorized trajectories.
pub fn run_e13(platform: &str, fidelity: Fidelity) -> ExperimentOutput {
    let mut out = ExperimentOutput::new("E13", format!("FFT trajectories ({platform})"));
    let sizes = match fidelity {
        Fidelity::Full => pow2_sizes(8, 18, 2),
        Fidelity::Quick => pow2_sizes(6, 12, 2),
    };
    let roofline = single_thread_roofline(platform, fidelity);
    let scalar = sweep(platform, "fft scalar", &sizes, CacheProtocol::Cold, |m, n| {
        Fft::new(m, n, false)
    });
    let vectorized = sweep(platform, "fft avx", &sizes, CacheProtocol::Cold, |m, n| {
        Fft::new(m, n, true)
    });
    summarize_last(&mut out, &roofline, &vectorized);
    summarize_last(&mut out, &roofline, &scalar);
    trajectory_figure(
        &mut out,
        &format!("e13_fft_{platform}"),
        &format!("E13 FFT ({platform}, 1 thread)"),
        roofline,
        vec![scalar, vectorized],
    );
    out
}

/// E14 — WHT scalar vs vectorized trajectories.
pub fn run_e14(platform: &str, fidelity: Fidelity) -> ExperimentOutput {
    let mut out = ExperimentOutput::new("E14", format!("WHT trajectories ({platform})"));
    let sizes = match fidelity {
        Fidelity::Full => pow2_sizes(8, 20, 2),
        Fidelity::Quick => pow2_sizes(6, 12, 2),
    };
    let roofline = single_thread_roofline(platform, fidelity);
    let scalar = sweep(platform, "wht scalar", &sizes, CacheProtocol::Cold, |m, n| {
        Wht::new(m, n, false)
    });
    let vectorized = sweep(platform, "wht avx", &sizes, CacheProtocol::Cold, |m, n| {
        Wht::new(m, n, true)
    });
    summarize_last(&mut out, &roofline, &vectorized);
    trajectory_figure(
        &mut out,
        &format!("e14_wht_{platform}"),
        &format!("E14 WHT ({platform}, 1 thread)"),
        roofline,
        vec![scalar, vectorized],
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn find<'a>(out: &'a ExperimentOutput, needle: &str) -> &'a str {
        out.findings
            .iter()
            .find(|(k, _)| k.contains(needle))
            .map(|(_, v)| v.as_str())
            .unwrap_or_else(|| panic!("missing finding `{needle}` in {:?}", out.findings))
    }

    #[test]
    fn e10_daxpy_is_memory_bound_near_roof() {
        let out = run_e10("snb", Fidelity::Quick);
        assert_eq!(find(&out, "bound"), "memory-bound");
        let eff: f64 = find(&out, "roof efficiency")
            .trim_end_matches('%')
            .parse()
            .unwrap();
        assert!(eff > 50.0, "daxpy should ride the roof, got {eff}%");
    }

    #[test]
    fn e12_blocked_beats_naive_by_large_factor() {
        let out = run_e12("snb", Fidelity::Quick);
        let table = &out.tables[0];
        let util = |name: &str| -> f64 {
            table
                .lines()
                .find(|l| l.contains(name))
                .and_then(|l| l.split_whitespace().nth(3))
                .and_then(|v| v.trim_end_matches('%').parse().ok())
                .unwrap_or_else(|| panic!("bad table:\n{table}"))
        };
        let naive = util("dgemm naive");
        let blocked = util("dgemm blocked");
        assert!(
            blocked > 3.0 * naive,
            "blocked {blocked}% vs naive {naive}%:\n{table}"
        );
        assert!(blocked > 50.0, "blocked should be near peak: {blocked}%");
    }

    #[test]
    fn e13_vectorized_fft_outperforms_scalar() {
        let out = run_e13("snb", Fidelity::Quick);
        // The vectorized variant's utilization finding comes first.
        let vec_util: f64 = out
            .findings
            .iter()
            .find(|(k, _)| k.contains("fft avx") && k.contains("utilization"))
            .map(|(_, v)| v.trim_end_matches('%').parse().unwrap())
            .unwrap();
        let scalar_util: f64 = out
            .findings
            .iter()
            .find(|(k, _)| k.contains("fft scalar") && k.contains("utilization"))
            .map(|(_, v)| v.trim_end_matches('%').parse().unwrap())
            .unwrap();
        assert!(
            vec_util > 1.5 * scalar_util,
            "avx {vec_util}% vs scalar {scalar_util}%"
        );
    }

    #[test]
    fn e14_wht_figures_render() {
        let out = run_e14("snb", Fidelity::Quick);
        assert_eq!(out.figures.len(), 1);
        let fig = &out.figures[0];
        assert!(fig.ascii.as_ref().unwrap().contains("wht"));
        assert!(fig.csv.as_ref().unwrap().contains("# wht scalar"));
    }

    #[test]
    fn e11_dgemv_low_intensity() {
        let out = run_e11("snb", Fidelity::Quick);
        assert_eq!(find(&out, "bound"), "memory-bound");
    }
}
