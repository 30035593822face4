//! E15 — multithreaded scaling: a compute-bound and a bandwidth-bound
//! kernel at 1/2/N threads under the matching per-thread-count rooflines.

use crate::output::{text_table, ExperimentOutput, Figure};
use crate::platforms::{config_by_name, machine_by_name, roof_options, Fidelity};
use kernels::blas1::Triad;
use kernels::blas3::DgemmBlocked;
use kernels::Kernel;
use perfmon::harness::{MeasureConfig, Measurer};
use perfmon::roofs::measured_roofline_with;
use roofline_core::plot::{ascii::render_ascii, svg::render_svg, PlotSpec};
use roofline_core::prelude::*;

fn measure_mt<K: Kernel + Sync>(
    platform: &str,
    threads: usize,
    protocol: perfmon::harness::CacheProtocol,
    build: impl Fn(&mut simx86::Machine) -> K,
) -> Measurement {
    let mut m = machine_by_name(platform);
    // One kernel instance per thread, each with its own buffers.
    let instances: Vec<K> = (0..threads).map(|_| build(&mut m)).collect();
    let instances = &instances;
    let slices = 16usize;
    let cfg = MeasureConfig {
        protocol,
        ..MeasureConfig::default()
    };
    let mut measurer = Measurer::new(&mut m, cfg);
    let r = measurer.measure_parallel(threads, slices, |t, cpu, s| {
        instances[t].emit_chunk(cpu, s as u64, slices as u64);
    });
    r.to_measurement()
}

/// E15 — the scaling table and figure.
pub fn run_e15(platform: &str, fidelity: Fidelity) -> ExperimentOutput {
    let mut out = ExperimentOutput::new("E15", format!("Multithreaded scaling ({platform})"));
    let cores = config_by_name(platform).cores;
    let thread_counts: Vec<usize> = [1usize, 2, cores]
        .into_iter()
        .filter(|&t| t <= cores)
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();

    let gemm_n = fidelity.scale(128, 64);
    let triad_n = fidelity.scale(1 << 20, 1 << 15);

    let mut rows = Vec::new();
    let mut figure_points: Vec<(usize, String, Measurement)> = Vec::new();
    let mut base: Option<(f64, f64)> = None;
    for &threads in &thread_counts {
        // Warm dgemm (compute-bound steady state); cold triad (DRAM-bound).
        let gemm = measure_mt(
            platform,
            threads,
            perfmon::harness::CacheProtocol::Warm { priming_runs: 1 },
            |m| DgemmBlocked::new(m, gemm_n),
        );
        let triad = measure_mt(
            platform,
            threads,
            perfmon::harness::CacheProtocol::Cold,
            |m| Triad::new(m, triad_n, false),
        );
        let g = gemm.performance().get();
        let t = triad.performance().get();
        let (g1, t1) = *base.get_or_insert((g, t));
        rows.push(vec![
            threads.to_string(),
            format!("{g:.2}"),
            format!("{:.2}x", g / g1),
            format!("{t:.3}"),
            format!("{:.2}x", t / t1),
        ]);
        figure_points.push((threads, format!("dgemm {threads}t"), gemm));
        figure_points.push((threads, format!("triad {threads}t"), triad));
    }
    out.tables.push(text_table(
        "scaling (P in GF/s; speedup vs 1 thread)",
        &["threads", "dgemm P", "dgemm spd", "triad P", "triad spd"],
        &rows,
    ));

    // Findings: compute kernel scales ~linearly; bandwidth kernel saturates.
    let gemm_last: f64 = rows.last().unwrap()[2].trim_end_matches('x').parse().unwrap();
    let triad_last: f64 = rows.last().unwrap()[4].trim_end_matches('x').parse().unwrap();
    let max_threads = *thread_counts.last().unwrap();
    out.finding(
        format!("dgemm speedup at {max_threads} threads"),
        format!("{gemm_last:.2}x"),
    );
    out.finding(
        format!("triad speedup at {max_threads} threads"),
        format!("{triad_last:.2}x"),
    );

    // Figure: points under the all-cores roofline.
    let mut rm = machine_by_name(platform);
    let roofline = measured_roofline_with(&mut rm, max_threads, roof_options(fidelity));
    let mut spec = PlotSpec::new(
        format!("E15 multithreaded scaling ({platform}, {max_threads}-thread roofs)"),
        roofline,
    );
    for (_, name, m) in &figure_points {
        let point = crate::points::point_from(name, m, spec.roofline());
        spec = spec.point(point);
    }
    let mut fig = Figure::new(format!("e15_mt_{platform}"));
    fig.ascii = render_ascii(&spec, 72, 22).ok();
    fig.svg = render_svg(&spec, 860, 540).ok();
    out.figures.push(fig);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e15_compute_scales_bandwidth_saturates() {
        let out = run_e15("snb", Fidelity::Quick);
        let gemm: f64 = out
            .findings
            .iter()
            .find(|(k, _)| k.starts_with("dgemm"))
            .unwrap()
            .1
            .trim_end_matches('x')
            .parse()
            .unwrap();
        let triad: f64 = out
            .findings
            .iter()
            .find(|(k, _)| k.starts_with("triad"))
            .unwrap()
            .1
            .trim_end_matches('x')
            .parse()
            .unwrap();
        assert!(gemm > 3.0, "dgemm should scale ~linearly to 4 cores: {gemm}x");
        assert!(
            triad < gemm * 0.75,
            "triad ({triad}x) should saturate well below dgemm ({gemm}x)"
        );
    }
}
