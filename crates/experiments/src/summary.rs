//! E16 — the headline figure: every kernel at a representative size on one
//! measured roofline per platform.

use crate::output::{text_table, ExperimentOutput, Figure};
use crate::platforms::{machine_by_name, roof_options, Fidelity};
use kernels::blas1::{Daxpy, Triad};
use kernels::blas2::Dgemv;
use kernels::blas3::{DgemmBlocked, DgemmNaive};
use kernels::fft::Fft;
use kernels::wht::Wht;
use kernels::Kernel;
use perfmon::harness::{CacheProtocol, MeasureConfig, Measurer};
use perfmon::roofs::measured_roofline_with;
use roofline_core::plot::{ascii::render_ascii, svg::render_svg, PlotSpec};
use roofline_core::point::Measurement;
use roofline_core::prelude::*;

fn measure_of<K: Kernel>(
    platform: &str,
    protocol: CacheProtocol,
    build: impl FnOnce(&mut simx86::Machine) -> K,
) -> (String, Measurement) {
    let mut m = machine_by_name(platform);
    let k = build(&mut m);
    let cfg = MeasureConfig {
        protocol,
        ..MeasureConfig::default()
    };
    let mut measurer = Measurer::new(&mut m, cfg);
    let r = measurer.measure(|cpu| k.emit(cpu));
    (k.name(), r.to_measurement())
}

/// E16 — all kernels on one plot for `platform`.
pub fn run_e16(platform: &str, fidelity: Fidelity) -> ExperimentOutput {
    let mut out = ExperimentOutput::new("E16", format!("Roofline summary ({platform})"));
    let stream_n = fidelity.scale(1 << 20, 1 << 14);
    let gemv_n = fidelity.scale(1024, 96);
    let gemm_n = fidelity.scale(160, 32);
    let fft_n = fidelity.scale(1 << 16, 1 << 10);

    let cold = CacheProtocol::Cold;
    let warm = CacheProtocol::Warm { priming_runs: 1 };
    let measurements = [measure_of(platform, cold, |m| Daxpy::new(m, stream_n)),
        measure_of(platform, cold, |m| Triad::new(m, stream_n, false)),
        measure_of(platform, cold, |m| Dgemv::new(m, gemv_n)),
        measure_of(platform, warm, |m| DgemmNaive::new(m, gemm_n)),
        measure_of(platform, warm, |m| DgemmBlocked::new(m, gemm_n)),
        measure_of(platform, cold, |m| Fft::new(m, fft_n, true)),
        measure_of(platform, cold, |m| Wht::new(m, fft_n, true))];

    let mut rm = machine_by_name(platform);
    let roofline = measured_roofline_with(&mut rm, 1, roof_options(fidelity));
    let points: Vec<KernelPoint> = measurements
        .iter()
        .map(|(name, m)| crate::points::point_from(name, m, &roofline))
        .collect();

    let mut rows = Vec::new();
    for p in &points {
        rows.push(vec![
            p.name().to_string(),
            format!("{:.4}", p.intensity().get()),
            format!("{:.3}", p.performance().get()),
            format!("{}", p.bound(&roofline)),
            format!("{}", p.efficiency(&roofline)),
            format!("{}", p.compute_utilization(&roofline)),
        ]);
    }
    out.tables.push(text_table(
        "kernel positions",
        &["kernel", "I [f/B]", "P [GF/s]", "bound", "roof eff", "peak util"],
        &rows,
    ));

    let mut spec = PlotSpec::new(format!("E16 summary ({platform}, 1 thread)"), roofline.clone());
    for p in points.clone() {
        spec = spec.point(p);
    }
    let mut fig = Figure::new(format!("e16_summary_{platform}"));
    fig.ascii = render_ascii(&spec, 78, 24).ok();
    fig.svg = render_svg(&spec, 900, 560).ok();
    let mut csv = String::from("kernel,intensity,gflops\n");
    for p in &points {
        csv.push_str(&format!(
            "{},{:.6},{:.6}\n",
            p.name(),
            p.intensity().get(),
            p.performance().get()
        ));
    }
    fig.csv = Some(csv);
    out.figures.push(fig);

    out.finding("ridge", format!("{}", roofline.ridge().intensity()));
    out.finding(
        "ordering",
        "streams on the roof left of the ridge; blocked dgemm at the ceiling right of it",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e16_kernel_ordering_matches_paper_shape() {
        let out = run_e16("snb", Fidelity::Quick);
        let table = &out.tables[0];
        // Streams are memory-bound, blocked dgemm compute-bound.
        let line = |name: &str| {
            table
                .lines()
                .find(|l| l.trim_start().starts_with(name))
                .unwrap_or_else(|| panic!("no {name} in\n{table}"))
                .to_string()
        };
        assert!(line("daxpy").contains("memory-bound"));
        assert!(line("triad ").contains("memory-bound") || line("triad").contains("memory-bound"));
        assert!(line("dgemm-blocked").contains("compute-bound"));
        assert_eq!(out.figures.len(), 1);
        assert!(out.figures[0].svg.is_some());
        assert!(out.figures[0].csv.as_ref().unwrap().contains("dgemm-naive"));
    }
}
