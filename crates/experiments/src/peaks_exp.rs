//! E3 (measured compute ceilings) and E4 (measured bandwidth roofs).

use crate::output::{text_table, ExperimentOutput, Figure};
use crate::platforms::{config_by_name, machine_by_name, Fidelity};
use perfmon::peaks::{
    measure_bandwidth, measure_bandwidth_warm, measure_peak_compute, BwPattern, Mix,
};
use perfmon::roofs::measured_roofline;
use roofline_core::plot::{ascii::render_ascii, svg::render_svg, PlotSpec};
use simx86::isa::{Precision, VecWidth};

const P: Precision = Precision::F64;

/// E3 — measured peak compute for every width × mix × thread count,
/// against the theoretical port limit, plus the resulting ceiling-stack
/// roofline figure.
pub fn run_e3(platform: &str, fidelity: Fidelity) -> ExperimentOutput {
    let mut out = ExperimentOutput::new("E3", format!("Measured compute ceilings ({platform})"));
    let flops_target = fidelity.scale(400_000, 60_000);
    let cfg = config_by_name(platform);
    let thread_counts = [1usize, cfg.cores];

    let mut rows = Vec::new();
    for &threads in &thread_counts {
        for width in VecWidth::ALL {
            for mix in [Mix::AddOnly, Mix::MulOnly, Mix::Balanced, Mix::Fma] {
                if mix == Mix::Fma && !cfg.fp.has_fma {
                    continue;
                }
                let mut m = machine_by_name(platform);
                let gf =
                    measure_peak_compute(&mut m, width, P, mix, threads, flops_target).get();
                let theory = theoretical_gflops(&cfg, width, mix, threads);
                rows.push(vec![
                    threads.to_string(),
                    width.to_string(),
                    mix.name().to_string(),
                    format!("{gf:.2}"),
                    format!("{theory:.2}"),
                    format!("{:.1}%", gf / theory * 100.0),
                ]);
            }
        }
    }
    out.tables.push(text_table(
        "peak compute (GF/s, double)",
        &["threads", "width", "mix", "measured", "theory", "eff"],
        &rows,
    ));

    // Ceiling-stack figure: the measured roofline with no kernel points.
    let mut m = machine_by_name(platform);
    let roofline = measured_roofline(&mut m, 1);
    out.finding("1-thread peak", format!("{}", roofline.peak_compute()));
    out.finding("1-thread ridge", format!("{}", roofline.ridge().intensity()));
    let spec = PlotSpec::new(format!("E3 ceilings ({platform}, 1 thread)"), roofline);
    let mut fig = Figure::new(format!("e3_ceilings_{platform}"));
    fig.ascii = render_ascii(&spec, 72, 22).ok();
    fig.svg = render_svg(&spec, 860, 540).ok();
    out.figures.push(fig);
    out
}

fn theoretical_gflops(
    cfg: &simx86::MachineConfig,
    width: VecWidth,
    mix: Mix,
    threads: usize,
) -> f64 {
    let lanes = width.lanes(P) as f64;
    let per_cycle = match mix {
        Mix::AddOnly => cfg.fp.add_ports as f64 * lanes,
        Mix::MulOnly => cfg.fp.mul_ports.max(cfg.fp.fma_ports) as f64 * lanes,
        Mix::Balanced => {
            if cfg.fp.has_fma {
                // Adds and muls both go to the FMA ports.
                cfg.fp.fma_ports as f64 * lanes
            } else {
                (cfg.fp.add_ports + cfg.fp.mul_ports) as f64 * lanes
            }
        }
        Mix::Fma => cfg.fp.fma_ports as f64 * lanes * 2.0,
    };
    per_cycle * cfg.nominal_ghz * threads as f64
}

/// E4 — bandwidth vs. working-set size (the cache staircase) and the
/// DRAM-regime roof table per pattern and thread count.
pub fn run_e4(platform: &str, fidelity: Fidelity) -> ExperimentOutput {
    let mut out = ExperimentOutput::new("E4", format!("Measured memory bandwidth ({platform})"));
    let cfg = config_by_name(platform);

    // Size sweep with warm passes: shows L1/L2/L3/DRAM plateaus.
    let sizes: Vec<u64> = {
        let max_shift = if fidelity == Fidelity::Full { 26 } else { 22 };
        (12..=max_shift).map(|s| 1u64 << s).collect()
    };
    let mut csv = String::from("bytes,read_gbps,copy_gbps,triad_gbps\n");
    let mut staircase_rows = Vec::new();
    for &bytes in &sizes {
        let passes = (16 * 1024 * 1024 / bytes).clamp(1, 64);
        let mut vals = Vec::new();
        for pattern in [BwPattern::Read, BwPattern::Copy, BwPattern::Triad] {
            let mut m = machine_by_name(platform);
            vals.push(measure_bandwidth_warm(&mut m, pattern, bytes, passes).get());
        }
        csv.push_str(&format!(
            "{bytes},{:.3},{:.3},{:.3}\n",
            vals[0], vals[1], vals[2]
        ));
        staircase_rows.push(vec![
            human_bytes(bytes),
            format!("{:.1}", vals[0]),
            format!("{:.1}", vals[1]),
            format!("{:.1}", vals[2]),
        ]);
    }
    out.tables.push(text_table(
        "warm bandwidth vs working set (GB/s)",
        &["size", "read", "copy", "triad"],
        &staircase_rows,
    ));
    let mut fig = Figure::new(format!("e4_staircase_{platform}"));
    fig.csv = Some(csv);
    out.figures.push(fig);

    // DRAM-regime roofs per pattern × threads, cold, single pass.
    let dram_bytes = 4 * cfg.l3.size_bytes;
    let mut rows = Vec::new();
    for &threads in &[1usize, cfg.cores] {
        for pattern in BwPattern::ALL {
            let mut m = machine_by_name(platform);
            let bw = measure_bandwidth(&mut m, pattern, threads, dram_bytes / threads as u64);
            rows.push(vec![
                threads.to_string(),
                pattern.name().to_string(),
                format!("{:.2}", bw.get()),
                format!("{:.1}%", bw.get() / cfg.dram_gbps * 100.0),
            ]);
        }
    }
    out.tables.push(text_table(
        "DRAM-regime bandwidth (GB/s)",
        &["threads", "pattern", "measured", "of IMC peak"],
        &rows,
    ));
    out.finding("IMC peak", format!("{:.1} GB/s", cfg.dram_gbps));
    out
}

fn human_bytes(b: u64) -> String {
    if b >= 1 << 20 {
        format!("{}M", b >> 20)
    } else {
        format!("{}K", b >> 10)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platforms::Fidelity;

    #[test]
    fn e3_quick_has_all_mixes_and_figure() {
        let out = run_e3("snb", Fidelity::Quick);
        let table = &out.tables[0];
        assert!(table.contains("balanced"));
        assert!(table.contains("add-only"));
        assert!(!table.contains(" fma"), "snb has no FMA rows");
        assert_eq!(out.figures.len(), 1);
        assert!(out.figures[0].ascii.is_some());
        assert!(out.figures[0].svg.is_some());
    }

    #[test]
    fn e3_haswell_includes_fma_rows() {
        let out = run_e3("hsw", Fidelity::Quick);
        assert!(out.tables[0].contains("fma"));
    }

    #[test]
    fn e4_quick_staircase_descends() {
        let out = run_e4("snb", Fidelity::Quick);
        let fig = &out.figures[0];
        let csv = fig.csv.as_ref().unwrap();
        let rows: Vec<f64> = csv
            .lines()
            .skip(1)
            .map(|l| l.split(',').nth(1).unwrap().parse().unwrap())
            .collect();
        // Small (cache-resident) read bandwidth far above the largest size.
        assert!(
            rows.first().unwrap() > &(rows.last().unwrap() * 2.0),
            "expected a cache staircase: {rows:?}"
        );
    }
}
