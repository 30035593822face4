//! The methodology-pitfall experiments: E7 (prefetcher vs. LLC-miss
//! counting), E8 (Turbo Boost distortion), E9 (cold vs. warm caches).

use crate::output::{text_table, ExperimentOutput, Figure};
use crate::platforms::{config_by_name, machine_by_name, roof_options, Fidelity};
use kernels::blas1::{Ddot, Triad};
use kernels::blas3::DgemmBlocked;
use kernels::Kernel;
use perfmon::harness::{CacheProtocol, MeasureConfig, Measurer};
use perfmon::roofs::measured_roofline_with;
use roofline_core::plot::{ascii::render_ascii, svg::render_svg, PlotSpec};
use roofline_core::prelude::*;

/// E7 — counting traffic at the LLC vs. at the IMC, with the prefetchers
/// on and off. Reproduces the paper's finding that LLC-miss counting
/// drastically undercounts once hardware prefetch is active, which is why
/// the methodology reads the memory controller.
pub fn run_e7(platform: &str, fidelity: Fidelity) -> ExperimentOutput {
    let mut out = ExperimentOutput::new(
        "E7",
        format!("LLC-miss vs IMC traffic counting ({platform})"),
    );
    let sizes: Vec<u64> = {
        let max_shift = if fidelity == Fidelity::Full { 22 } else { 16 };
        (12..=max_shift).step_by(2).map(|s| 1u64 << s).collect()
    };
    let mut rows = Vec::new();
    let mut csv = String::from("n,prefetch,imc_bytes,llc_bytes,undercount_pct\n");
    for &prefetch in &[true, false] {
        for &n in &sizes {
            let mut m = machine_by_name(platform);
            m.set_prefetch(prefetch, prefetch);
            let k = Triad::new(&mut m, n, false);
            let mut measurer = Measurer::new(&mut m, MeasureConfig::default());
            let r = measurer.measure(|cpu| k.emit(cpu));
            let imc = r.traffic.get();
            let llc = r.llc_miss_traffic.get();
            let undercount = 100.0 * (1.0 - llc as f64 / imc as f64);
            rows.push(vec![
                n.to_string(),
                if prefetch { "on" } else { "off" }.to_string(),
                imc.to_string(),
                llc.to_string(),
                format!("{undercount:.1}%"),
            ]);
            csv.push_str(&format!(
                "{n},{},{imc},{llc},{undercount:.2}\n",
                u8::from(prefetch)
            ));
        }
    }
    out.tables.push(text_table(
        "triad traffic by counting method",
        &["n", "prefetch", "Q_imc [B]", "Q_llc [B]", "undercount"],
        &rows,
    ));
    let mut fig = Figure::new(format!("e7_prefetch_gap_{platform}"));
    fig.csv = Some(csv);
    out.figures.push(fig);

    // Summary finding at the largest size.
    let last_on = &rows[sizes.len() - 1];
    let last_off = &rows[2 * sizes.len() - 1];
    let clean_imc = last_on[2].clone();
    out.finding("undercount with prefetch on", last_on[4].clone());
    out.finding("undercount with prefetch off", last_off[4].clone());

    // The same pitfall injected as a *fault*: a machine whose injector
    // invents phantom prefetch traffic at the IMC. Counting at the IMC is
    // only safe because the integrity guard cross-checks the counters —
    // here it flags the inflated Q as impossible bandwidth.
    // Compose the demo spec from the base preset so a platform that
    // already carries a fault suffix does not double-append one.
    let base = platform.split('+').next().unwrap_or(platform);
    let n = *sizes.last().unwrap();
    let mut fm = machine_by_name(&format!("{base}+phantom=2.0,seed=11"));
    fm.set_prefetch(true, true);
    let k = Triad::new(&mut fm, n, false);
    let mut measurer = Measurer::new(&mut fm, MeasureConfig::default());
    let r = measurer.measure(|cpu| k.emit(cpu));
    out.finding(
        "phantom-fault inflated Q",
        format!("{} B (clean IMC: {clean_imc} B)", r.traffic.get()),
    );
    out.finding("phantom-fault verdict", r.integrity.verdict());
    out
}

/// E8 — Turbo Boost distortion: measured points against the
/// nominal-frequency roofline, with turbo off (clean) and on
/// (contaminated). A compute-bound kernel lands *above* the ceiling when
/// turbo is left enabled — the paper's reason for demanding it disabled.
pub fn run_e8(platform: &str, fidelity: Fidelity) -> ExperimentOutput {
    let mut out = ExperimentOutput::new("E8", format!("Turbo Boost distortion ({platform})"));
    let n = fidelity.scale(128, 32);

    // The clean nominal roofline.
    let mut rm = machine_by_name(platform);
    let roofline = measured_roofline_with(&mut rm, 1, roof_options(fidelity));

    let mut rows = Vec::new();
    let mut points = Vec::new();
    for &turbo in &[false, true] {
        // A real kernel (blocked dgemm, warm) and a pure FP-peak stream:
        // the latter pins the ceiling exactly, so turbo contamination is
        // guaranteed to push it above 100%.
        let dgemm_meas = {
            let mut m = machine_by_name(platform);
            m.set_turbo(turbo);
            let k = DgemmBlocked::new(&mut m, n);
            let cfg = MeasureConfig {
                protocol: CacheProtocol::Warm { priming_runs: 1 },
                ..MeasureConfig::default()
            };
            let mut measurer = Measurer::new(&mut m, cfg);
            measurer.measure(|cpu| k.emit(cpu)).to_measurement()
        };
        let peak_meas = {
            use perfmon::peaks::{emit_peak_stream, Mix};
            use simx86::isa::{Precision, VecWidth};
            let mut m = machine_by_name(platform);
            m.set_turbo(turbo);
            let mut measurer = Measurer::new(&mut m, MeasureConfig::default());
            measurer
                .measure(|cpu| {
                    emit_peak_stream(cpu, VecWidth::Y256, Precision::F64, Mix::Balanced, 2_000)
                })
                .to_measurement()
        };
        for (label, meas) in [("dgemm", &dgemm_meas), ("fp-peak", &peak_meas)] {
            let point = crate::points::point_from(
                format!("{label} turbo={}", if turbo { "on" } else { "off" }),
                meas,
                &roofline,
            );
            let eff = point.compute_utilization(&roofline);
            rows.push(vec![
                label.to_string(),
                if turbo { "on" } else { "off" }.to_string(),
                format!("{:.2}", point.performance().get()),
                format!("{:.2}", roofline.peak_compute().get()),
                format!("{eff}"),
                if eff.violates_roof() {
                    "VIOLATION".to_string()
                } else {
                    "ok".to_string()
                },
            ]);
            points.push(point);
        }
    }
    // The same distortion injected as a *fault*: turbo stays off, but the
    // injector drifts the TSC the way an unnoticed turbo would. Its row
    // (turbo column `on*`) gets its verdict from the integrity guard's
    // report rather than from eyeballing the roofline.
    let drift_verdict = {
        use perfmon::peaks::{emit_peak_stream, Mix};
        use simx86::isa::{Precision, VecWidth};
        // Base preset only: the caller's spec may already carry a suffix.
        let base = platform.split('+').next().unwrap_or(platform);
        let mut m = machine_by_name(&format!("{base}+drift=0.12,seed=7"));
        m.set_turbo(false);
        let mut measurer = Measurer::new(&mut m, MeasureConfig::default());
        let r = measurer.measure(|cpu| {
            emit_peak_stream(cpu, VecWidth::Y256, Precision::F64, Mix::Balanced, 8_000)
        });
        let point = crate::points::point_from(
            "fp-peak drift-fault".to_string(),
            &r.to_measurement(),
            &roofline,
        );
        let eff = point.compute_utilization(&roofline);
        let verdict = r.integrity.verdict();
        rows.push(vec![
            "fp-peak".to_string(),
            "on*".to_string(),
            format!("{:.2}", point.performance().get()),
            format!("{:.2}", roofline.peak_compute().get()),
            format!("{eff}"),
            verdict.clone(),
        ]);
        points.push(point);
        verdict
    };

    out.tables.push(text_table(
        "measured points vs nominal ceiling",
        &["kernel", "turbo", "P [GF/s]", "ceiling [GF/s]", "utilization", "verdict"],
        &rows,
    ));
    out.finding("fp-peak turbo-off utilization", rows[1][4].clone());
    out.finding("fp-peak turbo-on utilization", rows[3][4].clone());
    out.finding("dgemm turbo speedup",
        format!("{:.3}x", {
            let p_on: f64 = rows[2][2].parse().unwrap_or(0.0);
            let p_off: f64 = rows[0][2].parse().unwrap_or(1.0);
            p_on / p_off
        }),
    );
    out.finding("injected-drift verdict", drift_verdict);

    let mut spec = PlotSpec::new(format!("E8 turbo distortion ({platform})"), roofline);
    for p in points {
        spec = spec.point(p);
    }
    let mut fig = Figure::new(format!("e8_turbo_{platform}"));
    fig.ascii = render_ascii(&spec, 72, 22).ok();
    fig.svg = render_svg(&spec, 860, 540).ok();
    out.figures.push(fig);
    out
}

/// E9 — cold vs. warm caches: sweeping `ddot` across working-set sizes
/// shows the warm-cache intensity explosion while the set fits in L3, and
/// the two protocols converging beyond it.
pub fn run_e9(platform: &str, fidelity: Fidelity) -> ExperimentOutput {
    let mut out = ExperimentOutput::new("E9", format!("Cold vs warm caches ({platform})"));
    let l3 = config_by_name(platform).l3.size_bytes;
    let sizes: Vec<u64> = {
        let max_shift = if fidelity == Fidelity::Full { 21 } else { 15 };
        (10..=max_shift).map(|s| 1u64 << s).collect()
    };

    let mut rm = machine_by_name(platform);
    let roofline = measured_roofline_with(&mut rm, 1, roof_options(fidelity));

    let mut cold_t = Trajectory::new("ddot cold");
    let mut warm_t = Trajectory::new("ddot warm");
    let mut rows = Vec::new();
    for &n in &sizes {
        let run = |protocol: CacheProtocol| {
            let mut m = machine_by_name(platform);
            let k = Ddot::new(&mut m, n);
            let cfg = MeasureConfig {
                protocol,
                ..MeasureConfig::default()
            };
            let mut measurer = Measurer::new(&mut m, cfg);
            measurer.measure(|cpu| k.emit(cpu)).to_measurement()
        };
        let cold = run(CacheProtocol::Cold);
        let warm = run(CacheProtocol::Warm { priming_runs: 2 });
        let fits = 16 * n <= l3;
        rows.push(vec![
            n.to_string(),
            if fits { "yes" } else { "no" }.to_string(),
            format!(
                "{:.3}",
                cold.intensity().map(|i| i.get()).unwrap_or(f64::NAN)
            ),
            warm.intensity()
                .map(|i| format!("{:.3}", i.get()))
                .unwrap_or_else(|| "inf".to_string()),
            format!("{:.2}", cold.performance().get()),
            format!("{:.2}", warm.performance().get()),
        ]);
        cold_t.push(n, cold);
        warm_t.push(n, warm);
    }
    out.tables.push(text_table(
        "ddot: cold vs warm",
        &["n", "fits L3", "I cold", "I warm", "P cold", "P warm"],
        &rows,
    ));

    let mut fig = Figure::new(format!("e9_cold_warm_{platform}"));
    let mut csv = String::from("variant,");
    csv.push_str(&cold_t.to_csv());
    csv.push_str(&warm_t.to_csv());
    fig.csv = Some(csv);
    let spec = PlotSpec::new(format!("E9 cold vs warm ({platform})"), roofline)
        .trajectory(cold_t)
        .trajectory(warm_t);
    fig.ascii = render_ascii(&spec, 72, 22).ok();
    fig.svg = render_svg(&spec, 860, 540).ok();
    out.figures.push(fig);
    out.finding(
        "warm intensity >> cold while cache-resident",
        "see first rows of the table",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e7_prefetch_on_undercounts_substantially() {
        let out = run_e7("snb", Fidelity::Quick);
        let on = out
            .findings
            .iter()
            .find(|(k, _)| k.contains("prefetch on"))
            .unwrap();
        let pct: f64 = on.1.trim_end_matches('%').parse().unwrap();
        assert!(pct > 40.0, "LLC undercount with prefetch on was only {pct}%");
        let off = out
            .findings
            .iter()
            .find(|(k, _)| k.contains("prefetch off"))
            .unwrap();
        // Even with prefetch off, LLC-miss counting misses the writeback
        // stream (~25% for triad); prefetch adds a much larger gap on top.
        let pct_off: f64 = off.1.trim_end_matches('%').parse().unwrap();
        assert!(
            pct_off < 35.0 && pct > pct_off + 15.0,
            "expected on ({pct}%) >> off ({pct_off}%)"
        );
    }

    #[test]
    fn e8_turbo_violates_nominal_roof() {
        let out = run_e8("snb", Fidelity::Quick);
        let table = &out.tables[0];
        assert!(table.contains("VIOLATION"), "{table}");
        // Only turbo-on rows may violate; turbo-off rows never do.
        for line in table.lines().filter(|l| l.contains("VIOLATION")) {
            assert!(line.contains(" on"), "unexpected violation: {line}");
        }
        // The FP-peak stream with turbo on must exceed the nominal roof.
        let fp_on = table
            .lines()
            .filter(|l| l.contains("fp-peak"))
            .nth(1)
            .unwrap();
        assert!(fp_on.contains("VIOLATION"), "{table}");
        // And the dgemm turbo speedup should be ~frequency ratio.
        let spd: f64 = out
            .findings
            .iter()
            .find(|(k, _)| k.contains("speedup"))
            .unwrap()
            .1
            .trim_end_matches('x')
            .parse()
            .unwrap();
        assert!(spd > 1.05, "turbo should speed up dgemm: {spd}x");
    }

    #[test]
    fn e7_phantom_fault_is_flagged_by_integrity_guard() {
        let out = run_e7("snb", Fidelity::Quick);
        let verdict = &out
            .findings
            .iter()
            .find(|(k, _)| k == "phantom-fault verdict")
            .unwrap()
            .1;
        assert!(
            verdict.contains("bandwidth-exceeded"),
            "phantom prefetch traffic should trip the bandwidth guard: {verdict}"
        );
    }

    #[test]
    fn e8_injected_drift_reproduces_violation_via_integrity_report() {
        let out = run_e8("snb", Fidelity::Quick);
        let verdict = &out
            .findings
            .iter()
            .find(|(k, _)| k == "injected-drift verdict")
            .unwrap()
            .1;
        assert!(
            verdict.contains("VIOLATION"),
            "drift fault must be flagged: {verdict}"
        );
        assert!(
            verdict.contains("roof-violation"),
            "drift inflates P above the ceiling: {verdict}"
        );
        assert!(
            verdict.contains("clock-skew"),
            "drift desynchronizes core clock from TSC: {verdict}"
        );
        // The drift row is rendered with turbo column `on*`.
        let table = &out.tables[0];
        let drift_line = table.lines().last().unwrap();
        assert!(drift_line.contains("on*"), "{table}");
        assert!(drift_line.contains("VIOLATION"), "{table}");
    }

    #[test]
    fn e8_runs_on_a_platform_spec_with_fault_suffix() {
        // The drift-demo spec is composed from the base preset, so a
        // caller-supplied suffix must not end up double-appended.
        let out = run_e8("snb+seed=3", Fidelity::Quick);
        assert_eq!(out.id, "E8");
    }

    #[test]
    fn e9_warm_intensity_higher_when_resident() {
        let out = run_e9("snb", Fidelity::Quick);
        // First row: tiny working set, warm intensity should be huge or inf.
        let table = &out.tables[0];
        let first_row = table.lines().nth(3).unwrap();
        assert!(first_row.contains("yes"), "{table}");
        assert_eq!(out.figures.len(), 1);
        assert!(out.figures[0].svg.is_some());
    }
}
