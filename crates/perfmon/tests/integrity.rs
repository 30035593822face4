//! Every fault class the simulator can inject must be caught by the
//! measurement-integrity guards — and a zero-rate injector must be
//! indistinguishable from no injector at all.

use perfmon::harness::{emit_triad_region, MeasureConfig, Measurer};
use perfmon::peaks::{emit_peak_stream, measure_peak_compute, Mix};
use proptest::prelude::*;
use simx86::config::{sandy_bridge, test_machine};
use simx86::isa::{FpOp, Precision, Reg, VecWidth};
use simx86::{FaultConfig, Machine, MachineConfig};

fn faulty(base: MachineConfig, fault: FaultConfig) -> Machine {
    let mut cfg = base;
    cfg.fault = fault;
    Machine::new(cfg)
}

fn measure_triad(m: &mut Machine, n: u64) -> perfmon::RegionMeasurement {
    let (a, b, c) = (m.alloc(n * 8), m.alloc(n * 8), m.alloc(n * 8));
    let mut meas = Measurer::new(m, MeasureConfig::default());
    meas.measure(|cpu| emit_triad_region(cpu, a, b, c, n))
}

fn measure_peak(m: &mut Machine) -> perfmon::RegionMeasurement {
    let mut meas = Measurer::new(m, MeasureConfig::default());
    meas.measure(|cpu| emit_peak_stream(cpu, VecWidth::Y256, Precision::F64, Mix::Balanced, 8_000))
}

#[test]
fn counter_wrap_is_flagged_as_cross_counter() {
    let mut m = faulty(
        sandy_bridge(),
        FaultConfig {
            enabled: true,
            uncore_wrap_bits: Some(8),
            ..FaultConfig::default()
        },
    );
    m.set_prefetch(false, false);
    let r = measure_triad(&mut m, 8192);
    assert!(
        r.integrity.has("cross-counter"),
        "wrapped IMC counters leave LLC misses exceeding Q: {}",
        r.integrity
    );
}

#[test]
fn dropped_samples_are_flagged_as_clock_skew() {
    let mut m = faulty(
        sandy_bridge(),
        FaultConfig {
            enabled: true,
            sample_drop_rate: 0.5,
            ..FaultConfig::default()
        },
    );
    let r = measure_triad(&mut m, 8192);
    assert!(
        r.integrity.has("clock-skew"),
        "dropped core-cycle samples desynchronize core clock from TSC: {}",
        r.integrity
    );
}

#[test]
fn multiplex_error_is_flagged_as_impossible_work() {
    let mut m = faulty(
        sandy_bridge(),
        FaultConfig {
            enabled: true,
            multiplex_error: 0.5,
            ..FaultConfig::default()
        },
    );
    let r = measure_peak(&mut m);
    assert!(
        r.integrity.has("work-exceeds-capacity") || r.integrity.has("roof-violation"),
        "multiplex-scaled FP counts exceed what the core can retire: {}",
        r.integrity
    );
}

#[test]
fn turbo_drift_is_flagged_as_roof_violation_and_clock_skew() {
    let mut m = faulty(
        sandy_bridge(),
        FaultConfig {
            enabled: true,
            turbo_drift: 0.12,
            ..FaultConfig::default()
        },
    );
    m.set_turbo(false);
    let r = measure_peak(&mut m);
    assert!(
        r.integrity.has("roof-violation"),
        "drift inflates P above the nominal ceiling: {}",
        r.integrity
    );
    assert!(
        r.integrity.has("clock-skew"),
        "drift desynchronizes the TSC from core cycles: {}",
        r.integrity
    );
}

#[test]
fn phantom_prefetch_is_flagged_as_impossible_bandwidth() {
    let mut m = faulty(
        sandy_bridge(),
        FaultConfig {
            enabled: true,
            phantom_prefetch_rate: 2.0,
            ..FaultConfig::default()
        },
    );
    m.set_prefetch(true, true);
    let r = measure_triad(&mut m, 1 << 16);
    assert!(
        r.integrity.has("bandwidth-exceeded"),
        "phantom IMC traffic exceeds the physical peak: {}",
        r.integrity
    );
}

#[test]
fn clean_machine_produces_clean_report() {
    let mut m = Machine::new(sandy_bridge());
    let r = measure_triad(&mut m, 8192);
    assert!(r.integrity.is_clean(), "{}", r.integrity);
    assert_eq!(r.integrity.verdict(), "ok");
}

/// An FP-only batched run: the steady-state closed-form path.
fn measure_fp_run(m: &mut Machine) -> perfmon::RegionMeasurement {
    let accs: Vec<Reg> = (0..8).map(Reg::new).collect();
    let mut meas = Measurer::new(m, MeasureConfig::default());
    meas.measure(|cpu| {
        cpu.fp_run(
            FpOp::Add,
            &accs,
            Reg::new(14),
            Reg::new(15),
            VecWidth::Y256,
            Precision::F64,
            100_000,
        )
    })
}

#[test]
fn zero_rate_injector_is_byte_identical_to_no_injector() {
    let mut clean = Machine::new(test_machine());
    let mut armed = faulty(test_machine(), FaultConfig::enabled_noop());
    assert!(armed.fault_injection_active());
    let a = measure_triad(&mut clean, 4096);
    let b = measure_triad(&mut armed, 4096);
    assert_eq!(a, b, "a zero-rate injector must not perturb anything");
    // Batched runs take the same path on an armed machine.
    assert_eq!(measure_fp_run(&mut clean), measure_fp_run(&mut armed));
    let peak = |m: &mut Machine| {
        measure_peak_compute(m, VecWidth::Y256, Precision::F64, Mix::Balanced, 1, 100_000)
    };
    assert_eq!(
        peak(&mut clean).get().to_bits(),
        peak(&mut armed).get().to_bits()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Detection must not depend on the injector's RNG seed: whatever the
    // seed, a dropped-sample fault is always flagged.
    #[test]
    fn dropped_samples_flagged_for_any_seed(seed in 1u64..u64::MAX) {
        let mut m = faulty(
            test_machine(),
            FaultConfig {
                enabled: true,
                seed,
                sample_drop_rate: 0.5,
                ..FaultConfig::default()
            },
        );
        let r = measure_triad(&mut m, 4096);
        prop_assert!(r.integrity.has("clock-skew"), "seed {seed}: {}", r.integrity);
    }

    // Likewise for drift: any seed, any drift in [8%, 30%], always caught.
    #[test]
    fn drift_flagged_for_any_seed(seed in 1u64..u64::MAX, drift in 0.08f64..0.30) {
        let mut m = faulty(
            test_machine(),
            FaultConfig {
                enabled: true,
                seed,
                turbo_drift: drift,
                ..FaultConfig::default()
            },
        );
        m.set_turbo(false);
        let r = measure_peak(&mut m);
        prop_assert!(
            r.integrity.has("clock-skew") || r.integrity.has("roof-violation"),
            "seed {seed} drift {drift}: {}",
            r.integrity
        );
    }
}
