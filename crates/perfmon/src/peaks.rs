//! Peak-performance microbenchmarks.
//!
//! The paper measures its rooflines rather than quoting datasheet numbers:
//! runtime-generated streams of independent FP instructions for the compute
//! ceilings, and STREAM-style loops (read / write / copy / scale / triad /
//! non-temporal copy) for the bandwidth roofs. This module is the simulated
//! equivalent; the generated instruction streams play the role of the
//! paper's Xbyak-style JIT code, immune to compiler dead-code elimination
//! by construction.

use roofline_core::units::{GBytesPerSec, GFlopsPerSec};
use simx86::isa::{FpOp, Precision, Reg, VecWidth};
use simx86::cpu::PatOp;
use simx86::{Buffer, Cpu, Machine, SlicedFn, ThreadProgram};

/// The instruction mix of a compute-peak stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Additions only — saturates just the add port.
    AddOnly,
    /// Multiplications only.
    MulOnly,
    /// Alternating adds and multiplies — saturates both ports of a
    /// non-FMA machine.
    Balanced,
    /// Fused multiply-adds (FMA-capable machines only).
    Fma,
}

impl Mix {
    /// All mixes, for table sweeps.
    pub const ALL: [Mix; 4] = [Mix::AddOnly, Mix::MulOnly, Mix::Balanced, Mix::Fma];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Mix::AddOnly => "add-only",
            Mix::MulOnly => "mul-only",
            Mix::Balanced => "balanced",
            Mix::Fma => "fma",
        }
    }
}

/// Emits `iters` rounds of twelve independent FP instructions of the
/// given mix (destinations rotate through `ymm0..ymm11`; sources are the
/// constant registers `ymm14`/`ymm15`). Twelve accumulators cover the
/// deepest loop-carried dependency the mixes create — FMA reads its
/// destination, so saturating two 5-cycle FMA ports needs at least ten
/// independent accumulators. The rounds run as one
/// [`Cpu::run_pattern`], which jumps the steady state in closed form.
///
/// # Panics
///
/// Panics if [`Mix::Fma`] is requested on a machine without FMA.
pub fn emit_peak_stream(
    cpu: &mut Cpu<'_>,
    width: VecWidth,
    prec: Precision,
    mix: Mix,
    iters: u64,
) {
    let ops: Vec<PatOp> = (0..12u8)
        .map(|d| PatOp::Fp {
            op: match mix {
                Mix::AddOnly => FpOp::Add,
                Mix::MulOnly => FpOp::Mul,
                Mix::Balanced if d % 2 == 0 => FpOp::Add,
                Mix::Balanced => FpOp::Mul,
                Mix::Fma => FpOp::Fma,
            },
            dst: Reg::new(d),
            a: Reg::new(14),
            b: Reg::new(15),
        })
        .collect();
    cpu.run_pattern(&ops, width, prec, iters);
}

/// Measures peak compute throughput for a width/mix on `threads` cores.
/// Roughly `flops_target` flops are executed per core; throughput is
/// machine-wide (sum of all cores' work over wall-clock time).
///
/// # Panics
///
/// Panics if `threads` is zero or exceeds the core count, or on
/// [`Mix::Fma`] without FMA hardware.
pub fn measure_peak_compute(
    machine: &mut Machine,
    width: VecWidth,
    prec: Precision,
    mix: Mix,
    threads: usize,
    flops_target: u64,
) -> GFlopsPerSec {
    assert!(threads > 0, "need at least one thread");
    let flops_per_instr = width.lanes(prec)
        * match mix {
            Mix::Fma => 2,
            _ => 1,
        };
    let iters = (flops_target / (12 * flops_per_instr)).max(1);

    let before: Vec<_> = (0..threads).map(|t| machine.core_counters(t)).collect();
    let t0 = machine.tsc();
    if threads == 1 {
        machine.run(0, |cpu| emit_peak_stream(cpu, width, prec, mix, iters));
    } else {
        let programs: Vec<Box<dyn ThreadProgram>> = (0..threads)
            .map(|_| {
                Box::new(SlicedFn::new(8, move |cpu: &mut Cpu<'_>, _| {
                    emit_peak_stream(cpu, width, prec, mix, iters / 8)
                })) as Box<dyn ThreadProgram>
            })
            .collect();
        machine.run_parallel(programs);
    }
    let seconds = (machine.tsc() - t0) / machine.tsc_hz();
    let flops: u64 = (0..threads)
        .map(|t| machine.core_counters(t).since(&before[t]).flops(prec))
        .sum();
    GFlopsPerSec::new(flops as f64 / seconds / 1e9)
}

/// STREAM-style bandwidth access pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BwPattern {
    /// Sequential AVX loads (sum-like, no stores).
    Read,
    /// Sequential AVX stores (write-allocate).
    Write,
    /// Sequential non-temporal stores.
    WriteNt,
    /// Load + store (`memcpy`).
    Copy,
    /// Load + non-temporal store (hand-tuned `memcpy`).
    CopyNt,
    /// STREAM scale `a = s*b`.
    Scale,
    /// STREAM triad `a = b + s*c`.
    Triad,
}

impl BwPattern {
    /// All patterns, for table sweeps.
    pub const ALL: [BwPattern; 7] = [
        BwPattern::Read,
        BwPattern::Write,
        BwPattern::WriteNt,
        BwPattern::Copy,
        BwPattern::CopyNt,
        BwPattern::Scale,
        BwPattern::Triad,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            BwPattern::Read => "read",
            BwPattern::Write => "write",
            BwPattern::WriteNt => "write-nt",
            BwPattern::Copy => "copy",
            BwPattern::CopyNt => "copy-nt",
            BwPattern::Scale => "scale",
            BwPattern::Triad => "triad",
        }
    }

    /// Number of buffers the pattern touches.
    fn buffers(self) -> usize {
        match self {
            BwPattern::Read | BwPattern::Write | BwPattern::WriteNt => 1,
            BwPattern::Copy | BwPattern::CopyNt | BwPattern::Scale => 2,
            BwPattern::Triad => 3,
        }
    }

    /// Bytes the benchmark *intends* to move per element pass (the STREAM
    /// convention: write-allocate RFO traffic is not credited).
    pub fn bytes_per_element(self) -> u64 {
        8 * self.buffers() as u64
    }
}

fn emit_bandwidth_pass(cpu: &mut Cpu<'_>, pattern: BwPattern, bufs: &[Buffer], range: std::ops::Range<u64>) {
    let w = VecWidth::Y256;
    let p = Precision::F64;
    let mut i = range.start;
    while i + 4 <= range.end {
        match pattern {
            BwPattern::Read => {
                cpu.load(Reg::new(0), bufs[0].f64_at(i), w, p);
            }
            BwPattern::Write => {
                cpu.store(bufs[0].f64_at(i), Reg::new(8), w, p);
            }
            BwPattern::WriteNt => {
                cpu.store_nt(bufs[0].f64_at(i), Reg::new(8), w, p);
            }
            BwPattern::Copy => {
                cpu.load(Reg::new(0), bufs[1].f64_at(i), w, p);
                cpu.store(bufs[0].f64_at(i), Reg::new(0), w, p);
            }
            BwPattern::CopyNt => {
                cpu.load(Reg::new(0), bufs[1].f64_at(i), w, p);
                cpu.store_nt(bufs[0].f64_at(i), Reg::new(0), w, p);
            }
            BwPattern::Scale => {
                cpu.load(Reg::new(0), bufs[1].f64_at(i), w, p);
                cpu.fmul(Reg::new(1), Reg::new(0), Reg::new(15), w, p);
                cpu.store(bufs[0].f64_at(i), Reg::new(1), w, p);
            }
            BwPattern::Triad => {
                cpu.load(Reg::new(0), bufs[1].f64_at(i), w, p);
                cpu.load(Reg::new(1), bufs[2].f64_at(i), w, p);
                cpu.fmul(Reg::new(2), Reg::new(1), Reg::new(15), w, p);
                cpu.fadd(Reg::new(3), Reg::new(0), Reg::new(2), w, p);
                cpu.store(bufs[0].f64_at(i), Reg::new(3), w, p);
            }
        }
        i += 4;
    }
}

/// Measures sustainable bandwidth for a pattern with a working set of
/// `bytes_per_buffer` per buffer per thread, cold caches, one pass.
///
/// The reported number follows the STREAM convention: intended bytes over
/// wall-clock time (RFO traffic hurts the time but is not credited as
/// moved bytes — which is exactly why the NT variants win).
///
/// # Panics
///
/// Panics if `threads` is zero, exceeds the core count, or the buffer is
/// smaller than one vector.
pub fn measure_bandwidth(
    machine: &mut Machine,
    pattern: BwPattern,
    threads: usize,
    bytes_per_buffer: u64,
) -> GBytesPerSec {
    let (moved, seconds) = bandwidth_run(machine, pattern, threads, bytes_per_buffer);
    GBytesPerSec::new(moved as f64 / seconds / 1e9)
}

/// Slices each thread's range is cut into for `run_parallel`.
const BW_SLICES: usize = 16;

/// The cold run behind [`measure_bandwidth`]: the bytes it credits and
/// the seconds it took.
fn bandwidth_run(
    machine: &mut Machine,
    pattern: BwPattern,
    threads: usize,
    bytes_per_buffer: u64,
) -> (u64, f64) {
    assert!(threads > 0, "need at least one thread");
    assert!(bytes_per_buffer >= 32, "buffer smaller than one vector");
    let n = bytes_per_buffer / 8;
    // One vector instruction moves a group of four elements; a partial
    // trailing group is neither executed nor credited.
    let groups = n / 4;
    let mut per_thread: Vec<Vec<Buffer>> = Vec::new();
    for _ in 0..threads {
        per_thread.push(
            (0..pattern.buffers())
                .map(|_| machine.alloc(bytes_per_buffer))
                .collect(),
        );
    }
    machine.flush_caches();
    let t0 = machine.tsc();
    if threads == 1 {
        machine.run(0, |cpu| emit_bandwidth_pass(cpu, pattern, &per_thread[0], 0..n));
    } else {
        let per_thread = &per_thread;
        // Whole groups per slice, so no slice starts mid-group; the last
        // slice takes the remainder.
        let chunk = groups / BW_SLICES as u64 * 4;
        let programs: Vec<Box<dyn ThreadProgram + '_>> = (0..threads)
            .map(|t| {
                Box::new(SlicedFn::new(BW_SLICES, move |cpu: &mut Cpu<'_>, s| {
                    let start = s as u64 * chunk;
                    let end = if s == BW_SLICES - 1 {
                        groups * 4
                    } else {
                        start + chunk
                    };
                    emit_bandwidth_pass(cpu, pattern, &per_thread[t], start..end);
                })) as Box<dyn ThreadProgram>
            })
            .collect();
        machine.run_parallel(programs);
    }
    let seconds = (machine.tsc() - t0) / machine.tsc_hz();
    let moved = groups * 4 * pattern.bytes_per_element() * threads as u64;
    (moved, seconds)
}

/// Measures *warm* (cache-resident) bandwidth: allocate, prime one pass,
/// then time `passes` back-to-back passes over the same buffers. With a
/// working set sized to a cache level this measures that level's
/// sustainable bandwidth — the data for cache-aware ("hierarchical")
/// rooflines and the E4 staircase.
///
/// # Panics
///
/// Panics if the buffer is smaller than one vector or `passes` is zero.
pub fn measure_bandwidth_warm(
    machine: &mut Machine,
    pattern: BwPattern,
    bytes_per_buffer: u64,
    passes: u64,
) -> GBytesPerSec {
    assert!(bytes_per_buffer >= 32, "buffer smaller than one vector");
    assert!(passes > 0, "need at least one pass");
    let n = bytes_per_buffer / 8;
    let bufs: Vec<Buffer> = (0..pattern.buffers())
        .map(|_| machine.alloc(bytes_per_buffer))
        .collect();
    machine.run(0, |cpu| emit_bandwidth_pass(cpu, pattern, &bufs, 0..n));
    let t0 = machine.tsc();
    machine.run(0, |cpu| {
        for _ in 0..passes {
            emit_bandwidth_pass(cpu, pattern, &bufs, 0..n);
        }
    });
    let seconds = (machine.tsc() - t0) / machine.tsc_hz();
    let moved = (n / 4 * 4) * pattern.bytes_per_element() * passes;
    GBytesPerSec::new(moved as f64 / seconds / 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simx86::config::{haswell, sandy_bridge, test_machine};
    use simx86::pmu::CoreEvent;

    const P: Precision = Precision::F64;

    #[test]
    fn avx_balanced_peak_reaches_port_limit() {
        let mut m = Machine::new(sandy_bridge());
        let p = measure_peak_compute(&mut m, VecWidth::Y256, P, Mix::Balanced, 1, 200_000);
        // 8 flops/cycle * 3.3 GHz = 26.4 GF/s.
        assert!((p.get() - 26.4).abs() / 26.4 < 0.05, "got {p}");
    }

    #[test]
    fn add_only_is_half_of_balanced() {
        let mut m = Machine::new(sandy_bridge());
        let add = measure_peak_compute(&mut m, VecWidth::Y256, P, Mix::AddOnly, 1, 100_000);
        let bal = measure_peak_compute(&mut m, VecWidth::Y256, P, Mix::Balanced, 1, 100_000);
        let ratio = bal.get() / add.get();
        assert!((ratio - 2.0).abs() < 0.1, "balanced/add = {ratio}");
    }

    #[test]
    fn width_scaling_scalar_sse_avx() {
        let mut m = Machine::new(sandy_bridge());
        let s = measure_peak_compute(&mut m, VecWidth::Scalar, P, Mix::Balanced, 1, 50_000);
        let x = measure_peak_compute(&mut m, VecWidth::X128, P, Mix::Balanced, 1, 100_000);
        let y = measure_peak_compute(&mut m, VecWidth::Y256, P, Mix::Balanced, 1, 200_000);
        assert!((x.get() / s.get() - 2.0).abs() < 0.1);
        assert!((y.get() / x.get() - 2.0).abs() < 0.1);
    }

    #[test]
    fn fma_doubles_haswell_peak() {
        let mut m = Machine::new(haswell());
        let fma = measure_peak_compute(&mut m, VecWidth::Y256, P, Mix::Fma, 1, 400_000);
        // 2 FMA ports * 8 flops = 16 flops/cycle * 3.4 GHz = 54.4 GF/s.
        assert!((fma.get() - 54.4).abs() / 54.4 < 0.05, "got {fma}");
    }

    #[test]
    fn multicore_peak_scales_linearly() {
        let mut m = Machine::new(sandy_bridge());
        let p1 = measure_peak_compute(&mut m, VecWidth::Y256, P, Mix::Balanced, 1, 100_000);
        let p4 = measure_peak_compute(&mut m, VecWidth::Y256, P, Mix::Balanced, 4, 100_000);
        let scaling = p4.get() / p1.get();
        assert!((scaling - 4.0).abs() < 0.2, "4-core scaling {scaling}");
    }

    #[test]
    fn turbo_inflates_measured_peak() {
        let mut m = Machine::new(sandy_bridge());
        m.set_turbo(true);
        let p = measure_peak_compute(&mut m, VecWidth::Y256, P, Mix::Balanced, 1, 200_000);
        // 8 flops/cycle at 3.7 GHz = 29.6 GF/s — above the nominal roof.
        assert!(p.get() > 27.0, "turbo peak should exceed nominal: {p}");
    }

    #[test]
    fn dram_sized_triad_below_imc_peak() {
        let cfg = test_machine();
        let dram_peak = cfg.dram_gbps;
        let mut m = Machine::new(cfg);
        let bw = measure_bandwidth(&mut m, BwPattern::Triad, 1, 64 * 1024);
        assert!(bw.get() < dram_peak, "triad {bw} must stay below {dram_peak} GB/s");
        assert!(bw.get() > dram_peak * 0.3, "triad {bw} unreasonably low");
    }

    #[test]
    fn copy_nt_beats_copy() {
        let mut m = Machine::new(test_machine());
        let copy = measure_bandwidth(&mut m, BwPattern::Copy, 1, 64 * 1024);
        let nt = measure_bandwidth(&mut m, BwPattern::CopyNt, 1, 64 * 1024);
        assert!(
            nt.get() > copy.get(),
            "NT copy ({nt}) should beat write-allocate copy ({copy})"
        );
    }

    #[test]
    fn multithread_bandwidth_credits_exactly_the_loads_retired() {
        // 51,456 B is 1,608 four-element groups per thread: not a multiple
        // of the 16 slices, so the slices must split whole groups.
        let mut m = Machine::new(sandy_bridge());
        let (moved, _) = bandwidth_run(&mut m, BwPattern::Read, 2, 51_456);
        let loads: u64 = (0..2)
            .map(|c| m.core_counters(c).get(CoreEvent::LoadsRetired))
            .sum();
        assert_eq!(loads, 2 * 1_608);
        assert_eq!(loads * 32, moved, "every credited byte must be loaded");
    }

    #[test]
    fn two_thread_bandwidth_saturates_below_2x() {
        let mut m = Machine::new(test_machine());
        let b1 = measure_bandwidth(&mut m, BwPattern::Read, 1, 128 * 1024);
        let mut m2 = Machine::new(test_machine());
        let b2 = measure_bandwidth(&mut m2, BwPattern::Read, 2, 128 * 1024);
        let scaling = b2.get() / b1.get();
        assert!(scaling < 1.9, "bandwidth scaling should saturate: {scaling}");
        assert!(scaling > 0.9, "adding a core should not lose bandwidth: {scaling}");
    }

    #[test]
    fn cache_resident_read_far_exceeds_dram() {
        let cfg = test_machine();
        let mut m = Machine::new(cfg.clone());
        // Fits L1 (1 KiB): repeated pass won't help since we measure one
        // cold pass; use a warm trick: measure twice, second is warm.
        let _ = measure_bandwidth(&mut m, BwPattern::Read, 1, 512);
        // Manual warm measurement over the same logic: allocate + prime.
        let buf = m.alloc(512);
        m.run(0, |cpu| {
            emit_bandwidth_pass(cpu, BwPattern::Read, &[buf], 0..64);
        });
        let t0 = m.tsc();
        m.run(0, |cpu| {
            for _ in 0..64 {
                emit_bandwidth_pass(cpu, BwPattern::Read, &[buf], 0..64);
            }
        });
        let secs = (m.tsc() - t0) / m.tsc_hz();
        let bw = 64.0 * 64.0 * 8.0 / secs / 1e9;
        assert!(
            bw > 2.0 * cfg.dram_gbps,
            "L1-resident read bandwidth {bw} should dwarf DRAM {}",
            cfg.dram_gbps
        );
    }

    #[test]
    fn write_bandwidth_cannot_exceed_imc_peak() {
        // Regression: posted stores must still feel memory backpressure.
        // A write-allocate store stream moves 2x its size through the IMC
        // (RFO reads + writebacks), so its credited bandwidth lands well
        // below the peak; the NT variant moves exactly its size.
        let cfg = test_machine();
        let mut m = Machine::new(cfg.clone());
        let w = measure_bandwidth(&mut m, BwPattern::Write, 1, 128 * 1024);
        assert!(
            w.get() <= cfg.dram_gbps * 0.75,
            "write-allocate stream measured {w}, above 75% of the {} GB/s IMC",
            cfg.dram_gbps
        );
        let mut m = Machine::new(cfg.clone());
        let nt = measure_bandwidth(&mut m, BwPattern::WriteNt, 1, 128 * 1024);
        assert!(
            nt.get() <= cfg.dram_gbps * 1.05,
            "NT stream measured {nt}, above the {} GB/s IMC",
            cfg.dram_gbps
        );
        assert!(nt.get() > w.get(), "NT writes should beat RFO writes");
    }

    #[test]
    fn warm_bandwidth_staircase_l1_beats_dram() {
        let cfg = test_machine();
        let mut m = Machine::new(cfg.clone());
        // 512 B fits the 1 KiB L1 of the test machine.
        let l1_bw = measure_bandwidth_warm(&mut m, BwPattern::Read, 512, 64);
        let mut m = Machine::new(cfg.clone());
        // 64 KiB is 4x the 16 KiB L3: streams from DRAM even warm.
        let dram_bw = measure_bandwidth_warm(&mut m, BwPattern::Read, 64 * 1024, 2);
        assert!(
            l1_bw.get() > 3.0 * dram_bw.get(),
            "L1-resident {l1_bw} should dwarf DRAM {dram_bw}"
        );
    }

    #[test]
    fn mix_names_unique() {
        let mut names: Vec<_> = Mix::ALL.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 4);
    }

    #[test]
    fn pattern_bytes_per_element() {
        assert_eq!(BwPattern::Read.bytes_per_element(), 8);
        assert_eq!(BwPattern::Copy.bytes_per_element(), 16);
        assert_eq!(BwPattern::Triad.bytes_per_element(), 24);
    }
}
