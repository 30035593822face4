//! Property suite pinning the batched-run API to the per-instruction
//! oracle, bit for bit.
//!
//! Every case builds two machines from the same randomized configuration
//! (issue width — including non-power-of-two widths that force the
//! fallback — ROB size, per-class port counts, FP latencies, fill-buffer
//! cap) and runs the same logical instruction stream through both: once
//! via `run_pattern`/`fp_run`/`overhead`, once via the public
//! single-instruction methods. The final TSC, every core PMU counter,
//! every cache's hit/miss statistics, the uncore counters, and all sixteen
//! register-ready timestamps must match exactly (f64s compared by bits).

use proptest::prelude::*;
use simx86::config::{self, MachineConfig};
use simx86::prelude::*;

/// Pattern-op descriptor the strategies generate; `materialize` turns it
/// into a concrete `PatOp` once buffer addresses are known.
#[derive(Debug, Clone, Copy)]
enum OpD {
    /// `kind`: 0 add, 1 mul, 2 min/max, 3 fma (downgraded to add when the
    /// machine has no FMA units).
    Fp { kind: u8, dst: u8, a: u8, b: u8 },
    Load { dst: u8, stride: u64 },
    Store { stride: u64 },
    StoreNt { stride: u64 },
}

fn fp_op(kind: u8, has_fma: bool) -> FpOp {
    match kind {
        0 => FpOp::Add,
        1 => FpOp::Mul,
        2 => FpOp::MinMax,
        _ if has_fma => FpOp::Fma,
        _ => FpOp::Add,
    }
}

fn op_strategy() -> impl Strategy<Value = OpD> {
    prop_oneof![
        (0u8..4, 0u8..6, 6u8..10, 6u8..10)
            .prop_map(|(kind, dst, a, b)| OpD::Fp { kind, dst, a, b }),
        (0u8..6, prop_oneof![Just(0u64), Just(8), Just(32), Just(64), Just(96)])
            .prop_map(|(dst, stride)| OpD::Load { dst, stride }),
        prop_oneof![Just(0u64), Just(8), Just(32), Just(64), Just(96)]
            .prop_map(|stride| OpD::Store { stride }),
        prop_oneof![Just(64u64), Just(96)].prop_map(|stride| OpD::StoreNt { stride }),
    ]
}

/// Randomized machine: the base test config with the batching-relevant
/// knobs swept, including non-power-of-two issue widths.
#[allow(clippy::too_many_arguments)]
fn machine_cfg(
    issue_width: u32,
    rob_size: u32,
    add_ports: u32,
    mul_ports: u32,
    fma_ports: u32,
    load_ports: u32,
    store_ports: u32,
    fill_buffers: usize,
    add_latency: u32,
    mul_latency: u32,
    fma_latency: u32,
) -> MachineConfig {
    let mut cfg = config::test_machine();
    cfg.issue_width = issue_width;
    cfg.rob_size = rob_size;
    cfg.fp.add_ports = add_ports;
    cfg.fp.mul_ports = mul_ports;
    cfg.fp.fma_ports = fma_ports;
    cfg.fp.has_fma = fma_ports > 0;
    cfg.load_ports = load_ports;
    cfg.store_ports = store_ports;
    cfg.fill_buffers = fill_buffers;
    cfg.fp.add_latency = add_latency as f64;
    cfg.fp.mul_latency = mul_latency as f64;
    cfg.fp.fma_latency = fma_latency as f64;
    cfg
}

fn cfg_strategy() -> impl Strategy<Value = MachineConfig> {
    (
        (1u32..=6, 4u32..48, 1u32..=2, 1u32..=2, 0u32..=2),
        (1u32..=2, 1u32..=2, 1usize..=4, 1u32..=4, 1u32..=6, 3u32..=6),
    )
        .prop_map(|((iw, rob, ap, mp, fp), (lp, sp, fb, al, ml, fl))| {
            machine_cfg(iw, rob, ap, mp, fp, lp, sp, fb, al, ml, fl)
        })
}

fn materialize(ops: &[OpD], bases: &[u64], has_fma: bool) -> Vec<PatOp> {
    let mut mem = 0usize;
    ops.iter()
        .map(|&d| match d {
            OpD::Fp { kind, dst, a, b } => PatOp::Fp {
                op: fp_op(kind, has_fma),
                dst: Reg::new(dst),
                a: Reg::new(a),
                b: Reg::new(b),
            },
            OpD::Load { dst, stride } => {
                let base = bases[mem];
                mem += 1;
                PatOp::Load {
                    dst: Reg::new(dst),
                    base,
                    stride,
                }
            }
            OpD::Store { stride } => {
                let base = bases[mem];
                mem += 1;
                PatOp::Store {
                    src: Reg::new(1),
                    base,
                    stride,
                }
            }
            OpD::StoreNt { stride } => {
                let base = bases[mem];
                mem += 1;
                PatOp::StoreNt {
                    src: Reg::new(1),
                    base,
                    stride,
                }
            }
        })
        .collect()
}

/// Emits one materialized op at iteration `j` through the public
/// single-instruction API — the ground truth `run_pattern` must reproduce.
fn emit_oracle(cpu: &mut Cpu<'_>, op: &PatOp, width: VecWidth, prec: Precision, j: u64) {
    match *op {
        PatOp::Fp { op, dst, a, b } => match op {
            FpOp::Add => cpu.fadd(dst, a, b, width, prec),
            FpOp::Mul => cpu.fmul(dst, a, b, width, prec),
            FpOp::MinMax => cpu.fmax(dst, a, b, width, prec),
            FpOp::Fma => cpu.fma(dst, a, b, width, prec),
            FpOp::Div => cpu.fdiv(dst, a, b, width, prec),
        },
        PatOp::Load { dst, base, stride } => cpu.load(dst, base + j * stride, width, prec),
        PatOp::Store { src, base, stride } => cpu.store(base + j * stride, src, width, prec),
        PatOp::StoreNt { src, base, stride } => cpu.store_nt(base + j * stride, src, width, prec),
    }
}

/// Final observable state of a machine after a run, with f64s as bits so
/// comparisons are exact.
#[derive(Debug, PartialEq)]
struct Observed {
    tsc: u64,
    now: u64,
    core: CoreCounters,
    uncore: UncoreCounters,
    hier: HierCounters,
    cache_lines: Vec<String>,
    reg_ready: Vec<u64>,
}

fn observe(m: &mut Machine, reg_ready: Vec<u64>, now: u64) -> Observed {
    Observed {
        tsc: m.tsc().to_bits(),
        now,
        core: m.core_counters(0),
        uncore: m.uncore(),
        // The full hierarchical bank (per-level fills, writebacks, NT and
        // flush lines) must be bit-identical too, not just the legacy
        // core/uncore/cache views.
        hier: m.hier_counters(),
        cache_lines: format!("{:?}", m.cache_stats(0)).lines().map(String::from).collect(),
        reg_ready,
    }
}

fn width_of(sel: u8) -> VecWidth {
    match sel {
        0 => VecWidth::Scalar,
        1 => VecWidth::X128,
        _ => VecWidth::Y256,
    }
}

/// Runs `ops × iters` on a fresh machine, batched or per-instruction, and
/// returns the observable state.
fn execute(
    cfg: &MachineConfig,
    ops: &[OpD],
    width: VecWidth,
    prec: Precision,
    iters: u64,
    batched: bool,
) -> Observed {
    let mut m = Machine::new(cfg.clone());
    let mem_ops = ops
        .iter()
        .filter(|o| !matches!(o, OpD::Fp { .. }))
        .count();
    // A private region per memory op: batched and oracle runs see the same
    // addresses, and strided runs never escape their region.
    let span = 96 * iters + 128;
    let buf = m.alloc((mem_ops as u64 + 1) * span);
    let bases: Vec<u64> = (0..mem_ops as u64).map(|i| buf.base() + i * span).collect();
    let pat = materialize(ops, &bases, cfg.fp.has_fma);
    let mut ready = Vec::new();
    let mut now = 0u64;
    m.run(0, |cpu| {
        if batched {
            cpu.run_pattern(&pat, width, prec, iters);
        } else {
            for j in 0..iters {
                for op in &pat {
                    emit_oracle(cpu, op, width, prec, j);
                }
            }
        }
        ready = (0..Reg::COUNT)
            .map(|i| cpu.reg_ready_cycle(Reg::new(i as u8)).to_bits())
            .collect();
        now = cpu.now_tsc().to_bits();
    });
    observe(&mut m, ready, now)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Arbitrary mixed patterns on arbitrary machines: batched execution
    /// is indistinguishable from the per-instruction loop.
    #[test]
    fn pattern_matches_oracle(
        cfg in cfg_strategy(),
        ops in proptest::collection::vec(op_strategy(), 1..5),
        width_sel in 0u8..3,
        f32_prec in any::<bool>(),
        iters in 1u64..700,
    ) {
        let width = width_of(width_sel);
        let prec = if f32_prec { Precision::F32 } else { Precision::F64 };
        let batched = execute(&cfg, &ops, width, prec, iters, true);
        let oracle = execute(&cfg, &ops, width, prec, iters, false);
        prop_assert_eq!(&batched, &oracle,
            "batched != oracle for {:?} width {:?} prec {:?} iters {} on iw={} rob={}",
            ops, width, prec, iters, cfg.issue_width, cfg.rob_size);
    }

    /// Long pure-FP runs with small reorder windows: the steady-state jump
    /// engages (ROB wrap-around included) and still matches the oracle.
    #[test]
    fn fp_jump_matches_oracle(
        cfg in cfg_strategy(),
        kinds in proptest::collection::vec((0u8..4, 0u8..6), 1..6),
        iters in 200u64..2500,
    ) {
        let ops: Vec<OpD> = kinds
            .into_iter()
            .map(|(kind, dst)| OpD::Fp { kind, dst, a: 8, b: 9 })
            .collect();
        let batched = execute(&cfg, &ops, VecWidth::Y256, Precision::F64, iters, true);
        let oracle = execute(&cfg, &ops, VecWidth::Y256, Precision::F64, iters, false);
        prop_assert_eq!(&batched, &oracle,
            "fp jump diverged for {:?} iters {} on iw={} rob={}",
            ops, iters, cfg.issue_width, cfg.rob_size);
    }

    /// `overhead(n)` in closed form equals `n` single-instruction calls
    /// (`overhead(1)` always takes the drain loop), including the state it
    /// leaves behind for subsequent work.
    #[test]
    fn overhead_matches_unit_calls(
        cfg in cfg_strategy(),
        pre in 0u64..40,
        n in 1u64..800,
        post in 1u64..80,
    ) {
        let run = |closed: bool| {
            let mut m = Machine::new(cfg.clone());
            let mut ready = Vec::new();
            let mut now = 0u64;
            m.run(0, |cpu| {
                // A dependent-add prefix seeds the reorder window with
                // completions `overhead` must drain.
                for _ in 0..pre {
                    cpu.fadd(Reg::new(0), Reg::new(0), Reg::new(1), VecWidth::Y256, Precision::F64);
                }
                if closed {
                    cpu.overhead(n);
                } else {
                    for _ in 0..n {
                        cpu.overhead(1);
                    }
                }
                // A suffix exposes any divergence in front/ROB state.
                for _ in 0..post {
                    cpu.fmul(Reg::new(2), Reg::new(2), Reg::new(1), VecWidth::Y256, Precision::F64);
                }
                ready = (0..Reg::COUNT)
                    .map(|i| cpu.reg_ready_cycle(Reg::new(i as u8)).to_bits())
                    .collect();
                now = cpu.now_tsc().to_bits();
            });
            observe(&mut m, ready, now)
        };
        prop_assert_eq!(&run(true), &run(false),
            "overhead({}) != {} unit calls (pre {}, post {}, iw {}, rob {})",
            n, n, pre, post, cfg.issue_width, cfg.rob_size);
    }

    /// Read-modify-write streams: a load and a store of the *same* strided
    /// region in one pattern (dscal/daxpy shape). Consecutive accesses land
    /// on the same line and mix reads and writes, which must dirty the
    /// line exactly like the oracle.
    #[test]
    fn rmw_stream_matches_oracle(
        cfg in cfg_strategy(),
        stride in prop_oneof![Just(0u64), Just(8), Just(16), Just(32), Just(64)],
        fp_between in 0usize..3,
        width_sel in 0u8..3,
        iters in 1u64..400,
    ) {
        let width = width_of(width_sel);
        let run = |batched: bool| {
            let mut m = Machine::new(cfg.clone());
            let buf = m.alloc(64 * 400 + 128);
            let mut pat = vec![PatOp::Load { dst: Reg::new(0), base: buf.base(), stride }];
            for _ in 0..fp_between {
                pat.push(PatOp::Fp {
                    op: FpOp::Mul,
                    dst: Reg::new(1),
                    a: Reg::new(0),
                    b: Reg::new(8),
                });
            }
            pat.push(PatOp::Store { src: Reg::new(1), base: buf.base(), stride });
            let mut ready = Vec::new();
            let mut now = 0u64;
            m.run(0, |cpu| {
                if batched {
                    cpu.run_pattern(&pat, width, Precision::F64, iters);
                } else {
                    for j in 0..iters {
                        for op in &pat {
                            emit_oracle(cpu, op, width, Precision::F64, j);
                        }
                    }
                }
                ready = (0..Reg::COUNT)
                    .map(|i| cpu.reg_ready_cycle(Reg::new(i as u8)).to_bits())
                    .collect();
                now = cpu.now_tsc().to_bits();
            });
            observe(&mut m, ready, now)
        };
        prop_assert_eq!(&run(true), &run(false),
            "rmw stream diverged: stride {} fp {} width {:?} iters {}",
            stride, fp_between, width, iters);
    }

    /// Back-to-back runs (pattern, then overhead, then a second pattern)
    /// inherit state across boundaries exactly as the oracle does.
    #[test]
    fn chained_runs_match_oracle(
        cfg in cfg_strategy(),
        ops1 in proptest::collection::vec(op_strategy(), 1..4),
        ops2 in proptest::collection::vec(op_strategy(), 1..4),
        iters1 in 1u64..300,
        gap in 0u64..120,
        iters2 in 1u64..300,
    ) {
        let run = |batched: bool| {
            let mut m = Machine::new(cfg.clone());
            let mem = (ops1.iter().chain(&ops2))
                .filter(|o| !matches!(o, OpD::Fp { .. }))
                .count();
            let span = 96 * 300 + 128;
            let buf = m.alloc((mem as u64 + 1) * span);
            let bases: Vec<u64> = (0..mem as u64).map(|i| buf.base() + i * span).collect();
            let n1 = ops1.iter().filter(|o| !matches!(o, OpD::Fp { .. })).count();
            let pat1 = materialize(&ops1, &bases[..n1], cfg.fp.has_fma);
            let pat2 = materialize(&ops2, &bases[n1..], cfg.fp.has_fma);
            let mut ready = Vec::new();
            let mut now = 0u64;
            m.run(0, |cpu| {
                for (pat, iters) in [(&pat1, iters1), (&pat2, iters2)] {
                    if batched {
                        cpu.run_pattern(pat, VecWidth::X128, Precision::F64, iters);
                        cpu.overhead(gap);
                    } else {
                        for j in 0..iters {
                            for op in pat {
                                emit_oracle(cpu, op, VecWidth::X128, Precision::F64, j);
                            }
                        }
                        for _ in 0..gap {
                            cpu.overhead(1);
                        }
                    }
                }
                ready = (0..Reg::COUNT)
                    .map(|i| cpu.reg_ready_cycle(Reg::new(i as u8)).to_bits())
                    .collect();
                now = cpu.now_tsc().to_bits();
            });
            observe(&mut m, ready, now)
        };
        prop_assert_eq!(&run(true), &run(false),
            "chained runs diverged: {:?} x{} / gap {} / {:?} x{}",
            ops1, iters1, gap, ops2, iters2);
    }
}
