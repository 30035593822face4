//! The per-core execution engine: a greedy out-of-order timing model.
//!
//! The model tracks, in fractional core-clock cycles:
//!
//! * a **front end** that dispatches `issue_width` instructions per cycle,
//!   bounded by a reorder window of `rob_size` in-flight instructions;
//! * **execution ports** per operation class (add/mul/FMA/load/store), each
//!   accepting one operation per cycle (divides occupy their port for the
//!   full latency);
//! * **register dependencies**: an instruction starts no earlier than its
//!   source registers' ready times;
//! * **line-fill buffers**: at most `fill_buffers` L1 misses in flight,
//!   which bounds a single core's memory-level parallelism and is what
//!   makes single-threaded bandwidth latency-limited when prefetching is
//!   off.
//!
//! This is not a cycle-accurate Sandy Bridge; it is the minimal model with
//! the right asymptotics: independent FMA chains reach the port throughput
//! limit, dependency chains are latency-limited, and streaming kernels are
//! bound by `fill_buffers x line / dram_latency` or the IMC service rate,
//! whichever is tighter.

use crate::config::MachineConfig;
use crate::isa::{FpOp, Precision, Reg, VecWidth};
use crate::memsys::{AccessKind, MemSystem};
use crate::pmu::{CoreCounters, CoreEvent};

mod runs;

pub use runs::PatOp;

/// FP port-class indices into [`CoreState`]'s slot trackers (used by the
/// batched-run machinery to record and replay per-class issue schedules).
pub(crate) const CLASS_ADD: usize = 0;
pub(crate) const CLASS_MUL: usize = 1;
pub(crate) const CLASS_FMA: usize = 2;
pub(crate) const NCLASS: usize = 3;

/// Mutable per-core state that persists across run slices.
#[derive(Debug, Clone)]
pub struct CoreState {
    /// Front-end position in core cycles (fractional).
    front: f64,
    /// Cycles per dispatched instruction (`1 / issue_width`), computed
    /// once — `dispatch` sits on the per-instruction hot path and the
    /// divide is pure overhead there.
    issue_step: f64,
    /// Ready time of each architectural register (core cycles).
    reg_ready: [f64; Reg::COUNT],
    /// Per-class issue capacity, grouped by class.
    add_ports: PortSlots,
    mul_ports: PortSlots,
    fma_ports: PortSlots,
    load_ports: PortSlots,
    store_ports: PortSlots,
    /// Completion times (TSC) of in-flight L1 misses, ascending. Only the
    /// multiset is observable (admission reads the count and the earliest
    /// value), so keeping it sorted changes nothing but the cost.
    fill: std::collections::VecDeque<f64>,
    /// Completion times (core cycles) of the last `rob_size` instructions.
    rob: std::collections::VecDeque<f64>,
    /// The core's PMU bank.
    pub(crate) counters: CoreCounters,
    /// Latest completion observed (core cycles), for end-of-run accounting.
    horizon: f64,
    /// Retirement events accumulated during a run and flushed into
    /// `counters` in one batch at the end of the region (counters are only
    /// read between runs, so batching is invisible to every observer).
    pending_instr: u64,
    pending_loads: u64,
    pending_stores: u64,
}

/// A port class modelled as per-cycle issue slots over a sliding window.
///
/// Unlike a scalar "next free time" per port, slot tracking lets an
/// already-ready operation *backfill* a cycle that lies before some
/// dependent operation's future start — which is what an out-of-order
/// scheduler does. Without backfilling, a dependent op issued in program
/// order poisons its port's availability and serializes mixed
/// dependent/independent streams (a 3x error on shared-port machines).
#[derive(Debug, Clone)]
struct PortSlots {
    ports: u8,
    /// Absolute cycle represented by ring index `head`.
    base: u64,
    head: usize,
    /// Issues per cycle, a ring indexed with `& SLOT_MASK`.
    used: Box<[u8; SLOT_WINDOW]>,
    /// Every cycle in `[full_start, full_end)` is verified fully
    /// occupied. Slot occupancy only ever grows within the window, so the
    /// interval stays valid forever; scans starting inside it jump
    /// straight to its end. On saturated streams the ROB keeps `ready`
    /// tens of cycles behind the issue frontier, and without this memo
    /// every instruction re-walks that known-full run linearly.
    full_start: u64,
    full_end: u64,
}

/// Slot-window length in cycles: must exceed the deepest time spread
/// between in-flight operations (bounded by the reorder window times the
/// longest latency, in practice a few hundred cycles).
const SLOT_WINDOW: usize = 4096;

/// Ring-index mask of the slot window (its length is a power of two).
const SLOT_MASK: usize = SLOT_WINDOW - 1;

/// `x.ceil() as i64` for `|x|` below 2^63, without the libm call the
/// baseline x86-64 target lowers `f64::ceil` to. Sits on the issue-slot
/// critical path. The round trip goes through `i64` because it is one
/// instruction each way there; baseline x86-64 has no single-instruction
/// `u64` conversion.
#[inline(always)]
fn ceil_i64(x: f64) -> i64 {
    let t = x as i64;
    t + ((t as f64) < x) as i64
}

impl PortSlots {
    fn new(ports: u32) -> Self {
        Self {
            ports: ports.clamp(1, 255) as u8,
            base: 0,
            head: 0,
            used: Box::new([0; SLOT_WINDOW]),
            full_start: 0,
            full_end: 0,
        }
    }

    fn reset(&mut self) {
        self.base = 0;
        self.head = 0;
        self.used.fill(0);
        self.full_start = 0;
        self.full_end = 0;
    }

    /// Slides the window forward `by` cycles, zeroing the slots that fall
    /// off the front in bulk (equivalent to stepping one cycle at a time,
    /// but a pair of slice fills instead of a per-cycle loop — time jumps
    /// after DRAM misses make `by` large).
    fn advance(&mut self, by: u64) {
        if by as usize >= SLOT_WINDOW {
            self.used.fill(0);
        } else {
            let by = by as usize;
            let contiguous = by.min(SLOT_WINDOW - self.head);
            self.used[self.head..self.head + contiguous].fill(0);
            self.used[..by - contiguous].fill(0);
        }
        self.head = self.head.wrapping_add(by as usize) & SLOT_MASK;
        self.base += by;
    }

    /// Finds and occupies the earliest issue slot at or after `ready`,
    /// holding the slot's port for `occupy` cycles (1 for pipelined ops,
    /// the full latency for unpipelined divides). Returns the start cycle.
    fn issue(&mut self, ready: f64, occupy: f64) -> f64 {
        // Cycle numbers stay far below 2^63, so the signed conversions
        // here and at the return are exact.
        let mut c = ceil_i64(ready).max(self.base as i64) as u64;
        // Cycles inside the verified-full interval cannot accept an issue,
        // so a scan starting there jumps to its end — skipping them
        // changes nothing but the scan length. `merge` records whether the
        // run this scan walks is contiguous with the interval (no
        // unexamined gap), and may therefore extend it.
        let merge = c >= self.full_start && c <= self.full_end;
        let scan_start = if merge {
            c = self.full_end.max(c);
            c
        } else {
            c
        };
        // Pipelined ops (`occupy <= 1`) are the overwhelming majority;
        // skipping the ceil/max/convert chain for them shortens the
        // serial dependency path this function sits on.
        let span = if occupy <= 1.0 {
            1
        } else {
            ceil_i64(occupy) as u64
        };
        loop {
            if c + span >= self.base + SLOT_WINDOW as u64 {
                // Quantized slide: always a multiple of W/4, computed in
                // one step. This makes the post-scan base a pure function
                // of the largest cycle the scan visits — the batched-run
                // replay (cpu/runs.rs) reconstructs it from recorded issue
                // starts alone, with no dependence on scan internals.
                let quantum = SLOT_WINDOW as u64 / 4;
                let excess = c + span + 1 - (self.base + SLOT_WINDOW as u64);
                self.advance(excess.div_ceil(quantum) * quantum);
                if c < self.base {
                    c = self.base;
                }
            }
            let idx = (self.head + (c - self.base) as usize) & SLOT_MASK;
            if self.used[idx] < self.ports {
                self.used[idx] += 1;
                let now_full = self.used[idx] >= self.ports;
                if merge {
                    // [full_start, c) is full and contiguous with the
                    // old interval; the found slot extends it only once
                    // this issue saturates it.
                    self.full_end = if now_full { c + 1 } else { c };
                } else {
                    // Restart the interval at this scan's walked run.
                    self.full_start = scan_start;
                    self.full_end = if now_full { c + 1 } else { c };
                }
                // Unpipelined occupancy: block the whole class for the
                // remaining cycles (divides are rare; exact per-port
                // tracking is not worth the bookkeeping).
                for extra in 1..span {
                    let j = (self.head + (c - self.base + extra) as usize) & SLOT_MASK;
                    self.used[j] = self.used[j].saturating_add(self.ports);
                }
                return c as i64 as f64;
            }
            c += 1;
        }
    }
}

impl CoreState {
    pub(crate) fn new(cfg: &MachineConfig) -> Self {
        Self {
            front: 0.0,
            issue_step: 1.0 / cfg.issue_width as f64,
            reg_ready: [0.0; Reg::COUNT],
            add_ports: PortSlots::new(cfg.fp.add_ports),
            mul_ports: PortSlots::new(cfg.fp.mul_ports),
            fma_ports: PortSlots::new(cfg.fp.fma_ports),
            load_ports: PortSlots::new(cfg.load_ports),
            store_ports: PortSlots::new(cfg.store_ports),
            fill: std::collections::VecDeque::with_capacity(cfg.fill_buffers + 1),
            rob: std::collections::VecDeque::with_capacity(cfg.rob_size as usize),
            counters: CoreCounters::default(),
            horizon: 0.0,
            pending_instr: 0,
            pending_loads: 0,
            pending_stores: 0,
        }
    }

    /// Resets timing state for a fresh run (counters are preserved; they
    /// are monotone like hardware counters).
    pub(crate) fn reset_timing(&mut self) {
        self.front = 0.0;
        self.reg_ready = [0.0; Reg::COUNT];
        self.add_ports.reset();
        self.mul_ports.reset();
        self.fma_ports.reset();
        self.load_ports.reset();
        self.store_ports.reset();
        self.fill.clear();
        self.rob.clear();
        self.horizon = 0.0;
    }

    /// Core-cycle time at which the core has fully drained.
    pub(crate) fn drain_time(&self) -> f64 {
        self.front.max(self.horizon)
    }

    /// The slot tracker of one FP port class, by index.
    fn class_ports_mut(&mut self, class: usize) -> &mut PortSlots {
        match class {
            CLASS_ADD => &mut self.add_ports,
            CLASS_MUL => &mut self.mul_ports,
            _ => &mut self.fma_ports,
        }
    }

    /// Moves batched retirement events into the PMU bank. Called at the
    /// end of every run region, before anything can observe the counters.
    pub(crate) fn flush_pending(&mut self) {
        self.counters
            .add(CoreEvent::InstRetired, self.pending_instr);
        self.counters
            .add(CoreEvent::LoadsRetired, self.pending_loads);
        self.counters
            .add(CoreEvent::StoresRetired, self.pending_stores);
        self.pending_instr = 0;
        self.pending_loads = 0;
        self.pending_stores = 0;
    }
}

/// A handle through which a program executes on one core.
///
/// Obtained from [`Machine::run`](crate::Machine::run) and
/// [`Machine::run_parallel`](crate::Machine::run_parallel); every method
/// models the retirement of one instruction.
#[derive(Debug)]
pub struct Cpu<'m> {
    pub(crate) core_id: usize,
    pub(crate) state: &'m mut CoreState,
    pub(crate) mem: &'m mut MemSystem,
    pub(crate) cfg: &'m MachineConfig,
    /// TSC time at which this run started.
    pub(crate) tsc_base: f64,
    /// TSC cycles per core cycle (`nominal / core_freq`); 1.0 without
    /// turbo, < 1.0 when the core clocks above nominal.
    pub(crate) tsc_per_cc: f64,
    /// Cap on in-flight L1 misses.
    pub(crate) fill_cap: usize,
}

impl<'m> Cpu<'m> {
    /// Which core this handle drives.
    pub fn core_id(&self) -> usize {
        self.core_id
    }

    /// The machine configuration (for width-aware kernel emitters).
    pub fn config(&self) -> &MachineConfig {
        self.cfg
    }

    #[inline]
    fn cc_to_tsc(&self, cc: f64) -> f64 {
        self.tsc_base + cc * self.tsc_per_cc
    }

    #[inline]
    fn tsc_to_cc(&self, tsc: f64) -> f64 {
        // Without turbo the clocks coincide and dividing by exactly 1.0
        // is the identity, so the (hot, per-memory-op) divide can be
        // skipped without perturbing a single bit.
        if self.tsc_per_cc == 1.0 {
            tsc - self.tsc_base
        } else {
            (tsc - self.tsc_base) / self.tsc_per_cc
        }
    }

    /// Front-end dispatch: advances program order and enforces the reorder
    /// window. Returns the earliest cycle the instruction may execute.
    #[inline]
    fn dispatch(&mut self) -> f64 {
        let issue = self.state.issue_step;
        if self.state.rob.len() >= self.cfg.rob_size as usize {
            let oldest = self.state.rob.pop_front().expect("rob nonempty");
            if oldest > self.state.front {
                self.state.front = oldest;
            }
        }
        self.state.front += issue;
        self.state.front
    }

    #[inline]
    fn retire(&mut self, completion_cc: f64) {
        self.state.rob.push_back(completion_cc);
        if completion_cc > self.state.horizon {
            self.state.horizon = completion_cc;
        }
        self.state.pending_instr += 1;
    }

    #[inline]
    fn srcs_ready(&self, srcs: &[Reg]) -> f64 {
        srcs.iter()
            .map(|r| self.state.reg_ready[r.index()])
            .fold(0.0, f64::max)
    }

    /// Latency, port occupancy, and port class of one FP operation on this
    /// configuration (shared by the per-instruction path and the batched-run
    /// planner, which must agree on the mapping by construction).
    fn fp_timing(&self, op: FpOp) -> (f64, f64, usize) {
        let has_fma = self.cfg.fp.has_fma;
        match op {
            FpOp::Add | FpOp::MinMax => {
                if has_fma {
                    (self.cfg.fp.add_latency, 1.0, CLASS_FMA)
                } else {
                    (self.cfg.fp.add_latency, 1.0, CLASS_ADD)
                }
            }
            FpOp::Mul => {
                if has_fma {
                    (self.cfg.fp.mul_latency, 1.0, CLASS_FMA)
                } else {
                    (self.cfg.fp.mul_latency, 1.0, CLASS_MUL)
                }
            }
            FpOp::Fma => {
                assert!(has_fma, "FMA not available on {}", self.cfg.name);
                (self.cfg.fp.fma_latency, 1.0, CLASS_FMA)
            }
            FpOp::Div => {
                let lat = self.cfg.fp.div_latency;
                if has_fma {
                    (lat, lat, CLASS_FMA)
                } else {
                    (lat, lat, CLASS_MUL)
                }
            }
        }
    }

    /// Executes one FP instruction; returns its port class, issue cycle,
    /// and completion cycle (consumed by the batched-run recorder; the
    /// public wrappers ignore them).
    fn fp_exec(
        &mut self,
        op: FpOp,
        dst: Reg,
        srcs: &[Reg],
        width: VecWidth,
        prec: Precision,
    ) -> (usize, f64, f64) {
        assert!(
            width <= self.cfg.fp.max_width,
            "width {width} unsupported on {}",
            self.cfg.name
        );
        let disp = self.dispatch();
        let ready = self.srcs_ready(srcs).max(disp);
        let (latency, occupy, class) = self.fp_timing(op);
        let start = self.state.class_ports_mut(class).issue(ready, occupy);
        let done = start + latency;
        self.state.reg_ready[dst.index()] = done;
        self.state.counters.count_fp(op, width, prec);
        self.retire(done);
        (class, start, done)
    }

    /// Vector/scalar FP addition: `dst = a + b`.
    pub fn fadd(&mut self, dst: Reg, a: Reg, b: Reg, width: VecWidth, prec: Precision) {
        self.fp_exec(FpOp::Add, dst, &[a, b], width, prec);
    }

    /// Vector/scalar FP multiplication: `dst = a * b`.
    pub fn fmul(&mut self, dst: Reg, a: Reg, b: Reg, width: VecWidth, prec: Precision) {
        self.fp_exec(FpOp::Mul, dst, &[a, b], width, prec);
    }

    /// Fused multiply-add: `dst = a * b + dst`.
    ///
    /// # Panics
    ///
    /// Panics on configurations without FMA support (like Sandy Bridge).
    pub fn fma(&mut self, dst: Reg, a: Reg, b: Reg, width: VecWidth, prec: Precision) {
        self.fp_exec(FpOp::Fma, dst, &[dst, a, b], width, prec);
    }

    /// FP division: `dst = a / b` (long-latency, unpipelined).
    pub fn fdiv(&mut self, dst: Reg, a: Reg, b: Reg, width: VecWidth, prec: Precision) {
        self.fp_exec(FpOp::Div, dst, &[a, b], width, prec);
    }

    /// FP max: `dst = max(a, b)`. Does real work but is invisible to the
    /// FP flop events — the paper's stated methodology limitation.
    pub fn fmax(&mut self, dst: Reg, a: Reg, b: Reg, width: VecWidth, prec: Precision) {
        self.fp_exec(FpOp::MinMax, dst, &[a, b], width, prec);
    }

    /// Register move / shuffle (no flops, single-cycle).
    pub fn mov(&mut self, dst: Reg, src: Reg) {
        let disp = self.dispatch();
        let start = self.srcs_ready(&[src]).max(disp);
        let done = start + 1.0;
        self.state.reg_ready[dst.index()] = done;
        self.retire(done);
    }

    /// Models `n` instructions of scalar overhead (address arithmetic,
    /// loop control) that occupy the front end but no modelled port.
    ///
    /// Pure front-end arithmetic: each instruction dispatches and retires
    /// at its own dispatch cycle, so after the reorder window has drained
    /// every completion the run inherited, the remaining instructions
    /// advance `front` by exactly `issue_step` each and refill the window
    /// with an arithmetic progression — computed in closed form. The
    /// per-instruction loop below is the oracle for the drain phase and
    /// for configurations where the closed form is not bit-exact
    /// (non-power-of-two issue widths, turbo-tainted fronts).
    pub fn overhead(&mut self, n: u64) {
        let cap = self.cfg.rob_size as usize;
        // Phase 1 (oracle loop): while completions pushed by *earlier*
        // instructions remain in the window, a dispatch may pop one and
        // bump the front — run those per-instruction. After `(cap -
        // len0) + len0 = cap` instructions at most, every inherited entry
        // has been popped and only overhead completions (all <= front,
        // which is monotone) remain: pops can never bump again.
        let drain = (n as usize).min(cap.max(self.state.rob.len()));
        for _ in 0..drain {
            let disp = self.dispatch();
            self.retire(disp);
        }
        let rest = n - drain as u64;
        if rest == 0 {
            return;
        }
        // Closed form is bit-exact only when `front` is a dyadic rational
        // on the issue grid and stays well below 2^53: then `front +
        // issue_step` repeated `rest` times equals `(scaled + i) /
        // issue_width` at every step.
        let iw = self.cfg.issue_width as u64;
        let iwf = iw as f64;
        let scaled = self.state.front * iwf;
        let exact = iw.is_power_of_two()
            && scaled.fract() == 0.0
            && scaled + (rest as f64) < 9.0e15;
        if !exact {
            for _ in 0..rest {
                let disp = self.dispatch();
                self.retire(disp);
            }
            return;
        }
        // `rob.len() == cap` here: phase 1 ran at least `cap` instructions
        // (otherwise rest == 0), and pushes keep the window at capacity.
        debug_assert_eq!(self.state.rob.len(), cap);
        let capu = cap as u64;
        if rest >= capu {
            self.state.rob.clear();
            for i in (rest - capu + 1)..=rest {
                self.state.rob.push_back((scaled + i as f64) / iwf);
            }
        } else {
            for i in 1..=rest {
                self.state.rob.pop_front();
                self.state.rob.push_back((scaled + i as f64) / iwf);
            }
        }
        self.state.front = (scaled + rest as f64) / iwf;
        if self.state.front > self.state.horizon {
            self.state.horizon = self.state.front;
        }
        self.state.pending_instr += rest;
    }

    /// Admission control for line-fill buffers: returns the TSC time at
    /// which a new L1 miss may issue, given it wants to issue at `want`.
    fn fill_admit(&mut self, want: f64) -> f64 {
        // Drop completed entries: a prefix of the ascending list.
        let fill = &mut self.state.fill;
        while fill.front().is_some_and(|&c| c <= want) {
            fill.pop_front();
        }
        if fill.len() < self.fill_cap {
            return want;
        }
        // Wait for the earliest in-flight miss to complete.
        fill.pop_front().expect("fill buffers nonempty")
    }

    /// Records an in-flight L1 miss completing at `done` (TSC).
    fn fill_track(&mut self, done: f64) {
        let fill = &mut self.state.fill;
        if fill.back().is_none_or(|&c| c <= done) {
            fill.push_back(done);
        } else {
            fill.insert(fill.partition_point(|&c| c <= done), done);
        }
    }

    fn mem_exec(&mut self, kind: AccessKind, dst: Option<Reg>, addr: u64, bytes: u64) -> f64 {
        let disp = self.dispatch();
        let ports = match kind {
            AccessKind::Load => &mut self.state.load_ports,
            AccessKind::Store | AccessKind::StoreNt => &mut self.state.store_ports,
        };
        let start_cc = ports.issue(disp, 1.0);
        let start_tsc = self.cc_to_tsc(start_cc);

        let first = self.mem.line_of(addr);
        let last = self.mem.line_of(addr + bytes - 1);
        let complete_at = if first == last && kind != AccessKind::StoreNt {
            // Single-line demand access: hit/miss decided by one L1 probe.
            // The probe's L1 update is clock-independent, and the
            // fill-buffer admission below only touches `state.fill`, so
            // probing before the admission stall is unobservable.
            match self.mem.l1_try_hit(
                self.core_id,
                first,
                kind == AccessKind::Store,
                start_tsc,
            ) {
                Ok(done) => done,
                Err(victim) => {
                    // Only L1 misses consume fill buffers.
                    let admitted = self.fill_admit(start_tsc);
                    let done = self
                        .mem
                        .miss_walk(
                            self.core_id,
                            first,
                            kind == AccessKind::Store,
                            admitted,
                            &mut self.state.counters,
                            victim,
                        )
                        .complete_at;
                    self.fill_track(done);
                    done
                }
            }
        } else {
            // Line-crossing or NT access: the general walk. NT stores
            // always consume fill buffers (they occupy write-combining
            // buffers, modelled with the same cap); line-crossers keep the
            // historical first-line residency test.
            let will_miss = match kind {
                AccessKind::StoreNt => true,
                _ => !self.mem.l1_contains(self.core_id, addr),
            };
            let mut start = start_tsc;
            if will_miss {
                start = self.fill_admit(start);
            }
            let res = self.mem.access(
                self.core_id,
                addr,
                bytes,
                kind,
                start,
                &mut self.state.counters,
            );
            if res.l1_miss {
                self.fill_track(res.complete_at);
            }
            res.complete_at
        };
        let done_cc = self.tsc_to_cc(complete_at);
        if let Some(dst) = dst {
            self.state.reg_ready[dst.index()] = done_cc;
        }
        match kind {
            AccessKind::Load => self.state.pending_loads += 1,
            _ => self.state.pending_stores += 1,
        }
        // All accesses hold their window entry until the line transaction
        // completes. For loads that is the ROB proper; for stores it
        // approximates the store buffer — a real core retires stores
        // before their RFO finishes but stalls once the (smaller) store
        // buffer fills, and modelling that with the same window keeps
        // store-only streams correctly paced by the memory system instead
        // of retiring at port rate with unbounded in-flight traffic.
        self.retire(done_cc);
        done_cc
    }

    /// Loads `width` bytes worth of elements at `addr` into `dst`.
    pub fn load(&mut self, dst: Reg, addr: u64, width: VecWidth, prec: Precision) {
        self.mem_exec(AccessKind::Load, Some(dst), addr, width.bytes(prec));
    }

    /// Stores `src` to `addr`.
    pub fn store(&mut self, addr: u64, src: Reg, width: VecWidth, prec: Precision) {
        let _ready = self.state.reg_ready[src.index()];
        self.mem_exec(AccessKind::Store, None, addr, width.bytes(prec));
    }

    /// Non-temporal (streaming) store of `src` to `addr`.
    pub fn store_nt(&mut self, addr: u64, src: Reg, width: VecWidth, prec: Precision) {
        let _ready = self.state.reg_ready[src.index()];
        self.mem_exec(AccessKind::StoreNt, None, addr, width.bytes(prec));
    }

    /// The core's current position on the TSC timeline.
    pub fn now_tsc(&self) -> f64 {
        self.cc_to_tsc(self.state.front)
    }

    /// The core-cycle timestamp at which `r`'s value becomes available.
    ///
    /// Diagnostic probe: the batch-vs-oracle property suite uses it to pin
    /// batched register-ready times to the per-instruction path bit for
    /// bit.
    pub fn reg_ready_cycle(&self, r: Reg) -> f64 {
        self.state.reg_ready[r.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{sandy_bridge, test_machine};
    use crate::machine::Machine;

    const W: VecWidth = VecWidth::Y256;
    const P: Precision = Precision::F64;

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    /// Independent balanced add+mul streams reach 2 FP instructions per
    /// cycle on Sandy Bridge (one add port + one mul port).
    #[test]
    fn balanced_add_mul_reaches_two_per_cycle() {
        let mut m = Machine::new(sandy_bridge());
        let n = 10_000u64;
        m.run(0, |cpu| {
            for _ in 0..n / 8 {
                // 4 independent adds and 4 independent muls.
                for i in 0..4u8 {
                    cpu.fadd(r(i), r(8), r(9), W, P);
                }
                for i in 4..8u8 {
                    cpu.fmul(r(i), r(10), r(11), W, P);
                }
            }
        });
        let cycles = m.core_counters(0).get(CoreEvent::ClkUnhalted) as f64;
        let instr = n as f64;
        let ipc = instr / cycles;
        assert!(
            (ipc - 2.0).abs() < 0.05,
            "expected ~2 FP instr/cycle, got {ipc}"
        );
    }

    /// A single dependency chain of adds is latency-bound at 1/3 per cycle.
    #[test]
    fn dependency_chain_is_latency_bound() {
        let mut m = Machine::new(sandy_bridge());
        let n = 3_000u64;
        m.run(0, |cpu| {
            for _ in 0..n {
                cpu.fadd(r(0), r(0), r(1), W, P);
            }
        });
        let cycles = m.core_counters(0).get(CoreEvent::ClkUnhalted) as f64;
        let per_instr = cycles / n as f64;
        assert!(
            (per_instr - 3.0).abs() < 0.1,
            "expected ~3 cycles/add in a chain, got {per_instr}"
        );
    }

    /// Add-only independent streams are limited by the single add port.
    #[test]
    fn add_only_limited_to_one_per_cycle() {
        let mut m = Machine::new(sandy_bridge());
        let n = 8_000u64;
        m.run(0, |cpu| {
            for _ in 0..n / 8 {
                for i in 0..8u8 {
                    cpu.fadd(r(i), r(8), r(9), W, P);
                }
            }
        });
        let cycles = m.core_counters(0).get(CoreEvent::ClkUnhalted) as f64;
        let ipc = n as f64 / cycles;
        assert!((ipc - 1.0).abs() < 0.05, "expected ~1 add/cycle, got {ipc}");
    }

    #[test]
    fn fma_panics_on_snb() {
        let mut m = Machine::new(sandy_bridge());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.run(0, |cpu| {
                cpu.fma(r(0), r(1), r(2), W, P);
            });
        }));
        assert!(result.is_err());
    }

    #[test]
    fn fma_throughput_on_haswell() {
        let mut m = Machine::new(crate::config::haswell());
        let n = 8_000u64;
        m.run(0, |cpu| {
            for _ in 0..n / 8 {
                for i in 0..8u8 {
                    // Accumulators are independent across i.
                    cpu.fma(r(i), r(8), r(9), W, P);
                }
            }
        });
        let cycles = m.core_counters(0).get(CoreEvent::ClkUnhalted) as f64;
        let ipc = n as f64 / cycles;
        // Two FMA ports, but each accumulator has a 5-cycle loop-carried
        // dependency: 8 accumulators / 5 cycles = 1.6 FMA/cycle.
        assert!(
            (ipc - 1.6).abs() < 0.1,
            "expected ~1.6 FMA/cycle with 8 accumulators, got {ipc}"
        );
        // Flops: 8 lanes... 4 lanes * 2 = 8 flops per FMA.
        assert_eq!(m.core_counters(0).flops(P), n * 8);
    }

    #[test]
    fn loads_hit_l1_at_two_per_cycle() {
        let mut m = Machine::new(sandy_bridge());
        let buf = m.alloc(64);
        let n = 4_000u64;
        m.run(0, |cpu| {
            // Prime the line.
            cpu.load(r(0), buf.base(), W, P);
            for _ in 0..n {
                cpu.load(r(1), buf.base(), W, P);
            }
        });
        let cycles = m.core_counters(0).get(CoreEvent::ClkUnhalted) as f64;
        let ipc = n as f64 / cycles;
        assert!(ipc > 1.8, "expected ~2 L1 loads/cycle, got {ipc}");
    }

    #[test]
    fn fill_buffers_bound_miss_parallelism() {
        // With prefetch off, streaming bandwidth ~= buffers*line/latency.
        let cfg = test_machine(); // 4 buffers, 120-cycle DRAM, 8 GB/s IMC
        let mut m = Machine::new(cfg.clone());
        m.set_prefetch(false, false);
        let n_lines = 2_000u64;
        let buf = m.alloc(n_lines * 64);
        m.run(0, |cpu| {
            for i in 0..n_lines {
                cpu.load(r(0), buf.base() + i * 64, W, P);
            }
        });
        let cycles = m.core_counters(0).get(CoreEvent::ClkUnhalted) as f64;
        let bytes_per_cycle = (n_lines * 64) as f64 / cycles;
        // A demand miss pays the L3 lookup before reaching DRAM.
        let miss_latency = cfg.dram_latency + cfg.l3.latency;
        let latency_bound = cfg.fill_buffers as f64 * 64.0 / miss_latency;
        let imc_bound = 64.0 / cfg.imc_service_cycles();
        let expected = latency_bound.min(imc_bound);
        assert!(
            (bytes_per_cycle - expected).abs() / expected < 0.15,
            "expected ~{expected:.3} B/cyc, got {bytes_per_cycle:.3}"
        );
    }

    #[test]
    fn prefetch_improves_streaming_bandwidth() {
        let cfg = test_machine();
        let run = |prefetch: bool| {
            let mut m = Machine::new(cfg.clone());
            m.set_prefetch(prefetch, prefetch);
            let n_lines = 2_000u64;
            let buf = m.alloc(n_lines * 64);
            m.run(0, |cpu| {
                for i in 0..n_lines {
                    cpu.load(r(0), buf.base() + i * 64, W, P);
                }
            });
            m.core_counters(0).get(CoreEvent::ClkUnhalted) as f64
        };
        let cold = run(false);
        let warm = run(true);
        assert!(
            warm < cold * 0.8,
            "prefetching should speed streaming: {warm} vs {cold}"
        );
    }

    #[test]
    fn overhead_advances_front_end_only() {
        let mut m = Machine::new(sandy_bridge());
        m.run(0, |cpu| {
            cpu.overhead(400);
        });
        let c = m.core_counters(0);
        assert_eq!(c.get(CoreEvent::InstRetired), 400);
        // 4-wide: 400 instructions take ~100 cycles.
        let cycles = c.get(CoreEvent::ClkUnhalted);
        assert!((90..=110).contains(&cycles), "got {cycles}");
    }

    #[test]
    fn mov_tracks_dependency() {
        let mut m = Machine::new(sandy_bridge());
        m.run(0, |cpu| {
            cpu.fmul(r(0), r(1), r(2), W, P); // ready at ~5
            cpu.mov(r(3), r(0)); // ready ~6
            cpu.fadd(r(4), r(3), r(3), W, P); // ready ~9
        });
        let cycles = m.core_counters(0).get(CoreEvent::ClkUnhalted);
        assert!(cycles >= 9, "chain must be serialized, got {cycles}");
    }

    /// Regression for the port-scheduler backfilling fix: alternating
    /// dependent/independent operations on *shared* ports must still
    /// saturate the class throughput, because ready ops issue into the
    /// idle cycles before a dependent op's future start.
    #[test]
    fn shared_ports_backfill_around_dependent_ops() {
        let mut m = Machine::new(crate::config::haswell());
        let n = 8_000u64;
        m.run(0, |cpu| {
            for g in 0..n / 4 {
                // One accumulator-chained add (rotating over four
                // accumulators, so each chain step is spaced well past the
                // add latency) plus three independent muls — all sharing
                // the two FMA ports. Without backfilling, each add's
                // future start poisons a port and the stream serializes.
                let acc = (g % 4) as u8;
                cpu.fadd(r(acc), r(acc), r(9), W, P);
                cpu.fmul(r(4), r(8), r(9), W, P);
                cpu.fmul(r(5), r(8), r(9), W, P);
                cpu.fmul(r(6), r(8), r(9), W, P);
            }
        });
        let cycles = m.core_counters(0).get(CoreEvent::ClkUnhalted) as f64;
        let ipc = n as f64 / cycles;
        assert!(
            (ipc - 2.0).abs() < 0.1,
            "shared ports should stay saturated at 2/cycle, got {ipc}"
        );
    }

    #[test]
    fn divide_blocks_its_port_class() {
        let mut m = Machine::new(sandy_bridge());
        let n = 200u64;
        m.run(0, |cpu| {
            for _ in 0..n {
                cpu.fdiv(r(0), r(8), r(9), W, P);
            }
        });
        let cycles = m.core_counters(0).get(CoreEvent::ClkUnhalted) as f64;
        let per_div = cycles / n as f64;
        let lat = sandy_bridge().fp.div_latency;
        assert!(
            (per_div - lat).abs() < 2.0,
            "unpipelined divides should cost ~{lat} cycles each, got {per_div}"
        );
    }

    #[test]
    fn divide_does_not_block_other_classes() {
        // Adds flow at 1/cycle on their own port while divides occupy the
        // mul port.
        let mut m = Machine::new(sandy_bridge());
        let n = 2_000u64;
        m.run(0, |cpu| {
            for i in 0..n {
                if i % 20 == 0 {
                    cpu.fdiv(r(7), r(8), r(9), W, P);
                }
                cpu.fadd(r((i % 4) as u8), r(8), r(9), W, P);
            }
        });
        let cycles = m.core_counters(0).get(CoreEvent::ClkUnhalted) as f64;
        // 2000 adds at 1/cycle dominate; 100 divides overlap on port 0.
        let ratio = cycles / n as f64;
        assert!(
            ratio < 1.3,
            "divides on the mul port should overlap adds, got {ratio} cycles/add"
        );
    }

    #[test]
    fn minmax_does_work_but_counts_no_flops() {
        let mut m = Machine::new(sandy_bridge());
        m.run(0, |cpu| {
            for _ in 0..100 {
                cpu.fmax(r(0), r(1), r(2), W, P);
            }
        });
        let c = m.core_counters(0);
        assert_eq!(c.flops(P), 0);
        assert_eq!(c.get(CoreEvent::InstRetired), 100);
        assert!(c.get(CoreEvent::ClkUnhalted) >= 100);
    }
}
