//! The machine: cores + memory system + TSC + turbo, with single-threaded
//! and multi-threaded (interleaved) execution.

use crate::config::MachineConfig;
use crate::cpu::{CoreState, Cpu};
use crate::fault::FaultInjector;
use crate::memsys::MemSystem;
use crate::pmu::{CoreCounters, CoreEvent, UncoreCounters};

/// A region of simulated memory returned by [`Machine::alloc`].
///
/// The simulator never stores data — kernels keep their numerics in native
/// Rust — so a buffer is just an address range with element-addressing
/// helpers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Buffer {
    base: u64,
    len: u64,
}

impl Buffer {
    /// Base byte address (4 KiB aligned).
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Address of the `i`-th 8-byte (f64) element.
    ///
    /// # Panics
    ///
    /// Panics when the element lies outside the buffer.
    #[inline]
    pub fn f64_at(&self, i: u64) -> u64 {
        let off = i * 8;
        debug_assert!(off + 8 <= self.len, "f64 index {i} out of bounds");
        self.base + off
    }

    /// Address of the `i`-th 4-byte (f32) element.
    #[inline]
    pub fn f32_at(&self, i: u64) -> u64 {
        let off = i * 4;
        debug_assert!(off + 4 <= self.len, "f32 index {i} out of bounds");
        self.base + off
    }

    /// Address `off` bytes into the buffer.
    #[inline]
    pub fn at(&self, off: u64) -> u64 {
        debug_assert!(off < self.len, "byte offset {off} out of bounds");
        self.base + off
    }
}

/// A multi-threaded workload: each participating core runs one
/// `ThreadProgram`, divided into slices so the scheduler can interleave
/// cores onto the shared memory timeline (always advancing the core that is
/// furthest behind).
pub trait ThreadProgram {
    /// Number of slices this thread's work divides into. More slices give
    /// finer interleaving; 16–64 is plenty.
    fn slices(&self) -> usize;

    /// Executes slice `slice` (in `0..slices()`) on the given core.
    fn run_slice(&mut self, cpu: &mut Cpu<'_>, slice: usize);
}

/// A [`ThreadProgram`] built from a closure over the slice index.
pub struct SlicedFn<F> {
    slices: usize,
    f: F,
}

impl<F: FnMut(&mut Cpu<'_>, usize)> SlicedFn<F> {
    /// Wraps `f` as a program of `slices` slices.
    ///
    /// # Panics
    ///
    /// Panics if `slices` is zero.
    pub fn new(slices: usize, f: F) -> Self {
        assert!(slices > 0, "a thread program needs at least one slice");
        Self { slices, f }
    }
}

impl<F: FnMut(&mut Cpu<'_>, usize)> ThreadProgram for SlicedFn<F> {
    fn slices(&self) -> usize {
        self.slices
    }

    fn run_slice(&mut self, cpu: &mut Cpu<'_>, slice: usize) {
        (self.f)(cpu, slice)
    }
}

/// The simulated machine.
///
/// ```
/// use simx86::{Machine, config, isa::{Reg, VecWidth, Precision}};
///
/// let mut m = Machine::new(config::sandy_bridge());
/// let buf = m.alloc(4096);
/// m.run(0, |cpu| {
///     for i in 0..8 {
///         cpu.load(Reg::new(0), buf.f64_at(i * 4), VecWidth::Y256, Precision::F64);
///     }
/// });
/// assert!(m.core_counters(0).get(simx86::pmu::CoreEvent::LoadsRetired) == 8);
/// ```
#[derive(Debug)]
pub struct Machine {
    cfg: MachineConfig,
    cores: Vec<CoreState>,
    mem: MemSystem,
    tsc: f64,
    turbo: bool,
    /// Per-NUMA-node bump allocators; node `n`'s heap starts at `n << 40`.
    heap_next: Vec<u64>,
    /// Present iff `cfg.fault.enabled`: perturbs counter deltas at the end
    /// of every run (see [`crate::fault`]).
    injector: Option<FaultInjector>,
}

impl Machine {
    /// Boots a machine with the given configuration (validated).
    pub fn new(cfg: MachineConfig) -> Self {
        cfg.validate();
        let cores = (0..cfg.cores).map(|_| CoreState::new(&cfg)).collect();
        let mem = MemSystem::new(&cfg);
        let heap_next = (0..cfg.sockets)
            .map(|n| ((n as u64) << 40) + (1 << 20))
            .collect();
        let injector = cfg
            .fault
            .enabled
            .then(|| FaultInjector::new(cfg.fault.clone()));
        Self {
            cfg,
            cores,
            mem,
            tsc: 0.0,
            turbo: false,
            heap_next,
            injector,
        }
    }

    /// Whether this machine injects measurement faults.
    pub fn fault_injection_active(&self) -> bool {
        self.injector.is_some()
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Enables or disables Turbo Boost. The paper's methodology requires it
    /// disabled; experiment E8 measures what happens when it is not.
    pub fn set_turbo(&mut self, enabled: bool) {
        self.turbo = enabled;
    }

    /// Whether turbo is currently enabled.
    pub fn turbo_enabled(&self) -> bool {
        self.turbo
    }

    /// Enables/disables the hardware prefetchers.
    pub fn set_prefetch(&mut self, stream: bool, adjacent: bool) {
        self.mem.set_prefetch(stream, adjacent);
    }

    /// Current prefetcher enablement `(stream, adjacent)`.
    pub fn prefetch_state(&self) -> (bool, bool) {
        self.mem.prefetch_state()
    }

    /// Allocates a 4 KiB-aligned simulated buffer on NUMA node 0.
    ///
    /// # Panics
    ///
    /// Panics on zero-size allocations.
    pub fn alloc(&mut self, bytes: u64) -> Buffer {
        self.alloc_on(0, bytes)
    }

    /// Allocates a 4 KiB-aligned buffer homed on the given NUMA node —
    /// the simulated `numactl --membind`. Accesses from cores of another
    /// socket are routed to this node's memory controller and pay the
    /// remote-hop latency.
    ///
    /// # Panics
    ///
    /// Panics on zero-size allocations or an out-of-range node.
    pub fn alloc_on(&mut self, node: usize, bytes: u64) -> Buffer {
        assert!(bytes > 0, "cannot allocate an empty buffer");
        assert!(node < self.cfg.sockets, "node {node} out of range");
        let base = self.heap_next[node];
        let aligned = bytes.div_ceil(4096) * 4096;
        self.heap_next[node] += aligned;
        Buffer { base, len: bytes }
    }

    /// One socket's IMC counter bank.
    ///
    /// # Panics
    ///
    /// Panics if `socket` is out of range.
    pub fn uncore_socket(&self, socket: usize) -> UncoreCounters {
        self.mem.uncore_of(socket)
    }

    /// Current TSC (nominal-frequency cycle counter).
    pub fn tsc(&self) -> f64 {
        self.tsc
    }

    /// TSC frequency in Hz, for converting cycle deltas to seconds.
    pub fn tsc_hz(&self) -> f64 {
        self.cfg.nominal_hz()
    }

    /// Per-core PMU bank.
    pub fn core_counters(&self, core: usize) -> CoreCounters {
        self.cores[core].counters
    }

    /// Machine-wide IMC counters.
    pub fn uncore(&self) -> UncoreCounters {
        self.mem.uncore()
    }

    /// Machine-wide hierarchical traffic bank: per-level hits, misses,
    /// fills, writebacks, and the DRAM-port events, summed over all cores
    /// and sockets. Monotone like every counter bank — measure with
    /// [`crate::pmu::HierCounters::since`] deltas.
    pub fn hier_counters(&self) -> crate::pmu::HierCounters {
        self.mem.hier_counters()
    }

    /// Total prefetch requests issued so far (diagnostic).
    pub fn prefetches_issued(&self) -> u64 {
        self.mem.prefetches_issued()
    }

    /// Direct access to cache statistics (L1, L2, L3) for a core.
    pub fn cache_stats(
        &self,
        core: usize,
    ) -> (
        crate::cache::CacheStats,
        crate::cache::CacheStats,
        crate::cache::CacheStats,
    ) {
        self.mem.cache_stats(core)
    }

    /// Flushes all caches (the cold-cache protocol), advancing the TSC past
    /// the writeback traffic.
    pub fn flush_caches(&mut self) {
        self.tsc = self.mem.flush_all(self.tsc);
    }

    /// Runs a single-threaded program on `core`, advancing the TSC by the
    /// busy time. Counters accumulate monotonically across runs, like
    /// hardware; take snapshots to measure a region.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn run<F: FnOnce(&mut Cpu<'_>)>(&mut self, core: usize, f: F) {
        assert!(core < self.cores.len(), "core {core} out of range");
        let snap = self.fault_snapshot(&[core]);
        let ghz = self.cfg.core_ghz(1, self.turbo);
        let tsc_per_cc = self.cfg.nominal_ghz / ghz;
        let state = &mut self.cores[core];
        state.reset_timing();
        let mut cpu = Cpu {
            core_id: core,
            state,
            mem: &mut self.mem,
            cfg: &self.cfg,
            tsc_base: self.tsc,
            tsc_per_cc,
            fill_cap: self.cfg.fill_buffers,
        };
        f(&mut cpu);
        self.cores[core].flush_pending();
        let end_cc = self.cores[core].drain_time();
        self.cores[core]
            .counters
            .add(CoreEvent::ClkUnhalted, end_cc.round() as u64);
        self.tsc += end_cc * tsc_per_cc;
        self.apply_faults(&[core], snap);
    }

    /// Runs one program per core concurrently (program `i` on core `i`),
    /// interleaving slices so that all cores share the memory-system
    /// timeline. The TSC advances by the *slowest* core's busy time —
    /// wall-clock semantics.
    ///
    /// # Panics
    ///
    /// Panics if more programs than cores are supplied, or none.
    pub fn run_parallel(&mut self, mut programs: Vec<Box<dyn ThreadProgram + '_>>) {
        let n = programs.len();
        assert!(n > 0, "run_parallel needs at least one program");
        assert!(n <= self.cores.len(), "more programs than cores");
        let cores_used: Vec<usize> = (0..n).collect();
        let snap = self.fault_snapshot(&cores_used);
        let ghz = self.cfg.core_ghz(n, self.turbo);
        let tsc_per_cc = self.cfg.nominal_ghz / ghz;

        for core in self.cores.iter_mut().take(n) {
            core.reset_timing();
        }
        let mut next_slice = vec![0usize; n];
        let total: Vec<usize> = programs.iter().map(|p| p.slices()).collect();

        loop {
            // Advance the laggard: the unfinished core with the earliest
            // local time, so shared-resource (IMC) arbitration stays
            // approximately time-ordered.
            let candidate = (0..n)
                .filter(|&i| next_slice[i] < total[i])
                .min_by(|&a, &b| {
                    self.cores[a]
                        .drain_time()
                        .partial_cmp(&self.cores[b].drain_time())
                        .expect("times finite")
                });
            let Some(i) = candidate else { break };
            let slice = next_slice[i];
            next_slice[i] += 1;
            let mut cpu = Cpu {
                core_id: i,
                state: &mut self.cores[i],
                mem: &mut self.mem,
                cfg: &self.cfg,
                tsc_base: self.tsc,
                tsc_per_cc,
                fill_cap: self.cfg.fill_buffers,
            };
            programs[i].run_slice(&mut cpu, slice);
        }

        let mut end_cc: f64 = 0.0;
        for (i, core) in self.cores.iter_mut().enumerate().take(n) {
            core.flush_pending();
            let t = core.drain_time();
            core.counters.add(CoreEvent::ClkUnhalted, t.round() as u64);
            end_cc = end_cc.max(t);
            let _ = i;
        }
        self.tsc += end_cc * tsc_per_cc;
        self.apply_faults(&cores_used, snap);
    }

    /// Pre-run counter/TSC snapshot for fault injection; `None` when the
    /// injector is disabled.
    fn fault_snapshot(&self, cores: &[usize]) -> Option<FaultSnapshot> {
        self.injector.as_ref()?;
        Some(FaultSnapshot {
            core_before: cores.iter().map(|&c| self.cores[c].counters).collect(),
            uncore_before: self.mem.uncore(),
            tsc_before: self.tsc,
        })
    }

    /// Rewrites this run's counter deltas through the fault injector.
    /// Perturbed totals are always `before + perturbed_delta` with the
    /// delta non-negative, so counters stay monotone and earlier snapshots
    /// remain valid.
    fn apply_faults(&mut self, cores: &[usize], snap: Option<FaultSnapshot>) {
        let Some(snap) = snap else { return };
        let inj = self.injector.as_mut().expect("snapshot implies injector");
        for (&c, before) in cores.iter().zip(&snap.core_before) {
            let delta = self.cores[c].counters.since(before);
            let perturbed = inj.perturb_core_delta(&delta);
            self.cores[c].counters = before.plus(&perturbed);
        }
        let uncore_delta = self.mem.uncore().since(&snap.uncore_before);
        let perturbed = inj.perturb_uncore_delta(&uncore_delta);
        self.mem.fault_rewrite_uncore(snap.uncore_before, perturbed);
        // Clock drift: the cores secretly ran fast, so the same cycle
        // counts fit in less wall-clock (TSC) time.
        let dt = self.tsc - snap.tsc_before;
        self.tsc = snap.tsc_before + dt * inj.tsc_scale();
    }
}

/// Counter and TSC state captured before a run, for delta perturbation.
struct FaultSnapshot {
    core_before: Vec<CoreCounters>,
    uncore_before: UncoreCounters,
    tsc_before: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{sandy_bridge, test_machine};
    use crate::isa::{Precision, Reg, VecWidth};

    const W: VecWidth = VecWidth::Y256;
    const P: Precision = Precision::F64;

    #[test]
    fn alloc_is_page_aligned_and_disjoint() {
        let mut m = Machine::new(test_machine());
        let a = m.alloc(100);
        let b = m.alloc(5000);
        assert_eq!(a.base() % 4096, 0);
        assert_eq!(b.base() % 4096, 0);
        assert!(a.base() + 4096 <= b.base());
        assert_eq!(a.len(), 100);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn zero_alloc_panics() {
        let mut m = Machine::new(test_machine());
        let _ = m.alloc(0);
    }

    #[test]
    fn tsc_advances_with_runs() {
        let mut m = Machine::new(sandy_bridge());
        let t0 = m.tsc();
        m.run(0, |cpu| cpu.overhead(1000));
        assert!(m.tsc() > t0);
    }

    #[test]
    fn turbo_shortens_tsc_time_but_not_core_cycles() {
        let body = |m: &mut Machine| {
            let t0 = m.tsc();
            m.run(0, |cpu| {
                for _ in 0..1000 {
                    cpu.fadd(Reg::new(0), Reg::new(1), Reg::new(2), W, P);
                }
            });
            (m.tsc() - t0, m.core_counters(0).get(CoreEvent::ClkUnhalted))
        };
        let mut nominal = Machine::new(sandy_bridge());
        nominal.set_turbo(false);
        let (t_nom, c_nom) = body(&mut nominal);

        let mut turbo = Machine::new(sandy_bridge());
        turbo.set_turbo(true);
        let (t_tur, c_tur) = body(&mut turbo);

        assert_eq!(c_nom, c_tur, "core-cycle work identical");
        // 3.7 GHz vs 3.3 GHz → ~12% faster wall-clock.
        let speedup = t_nom / t_tur;
        assert!(
            (speedup - 3.7 / 3.3).abs() < 0.02,
            "expected turbo speedup ~1.12, got {speedup}"
        );
    }

    #[test]
    fn parallel_compute_scales_linearly() {
        // FP-only work: two cores take the same wall time as one.
        let work = |m: &mut Machine, threads: usize| {
            let t0 = m.tsc();
            let programs: Vec<Box<dyn ThreadProgram>> = (0..threads)
                .map(|_| {
                    Box::new(SlicedFn::new(4, |cpu: &mut Cpu<'_>, _| {
                        for _ in 0..2000 {
                            cpu.fadd(Reg::new(0), Reg::new(1), Reg::new(2), W, P);
                        }
                    })) as Box<dyn ThreadProgram>
                })
                .collect();
            m.run_parallel(programs);
            m.tsc() - t0
        };
        let mut m1 = Machine::new(sandy_bridge());
        let t1 = work(&mut m1, 1);
        let mut m2 = Machine::new(sandy_bridge());
        let t2 = work(&mut m2, 4);
        assert!(
            (t2 / t1 - 1.0).abs() < 0.05,
            "compute-bound threads should not slow each other: {t1} vs {t2}"
        );
    }

    #[test]
    fn parallel_bandwidth_saturates() {
        // Streaming on 2 cores is < 2x faster than on 1 core once the IMC
        // saturates.
        let cfg = test_machine();
        let stream_time = |threads: usize| {
            let mut m = Machine::new(cfg.clone());
            m.set_prefetch(true, true);
            let lines = 4000u64;
            let bufs: Vec<Buffer> = (0..threads).map(|_| m.alloc(lines * 64)).collect();
            let t0 = m.tsc();
            let programs: Vec<Box<dyn ThreadProgram + '_>> = bufs
                .iter()
                .map(|buf| {
                    let buf = *buf;
                    Box::new(SlicedFn::new(16, move |cpu: &mut Cpu<'_>, s| {
                        let chunk = lines / 16;
                        for i in s as u64 * chunk..(s as u64 + 1) * chunk {
                            cpu.load(Reg::new(0), buf.base() + i * 64, W, P);
                        }
                    })) as Box<dyn ThreadProgram>
                })
                .collect();
            m.run_parallel(programs);
            m.tsc() - t0
        };
        let t1 = stream_time(1);
        let t2 = stream_time(2);
        // Same per-thread work: perfect scaling would give t2 == t1.
        let slowdown = t2 / t1;
        assert!(
            slowdown > 1.3,
            "two streaming cores should contend for DRAM: slowdown {slowdown}"
        );
    }

    #[test]
    fn counters_accumulate_across_runs() {
        let mut m = Machine::new(sandy_bridge());
        m.run(0, |cpu| cpu.overhead(10));
        let snap = m.core_counters(0);
        m.run(0, |cpu| cpu.overhead(5));
        let delta = m.core_counters(0).since(&snap);
        assert_eq!(delta.get(CoreEvent::InstRetired), 5);
    }

    #[test]
    fn flush_caches_makes_next_access_cold() {
        let mut m = Machine::new(test_machine());
        m.set_prefetch(false, false);
        let buf = m.alloc(64);
        m.run(0, |cpu| cpu.load(Reg::new(0), buf.base(), W, P));
        let warm_snap = m.core_counters(0);
        m.run(0, |cpu| cpu.load(Reg::new(0), buf.base(), W, P));
        assert_eq!(
            m.core_counters(0).since(&warm_snap).get(CoreEvent::LlcMiss),
            0
        );
        m.flush_caches();
        let cold_snap = m.core_counters(0);
        m.run(0, |cpu| cpu.load(Reg::new(0), buf.base(), W, P));
        assert_eq!(
            m.core_counters(0).since(&cold_snap).get(CoreEvent::LlcMiss),
            1
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_core_id_panics() {
        let mut m = Machine::new(test_machine());
        m.run(99, |_| {});
    }

    #[test]
    #[should_panic(expected = "more programs than cores")]
    fn too_many_programs_panics() {
        let mut m = Machine::new(test_machine()); // 2 cores
        let mk = || {
            Box::new(SlicedFn::new(1, |_: &mut Cpu<'_>, _| {})) as Box<dyn ThreadProgram>
        };
        m.run_parallel(vec![mk(), mk(), mk()]);
    }
}
