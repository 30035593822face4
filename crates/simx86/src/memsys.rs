//! The shared memory system: per-core L1/L2, shared L3, stream and
//! adjacent-line prefetchers, and the integrated memory controller (IMC)
//! with its uncore traffic counters and bandwidth model.
//!
//! All timestamps are in TSC (nominal-frequency) cycles, so the IMC keeps a
//! single global timeline across cores regardless of per-core turbo clocks.

use crate::cache::{Cache, CacheStats};
use crate::config::MachineConfig;
use crate::pmu::{CoreCounters, CoreEvent, HierCounters, LevelCounters, UncoreCounters};
use crate::prefetch::StreamPrefetcher;

/// Inter-level line-transfer counters, incremented at the boundary-crossing
/// sites of the hierarchy walk (fills, writebacks, NT stores, flushes) —
/// all off the L1-hit fast path. Deliberately independent of the per-cache
/// [`CacheStats`]: the traffic-conservation property suite pins the two
/// bookkeeping systems against each other.
#[derive(Debug, Clone, Copy, Default)]
struct HierTraffic {
    /// Lines installed into an L1 (one per L1 demand miss).
    l1_fills: u64,
    /// Dirty L1 victims pushed down into their L2.
    l1_writebacks: u64,
    /// Lines installed into an L2 on a demand miss.
    l2_demand_fills: u64,
    /// Lines installed into an L2 by the prefetcher.
    l2_prefetch_fills: u64,
    /// Dirty L2 victims pushed down into their socket's L3.
    l2_writebacks: u64,
    /// Lines installed into an L3 on a demand miss.
    l3_demand_fills: u64,
    /// Lines installed into an L3 by the prefetcher.
    l3_prefetch_fills: u64,
    /// Dirty L3 victims written to DRAM.
    l3_writebacks: u64,
    /// Write-combined NT-store lines sent straight to DRAM.
    nt_lines: u64,
    /// Dirty lines written to DRAM by `flush_all`.
    flush_writebacks: u64,
}

/// The kind of memory access a core performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Demand load.
    Load,
    /// Demand store (write-allocate: misses trigger a read-for-ownership).
    Store,
    /// Non-temporal (streaming) store: bypasses the cache hierarchy and
    /// writes combined lines straight to DRAM.
    StoreNt,
}

/// Result of a demand access.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessResult {
    /// TSC time at which the data is available (loads) or the request has
    /// been accepted for retirement (stores).
    pub complete_at: f64,
    /// Whether the access missed L1 and therefore occupies a line-fill
    /// buffer until `complete_at`.
    pub l1_miss: bool,
}

/// The integrated memory controller: a single service queue with fixed
/// latency, which is what makes DRAM bandwidth a shared, saturating
/// resource.
#[derive(Debug, Clone)]
struct Imc {
    next_free: f64,
    service: f64,
    latency: f64,
}

impl Imc {
    /// A read occupies one service slot and returns data after the DRAM
    /// latency (plus any queueing delay).
    fn read(&mut self, now: f64) -> f64 {
        let start = now.max(self.next_free);
        self.next_free = start + self.service;
        start + self.latency
    }

    /// A write occupies a service slot; completion is when the line has
    /// been accepted (writes are posted).
    fn write(&mut self, now: f64) -> f64 {
        let start = now.max(self.next_free);
        self.next_free = start + self.service;
        start + self.service
    }
}

/// Line-address bit at which the home NUMA node is encoded: byte address
/// bit 40 (the machine allocator places node `n`'s heap at `n << 40`).
const NODE_LINE_SHIFT: u32 = 40 - 6;

/// The complete memory hierarchy of a machine: per-core L1/L2, one L3 and
/// one memory controller **per socket**, and the NUMA home-node routing
/// between them.
#[derive(Debug, Clone)]
pub struct MemSystem {
    line_shift: u32,
    l1: Vec<Cache>,
    l2: Vec<Cache>,
    l3: Vec<Cache>,
    prefetchers: Vec<StreamPrefetcher>,
    adjacent_enabled: bool,
    imc: Vec<Imc>,
    uncore: UncoreCounters,
    uncore_socket: Vec<UncoreCounters>,
    cores_per_socket: usize,
    remote_latency: f64,
    l1_lat: f64,
    l2_lat: f64,
    l3_lat: f64,
    /// Per-core open write-combining line (for NT stores).
    wc_open_line: Vec<Option<u64>>,
    /// Scratch buffer for prefetcher output, reused across misses.
    pf_buf: Vec<u64>,
    /// Inter-level transfer counters (see [`HierTraffic`]).
    traffic: HierTraffic,
}

impl MemSystem {
    /// Builds the hierarchy described by `cfg`.
    pub fn new(cfg: &MachineConfig) -> Self {
        let line_shift = cfg.line_bytes().trailing_zeros();
        Self {
            line_shift,
            l1: (0..cfg.cores).map(|_| Cache::new(&cfg.l1)).collect(),
            l2: (0..cfg.cores).map(|_| Cache::new(&cfg.l2)).collect(),
            l3: (0..cfg.sockets).map(|_| Cache::new(&cfg.l3)).collect(),
            prefetchers: (0..cfg.cores)
                .map(|_| StreamPrefetcher::new(cfg.prefetch.clone()))
                .collect(),
            adjacent_enabled: cfg.prefetch.adjacent,
            imc: (0..cfg.sockets)
                .map(|_| Imc {
                    next_free: 0.0,
                    service: cfg.imc_service_cycles(),
                    latency: cfg.dram_latency,
                })
                .collect(),
            uncore: UncoreCounters::default(),
            uncore_socket: vec![UncoreCounters::default(); cfg.sockets],
            cores_per_socket: cfg.cores_per_socket(),
            remote_latency: cfg.numa_remote_latency,
            l1_lat: cfg.l1.latency,
            l2_lat: cfg.l2.latency,
            l3_lat: cfg.l3.latency,
            wc_open_line: vec![None; cfg.cores],
            pf_buf: Vec::new(),
            traffic: HierTraffic::default(),
        }
    }

    /// The socket a core belongs to.
    fn socket_of(&self, core: usize) -> usize {
        if self.l3.len() == 1 {
            0
        } else {
            core / self.cores_per_socket
        }
    }

    /// The NUMA node a line is homed on (clamped: addresses outside any
    /// node heap belong to node 0).
    fn node_of_line(&self, line: u64) -> usize {
        ((line >> NODE_LINE_SHIFT) as usize).min(self.imc.len() - 1)
    }

    /// Reads one line from its home DRAM on behalf of `socket`, charging
    /// the remote penalty when the home differs. Returns the completion
    /// time.
    fn dram_read(&mut self, socket: usize, line: u64, now: f64) -> f64 {
        let home = self.node_of_line(line);
        self.uncore.add_reads(1);
        self.uncore_socket[home].add_reads(1);
        let extra = if home == socket { 0.0 } else { self.remote_latency };
        self.imc[home].read(now) + extra
    }

    /// Writes one line to its home DRAM (posted).
    fn dram_write(&mut self, socket: usize, line: u64, now: f64) -> f64 {
        let home = self.node_of_line(line);
        self.uncore.add_writes(1);
        self.uncore_socket[home].add_writes(1);
        let extra = if home == socket { 0.0 } else { self.remote_latency };
        self.imc[home].write(now) + extra
    }

    /// Byte address to line address.
    pub fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// Whether `addr`'s line currently resides in `core`'s L1 (no state
    /// change; used by the core to decide fill-buffer admission).
    pub fn l1_contains(&self, core: usize, addr: u64) -> bool {
        self.l1[core].contains(self.line_of(addr))
    }

    /// Machine-wide uncore counter bank (sum over all sockets' IMCs).
    pub fn uncore(&self) -> UncoreCounters {
        self.uncore
    }

    /// One socket's IMC counter bank.
    ///
    /// # Panics
    ///
    /// Panics if `socket` is out of range.
    pub fn uncore_of(&self, socket: usize) -> UncoreCounters {
        self.uncore_socket[socket]
    }

    /// Replaces the machine-wide uncore totals with `before + new_delta`
    /// after fault perturbation, mirroring the signed adjustment onto
    /// socket 0's bank (clamped at zero) so the per-socket view stays
    /// roughly consistent. Fault-injection layer only.
    pub(crate) fn fault_rewrite_uncore(
        &mut self,
        before: UncoreCounters,
        new_delta: UncoreCounters,
    ) {
        use crate::pmu::UncoreEvent::{ImcDramDataReads, ImcDramDataWrites};
        let old = self.uncore;
        self.uncore = before.plus(&new_delta);
        let dr = self.uncore.get(ImcDramDataReads) as i64 - old.get(ImcDramDataReads) as i64;
        let dw = self.uncore.get(ImcDramDataWrites) as i64 - old.get(ImcDramDataWrites) as i64;
        let s0 = self.uncore_socket[0];
        self.uncore_socket[0] = UncoreCounters::from_lines(
            (s0.get(ImcDramDataReads) as i64 + dr).max(0) as u64,
            (s0.get(ImcDramDataWrites) as i64 + dw).max(0) as u64,
        );
    }

    /// Per-core L1/L2 and shared L3 statistics, for diagnostics.
    pub fn cache_stats(&self, core: usize) -> (CacheStats, CacheStats, CacheStats) {
        (
            self.l1[core].stats(),
            self.l2[core].stats(),
            self.l3[self.socket_of(core)].stats(),
        )
    }

    /// Enables/disables the hardware prefetchers (the simulated equivalent
    /// of writing MSR 0x1A4).
    pub fn set_prefetch(&mut self, stream: bool, adjacent: bool) {
        self.adjacent_enabled = adjacent;
        for p in &mut self.prefetchers {
            let mut cfg = p.config().clone();
            cfg.stream = stream;
            p.set_config(cfg);
        }
    }

    /// Current prefetcher enablement `(stream, adjacent)`.
    pub fn prefetch_state(&self) -> (bool, bool) {
        let stream = self
            .prefetchers
            .first()
            .map(|p| p.config().stream)
            .unwrap_or(false);
        (stream, self.adjacent_enabled)
    }

    /// Total prefetch requests issued so far across all cores.
    pub fn prefetches_issued(&self) -> u64 {
        self.prefetchers.iter().map(StreamPrefetcher::issued).sum()
    }

    /// Flushes every cache level, modelling the cold-cache protocol. Dirty
    /// lines are written back to DRAM and counted as IMC write traffic at
    /// `now`, returning the time at which the flush is complete.
    pub fn flush_all(&mut self, now: f64) -> f64 {
        let mut t = now;
        let mut dirty_lines: Vec<u64> = Vec::new();
        for l1 in &mut self.l1 {
            // L1/L2 dirty lines would be written back through L3; for the
            // flush we account them directly at their home IMC.
            dirty_lines.extend(l1.flush());
        }
        for l2 in &mut self.l2 {
            dirty_lines.extend(l2.flush());
        }
        for l3 in &mut self.l3 {
            dirty_lines.extend(l3.flush());
        }
        for line in dirty_lines {
            let home = self.node_of_line(line);
            self.traffic.flush_writebacks += 1;
            t = t.max(self.dram_write(home, line, t));
        }
        self.wc_open_line.iter_mut().for_each(|w| *w = None);
        t
    }

    /// Performs one demand access of `bytes` bytes at `addr` by `core` at
    /// TSC time `now`. Accesses crossing a line boundary touch both lines.
    pub fn access(
        &mut self,
        core: usize,
        addr: u64,
        bytes: u64,
        kind: AccessKind,
        now: f64,
        counters: &mut CoreCounters,
    ) -> AccessResult {
        debug_assert!(bytes > 0);
        let first = self.line_of(addr);
        let last = self.line_of(addr + bytes - 1);
        let mut result = AccessResult {
            complete_at: now,
            l1_miss: false,
        };
        for line in first..=last {
            let r = self.access_line(core, line, kind, now, counters);
            result.complete_at = result.complete_at.max(r.complete_at);
            result.l1_miss |= r.l1_miss;
        }
        result
    }

    /// Single-line demand access that probes the L1 exactly once. On a hit
    /// the state change equals [`Self::access`]'s for a resident line and
    /// the completion time is returned. On a miss the L1 has
    /// already recorded it (the miss counter, exactly `access_line`'s
    /// first step — `Cache::access` reads no clock, so performing it
    /// before the caller's fill-buffer admission stall is unobservable)
    /// and the caller must finish the access with [`Self::miss_walk`].
    /// On a miss, `Err` carries the L1 victim slot the probe identified
    /// (see `Cache::access_or_victim`), which [`Self::miss_walk`]
    /// redeems — the caller must not touch this core's L1 in between.
    pub(crate) fn l1_try_hit(
        &mut self,
        core: usize,
        line: u64,
        write: bool,
        now: f64,
    ) -> Result<f64, usize> {
        self.l1[core]
            .access_or_victim(line, write)
            .map(|()| now + self.l1_lat)
    }

    fn access_line(
        &mut self,
        core: usize,
        line: u64,
        kind: AccessKind,
        now: f64,
        counters: &mut CoreCounters,
    ) -> AccessResult {
        if kind == AccessKind::StoreNt {
            return self.nt_store_line(core, line, now);
        }
        let write = kind == AccessKind::Store;

        // L1.
        match self.l1[core].access_or_victim(line, write) {
            Ok(()) => AccessResult {
                complete_at: now + self.l1_lat,
                l1_miss: false,
            },
            Err(victim) => self.miss_walk(core, line, write, now, counters, victim),
        }
    }

    /// The below-L1 part of a demand access: prefetcher training, L2, L3,
    /// DRAM, and the resulting fills. The L1 probe (a recorded miss) has
    /// already happened and identified `l1_victim`; nothing below touches
    /// this core's L1 until the final fill redeems it. The L2 and L3
    /// probes likewise carry their victims to their fills.
    pub(crate) fn miss_walk(
        &mut self,
        core: usize,
        line: u64,
        write: bool,
        now: f64,
        counters: &mut CoreCounters,
        l1_victim: usize,
    ) -> AccessResult {
        // The L1-miss stream trains the L2 stream prefetcher. The scratch
        // buffer is taken out of `self` for the duration so steady-state
        // streaming performs no allocation.
        let mut pf_lines = std::mem::take(&mut self.pf_buf);
        self.prefetchers[core].observe_into(line, &mut pf_lines);
        for &pf in &pf_lines {
            self.prefetch_line(core, pf, now);
        }
        self.pf_buf = pf_lines;

        // L2.
        let mut l2_victim = match self.l2[core].access_or_victim(line, false) {
            Ok(()) => {
                self.fill_l1(core, line, write, now, l1_victim);
                return AccessResult {
                    complete_at: now + self.l2_lat,
                    l1_miss: true,
                };
            }
            Err(victim) => victim,
        };

        if self.adjacent_enabled {
            let buddy = line ^ 1;
            self.prefetch_line(core, buddy, now);
            // The buddy shares `line`'s L2 set only in a single-set L2;
            // there its fill may have moved the carried victim.
            let l2 = &self.l2[core];
            if l2.set_of(buddy) == l2.set_of(line) {
                l2_victim = l2
                    .victim_if_absent(line)
                    .expect("line still absent from L2");
            }
        }

        // L3 (the core's socket-local LLC).
        let socket = self.socket_of(core);
        let l3_victim = match self.l3[socket].access_or_victim(line, false) {
            Ok(()) => {
                self.fill_l2(core, line, now, l2_victim);
                self.fill_l1(core, line, write, now, l1_victim);
                return AccessResult {
                    complete_at: now + self.l3_lat,
                    l1_miss: true,
                };
            }
            Err(victim) => victim,
        };

        // DRAM: demand miss, visible to both the core LLC-miss event and
        // the IMC counters; routed to the line's home node.
        counters.add(CoreEvent::LlcMiss, 1);
        let data_at = self.dram_read(socket, line, now + self.l3_lat);
        self.fill_l3(socket, line, now, l3_victim);
        self.fill_l2(core, line, now, l2_victim);
        self.fill_l1(core, line, write, now, l1_victim);
        AccessResult {
            complete_at: data_at,
            l1_miss: true,
        }
    }

    /// Non-temporal store: write-combining. The first touch of a line opens
    /// a WC buffer; the line is sent to DRAM immediately (posted write) and
    /// subsequent stores to the same open line are free. NT stores also
    /// evict the line from the hierarchy to preserve coherence semantics.
    fn nt_store_line(&mut self, core: usize, line: u64, now: f64) -> AccessResult {
        if self.wc_open_line[core] == Some(line) {
            return AccessResult {
                complete_at: now + 1.0,
                l1_miss: false,
            };
        }
        self.wc_open_line[core] = Some(line);
        self.l1[core].invalidate(line);
        self.l2[core].invalidate(line);
        for l3 in &mut self.l3 {
            l3.invalidate(line);
        }
        self.traffic.nt_lines += 1;
        let done = self.dram_write(self.socket_of(core), line, now);
        AccessResult {
            complete_at: done,
            l1_miss: true,
        }
    }

    /// Brings a line into L2/L3 on behalf of the prefetcher. Counted at the
    /// IMC (and as a prefetch fill in cache stats) but *not* by the
    /// LLC-miss event. The timing approximation is optimistic: the line is
    /// usable from L2 immediately, while the IMC slot it consumed delays
    /// later demand misses — which is the first-order effect of interest.
    fn prefetch_line(&mut self, core: usize, line: u64, now: f64) {
        // Each level is probed once; the probe's victim is redeemed by the
        // fill, and nothing in between touches that level. The DRAM read
        // is charged after the L3 install instead of before it; the IMC
        // timeline and counters are commutative within this call, so the
        // final state matches the probe-then-read-then-fill order.
        let Some(l2_victim) = self.l2[core].victim_if_absent(line) else {
            return;
        };
        let socket = self.socket_of(core);
        let l3 = &mut self.l3[socket];
        let Some(l3_victim) = l3.victim_if_absent(line) else {
            return;
        };
        let wb = l3.fill_at(l3_victim, line, false, true);
        self.traffic.l3_prefetch_fills += 1;
        let _ = self.dram_read(socket, line, now);
        if let Some(wb) = wb {
            self.traffic.l3_writebacks += 1;
            let _ = self.dram_write(socket, wb.line, now);
        }
        self.traffic.l2_prefetch_fills += 1;
        if let Some(wb) = self.l2[core].fill_at(l2_victim, line, false, true) {
            self.fill_l3_writeback(socket, wb.line, now);
        }
    }

    fn fill_l1(&mut self, core: usize, line: u64, dirty: bool, now: f64, victim: usize) {
        let socket = self.socket_of(core);
        self.traffic.l1_fills += 1;
        if let Some(wb) = self.l1[core].fill_at(victim, line, dirty, false) {
            // Dirty L1 victim lands in L2 (updating dirtiness there).
            self.traffic.l1_writebacks += 1;
            if let Some(wb2) = self.l2[core].fill(wb.line, true, false) {
                self.fill_l3_writeback(socket, wb2.line, now);
            }
        }
    }

    fn fill_l2(&mut self, core: usize, line: u64, now: f64, victim: usize) {
        let socket = self.socket_of(core);
        self.traffic.l2_demand_fills += 1;
        if let Some(wb) = self.l2[core].fill_at(victim, line, false, false) {
            self.fill_l3_writeback(socket, wb.line, now);
        }
    }

    fn fill_l3(&mut self, socket: usize, line: u64, now: f64, victim: usize) {
        self.traffic.l3_demand_fills += 1;
        if let Some(wb) = self.l3[socket].fill_at(victim, line, false, false) {
            self.traffic.l3_writebacks += 1;
            let _ = self.dram_write(socket, wb.line, now);
        }
    }

    /// A dirty line evicted from a private cache is installed dirty in its
    /// socket's L3.
    fn fill_l3_writeback(&mut self, socket: usize, line: u64, now: f64) {
        self.traffic.l2_writebacks += 1;
        if let Some(wb) = self.l3[socket].fill(line, true, false) {
            self.traffic.l3_writebacks += 1;
            let _ = self.dram_write(socket, wb.line, now);
        }
    }

    /// Assembles the machine-wide hierarchical traffic bank: demand
    /// hits/misses and prefetch fills summed from the per-cache statistics,
    /// transfer counts from the [`HierTraffic`] sites, DRAM lines from the
    /// uncore bank.
    pub fn hier_counters(&self) -> HierCounters {
        let sum = |caches: &[Cache]| {
            caches.iter().fold(CacheStats::default(), |mut acc, c| {
                let s = c.stats();
                acc.hits += s.hits;
                acc.misses += s.misses;
                acc.writebacks += s.writebacks;
                acc.prefetch_fills += s.prefetch_fills;
                acc
            })
        };
        let (l1, l2, l3) = (sum(&self.l1), sum(&self.l2), sum(&self.l3));
        let t = &self.traffic;
        HierCounters {
            l1: LevelCounters {
                hits: l1.hits,
                misses: l1.misses,
                demand_fills: t.l1_fills,
                prefetch_fills: l1.prefetch_fills,
                writebacks: t.l1_writebacks,
            },
            l2: LevelCounters {
                hits: l2.hits,
                misses: l2.misses,
                demand_fills: t.l2_demand_fills,
                prefetch_fills: t.l2_prefetch_fills,
                writebacks: t.l2_writebacks,
            },
            l3: LevelCounters {
                hits: l3.hits,
                misses: l3.misses,
                demand_fills: t.l3_demand_fills,
                prefetch_fills: t.l3_prefetch_fills,
                writebacks: t.l3_writebacks,
            },
            nt_lines: t.nt_lines,
            flush_writebacks: t.flush_writebacks,
            dram_reads: self.uncore.get(crate::pmu::UncoreEvent::ImcDramDataReads),
            dram_writes: self.uncore.get(crate::pmu::UncoreEvent::ImcDramDataWrites),
            line_bytes: 1 << self.line_shift,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::test_machine;

    fn mem() -> (MemSystem, CoreCounters) {
        let cfg = test_machine();
        (MemSystem::new(&cfg), CoreCounters::default())
    }

    #[test]
    fn first_access_misses_to_dram_then_hits_l1() {
        let (mut m, mut c) = mem();
        m.set_prefetch(false, false);
        let r1 = m.access(0, 0x10000, 8, AccessKind::Load, 0.0, &mut c);
        assert!(r1.l1_miss);
        assert!(r1.complete_at >= 120.0, "expected DRAM latency");
        assert_eq!(c.get(CoreEvent::LlcMiss), 1);
        assert_eq!(m.uncore().traffic_bytes(64), 64);

        let r2 = m.access(0, 0x10000, 8, AccessKind::Load, 200.0, &mut c);
        assert!(!r2.l1_miss);
        assert_eq!(r2.complete_at, 204.0); // L1 latency 4.
    }

    #[test]
    fn line_crossing_access_touches_two_lines() {
        let (mut m, mut c) = mem();
        m.set_prefetch(false, false);
        // 8 bytes starting 4 bytes before a line boundary.
        m.access(0, 0x10000 + 60, 8, AccessKind::Load, 0.0, &mut c);
        assert_eq!(c.get(CoreEvent::LlcMiss), 2);
    }

    #[test]
    fn store_miss_is_rfo_read_then_writeback_on_eviction() {
        let (mut m, mut c) = mem();
        m.set_prefetch(false, false);
        m.access(0, 0x20000, 8, AccessKind::Store, 0.0, &mut c);
        // Write-allocate: the miss reads the line from DRAM.
        assert_eq!(m.uncore().get(crate::pmu::UncoreEvent::ImcDramDataReads), 1);
        assert_eq!(m.uncore().get(crate::pmu::UncoreEvent::ImcDramDataWrites), 0);
        // Evict it by flushing: the dirty line must be written to DRAM.
        m.flush_all(1000.0);
        assert_eq!(m.uncore().get(crate::pmu::UncoreEvent::ImcDramDataWrites), 1);
    }

    #[test]
    fn nt_store_writes_once_per_line_without_reads() {
        let (mut m, mut c) = mem();
        m.set_prefetch(false, false);
        for off in (0..64).step_by(8) {
            m.access(0, 0x30000 + off, 8, AccessKind::StoreNt, 0.0, &mut c);
        }
        let u = m.uncore();
        assert_eq!(u.get(crate::pmu::UncoreEvent::ImcDramDataReads), 0);
        assert_eq!(u.get(crate::pmu::UncoreEvent::ImcDramDataWrites), 1);
        // And nothing was cached.
        assert!(!m.l1_contains(0, 0x30000));
    }

    #[test]
    fn prefetcher_traffic_counted_at_imc_not_llc_miss() {
        let (mut m, mut c) = mem();
        m.set_prefetch(true, false);
        // Stream through 32 consecutive lines.
        for i in 0..32u64 {
            let addr = 0x40000 + i * 64;
            m.access(0, addr, 8, AccessKind::Load, (i as f64) * 300.0, &mut c);
        }
        let reads = m.uncore().get(crate::pmu::UncoreEvent::ImcDramDataReads);
        let llc_misses = c.get(CoreEvent::LlcMiss);
        assert!(
            reads > llc_misses,
            "prefetch traffic should exceed demand misses: {reads} vs {llc_misses}"
        );
        assert!(m.prefetches_issued() > 0);
    }

    #[test]
    fn adjacent_prefetch_pairs_lines() {
        let (mut m, mut c) = mem();
        m.set_prefetch(false, true);
        m.access(0, 0x50000, 8, AccessKind::Load, 0.0, &mut c);
        // The buddy line (0x50040) was prefetched: hits in L2 now.
        let r = m.access(0, 0x50040, 8, AccessKind::Load, 500.0, &mut c);
        assert!(r.complete_at <= 500.0 + 12.0 + 1e-9);
        assert_eq!(c.get(CoreEvent::LlcMiss), 1);
        assert_eq!(m.uncore().get(crate::pmu::UncoreEvent::ImcDramDataReads), 2);
    }

    #[test]
    fn adjacent_prefetch_into_a_single_set_l2_keeps_both_lines() {
        // A one-set L2: the buddy prefetch lands in the demand line's set
        // between its L2 probe and its L2 fill, so the victim the probe
        // chose (the empty way 0) is taken by then.
        let mut cfg = test_machine();
        cfg.l2.size_bytes = 2 * 64;
        cfg.l2.ways = 2;
        let mut m = MemSystem::new(&cfg);
        let mut c = CoreCounters::default();
        m.set_prefetch(false, true);
        m.access(0, 0x50000, 8, AccessKind::Load, 0.0, &mut c);
        let line = m.line_of(0x50000);
        assert!(m.l2[0].contains(line) && m.l2[0].contains(line ^ 1));
        assert_eq!(m.l2[0].resident_lines(), 2);
    }

    #[test]
    fn imc_queueing_serializes_bursts() {
        let (mut m, mut c) = mem();
        m.set_prefetch(false, false);
        // Two demand misses issued at the same instant: the second is
        // delayed by the service time.
        let r1 = m.access(0, 0x60000, 8, AccessKind::Load, 0.0, &mut c);
        let r2 = m.access(0, 0x61000, 8, AccessKind::Load, 0.0, &mut c);
        assert!(r2.complete_at > r1.complete_at);
        let service = test_machine().imc_service_cycles();
        assert!((r2.complete_at - r1.complete_at - service).abs() < 1e-9);
    }

    #[test]
    fn flush_clears_residency() {
        let (mut m, mut c) = mem();
        m.set_prefetch(false, false);
        m.access(0, 0x70000, 8, AccessKind::Load, 0.0, &mut c);
        assert!(m.l1_contains(0, 0x70000));
        m.flush_all(100.0);
        assert!(!m.l1_contains(0, 0x70000));
        let r = m.access(0, 0x70000, 8, AccessKind::Load, 2000.0, &mut c);
        assert!(r.l1_miss);
    }

    #[test]
    fn cores_have_private_l1() {
        let (mut m, mut c) = mem();
        m.set_prefetch(false, false);
        m.access(0, 0x80000, 8, AccessKind::Load, 0.0, &mut c);
        assert!(m.l1_contains(0, 0x80000));
        assert!(!m.l1_contains(1, 0x80000));
        // Core 1 misses its private caches but hits shared L3.
        let mut c1 = CoreCounters::default();
        let r = m.access(1, 0x80000, 8, AccessKind::Load, 1000.0, &mut c1);
        assert_eq!(c1.get(CoreEvent::LlcMiss), 0);
        assert!(r.complete_at <= 1000.0 + 30.0 + 1e-9);
    }

    #[test]
    fn l2_hit_latency_between_l1_and_l3() {
        let (mut m, mut c) = mem();
        m.set_prefetch(false, false);
        m.access(0, 0x90000, 8, AccessKind::Load, 0.0, &mut c);
        // Evict from tiny L1 (2 ways, 8 sets) by loading two conflicting
        // lines into the same set, leaving the original in L2.
        let sets = 8;
        m.access(0, 0x90000 + 64 * sets, 8, AccessKind::Load, 500.0, &mut c);
        m.access(0, 0x90000 + 2 * 64 * sets, 8, AccessKind::Load, 1000.0, &mut c);
        assert!(!m.l1_contains(0, 0x90000));
        let r = m.access(0, 0x90000, 8, AccessKind::Load, 2000.0, &mut c);
        assert!((r.complete_at - 2012.0).abs() < 1e-9, "{}", r.complete_at);
    }
}
