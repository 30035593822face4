//! Machine configurations and the presets used by the experiments.
//!
//! All latencies are expressed in **nominal-frequency (TSC) cycles** so that
//! the memory system keeps a single global timeline even when cores clock up
//! under Turbo Boost.

use crate::fault::FaultConfig;
use crate::isa::{Precision, VecWidth};

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Line size in bytes (64 on every modelled platform).
    pub line_bytes: u64,
    /// Load-to-use latency in TSC cycles.
    pub latency: f64,
}

impl CacheConfig {
    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.size_bytes / (self.ways as u64 * self.line_bytes)
    }

    /// Sanity-checks the geometry.
    ///
    /// # Panics
    ///
    /// Panics when sizes are not power-of-two multiples of the line size,
    /// the configuration has zero sets, or the associativity is outside
    /// 1..=16 (the cache keeps each set's recency order in one `u64`, a
    /// nibble per way).
    pub fn validate(&self, name: &str) {
        assert!(
            (1..=16).contains(&self.ways),
            "{name}: associativity must be 1 to 16 ways"
        );
        assert!(
            self.line_bytes.is_power_of_two(),
            "{name}: line size must be a power of two"
        );
        assert!(
            self.size_bytes.is_multiple_of(self.ways as u64 * self.line_bytes),
            "{name}: size must be divisible by ways*line"
        );
        let sets = self.sets();
        assert!(sets > 0, "{name}: cache must have at least one set");
        assert!(
            sets.is_power_of_two(),
            "{name}: set count must be a power of two"
        );
        assert!(self.latency >= 0.0, "{name}: latency must be non-negative");
    }
}

/// Hardware-prefetcher configuration (the paper toggles these via MSR 0x1A4;
/// we toggle the same behaviours in software).
#[derive(Debug, Clone, PartialEq)]
pub struct PrefetchConfig {
    /// L2 stream prefetcher (detects sequential line streams within a page).
    pub stream: bool,
    /// Adjacent-line ("buddy") prefetcher: on an L2 miss, also fetch the
    /// other half of the 128-byte aligned pair.
    pub adjacent: bool,
    /// Maximum concurrently tracked streams per core.
    pub max_streams: usize,
    /// How many lines ahead of the demand stream the prefetcher runs.
    pub distance_lines: u64,
    /// Consecutive same-direction accesses needed to arm a stream.
    pub trigger: u32,
}

impl Default for PrefetchConfig {
    fn default() -> Self {
        Self {
            stream: true,
            adjacent: true,
            max_streams: 16,
            distance_lines: 8,
            trigger: 2,
        }
    }
}

/// Floating-point execution resources of one core.
#[derive(Debug, Clone, PartialEq)]
pub struct FpConfig {
    /// Whether fused multiply-add instructions exist.
    pub has_fma: bool,
    /// Widest supported vector width.
    pub max_width: VecWidth,
    /// Ports able to execute FP additions, i.e. additions per cycle.
    pub add_ports: u32,
    /// Ports able to execute FP multiplications.
    pub mul_ports: u32,
    /// Ports able to execute FMAs (0 when `has_fma` is false).
    pub fma_ports: u32,
    /// Latency of an FP add in core cycles.
    pub add_latency: f64,
    /// Latency of an FP multiply in core cycles.
    pub mul_latency: f64,
    /// Latency of an FMA in core cycles.
    pub fma_latency: f64,
    /// Latency of an FP divide in core cycles (unpipelined).
    pub div_latency: f64,
}

impl FpConfig {
    /// Theoretical peak flops per core cycle at a given width/precision,
    /// assuming the instruction mix that saturates the most ports
    /// (balanced add+mul on non-FMA machines, all-FMA otherwise).
    pub fn peak_flops_per_cycle(&self, width: VecWidth, prec: Precision) -> f64 {
        let lanes = width.lanes(prec) as f64;
        if self.has_fma {
            (self.fma_ports as f64) * lanes * 2.0
        } else {
            (self.add_ports + self.mul_ports) as f64 * lanes
        }
    }

    /// Peak flops per cycle for a stream of additions only (a lower
    /// ceiling the paper draws to show the add/mul balance requirement).
    pub fn add_only_flops_per_cycle(&self, width: VecWidth, prec: Precision) -> f64 {
        self.add_ports as f64 * width.lanes(prec) as f64
    }
}

/// Full description of a simulated machine.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Platform name shown on plots (e.g. `"snb"`).
    pub name: String,
    /// Number of cores, spread evenly across `sockets`.
    pub cores: usize,
    /// Number of NUMA sockets. Each socket has its own last-level cache
    /// and memory controller; `dram_gbps` and the L3 config are
    /// per-socket. Memory is homed to the socket it was allocated on, and
    /// remote accesses pay `numa_remote_latency` on top of `dram_latency`.
    pub sockets: usize,
    /// Nominal (TSC) frequency in GHz.
    pub nominal_ghz: f64,
    /// Turbo frequency in GHz indexed by `active_cores - 1`; empty means no
    /// turbo capability.
    pub turbo_ghz: Vec<f64>,
    /// Front-end issue width (instructions per cycle).
    pub issue_width: u32,
    /// Reorder-window size: how far execution may run ahead of program
    /// order, in instructions.
    pub rob_size: u32,
    /// FP execution resources.
    pub fp: FpConfig,
    /// Load ports (loads issued per cycle).
    pub load_ports: u32,
    /// Store ports.
    pub store_ports: u32,
    /// Line-fill buffers per core: the maximum number of outstanding L1
    /// misses (bounds single-core memory-level parallelism).
    pub fill_buffers: usize,
    /// L1 data cache (per core).
    pub l1: CacheConfig,
    /// L2 cache (per core).
    pub l2: CacheConfig,
    /// Shared last-level cache.
    pub l3: CacheConfig,
    /// DRAM access latency in TSC cycles (beyond L3), local node.
    pub dram_latency: f64,
    /// Additional latency in TSC cycles for accessing a remote node's
    /// memory (QPI hop). Irrelevant on single-socket configurations.
    pub numa_remote_latency: f64,
    /// Peak DRAM bandwidth in GB/s **per socket**.
    pub dram_gbps: f64,
    /// Prefetcher behaviour.
    pub prefetch: PrefetchConfig,
    /// Fault injection into the PMU/IMC measurement path (disabled by
    /// default; see [`crate::fault`]).
    pub fault: FaultConfig,
}

impl MachineConfig {
    /// Validates the whole configuration.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent geometry (see [`CacheConfig::validate`]) or
    /// zero cores/frequency/bandwidth.
    pub fn validate(&self) {
        assert!(self.cores > 0, "machine needs at least one core");
        assert!(self.sockets > 0, "machine needs at least one socket");
        assert!(
            self.cores.is_multiple_of(self.sockets),
            "cores must divide evenly across sockets"
        );
        assert!(
            self.numa_remote_latency >= 0.0,
            "remote latency must be non-negative"
        );
        assert!(self.nominal_ghz > 0.0, "nominal frequency must be positive");
        assert!(
            self.turbo_ghz.is_empty() || self.turbo_ghz.len() == self.cores,
            "turbo table must have one entry per active-core count"
        );
        for (i, f) in self.turbo_ghz.iter().enumerate() {
            assert!(
                *f >= self.nominal_ghz,
                "turbo frequency for {} active cores below nominal",
                i + 1
            );
        }
        assert!(self.issue_width > 0 && self.rob_size > 0);
        assert!(self.fill_buffers > 0, "need at least one fill buffer");
        assert!(self.dram_gbps > 0.0 && self.dram_latency > 0.0);
        self.l1.validate("L1");
        self.l2.validate("L2");
        self.l3.validate("L3");
        assert_eq!(
            self.l1.line_bytes, self.l2.line_bytes,
            "uniform line size required"
        );
        assert_eq!(self.l2.line_bytes, self.l3.line_bytes);
        if self.fp.has_fma {
            assert!(self.fp.fma_ports > 0, "FMA machine needs FMA ports");
        }
        self.fault.validate();
    }

    /// Cache line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        self.l1.line_bytes
    }

    /// Nominal frequency in Hz.
    pub fn nominal_hz(&self) -> f64 {
        self.nominal_ghz * 1e9
    }

    /// Core frequency in GHz with `active` busy cores, honouring the turbo
    /// toggle.
    pub fn core_ghz(&self, active: usize, turbo_enabled: bool) -> f64 {
        if turbo_enabled && !self.turbo_ghz.is_empty() {
            let idx = active.clamp(1, self.turbo_ghz.len()) - 1;
            self.turbo_ghz[idx]
        } else {
            self.nominal_ghz
        }
    }

    /// Cores per socket.
    pub fn cores_per_socket(&self) -> usize {
        self.cores / self.sockets
    }

    /// The socket a core belongs to.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn socket_of_core(&self, core: usize) -> usize {
        assert!(core < self.cores, "core {core} out of range");
        core / self.cores_per_socket()
    }

    /// TSC cycles the memory controller is busy per 64-byte line at peak
    /// bandwidth.
    pub fn imc_service_cycles(&self) -> f64 {
        // line_bytes / (GB/s) = ns; ns * GHz = cycles.
        self.line_bytes() as f64 / self.dram_gbps * self.nominal_ghz
    }

    /// Theoretical machine-wide peak in GF/s at full width, all cores, at
    /// nominal frequency.
    pub fn theoretical_peak_gflops(&self, prec: Precision) -> f64 {
        self.fp.peak_flops_per_cycle(self.fp.max_width, prec) * self.nominal_ghz
            * self.cores as f64
    }
}

/// A Sandy-Bridge-class quad-core: AVX but no FMA, one add and one mul port.
///
/// This mirrors the primary platform of the ISPASS'14 study. Numbers are
/// representative, not a die-shot: 3.3 GHz nominal, 32 KiB/256 KiB/8 MiB
/// caches, ~21 GB/s DRAM.
pub fn sandy_bridge() -> MachineConfig {
    let cfg = MachineConfig {
        name: "snb".to_string(),
        cores: 4,
        sockets: 1,
        nominal_ghz: 3.3,
        turbo_ghz: vec![3.7, 3.6, 3.5, 3.4],
        issue_width: 4,
        rob_size: 168,
        fp: FpConfig {
            has_fma: false,
            max_width: VecWidth::Y256,
            add_ports: 1,
            mul_ports: 1,
            fma_ports: 0,
            add_latency: 3.0,
            mul_latency: 5.0,
            fma_latency: 5.0,
            div_latency: 21.0,
        },
        load_ports: 2,
        store_ports: 1,
        fill_buffers: 10,
        l1: CacheConfig {
            size_bytes: 32 * 1024,
            ways: 8,
            line_bytes: 64,
            latency: 4.0,
        },
        l2: CacheConfig {
            size_bytes: 256 * 1024,
            ways: 8,
            line_bytes: 64,
            latency: 12.0,
        },
        l3: CacheConfig {
            size_bytes: 8 * 1024 * 1024,
            ways: 16,
            line_bytes: 64,
            latency: 34.0,
        },
        dram_latency: 200.0,
        numa_remote_latency: 0.0,
        dram_gbps: 21.0,
        prefetch: PrefetchConfig::default(),
        fault: FaultConfig::default(),
    };
    cfg.validate();
    cfg
}

/// A two-socket Sandy-Bridge-EP-class machine: two `sandy_bridge()`
/// sockets, each with its own L3 and memory controller, joined by a
/// QPI-like link that adds latency to remote-node accesses. This is the
/// configuration for the NUMA experiments (E17): correctly pinned threads
/// see the sum of both controllers' bandwidth; threads working on the
/// other socket's memory see one controller plus the remote penalty.
pub fn sandy_bridge_2s() -> MachineConfig {
    let mut cfg = sandy_bridge();
    cfg.name = "snb-2s".to_string();
    cfg.cores = 8;
    cfg.sockets = 2;
    cfg.turbo_ghz = vec![3.7, 3.6, 3.5, 3.4, 3.4, 3.4, 3.4, 3.4];
    cfg.numa_remote_latency = 110.0;
    cfg.validate();
    cfg
}

/// An Ivy-Bridge-class quad-core: same port layout as Sandy Bridge with a
/// slightly lower clock and more memory bandwidth (the second platform of
/// the study).
pub fn ivy_bridge() -> MachineConfig {
    let mut cfg = sandy_bridge();
    cfg.name = "ivb".to_string();
    cfg.nominal_ghz = 3.0;
    cfg.turbo_ghz = vec![3.5, 3.4, 3.3, 3.2];
    cfg.dram_gbps = 25.6;
    cfg.validate();
    cfg
}

/// A Haswell-class quad-core with two FMA ports — the paper's "further
/// platforms" extension, and the configuration on which the
/// FMA-counts-double PMU quirk is modelled.
pub fn haswell() -> MachineConfig {
    let mut cfg = sandy_bridge();
    cfg.name = "hsw".to_string();
    cfg.nominal_ghz = 3.4;
    cfg.turbo_ghz = vec![3.8, 3.7, 3.6, 3.5];
    cfg.fp = FpConfig {
        has_fma: true,
        max_width: VecWidth::Y256,
        add_ports: 1,
        mul_ports: 2,
        fma_ports: 2,
        add_latency: 3.0,
        mul_latency: 5.0,
        fma_latency: 5.0,
        div_latency: 21.0,
    };
    cfg.dram_gbps = 25.6;
    cfg.validate();
    cfg
}

/// A tiny single-core configuration with small caches, used by tests that
/// need cache transitions at affordable problem sizes.
pub fn test_machine() -> MachineConfig {
    let cfg = MachineConfig {
        name: "test".to_string(),
        cores: 2,
        sockets: 1,
        nominal_ghz: 1.0,
        turbo_ghz: vec![1.5, 1.2],
        issue_width: 4,
        rob_size: 64,
        fp: FpConfig {
            has_fma: false,
            max_width: VecWidth::Y256,
            add_ports: 1,
            mul_ports: 1,
            fma_ports: 0,
            add_latency: 3.0,
            mul_latency: 5.0,
            fma_latency: 5.0,
            div_latency: 21.0,
        },
        load_ports: 2,
        store_ports: 1,
        fill_buffers: 4,
        l1: CacheConfig {
            size_bytes: 1024,
            ways: 2,
            line_bytes: 64,
            latency: 4.0,
        },
        l2: CacheConfig {
            size_bytes: 4096,
            ways: 4,
            line_bytes: 64,
            latency: 12.0,
        },
        l3: CacheConfig {
            size_bytes: 16 * 1024,
            ways: 4,
            line_bytes: 64,
            latency: 30.0,
        },
        dram_latency: 120.0,
        numa_remote_latency: 0.0,
        dram_gbps: 8.0,
        prefetch: PrefetchConfig::default(),
        fault: FaultConfig::default(),
    };
    cfg.validate();
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        sandy_bridge();
        sandy_bridge_2s();
        ivy_bridge();
        haswell();
        test_machine();
    }

    #[test]
    fn socket_mapping() {
        let cfg = sandy_bridge_2s();
        assert_eq!(cfg.cores_per_socket(), 4);
        assert_eq!(cfg.socket_of_core(0), 0);
        assert_eq!(cfg.socket_of_core(3), 0);
        assert_eq!(cfg.socket_of_core(4), 1);
        assert_eq!(cfg.socket_of_core(7), 1);
    }

    #[test]
    #[should_panic(expected = "divide evenly")]
    fn uneven_socket_split_rejected() {
        let mut cfg = sandy_bridge_2s();
        cfg.cores = 5;
        cfg.turbo_ghz = vec![3.7; 5];
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "associativity must be 1 to 16 ways")]
    fn more_than_sixteen_ways_rejected() {
        let mut cfg = sandy_bridge();
        cfg.l3.ways = 32;
        cfg.validate();
    }

    #[test]
    fn snb_peak_flops_per_cycle() {
        let cfg = sandy_bridge();
        // Balanced add+mul at AVX double: (1+1) ports * 4 lanes = 8.
        assert_eq!(
            cfg.fp.peak_flops_per_cycle(VecWidth::Y256, Precision::F64),
            8.0
        );
        assert_eq!(
            cfg.fp.add_only_flops_per_cycle(VecWidth::Y256, Precision::F64),
            4.0
        );
        assert_eq!(
            cfg.fp.peak_flops_per_cycle(VecWidth::Scalar, Precision::F64),
            2.0
        );
    }

    #[test]
    fn hsw_fma_peak_doubles() {
        let cfg = haswell();
        // 2 FMA ports * 4 lanes * 2 flops = 16 flops/cycle.
        assert_eq!(
            cfg.fp.peak_flops_per_cycle(VecWidth::Y256, Precision::F64),
            16.0
        );
    }

    #[test]
    fn turbo_lookup_clamps() {
        let cfg = sandy_bridge();
        assert_eq!(cfg.core_ghz(1, true), 3.7);
        assert_eq!(cfg.core_ghz(4, true), 3.4);
        assert_eq!(cfg.core_ghz(99, true), 3.4);
        assert_eq!(cfg.core_ghz(1, false), 3.3);
    }

    #[test]
    fn imc_service_matches_bandwidth() {
        let cfg = sandy_bridge();
        // 64 B / 21 GB/s = 3.0476 ns; at 3.3 GHz that is ~10.06 cycles.
        let c = cfg.imc_service_cycles();
        assert!((c - 64.0 / 21.0 * 3.3).abs() < 1e-9);
    }

    #[test]
    fn cache_sets() {
        let cfg = sandy_bridge();
        assert_eq!(cfg.l1.sets(), 64);
        assert_eq!(cfg.l2.sets(), 512);
        assert_eq!(cfg.l3.sets(), 8192);
    }

    #[test]
    fn theoretical_peak_machine_wide() {
        let cfg = sandy_bridge();
        // 8 flops/cycle * 3.3 GHz * 4 cores = 105.6 GF/s.
        assert!((cfg.theoretical_peak_gflops(Precision::F64) - 105.6).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "turbo table")]
    fn turbo_table_length_checked() {
        let mut cfg = sandy_bridge();
        cfg.turbo_ghz = vec![3.5];
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_cache_geometry_rejected() {
        let mut cfg = sandy_bridge();
        cfg.l1.size_bytes = 48 * 1024 / 2 * 3; // 72 KiB / 8 ways / 64 B = 144 sets
        cfg.validate();
    }
}
