//! Platform selection and experiment fidelity.
//!
//! Platform specs are a preset name plus an optional fault-injection
//! suffix separated by `+`, e.g. `snb+drift=0.12,seed=7` — the suffix is
//! parsed by [`simx86::FaultConfig::parse`] and armed on the returned
//! configuration. Experiments run on such a spec measure a *faulty*
//! machine, which is how the integrity-guard demonstrations are driven.

use perfmon::roofs::RoofOptions;
use simx86::config::{haswell, ivy_bridge, sandy_bridge, sandy_bridge_2s, test_machine};
use simx86::{FaultConfig, Machine, MachineConfig};
use std::fmt;

/// How large the experiment's problem sizes are.
///
/// `Quick` keeps everything small enough for CI and Criterion; `Full`
/// matches the scale discussed in `DESIGN.md` (minutes of simulation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fidelity {
    /// CI-scale problem sizes.
    Quick,
    /// Paper-scale problem sizes.
    Full,
}

impl Fidelity {
    /// Scales a full-size parameter down in quick mode by `factor`.
    pub fn scale(self, full: u64, quick: u64) -> u64 {
        match self {
            Fidelity::Quick => quick,
            Fidelity::Full => full,
        }
    }

    /// The label used in CLI flags and the manifest (`"quick"`/`"full"`).
    pub fn label(self) -> &'static str {
        match self {
            Fidelity::Quick => "quick",
            Fidelity::Full => "full",
        }
    }
}

/// The options experiments measure their rooflines with at a fidelity:
/// a shorter peak stream and a smaller DRAM buffer in quick mode, the
/// harness defaults in full mode.
pub fn roof_options(fidelity: Fidelity) -> RoofOptions {
    match fidelity {
        Fidelity::Quick => RoofOptions {
            flops_target: 60_000,
            dram_bytes_per_thread: 512 * 1024,
        },
        Fidelity::Full => RoofOptions::default(),
    }
}

/// Why a platform spec could not be resolved.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PlatformError {
    /// The preset name is not in [`platform_names`].
    Unknown(String),
    /// The `+`-suffix fault spec did not parse.
    BadFaultSpec(String),
}

impl fmt::Display for PlatformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlatformError::Unknown(name) => {
                write!(f, "unknown platform `{name}` (try snb, ivb, hsw, test)")
            }
            PlatformError::BadFaultSpec(msg) => write!(f, "bad fault spec: {msg}"),
        }
    }
}

impl std::error::Error for PlatformError {}

/// A named platform preset.
///
/// # Panics
///
/// Panics on an unknown name; see [`platform_names`]. Use
/// [`try_machine_by_name`] in code that must survive bad input.
pub fn machine_by_name(name: &str) -> Machine {
    Machine::new(config_by_name(name))
}

/// Fallible variant of [`machine_by_name`].
///
/// # Errors
///
/// Returns [`PlatformError`] on an unknown preset or a malformed fault
/// spec suffix.
pub fn try_machine_by_name(spec: &str) -> Result<Machine, PlatformError> {
    try_config_by_name(spec).map(Machine::new)
}

/// The configuration behind a preset name.
///
/// # Panics
///
/// Panics on an unknown name. Use [`try_config_by_name`] in code that
/// must survive bad input.
pub fn config_by_name(name: &str) -> MachineConfig {
    try_config_by_name(name).unwrap_or_else(|e| panic!("{e}"))
}

/// Resolves a platform spec — `<preset>[+<fault-spec>]` — to a machine
/// configuration, arming the fault injector when a suffix is present.
///
/// # Errors
///
/// Returns [`PlatformError::Unknown`] for an unrecognized preset and
/// [`PlatformError::BadFaultSpec`] for a suffix
/// [`FaultConfig::parse`] rejects.
pub fn try_config_by_name(spec: &str) -> Result<MachineConfig, PlatformError> {
    let (name, fault) = match spec.split_once('+') {
        Some((name, suffix)) => (
            name,
            Some(FaultConfig::parse(suffix).map_err(PlatformError::BadFaultSpec)?),
        ),
        None => (spec, None),
    };
    let mut cfg = match name {
        "snb" => sandy_bridge(),
        "snb-2s" => sandy_bridge_2s(),
        "ivb" => ivy_bridge(),
        "hsw" => haswell(),
        "test" => test_machine(),
        other => return Err(PlatformError::Unknown(other.to_string())),
    };
    if let Some(fault) = fault {
        cfg.fault = fault;
    }
    Ok(cfg)
}

/// All preset names, in presentation order.
pub fn platform_names() -> &'static [&'static str] {
    &["snb", "ivb", "hsw", "snb-2s"]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_resolve() {
        for name in platform_names() {
            let m = machine_by_name(name);
            assert_eq!(m.config().name, *name);
        }
    }

    #[test]
    #[should_panic(expected = "unknown platform")]
    fn unknown_platform_panics() {
        let _ = machine_by_name("alpha21264");
    }

    #[test]
    fn unknown_platform_is_a_typed_error() {
        let err = try_config_by_name("alpha21264").unwrap_err();
        assert_eq!(err, PlatformError::Unknown("alpha21264".into()));
        assert!(err.to_string().contains("unknown platform"));
    }

    #[test]
    fn fault_suffix_arms_the_injector() {
        let cfg = try_config_by_name("snb+drift=0.12,seed=7").unwrap();
        assert!(cfg.fault.enabled);
        assert_eq!(cfg.fault.turbo_drift, 0.12);
        assert_eq!(cfg.fault.seed, 7);
        assert!(try_machine_by_name("snb+drift=0.12")
            .unwrap()
            .fault_injection_active());
        assert!(!machine_by_name("snb").fault_injection_active());
    }

    #[test]
    fn bad_fault_suffix_is_a_typed_error() {
        let err = try_config_by_name("snb+drift=banana").unwrap_err();
        assert!(matches!(err, PlatformError::BadFaultSpec(_)));
        let err = try_config_by_name("snb+volts=9").unwrap_err();
        assert!(matches!(err, PlatformError::BadFaultSpec(_)));
    }

    #[test]
    fn fidelity_scaling() {
        assert_eq!(Fidelity::Quick.scale(1 << 20, 1 << 12), 1 << 12);
        assert_eq!(Fidelity::Full.scale(1 << 20, 1 << 12), 1 << 20);
    }
}
