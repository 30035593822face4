//! Golden-snapshot tests: the full artifact tree of selected experiments
//! at quick fidelity (manifest, CSV series, SVG figures, report text) is
//! diffed against checked-in snapshots under `tests/golden/<ID>/`.
//!
//! The snapshots are stored in *normalized* form — timing/scheduling
//! fields stripped from `manifest.json`, CRLF folded — so the comparison
//! pins exactly the deterministic content the sweep executor promises to
//! keep byte-identical across schedules and `--jobs` values.
//!
//! To regenerate after an intentional change to an experiment's output:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden
//! ```
//!
//! Every other experiment is pinned by a digest of its normalized quick
//! tree instead of a checked-in copy (the `digest_*` tests below). A
//! digest says only *that* a tree changed; to see *what* changed, diff
//! `repro -e <ID> -f quick --jobs 1` trees from both commits with
//! `scripts/diff_trees.py`, then paste the digest the failing test
//! prints.

use roofline::experiments::snapshot;
use roofline::experiments::sweep::{run_sweep, SweepConfig};
use roofline::experiments::{Experiment, Fidelity};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// A scratch output directory, unique per test and process.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("golden_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs one experiment at quick fidelity on `snb` into a fresh scratch
/// dir, returning the dir.
fn run_quick(id: &str) -> PathBuf {
    let experiment: Experiment = id.parse().expect("valid experiment id");
    let out_dir = scratch(id);
    let mut config = SweepConfig::new(vec![experiment], "snb", Fidelity::Quick);
    config.out_dir = Some(out_dir.clone());
    run_sweep(&config).expect("sweep runs");
    out_dir
}

/// Runs one experiment at quick fidelity into a scratch dir and compares
/// the whole artifact tree against `tests/golden/<ID>/`.
fn golden_case(id: &str) {
    let out_dir = run_quick(id);

    let golden_dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(id);
    let verdict = snapshot::check_golden(&out_dir, &golden_dir);
    std::fs::remove_dir_all(&out_dir).ok();
    if let Err(report) = verdict {
        panic!("{id}: {report}");
    }
}

#[test]
fn golden_e1_platform_table() {
    golden_case("E1");
}

#[test]
fn golden_e5_work_counter_validation() {
    golden_case("E5");
}

#[test]
fn golden_e7_prefetch_pitfall() {
    golden_case("E7");
}

#[test]
fn golden_e8_turbo_pitfall() {
    golden_case("E8");
}

#[test]
fn golden_e9_cold_warm_traffic_accounting() {
    golden_case("E9");
}

#[test]
fn golden_e12_dgemm_case_study() {
    golden_case("E12");
}

#[test]
fn golden_e16_roofline_summary() {
    golden_case("E16");
}

#[test]
fn golden_e19_hierarchical_modes() {
    golden_case("E19");
}

/// FNV-1a (64-bit) over every file of a normalized tree, in name order,
/// each name and body terminated by a NUL byte.
fn tree_digest(tree: &BTreeMap<String, String>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (name, body) in tree {
        for &b in name
            .as_bytes()
            .iter()
            .chain(b"\0")
            .chain(body.as_bytes())
            .chain(b"\0")
        {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Runs one experiment at quick fidelity and compares the digest of its
/// normalized artifact tree against `want`.
fn digest_case(id: &str, want: u64) {
    let out_dir = run_quick(id);
    let tree = snapshot::read_tree(&out_dir).expect("read artifact tree");
    std::fs::remove_dir_all(&out_dir).ok();
    let got = tree_digest(&tree);
    assert_eq!(
        got,
        want,
        "{id}: quick tree digest is {got:#018x}, pinned {want:#018x} ({} files)",
        tree.len()
    );
}

#[test]
fn digest_e2_pmu_event_inventory() {
    digest_case("E2", 0x59fe_416b_f5e4_360d);
}

#[test]
fn digest_e3_compute_ceilings() {
    digest_case("E3", 0xe2e4_96f2_c2f9_400a);
}

#[test]
fn digest_e4_bandwidth_roofs() {
    digest_case("E4", 0x9e8f_d753_e0dd_bbff);
}

#[test]
fn digest_e6_traffic_counter_validation() {
    digest_case("E6", 0x49a5_65a5_ff97_af43);
}

#[test]
fn digest_e10_daxpy_trajectory() {
    digest_case("E10", 0x253b_7121_3be5_98f0);
}

#[test]
fn digest_e11_dgemv_trajectory() {
    digest_case("E11", 0x87dd_2b7f_545c_5f38);
}

#[test]
fn digest_e13_fft_trajectory() {
    digest_case("E13", 0xd722_03cb_3337_e55c);
}

#[test]
fn digest_e14_wht_trajectory() {
    digest_case("E14", 0x3ff9_9165_8ea3_af3a);
}

#[test]
fn digest_e15_multithreaded_scaling() {
    digest_case("E15", 0x82fb_6084_ecd0_cfba);
}

#[test]
fn digest_e17_numa_execution() {
    digest_case("E17", 0xb30f_3391_f88f_5c08);
}

#[test]
fn digest_e18_cache_aware_spmv() {
    digest_case("E18", 0x8726_8f9f_fff5_fc55);
}
