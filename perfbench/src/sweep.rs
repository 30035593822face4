//! The `repro` sweep as a child process, and the checks on its output
//! tree.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use experiments::snapshot::read_tree;
use roofline_core::json::Json;
use roofline_service::cache::fnv64;

use crate::load::{Key, Tally};
use crate::wire::tree_digest;

/// One finished sweep.
pub struct Sweep {
    pub wall_s: f64,
    pub peak_rss_mb: f64,
    pub tree: BTreeMap<String, String>,
}

/// Runs `repro <args> -o <out>` to completion. Peak RSS is the child's
/// `VmHWM`, read every 10 ms while it runs; the high-water mark only
/// grows, so only growth in the last poll interval can be missed.
pub fn run_repro(repro: &Path, args: &[&str], out: &Path, log: &Path) -> Result<Sweep, String> {
    let _ = std::fs::remove_dir_all(out);
    let log_file = |suffix: &str| {
        std::fs::File::create(log.with_extension(suffix))
            .map_err(|e| format!("create {}: {e}", log.display()))
    };
    let t0 = Instant::now();
    let mut child = Command::new(repro)
        .args(args)
        .arg("-o")
        .arg(out)
        .stdin(Stdio::null())
        .stdout(log_file("out")?)
        .stderr(log_file("err")?)
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", repro.display()))?;
    let status_path = PathBuf::from(format!("/proc/{}/status", child.id()));
    let mut peak_kb = 0.0f64;
    let status = loop {
        if let Some(kb) = std::fs::read_to_string(&status_path).ok().and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        }) {
            peak_kb = peak_kb.max(kb);
        }
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) => std::thread::sleep(Duration::from_millis(10)),
            Err(e) => return Err(format!("wait repro: {e}")),
        }
    };
    let wall_s = t0.elapsed().as_secs_f64();
    if !status.success() {
        return Err(format!("repro {} exited with {status}", args.join(" ")));
    }
    let tree = read_tree(out).map_err(|e| format!("read {}: {e}", out.display()))?;
    Ok(Sweep {
        wall_s,
        peak_rss_mb: peak_kb / 1024.0,
        tree,
    })
}

/// One operation per experiment cell: it fails unless its manifest
/// status is `pass` and, for a golden-pinned cell, every report, CSV and
/// SVG file equals the snapshot under `golden_root`.
pub fn check_cells(tree: &BTreeMap<String, String>, golden_root: &Path) -> Result<Tally, String> {
    let manifest = tree
        .get("manifest.json")
        .ok_or("sweep wrote no manifest.json")?;
    let manifest = Json::parse(manifest).map_err(|e| format!("manifest.json: {e}"))?;
    let entries = manifest
        .get("experiments")
        .and_then(Json::as_arr)
        .ok_or("manifest.json has no experiments array")?;
    let mut tally = Tally::default();
    for entry in entries {
        let id = entry.get("id").and_then(Json::as_str).unwrap_or("?");
        let mut ok = entry.get("status").and_then(Json::as_str) == Some("pass");
        let golden = golden_root.join(id);
        if golden.is_dir() {
            let want = read_tree(&golden).map_err(|e| format!("read {}: {e}", golden.display()))?;
            for (name, contents) in want.iter().filter(|(n, _)| *n != "manifest.json") {
                if tree.get(name) != Some(contents) {
                    eprintln!("perfbench: {id}: {name} differs from {}", golden.display());
                    ok = false;
                }
            }
        }
        tally.attempted += 1;
        if !ok {
            tally.failed += 1;
        }
    }
    Ok(tally)
}

/// A hash of the given binaries: the same for every run of one build.
pub fn build_id(bins: &[&Path]) -> Result<u64, String> {
    let mut build = 0u64;
    for bin in bins {
        let bytes = std::fs::read(bin).map_err(|e| format!("read {}: {e}", bin.display()))?;
        build = build.rotate_left(1) ^ fnv64(&bytes);
    }
    Ok(build)
}

/// Digest agreement across runs of one build: the first run of a
/// workload records its normalized tree digest under `state`, keyed by a
/// hash of the `repro` and benchmark binaries; any later run of the same
/// build that disagrees fails this one operation.
pub fn check_digest(
    repro: &Path,
    state: &Path,
    workload: &str,
    digest: u64,
) -> Result<Tally, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let build = build_id(&[repro, exe.as_path()])?;
    let record = format!("{build:016x} {digest:016x}\n");
    let path = state.join(format!("{workload}.digest"));
    let ok = match std::fs::read_to_string(&path) {
        Ok(prev) if prev.split(' ').next() == record.split(' ').next() => prev == record,
        _ => {
            std::fs::create_dir_all(state)
                .map_err(|e| format!("create {}: {e}", state.display()))?;
            std::fs::write(&path, &record).map_err(|e| format!("write {}: {e}", path.display()))?;
            true
        }
    };
    Ok(Tally {
        attempted: 1,
        failed: u64::from(!ok),
    })
}

/// The golden-pinned cells (quick fidelity on `snb`) and the digests of
/// their snapshot trees: what the serve-back phase of a sweep workload
/// asks a node for, and what the replies must equal.
pub fn pinned_keys(golden_root: &Path) -> Result<(Vec<Key>, Vec<u64>), String> {
    let mut ids: Vec<String> = std::fs::read_dir(golden_root)
        .map_err(|e| format!("read {}: {e}", golden_root.display()))?
        .filter_map(|e| e.ok())
        .filter(|e| e.path().is_dir())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    ids.sort();
    let mut keys = Vec::new();
    let mut digests = Vec::new();
    for id in ids {
        let experiment = id.parse().map_err(|e| format!("golden dir {id}: {e}"))?;
        let tree =
            read_tree(&golden_root.join(&id)).map_err(|e| format!("read golden {id}: {e}"))?;
        keys.push(Key::quick(experiment, "snb".to_string()));
        digests.push(tree_digest(&tree));
    }
    Ok((keys, digests))
}
