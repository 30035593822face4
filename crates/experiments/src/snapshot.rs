//! Golden-snapshot support: normalize an `out/` tree, diff two trees, and
//! compare a tree against a checked-in snapshot with an `UPDATE_GOLDEN=1`
//! regeneration path.
//!
//! Every artifact the sweep writes is text (CSV, SVG, report text,
//! manifest JSON), so a "tree" is a map from file name to normalized
//! contents. Normalization does two things:
//!
//! * `manifest.json` is passed through
//!   [`normalized_json`](crate::manifest::normalized_json), stripping the
//!   timing/scheduling fields that legitimately differ run-to-run;
//! * every file has CRLF line endings folded to LF, so snapshots survive
//!   git `autocrlf` on Windows checkouts.
//!
//! Everything else must match byte-for-byte — that is the determinism
//! contract the parallel executor is tested against.

use crate::manifest::normalized_json;
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;

/// Environment variable that switches golden comparisons into
/// regeneration mode.
pub const UPDATE_GOLDEN: &str = "UPDATE_GOLDEN";

/// Normalizes one artifact's contents for comparison. Contents with no
/// `\r` and any name but `manifest.json` come back as they are, uncopied.
pub fn normalize_file(name: &str, contents: String) -> String {
    let unified = if contents.contains('\r') {
        contents.replace("\r\n", "\n")
    } else {
        contents
    };
    if name == "manifest.json" {
        normalized_json(&unified)
    } else {
        unified
    }
}

/// Reads a flat artifact directory into a name → normalized-contents map.
///
/// Subdirectories (e.g. a leftover `.staging/`) are ignored: the sweep
/// commits everything it produces to the top level.
///
/// # Errors
///
/// Propagates filesystem errors; a missing directory yields an empty tree
/// only in update mode — callers comparing trees get the error.
pub fn read_tree(dir: &Path) -> io::Result<BTreeMap<String, String>> {
    let mut tree = BTreeMap::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if !entry.file_type()?.is_file() {
            continue;
        }
        let name = entry.file_name().to_string_lossy().into_owned();
        let contents = fs::read_to_string(entry.path())?;
        tree.insert(name.clone(), normalize_file(&name, contents));
    }
    Ok(tree)
}

/// Structural diff of two normalized trees; empty means identical.
///
/// Each element is one human-readable discrepancy: a file present on only
/// one side, or the first differing line of a file present on both.
pub fn diff_trees(
    left_label: &str,
    left: &BTreeMap<String, String>,
    right_label: &str,
    right: &BTreeMap<String, String>,
) -> Vec<String> {
    let mut diffs = Vec::new();
    for name in left.keys() {
        if !right.contains_key(name) {
            diffs.push(format!("`{name}` exists in {left_label} but not in {right_label}"));
        }
    }
    for name in right.keys() {
        if !left.contains_key(name) {
            diffs.push(format!("`{name}` exists in {right_label} but not in {left_label}"));
        }
    }
    for (name, l) in left {
        let Some(r) = right.get(name) else { continue };
        if l == r {
            continue;
        }
        let mismatch = l
            .lines()
            .zip(r.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b);
        match mismatch {
            Some((line, (a, b))) => diffs.push(format!(
                "`{name}` line {}: {left_label} has `{a}`, {right_label} has `{b}`",
                line + 1
            )),
            None => diffs.push(format!(
                "`{name}` differs in length: {left_label} has {} lines, {right_label} has {}",
                l.lines().count(),
                r.lines().count()
            )),
        }
    }
    diffs
}

/// Compares an actual artifact directory against a checked-in golden
/// directory, or regenerates the golden when `UPDATE_GOLDEN=1` is set.
///
/// Regeneration replaces the golden directory's contents with the
/// *normalized* actual tree, so freshly recorded snapshots are already in
/// canonical form.
///
/// # Errors
///
/// Returns a human-readable report listing every discrepancy (or the IO
/// problem that prevented the comparison).
pub fn check_golden(actual_dir: &Path, golden_dir: &Path) -> Result<(), String> {
    let actual = read_tree(actual_dir)
        .map_err(|e| format!("could not read actual tree {}: {e}", actual_dir.display()))?;

    if std::env::var(UPDATE_GOLDEN).is_ok_and(|v| v == "1") {
        fs::create_dir_all(golden_dir)
            .map_err(|e| format!("could not create {}: {e}", golden_dir.display()))?;
        // Drop stale snapshot files that the sweep no longer produces.
        if let Ok(existing) = read_tree(golden_dir) {
            for name in existing.keys() {
                if !actual.contains_key(name) {
                    let _ = fs::remove_file(golden_dir.join(name));
                }
            }
        }
        for (name, contents) in &actual {
            fs::write(golden_dir.join(name), contents)
                .map_err(|e| format!("could not write golden `{name}`: {e}"))?;
        }
        eprintln!(
            "UPDATE_GOLDEN=1: regenerated {} snapshot file(s) in {}",
            actual.len(),
            golden_dir.display()
        );
        return Ok(());
    }

    let golden = read_tree(golden_dir).map_err(|e| {
        format!(
            "could not read golden tree {}: {e}\n(run with UPDATE_GOLDEN=1 to record it)",
            golden_dir.display()
        )
    })?;
    let diffs = diff_trees("actual", &actual, "golden", &golden);
    if diffs.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "artifact tree diverged from golden snapshot {} ({} difference(s)):\n  {}\n\
             If the change is intentional, regenerate with:\n  UPDATE_GOLDEN=1 cargo test\n",
            golden_dir.display(),
            diffs.len(),
            diffs.join("\n  ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree(pairs: &[(&str, &str)]) -> BTreeMap<String, String> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn manifest_normalization_is_applied_by_name() {
        let raw = "{\n  \"jobs\": 4,\n  \"total\": 1\n}\n";
        assert!(!normalize_file("manifest.json", raw.to_string()).contains("jobs"));
        assert!(normalize_file("e1_report.txt", raw.to_string()).contains("jobs"));
    }

    #[test]
    fn crlf_is_folded_everywhere() {
        assert_eq!(normalize_file("a.csv", "x\r\ny\r\n".to_string()), "x\ny\n");
    }

    #[test]
    fn diff_reports_missing_extra_and_changed() {
        let left = tree(&[("a", "1\n2\n"), ("b", "same\n")]);
        let right = tree(&[("b", "same\n"), ("c", "new\n")]);
        let diffs = diff_trees("L", &left, "R", &right);
        assert_eq!(diffs.len(), 2, "{diffs:?}");
        assert!(diffs[0].contains("`a` exists in L"));
        assert!(diffs[1].contains("`c` exists in R"));

        let changed = tree(&[("a", "1\nX\n")]);
        let diffs = diff_trees("L", &left, "R", &changed);
        assert_eq!(diffs.len(), 2, "{diffs:?}"); // missing `b` + changed `a`
        assert!(diffs.iter().any(|d| d.contains("line 2")), "{diffs:?}");
    }

    #[test]
    fn identical_trees_diff_empty() {
        let t = tree(&[("a", "1\n")]);
        assert!(diff_trees("L", &t, "R", &t).is_empty());
    }
}
