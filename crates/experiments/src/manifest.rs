//! The sweep manifest: a machine-readable record of which experiments
//! passed, which were degraded by integrity violations, and which failed.
//!
//! Written by the `repro` binary as `<out>/manifest.json`. The JSON is
//! hand-rolled (flat structure, strings escaped by
//! [`roofline_core::json::escape`]) and looks like:
//!
//! ```json
//! {
//!   "platform": "snb",
//!   "fidelity": "quick",
//!   "jobs": 4,
//!   "wall_ms": 10412,
//!   "serial_ms": 17890,
//!   "speedup": 1.72,
//!   "total": 18,
//!   "passed": 17,
//!   "degraded": 0,
//!   "failed": 1,
//!   "skipped": 0,
//!   "experiments": [
//!     {"id": "E1", "title": "platform parameter table", "status": "pass",
//!      "elapsed_ms": 6, "worker": 2, "budget_ms": 15000},
//!     {"id": "E7", "title": "...", "status": "failed", "error": "panic",
//!      "detail": "experiment panicked: ..."}
//!   ]
//! }
//! ```
//!
//! Timing and scheduling fields (`jobs`, `wall_ms`, `serial_ms`,
//! `speedup`, `elapsed_ms`, `worker`, `budget_ms`) are the only parts of
//! the manifest allowed to differ between a serial and a parallel sweep;
//! [`normalized_json`] strips exactly those, and the golden-snapshot /
//! determinism tests compare the normalized form.

use roofline_core::json::escape;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Terminal state of one experiment in a sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// Completed with a clean integrity record.
    Pass,
    /// Completed, but integrity guards recorded unexpected violations.
    Degraded,
    /// Did not produce usable output (panic, bad platform, artifact IO).
    Failed,
    /// Never attempted (a `--fail-fast` sweep aborted before it).
    Skipped,
}

impl RunStatus {
    /// The manifest string for this status.
    pub fn as_str(self) -> &'static str {
        match self {
            RunStatus::Pass => "pass",
            RunStatus::Degraded => "degraded",
            RunStatus::Failed => "failed",
            RunStatus::Skipped => "skipped",
        }
    }
}

impl fmt::Display for RunStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One experiment's row in the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Experiment id (`"E7"`).
    pub id: String,
    /// Experiment title.
    pub title: String,
    /// Terminal state.
    pub status: RunStatus,
    /// Error class for failed entries (`"panic"`, `"platform"`,
    /// `"artifact-io"`).
    pub error: Option<String>,
    /// Human-readable elaboration: the panic message, the integrity
    /// degradations, or the IO error.
    pub detail: Option<String>,
    /// Wall time of the experiment body plus its artifact writes, in
    /// milliseconds. `None` for skipped entries.
    pub elapsed_ms: Option<u64>,
    /// Id of the worker thread that executed the experiment (0-based).
    /// `None` for skipped entries.
    pub worker: Option<usize>,
    /// The per-experiment wall-time budget CI enforces (see
    /// `scripts/check_budgets.py`).
    pub budget_ms: Option<u64>,
}

/// Sweep-level scheduling/timing metadata, present when the manifest was
/// produced by the sweep executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepTiming {
    /// Worker-pool size the sweep ran with.
    pub jobs: usize,
    /// End-to-end wall time of the whole sweep in milliseconds.
    pub wall_ms: u64,
    /// Sum of the per-experiment wall times — what a serial sweep would
    /// have cost.
    pub serial_ms: u64,
}

impl SweepTiming {
    /// Measured speedup of the sweep over the serial-time sum.
    pub fn speedup(&self) -> f64 {
        if self.wall_ms == 0 {
            // A sub-millisecond wall rounds down to 0: clamp the divisor
            // to 1 ms so the ratio stays finite and a fast sweep reports
            // its serial sum instead of degenerating to 1.0.
            self.serial_ms.max(1) as f64
        } else {
            self.serial_ms as f64 / self.wall_ms as f64
        }
    }
}

/// The whole sweep record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Platform spec the sweep ran on (may carry a fault suffix).
    pub platform: String,
    /// Fidelity label (`"quick"` / `"full"`).
    pub fidelity: String,
    /// Scheduling/timing totals (absent for hand-built manifests).
    pub timing: Option<SweepTiming>,
    /// Per-experiment rows, in canonical (E1..E18) order.
    pub entries: Vec<ManifestEntry>,
}

impl Manifest {
    /// Creates an empty manifest for a sweep.
    pub fn new(platform: impl Into<String>, fidelity: impl Into<String>) -> Self {
        Self {
            platform: platform.into(),
            fidelity: fidelity.into(),
            timing: None,
            entries: Vec::new(),
        }
    }

    /// Appends one experiment's outcome without timing metadata.
    pub fn record(
        &mut self,
        id: impl Into<String>,
        title: impl Into<String>,
        status: RunStatus,
        error: Option<String>,
        detail: Option<String>,
    ) {
        self.entries.push(ManifestEntry {
            id: id.into(),
            title: title.into(),
            status,
            error,
            detail,
            elapsed_ms: None,
            worker: None,
            budget_ms: None,
        });
    }

    /// Appends a fully-populated row (the sweep executor's path).
    pub fn record_entry(&mut self, entry: ManifestEntry) {
        self.entries.push(entry);
    }

    /// Number of entries with the given status.
    pub fn count(&self, status: RunStatus) -> usize {
        self.entries.iter().filter(|e| e.status == status).count()
    }

    /// True when at least one experiment failed — the sweep's exit code.
    pub fn any_failed(&self) -> bool {
        self.count(RunStatus::Failed) > 0
    }

    /// Renders the manifest as JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"platform\": \"{}\",\n",
            escape(&self.platform)
        ));
        out.push_str(&format!(
            "  \"fidelity\": \"{}\",\n",
            escape(&self.fidelity)
        ));
        if let Some(t) = &self.timing {
            out.push_str(&format!("  \"jobs\": {},\n", t.jobs));
            out.push_str(&format!("  \"wall_ms\": {},\n", t.wall_ms));
            out.push_str(&format!("  \"serial_ms\": {},\n", t.serial_ms));
            out.push_str(&format!("  \"speedup\": {:.2},\n", t.speedup()));
        }
        out.push_str(&format!("  \"total\": {},\n", self.entries.len()));
        out.push_str(&format!("  \"passed\": {},\n", self.count(RunStatus::Pass)));
        out.push_str(&format!(
            "  \"degraded\": {},\n",
            self.count(RunStatus::Degraded)
        ));
        out.push_str(&format!("  \"failed\": {},\n", self.count(RunStatus::Failed)));
        out.push_str(&format!(
            "  \"skipped\": {},\n",
            self.count(RunStatus::Skipped)
        ));
        out.push_str("  \"experiments\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"id\": \"{}\", \"title\": \"{}\", \"status\": \"{}\"",
                escape(&e.id),
                escape(&e.title),
                e.status
            ));
            if let Some(err) = &e.error {
                out.push_str(&format!(", \"error\": \"{}\"", escape(err)));
            }
            if let Some(d) = &e.detail {
                out.push_str(&format!(", \"detail\": \"{}\"", escape(d)));
            }
            if let Some(ms) = e.elapsed_ms {
                out.push_str(&format!(", \"elapsed_ms\": {ms}"));
            }
            if let Some(w) = e.worker {
                out.push_str(&format!(", \"worker\": {w}"));
            }
            if let Some(b) = e.budget_ms {
                out.push_str(&format!(", \"budget_ms\": {b}"));
            }
            out.push('}');
            if i + 1 < self.entries.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes `manifest.json` under `dir` (created if missing) and returns
    /// its path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write(&self, dir: &Path) -> io::Result<PathBuf> {
        fs::create_dir_all(dir)?;
        let path = dir.join("manifest.json");
        fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

/// Sweep-level keys that may legitimately differ between two runs of the
/// same sweep (each occupies a whole line of the hand-rolled JSON).
const TIMING_LINE_KEYS: [&str; 4] = ["\"jobs\":", "\"wall_ms\":", "\"serial_ms\":", "\"speedup\":"];

/// Per-entry keys that may legitimately differ between two runs of the
/// same sweep (embedded inline in an experiment row).
const TIMING_ENTRY_KEYS: [&str; 3] = ["elapsed_ms", "worker", "budget_ms"];

/// Strips the timing/scheduling metadata from a rendered manifest, leaving
/// only the fields the determinism contract covers: two sweeps of the same
/// experiments on the same platform must agree on `normalized_json` no
/// matter how many workers ran them.
///
/// This operates on the textual form written by [`Manifest::to_json`]
/// (one experiment per line), so tests can normalize a `manifest.json`
/// read back from disk without a JSON parser.
pub fn normalized_json(json: &str) -> String {
    let mut out = String::with_capacity(json.len());
    'line: for line in json.lines() {
        let trimmed = line.trim_start();
        for key in TIMING_LINE_KEYS {
            if trimmed.starts_with(key) {
                continue 'line;
            }
        }
        let mut line = line.to_string();
        for key in TIMING_ENTRY_KEYS {
            line = strip_number_field(&line, key);
        }
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// Removes every `, "key": <number>` fragment from a single JSON line.
fn strip_number_field(line: &str, key: &str) -> String {
    let needle = format!(", \"{key}\": ");
    let mut out = String::with_capacity(line.len());
    let mut rest = line;
    while let Some(pos) = rest.find(&needle) {
        out.push_str(&rest[..pos]);
        let after = &rest[pos + needle.len()..];
        let end = after
            .find(|c: char| !(c.is_ascii_digit() || c == '.'))
            .unwrap_or(after.len());
        rest = &after[end..];
    }
    out.push_str(rest);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        let mut m = Manifest::new("snb", "quick");
        m.record("E1", "platform table", RunStatus::Pass, None, None);
        m.record(
            "E7",
            "prefetch \"pitfall\"",
            RunStatus::Failed,
            Some("panic".into()),
            Some("experiment panicked:\nboom".into()),
        );
        m.record("E8", "turbo", RunStatus::Skipped, None, None);
        m
    }

    #[test]
    fn counts_and_failure_flag() {
        let m = sample();
        assert_eq!(m.count(RunStatus::Pass), 1);
        assert_eq!(m.count(RunStatus::Failed), 1);
        assert_eq!(m.count(RunStatus::Skipped), 1);
        assert_eq!(m.count(RunStatus::Degraded), 0);
        assert!(m.any_failed());
    }

    #[test]
    fn json_is_escaped_and_structured() {
        let j = sample().to_json();
        assert!(j.contains("\"total\": 3"));
        assert!(j.contains("\"failed\": 1"));
        assert!(j.contains("prefetch \\\"pitfall\\\""));
        assert!(j.contains("panicked:\\nboom"));
        assert!(j.contains("\"status\": \"skipped\""));
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn timing_fields_render_and_normalize_away() {
        let mut m = sample();
        m.timing = Some(SweepTiming {
            jobs: 4,
            wall_ms: 1000,
            serial_ms: 1720,
        });
        m.entries[0].elapsed_ms = Some(123);
        m.entries[0].worker = Some(2);
        m.entries[0].budget_ms = Some(15000);
        let j = m.to_json();
        assert!(j.contains("\"jobs\": 4"), "{j}");
        assert!(j.contains("\"speedup\": 1.72"), "{j}");
        assert!(j.contains("\"elapsed_ms\": 123, \"worker\": 2, \"budget_ms\": 15000"), "{j}");

        // The normalized form is identical to an untimed manifest's.
        let untimed = sample().to_json();
        assert_eq!(normalized_json(&j), normalized_json(&untimed));
        let n = normalized_json(&j);
        assert!(!n.contains("elapsed_ms") && !n.contains("worker") && !n.contains("speedup"));
        // Normalization keeps the rows and statuses intact.
        assert!(n.contains(r#""id": "E7", "title": "prefetch \"pitfall\"", "status": "failed""#));
        assert_eq!(n.matches('{').count(), n.matches('}').count());
    }

    #[test]
    fn speedup_handles_zero_wall_time() {
        let t = SweepTiming {
            jobs: 8,
            wall_ms: 0,
            serial_ms: 0,
        };
        assert_eq!(t.speedup(), 1.0);
        // Sub-millisecond wall with real serial work: the 1 ms clamp
        // reports the serial sum rather than pretending no speedup.
        let t = SweepTiming {
            jobs: 8,
            wall_ms: 0,
            serial_ms: 7,
        };
        assert_eq!(t.speedup(), 7.0);
        // And a zero-work serial sweep with measurable wall stays finite.
        let t = SweepTiming {
            jobs: 1,
            wall_ms: 4,
            serial_ms: 0,
        };
        assert_eq!(t.speedup(), 0.0);
    }

    #[test]
    fn write_creates_file() {
        let dir = std::env::temp_dir().join(format!("roofline_manifest_{}", std::process::id()));
        let path = sample().write(&dir).unwrap();
        assert!(path.ends_with("manifest.json"));
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"platform\": \"snb\""));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
