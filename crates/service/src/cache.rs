//! Content-addressed result caching for the roofline-analysis service.
//!
//! Every experiment result is a pure function of the request tuple
//! `(experiment, platform spec, fidelity)` — that is the determinism
//! contract the sweep executor is tested against — so a result can be
//! cached under a key derived from the tuple alone. The crate version is
//! folded into the key so a rebuild with changed experiment code can
//! never serve artifacts computed by an older binary.
//!
//! Two tiers:
//!
//! * [`LruCache`] — in-memory, least-recently-used, bounded by a byte
//!   budget over the summed artifact sizes;
//! * [`DiskStore`] — an on-disk spill laid out exactly like the `repro`
//!   binary's `out/` tree (one directory per key holding the artifact
//!   files), written and read back through
//!   [`experiments::snapshot`]'s normalization so a cached tree is
//!   byte-identical to a freshly computed one.

use crate::faults::{FaultLottery, ServiceFaults};
use experiments::manifest::RunStatus;
use experiments::platforms::Fidelity;
use experiments::registry::Experiment;
use experiments::snapshot::normalize_file;
use roofline_core::json::Json;
use std::collections::{BTreeMap, HashMap};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Name of the per-entry checksum manifest written alongside the artifact
/// files. Dotted so [`DiskStore::purge`] already treats it as
/// housekeeping, and never part of a loaded tree, so cached responses
/// stay byte-identical to fresh `repro` output.
pub const SUMS_FILE: &str = ".sums";

/// Header line of the checksum manifest; bumping it invalidates every
/// entry written under an older layout.
pub const SUMS_HEADER: &str = "roofd-sums v1";

/// Directory (under the store root) where entries that fail checksum
/// verification are moved. Dotted so it is never mistaken for an entry.
pub const QUARANTINE_DIR: &str = ".quarantine";

/// 64-bit FNV-1a over a byte slice — the same hash [`CacheKey::digest`]
/// uses for content addressing, reused for per-file checksums so
/// `scripts/check_quarantine.py` only has to mirror one function.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The content address of one analysis result: the request tuple plus the
/// version of the code that computes it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Which experiment.
    pub experiment: Experiment,
    /// Full platform spec, fault suffix included (`snb+drift=0.12,seed=7`
    /// and `snb` are different results and different keys).
    pub platform: String,
    /// Problem-size fidelity.
    pub fidelity: Fidelity,
    /// Version of the computing code; a rebuild invalidates the cache.
    pub version: String,
}

impl CacheKey {
    /// Builds the key for a request tuple under this crate's version.
    pub fn new(experiment: Experiment, platform: &str, fidelity: Fidelity) -> Self {
        Self::with_version(experiment, platform, fidelity, env!("CARGO_PKG_VERSION"))
    }

    /// Builds a key under an explicit version (the hook the key-sensitivity
    /// tests use to prove version changes miss).
    pub fn with_version(
        experiment: Experiment,
        platform: &str,
        fidelity: Fidelity,
        version: &str,
    ) -> Self {
        CacheKey {
            experiment,
            platform: platform.to_string(),
            fidelity,
            version: version.to_string(),
        }
    }

    /// The canonical text form the digest is computed over.
    pub fn canonical(&self) -> String {
        format!(
            "experiment={};platform={};fidelity={};version={}",
            self.experiment.id(),
            self.platform,
            self.fidelity.label(),
            self.version
        )
    }

    /// 64-bit FNV-1a digest of [`CacheKey::canonical`], as 16 hex digits.
    pub fn digest(&self) -> String {
        format!("{:016x}", fnv64(self.canonical().as_bytes()))
    }

    /// Directory name of this key's on-disk entry: a human-readable prefix
    /// plus the digest, filesystem-safe.
    pub fn dir_name(&self) -> String {
        let safe: String = format!(
            "{}-{}-{}-v{}",
            self.experiment.id().to_lowercase(),
            self.platform,
            self.fidelity.label(),
            self.version
        )
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '-' | '.' | '_') {
                c
            } else {
                '_'
            }
        })
        .collect();
        format!("{safe}-{}", self.digest())
    }
}

/// One cached analysis result: the terminal status, the failure/integrity
/// record, and the normalized artifact tree.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedResult {
    /// Terminal state of the computation (`pass`, `degraded`, `failed`).
    pub status: RunStatus,
    /// Error class for failed computations (`"panic"`, `"artifact-io"`…).
    pub error: Option<String>,
    /// Human-readable elaboration (panic message, IO error).
    pub detail: Option<String>,
    /// Integrity-guard verdicts for degraded runs — returned to the client
    /// instead of dropping the connection when the platform spec carries a
    /// fault suffix.
    pub integrity: Vec<String>,
    /// Wall time of the computation that produced this result, in
    /// milliseconds. `None` when the result was reloaded from disk (the
    /// normalized tree strips timing by design).
    pub compute_ms: Option<u64>,
    /// The normalized artifact tree, name → contents — byte-identical to
    /// what `repro -e <id>` leaves under `out/` after
    /// [`experiments::snapshot`] normalization.
    pub tree: BTreeMap<String, String>,
}

impl CachedResult {
    /// Summed size of the artifact tree in bytes (names + contents) — the
    /// unit of the memory cache's budget.
    pub fn bytes(&self) -> usize {
        self.tree.iter().map(|(k, v)| k.len() + v.len()).sum()
    }

    /// Whether the result may be cached. Failures are never cached: a
    /// panic is deterministic too, but serving it from cache would mask
    /// the fix until a purge.
    pub fn cacheable(&self) -> bool {
        self.status != RunStatus::Failed
    }
}

/// Parses a manifest status string back to [`RunStatus`].
pub fn status_from_str(s: &str) -> Option<RunStatus> {
    match s {
        "pass" => Some(RunStatus::Pass),
        "degraded" => Some(RunStatus::Degraded),
        "failed" => Some(RunStatus::Failed),
        "skipped" => Some(RunStatus::Skipped),
        _ => None,
    }
}

struct LruEntry {
    result: Arc<CachedResult>,
    bytes: usize,
    last_used: u64,
}

/// In-memory LRU cache bounded by a byte budget over artifact sizes.
///
/// Eviction drops least-recently-used entries until the budget holds
/// again; an entry larger than the whole budget is evicted immediately
/// after insertion (the disk tier still covers it).
pub struct LruCache {
    budget: usize,
    clock: u64,
    bytes: usize,
    map: HashMap<String, LruEntry>,
}

impl LruCache {
    /// Creates an empty cache with the given byte budget.
    pub fn new(budget_bytes: usize) -> Self {
        LruCache {
            budget: budget_bytes,
            clock: 0,
            bytes: 0,
            map: HashMap::new(),
        }
    }

    /// Looks up a digest, marking the entry most-recently-used.
    pub fn get(&mut self, digest: &str) -> Option<Arc<CachedResult>> {
        self.clock += 1;
        let clock = self.clock;
        self.map.get_mut(digest).map(|e| {
            e.last_used = clock;
            e.result.clone()
        })
    }

    /// Inserts a result, evicting least-recently-used entries until the
    /// byte budget holds. Returns the number of entries evicted.
    pub fn insert(&mut self, digest: String, result: Arc<CachedResult>) -> usize {
        self.clock += 1;
        let bytes = result.bytes();
        if let Some(old) = self.map.insert(
            digest,
            LruEntry {
                result,
                bytes,
                last_used: self.clock,
            },
        ) {
            self.bytes -= old.bytes;
        }
        self.bytes += bytes;
        let mut evicted = 0;
        while self.bytes > self.budget && !self.map.is_empty() {
            let oldest = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
                .expect("non-empty map has a minimum");
            let entry = self.map.remove(&oldest).expect("key just observed");
            self.bytes -= entry.bytes;
            evicted += 1;
        }
        evicted
    }

    /// Drops every entry; returns how many were held.
    pub fn purge(&mut self) -> usize {
        let n = self.map.len();
        self.map.clear();
        self.bytes = 0;
        n
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Current summed artifact bytes.
    pub fn bytes(&self) -> usize {
        self.bytes
    }
}

/// Monotonic counter distinguishing concurrent staging/tmp directories
/// within one process.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// The on-disk spill tier: one directory per cache key, laid out like the
/// `repro` binary's `out/` tree, plus a [`SUMS_FILE`] checksum manifest
/// per entry so torn or bit-flipped bytes are detected at load time and
/// quarantined instead of served.
pub struct DiskStore {
    root: PathBuf,
    faults: Arc<FaultLottery>,
    quarantined: AtomicU64,
    swept_tmp: AtomicU64,
}

impl DiskStore {
    /// Opens (or designates) a store rooted at `root`; the directory is
    /// created lazily on first write.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        Self::with_faults(root, Arc::new(ServiceFaults::default().lottery()))
    }

    /// Opens a store whose writes are filtered through a fault lottery —
    /// the hook the chaos tests use to produce torn and bit-flipped
    /// entries on demand.
    pub fn with_faults(root: impl Into<PathBuf>, faults: Arc<FaultLottery>) -> Self {
        DiskStore {
            root: root.into(),
            faults,
            quarantined: AtomicU64::new(0),
            swept_tmp: AtomicU64::new(0),
        }
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Path of one key's entry directory.
    pub fn entry_dir(&self, key: &CacheKey) -> PathBuf {
        self.root.join(key.dir_name())
    }

    /// Entries quarantined by this process since startup.
    pub fn quarantined(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// Stale staging/tmp directories removed by [`DiskStore::sweep_stale`].
    pub fn swept_tmp(&self) -> u64 {
        self.swept_tmp.load(Ordering::Relaxed)
    }

    /// Renders the checksum manifest for an artifact tree: a header line
    /// then one `"<fnv64-hex> <byte-len> <name>"` line per file, in tree
    /// (lexicographic) order.
    pub fn render_sums(tree: &BTreeMap<String, String>) -> String {
        let mut out = String::from(SUMS_HEADER);
        out.push('\n');
        for (name, contents) in tree {
            out.push_str(&format!(
                "{:016x} {} {}\n",
                fnv64(contents.as_bytes()),
                contents.len(),
                name
            ));
        }
        out
    }

    /// Verifies one on-disk entry directory against its [`SUMS_FILE`]:
    /// every listed file must exist with matching length and FNV-1a
    /// digest, and no unlisted artifact file may be present. Returns a
    /// human-readable reason on the first violation. This is
    /// [`DiskStore::load`]'s own check, minus keeping the tree.
    pub fn verify_entry(dir: &Path) -> Result<(), String> {
        Self::read_entry(dir).map(drop)
    }

    /// Reads and verifies one entry directory in a single pass: parses
    /// its [`SUMS_FILE`], reads each listed file once, checks the raw
    /// stored bytes' length and FNV-1a digest, and normalizes them into
    /// the tree; then lists the directory once and refuses any unlisted
    /// artifact file. The tree holds exactly the listed files, whose
    /// names must be flat and undotted, so stray dot-files and
    /// subdirectories are never served.
    ///
    /// Checks run on the raw bytes, not the normalized view: the store
    /// only ever writes normalized trees, so any divergence is
    /// corruption, not line-ending noise.
    fn read_entry(dir: &Path) -> Result<BTreeMap<String, String>, String> {
        let sums = fs::read_to_string(dir.join(SUMS_FILE))
            .map_err(|e| format!("unreadable {SUMS_FILE}: {e}"))?;
        let mut lines = sums.lines();
        if lines.next() != Some(SUMS_HEADER) {
            return Err(format!("bad {SUMS_FILE} header"));
        }
        let mut tree = BTreeMap::new();
        for line in lines {
            let mut parts = line.splitn(3, ' ');
            let (hash, len, name) = match (parts.next(), parts.next(), parts.next()) {
                (Some(h), Some(l), Some(n)) if !n.is_empty() => (h, l, n),
                _ => return Err(format!("malformed {SUMS_FILE} line `{line}`")),
            };
            let want_len: usize = len
                .parse()
                .map_err(|_| format!("malformed length in {SUMS_FILE} line `{line}`"))?;
            // The store writes flat artifact names only; a listed path or
            // dot-file would be served from outside the artifact set.
            if name.starts_with('.') || name.contains('/') {
                return Err(format!("listed name `{name}` is not an artifact file name"));
            }
            let bytes = fs::read(dir.join(name))
                .map_err(|e| format!("listed file `{name}` unreadable: {e}"))?;
            if bytes.len() != want_len {
                return Err(format!(
                    "`{name}` is {} bytes, manifest says {want_len} (torn write?)",
                    bytes.len()
                ));
            }
            let got = format!("{:016x}", fnv64(&bytes));
            if got != hash {
                return Err(format!(
                    "`{name}` checksum {got} does not match manifest {hash}"
                ));
            }
            let text =
                String::from_utf8(bytes).map_err(|_| format!("`{name}` is not UTF-8 text"))?;
            tree.insert(name.to_string(), normalize_file(name, text));
        }
        let entries = fs::read_dir(dir).map_err(|e| format!("unreadable entry dir: {e}"))?;
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with('.') || tree.contains_key(&name) {
                continue;
            }
            if entry.file_type().map(|t| t.is_dir()).unwrap_or(false) {
                continue;
            }
            return Err(format!("unlisted file `{name}` present in entry"));
        }
        Ok(tree)
    }

    /// Moves a failed entry aside into [`QUARANTINE_DIR`] (suffixing
    /// `-1`, `-2`… on name collisions), records the failure reason in a
    /// `reason.txt` inside it, and counts it. Quarantined entries are
    /// kept, not deleted, so an operator can post-mortem the corruption;
    /// `scripts/check_quarantine.py` audits that they stay unservable.
    fn quarantine(&self, dir: &Path, reason: &str) {
        let Some(name) = dir.file_name().map(|n| n.to_string_lossy().into_owned()) else {
            return;
        };
        let qroot = self.root.join(QUARANTINE_DIR);
        if fs::create_dir_all(&qroot).is_err() {
            // Can't quarantine (read-only disk?); at worst the entry is
            // re-verified and re-refused on the next load.
            return;
        }
        let mut dest = qroot.join(&name);
        let mut n = 0u32;
        while dest.exists() {
            n += 1;
            dest = qroot.join(format!("{name}-{n}"));
        }
        if fs::rename(dir, &dest).is_ok() {
            let _ = fs::write(dest.join("reason.txt"), format!("{reason}\n"));
            self.quarantined.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Removes stale scratch directories (`.tmp-*`, `.staging`) left
    /// behind by a killed process. Called once at engine startup; returns
    /// how many were removed.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors other than the root not existing.
    pub fn sweep_stale(&self) -> io::Result<usize> {
        let entries = match fs::read_dir(&self.root) {
            Ok(e) => e,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
            Err(e) => return Err(e),
        };
        let mut swept = 0;
        for entry in entries {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if entry.file_type()?.is_dir() && (name.starts_with(".tmp-") || name == ".staging") {
                fs::remove_dir_all(entry.path())?;
                swept += 1;
            }
        }
        self.swept_tmp.fetch_add(swept as u64, Ordering::Relaxed);
        Ok(swept)
    }

    /// Loads a key's result, re-validating through the same
    /// [`experiments::snapshot`] normalization a fresh computation goes
    /// through, and recovering the status/integrity record from the
    /// stored `manifest.json`. Each file listed in the entry's checksum
    /// manifest is read once and verified as it is read: a torn,
    /// truncated, or bit-flipped entry is quarantined (see
    /// [`QUARANTINE_DIR`]) and reported as a miss, so corrupt bytes are
    /// recomputed, never served. Returns `None` on any missing,
    /// unverifiable, or unreadable entry.
    pub fn load(&self, key: &CacheKey) -> Option<CachedResult> {
        let dir = self.entry_dir(key);
        if !dir.exists() {
            return None;
        }
        let tree = match Self::read_entry(&dir) {
            Ok(tree) => tree,
            Err(reason) => {
                self.quarantine(&dir, &reason);
                return None;
            }
        };
        let manifest = Json::parse(tree.get("manifest.json")?).ok()?;
        let entry = manifest.get("experiments")?.as_arr()?.first()?;
        if entry.get("id")?.as_str()? != key.experiment.id() {
            return None;
        }
        let status = status_from_str(entry.get("status")?.as_str()?)?;
        let detail = entry
            .get("detail")
            .and_then(Json::as_str)
            .map(str::to_string);
        let integrity = match (status, &detail) {
            (RunStatus::Degraded, Some(d)) => d.split("; ").map(str::to_string).collect(),
            _ => Vec::new(),
        };
        Some(CachedResult {
            status,
            error: entry
                .get("error")
                .and_then(Json::as_str)
                .map(str::to_string),
            detail,
            integrity,
            compute_ms: None,
            tree,
        })
    }

    /// Persists a result under its key, atomically: the tree plus its
    /// [`SUMS_FILE`] checksum manifest is written to a temporary sibling
    /// and renamed into place, so readers never see a half-written entry.
    /// An armed fault lottery may tear or bit-flip the staged entry after
    /// the manifest is recorded — modelling a crash or bit rot — which a
    /// later [`DiskStore::load`] must catch and quarantine.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (an existing entry is not an error —
    /// first writer wins).
    pub fn store(&self, key: &CacheKey, result: &CachedResult) -> io::Result<()> {
        let target = self.entry_dir(key);
        if target.exists() {
            return Ok(());
        }
        let tmp = self.root.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&tmp)?;
        for (name, contents) in &result.tree {
            fs::write(tmp.join(name), contents)?;
        }
        fs::write(tmp.join(SUMS_FILE), Self::render_sums(&result.tree))?;
        self.inject_store_faults(&tmp, result)?;
        if fs::rename(&tmp, &target).is_err() {
            // Lost a race with a concurrent writer of the same key (or the
            // entry appeared meanwhile) — their copy is byte-identical by
            // the determinism contract, so just drop ours.
            let _ = fs::remove_dir_all(&tmp);
        }
        Ok(())
    }

    /// Applies any armed store-side faults to a staged entry: a torn
    /// write truncates the largest artifact to half its bytes; a checksum
    /// flip XORs one byte at a lottery-chosen offset. Both happen *after*
    /// the checksum manifest was written — the point is to plant exactly
    /// the inconsistency a crash or bit rot would.
    fn inject_store_faults(&self, tmp: &Path, result: &CachedResult) -> io::Result<()> {
        let victim = result
            .tree
            .iter()
            .max_by_key(|(name, contents)| (contents.len(), std::cmp::Reverse(name.as_str())))
            .map(|(name, _)| name.clone());
        let Some(victim) = victim else {
            return Ok(());
        };
        if self.faults.torn_write() {
            let bytes = fs::read(tmp.join(&victim))?;
            fs::write(tmp.join(&victim), &bytes[..bytes.len() / 2])?;
        } else if self.faults.flip_byte() {
            let mut bytes = fs::read(tmp.join(&victim))?;
            if !bytes.is_empty() {
                let at = self.faults.flip_offset(bytes.len());
                bytes[at] ^= 0x40;
                fs::write(tmp.join(&victim), &bytes)?;
            }
        }
        Ok(())
    }

    /// Removes every cache entry (and stray tmp directory). Returns the
    /// number of entries removed; a store that was never written counts 0.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors other than the root not existing.
    pub fn purge(&self) -> io::Result<usize> {
        let mut removed = 0;
        let entries = match fs::read_dir(&self.root) {
            Ok(e) => e,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
            Err(e) => return Err(e),
        };
        for entry in entries {
            let entry = entry?;
            if entry.file_type()?.is_dir() {
                fs::remove_dir_all(entry.path())?;
                // `.staging`/`.tmp-*` scratch directories are removed but
                // are not cache entries.
                if !entry.file_name().to_string_lossy().starts_with('.') {
                    removed += 1;
                }
            }
        }
        Ok(removed)
    }
}

/// A unique scratch directory for one computation's staging output.
pub fn staging_dir(base: Option<&Path>, digest: &str) -> PathBuf {
    let base = base
        .map(|p| p.join(".staging"))
        .unwrap_or_else(std::env::temp_dir);
    base.join(format!(
        "roofd-{}-{}-{}",
        std::process::id(),
        digest,
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result_with(bytes: usize, tag: &str) -> Arc<CachedResult> {
        let mut tree = BTreeMap::new();
        // Key length counts toward the budget too; keep it simple.
        tree.insert(tag.to_string(), "x".repeat(bytes.saturating_sub(tag.len())));
        Arc::new(CachedResult {
            status: RunStatus::Pass,
            error: None,
            detail: None,
            integrity: Vec::new(),
            compute_ms: Some(1),
            tree,
        })
    }

    #[test]
    fn digest_is_sensitive_to_every_tuple_component() {
        let base = CacheKey::with_version(Experiment::E1, "snb", Fidelity::Quick, "1.0");
        let variants = [
            CacheKey::with_version(Experiment::E2, "snb", Fidelity::Quick, "1.0"),
            CacheKey::with_version(Experiment::E1, "hsw", Fidelity::Quick, "1.0"),
            CacheKey::with_version(Experiment::E1, "snb+drift=0.1,seed=7", Fidelity::Quick, "1.0"),
            CacheKey::with_version(Experiment::E1, "snb", Fidelity::Full, "1.0"),
            CacheKey::with_version(Experiment::E1, "snb", Fidelity::Quick, "1.1"),
        ];
        for v in &variants {
            assert_ne!(base.digest(), v.digest(), "{} vs {}", base.canonical(), v.canonical());
        }
        // Same tuple, same digest — content addressing is deterministic.
        assert_eq!(
            base.digest(),
            CacheKey::with_version(Experiment::E1, "snb", Fidelity::Quick, "1.0").digest()
        );
    }

    #[test]
    fn dir_name_is_filesystem_safe_and_digest_tagged() {
        let key = CacheKey::with_version(
            Experiment::E7,
            "snb+drift=0.12,seed=7",
            Fidelity::Quick,
            "0.1.0",
        );
        let name = key.dir_name();
        assert!(name.ends_with(&key.digest()), "{name}");
        assert!(name.starts_with("e7-snb_drift_0.12_seed_7-quick-v0.1.0"), "{name}");
        assert!(!name.contains('+') && !name.contains('=') && !name.contains(','));
    }

    #[test]
    fn lru_evicts_least_recently_used_under_byte_budget() {
        let mut cache = LruCache::new(100);
        assert_eq!(cache.insert("a".into(), result_with(40, "fa")), 0);
        assert_eq!(cache.insert("b".into(), result_with(40, "fb")), 0);
        // Touch `a` so `b` is the LRU entry when the budget breaks.
        assert!(cache.get("a").is_some());
        assert_eq!(cache.insert("c".into(), result_with(40, "fc")), 1);
        assert!(cache.get("b").is_none(), "b was least recently used");
        assert!(cache.get("a").is_some() && cache.get("c").is_some());
        assert!(cache.bytes() <= 100);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn oversized_entry_does_not_wedge_the_cache() {
        let mut cache = LruCache::new(50);
        let evicted = cache.insert("huge".into(), result_with(500, "f"));
        assert_eq!(evicted, 1, "the oversized entry itself is evicted");
        assert!(cache.is_empty());
        assert_eq!(cache.bytes(), 0);
    }

    #[test]
    fn reinserting_a_key_replaces_without_double_counting() {
        let mut cache = LruCache::new(1000);
        cache.insert("k".into(), result_with(100, "f"));
        cache.insert("k".into(), result_with(200, "f"));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.bytes(), 200);
    }

    #[test]
    fn purge_empties_everything() {
        let mut cache = LruCache::new(1000);
        cache.insert("a".into(), result_with(10, "f"));
        cache.insert("b".into(), result_with(10, "g"));
        assert_eq!(cache.purge(), 2);
        assert!(cache.is_empty());
        assert_eq!(cache.bytes(), 0);
    }

    fn scratch_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "roofd-cache-test-{tag}-{}-{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// A minimal but loadable result: `load` insists on a parseable
    /// `manifest.json` naming the key's experiment. The manifest is
    /// pre-normalized, as every tree the engine stores is (they come out
    /// of `read_tree`), so store→load round trips byte-identically.
    fn loadable_result(key: &CacheKey) -> CachedResult {
        let mut tree = BTreeMap::new();
        let raw = format!(
            "{{\"experiments\": [{{\"id\": \"{}\", \"status\": \"pass\"}}]}}",
            key.experiment.id()
        );
        tree.insert(
            "manifest.json".to_string(),
            experiments::snapshot::normalize_file("manifest.json", raw),
        );
        tree.insert("data.csv".to_string(), "a,b\n1,2\n".repeat(32));
        CachedResult {
            status: RunStatus::Pass,
            error: None,
            detail: None,
            integrity: Vec::new(),
            compute_ms: Some(3),
            tree,
        }
    }

    #[test]
    fn store_then_load_verifies_and_strips_the_sums_file() {
        let root = scratch_root("roundtrip");
        let store = DiskStore::new(&root);
        let key = CacheKey::with_version(Experiment::E1, "snb", Fidelity::Quick, "t");
        let result = loadable_result(&key);
        store.store(&key, &result).unwrap();
        assert!(store.entry_dir(&key).join(SUMS_FILE).exists());
        let loaded = store.load(&key).expect("verified entry loads");
        assert!(!loaded.tree.contains_key(SUMS_FILE), "sums must not leak into served trees");
        assert_eq!(loaded.tree, result.tree);
        assert_eq!(store.quarantined(), 0);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn torn_write_is_quarantined_not_served() {
        let root = scratch_root("torn");
        let faults = Arc::new(ServiceFaults::parse("torn=1").unwrap().lottery());
        let store = DiskStore::with_faults(&root, faults);
        let key = CacheKey::with_version(Experiment::E2, "snb", Fidelity::Quick, "t");
        store.store(&key, &loadable_result(&key)).unwrap();
        assert!(store.load(&key).is_none(), "torn entry must read as a miss");
        assert_eq!(store.quarantined(), 1);
        assert!(!store.entry_dir(&key).exists(), "entry moved aside");
        let quarantined: Vec<_> = fs::read_dir(root.join(QUARANTINE_DIR))
            .unwrap()
            .flatten()
            .collect();
        assert_eq!(quarantined.len(), 1);
        let reason =
            fs::read_to_string(quarantined[0].path().join("reason.txt")).unwrap();
        assert!(reason.contains("torn write"), "reason names the failure: {reason}");
        // A verified clean rewrite is servable again.
        let clean = DiskStore::new(&root);
        clean.store(&key, &loadable_result(&key)).unwrap();
        assert!(clean.load(&key).is_some());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn bit_flip_is_quarantined_not_served() {
        let root = scratch_root("flip");
        let faults = Arc::new(ServiceFaults::parse("flip=1").unwrap().lottery());
        let store = DiskStore::with_faults(&root, faults);
        let key = CacheKey::with_version(Experiment::E3, "snb", Fidelity::Quick, "t");
        store.store(&key, &loadable_result(&key)).unwrap();
        assert!(store.load(&key).is_none());
        assert_eq!(store.quarantined(), 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn missing_sums_or_extra_file_fails_verification() {
        let root = scratch_root("verify");
        let store = DiskStore::new(&root);
        let key = CacheKey::with_version(Experiment::E4, "snb", Fidelity::Quick, "t");
        store.store(&key, &loadable_result(&key)).unwrap();
        let dir = store.entry_dir(&key);
        assert!(DiskStore::verify_entry(&dir).is_ok());
        fs::write(dir.join("stray.txt"), "not in the manifest").unwrap();
        assert!(DiskStore::verify_entry(&dir).is_err(), "unlisted file");
        fs::remove_file(dir.join("stray.txt")).unwrap();
        fs::remove_file(dir.join(SUMS_FILE)).unwrap();
        assert!(DiskStore::verify_entry(&dir).is_err(), "missing sums");
        assert!(store.load(&key).is_none(), "unverifiable entry is a miss");
        assert_eq!(store.quarantined(), 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn stray_dot_file_is_never_served() {
        let root = scratch_root("dotfile");
        let store = DiskStore::new(&root);
        let key = CacheKey::with_version(Experiment::E1, "snb", Fidelity::Quick, "t");
        let result = loadable_result(&key);
        store.store(&key, &result).unwrap();
        let dir = store.entry_dir(&key);
        fs::write(dir.join(".stray"), "unverified bytes").unwrap();
        let loaded = store.load(&key).expect("the listed files still verify");
        assert_eq!(loaded.tree, result.tree, "only listed files are served");
        assert_eq!(store.quarantined(), 0);
        // Listing the dot-file, even with a matching checksum, does not
        // make it servable.
        let mut sums = fs::read_to_string(dir.join(SUMS_FILE)).unwrap();
        sums.push_str(&format!("{:016x} 16 .stray\n", fnv64(b"unverified bytes")));
        fs::write(dir.join(SUMS_FILE), sums).unwrap();
        assert!(DiskStore::verify_entry(&dir).is_err(), "listed dot-file");
        assert!(store.load(&key).is_none());
        assert_eq!(store.quarantined(), 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn non_utf8_listed_file_fails_verification() {
        let root = scratch_root("utf8");
        let dir = root.join("entry");
        fs::create_dir_all(&dir).unwrap();
        let bytes = b"\xff\xfe";
        fs::write(dir.join("data.csv"), bytes).unwrap();
        let sums = format!("{SUMS_HEADER}\n{:016x} 2 data.csv\n", fnv64(bytes));
        fs::write(dir.join(SUMS_FILE), sums).unwrap();
        let err = DiskStore::verify_entry(&dir).unwrap_err();
        assert!(err.contains("not UTF-8"), "{err}");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn sweep_stale_removes_only_scratch_dirs() {
        let root = scratch_root("sweep");
        let store = DiskStore::new(&root);
        let key = CacheKey::with_version(Experiment::E5, "snb", Fidelity::Quick, "t");
        store.store(&key, &loadable_result(&key)).unwrap();
        fs::create_dir_all(root.join(".tmp-999-0")).unwrap();
        fs::create_dir_all(root.join(".staging")).unwrap();
        assert_eq!(store.sweep_stale().unwrap(), 2);
        assert_eq!(store.swept_tmp(), 2);
        assert!(store.load(&key).is_some(), "real entries survive the sweep");
        assert_eq!(store.sweep_stale().unwrap(), 0, "idempotent");
        let _ = fs::remove_dir_all(&root);
    }
}
