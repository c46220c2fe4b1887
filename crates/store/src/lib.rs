#![warn(missing_docs)]
//! Content-addressed on-disk artifact store for the clustering pipeline.
//!
//! The pipeline's expensive intermediates — segmentations, deduplicated
//! segment stores, condensed dissimilarity matrices with their neighbor
//! indices, auto-configured DBSCAN parameters, clusterings — are pure
//! functions of (trace bytes, segmenter configuration, dissimilarity
//! parameters). This crate caches them on disk under 128-bit content
//! keys derived from exactly those inputs, so a re-run of an analysis
//! is a handful of file reads instead of an O(n²) matrix build, and an
//! analysis of a *grown* trace can warm-start from the largest cached
//! prefix and compute only the new matrix entries.
//!
//! Design rules (DESIGN.md §"Artifact store"):
//!
//! * **A damaged cache is a slow run, never a wrong or failed one.**
//!   Every file carries a version, kind tag and whole-file checksum;
//!   truncation, bit flips, version bumps and structural violations all
//!   decode to `None`, which [`ArtifactStore::get`] counts as a miss.
//! * **Keys encode every input that affects the artifact's bits**, so
//!   there is no explicit invalidation — changing a parameter simply
//!   addresses different files.
//! * **Writes are atomic** (temp file + rename), so a crashed writer
//!   leaves at worst an orphaned temp file, not a torn artifact.
//!
//! The store is deliberately ignorant of the pipeline types' semantics:
//! it moves `Persist` payloads in and out of frames. What to key on and
//! when to probe lives with the callers (`fieldclust::AnalysisSession`).

pub mod artifacts;
pub mod codec;
pub mod digest;
pub mod format;
pub mod mmap;

pub use artifacts::{decode_payload, encode_payload, Encode, Kind, Persist};
pub use codec::{Reader, Writer};
pub use digest::{checksum, fnv64, Key, KeyDigest};
pub use format::{decode_file, encode_file, encode_with, FORMAT_VERSION, MAGIC};

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[derive(Debug, Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    extended: AtomicU64,
    mmap_reads: AtomicU64,
}

/// A snapshot of the store's hit/miss/write counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Successful `get`s (file present, frame and payload valid).
    pub hits: u64,
    /// Failed `get`s — absent, truncated, corrupt, or wrong version.
    pub misses: u64,
    /// Successful `put`s.
    pub writes: u64,
    /// Matrices grown incrementally from a cached prefix.
    pub extended: u64,
    /// Reads served zero-copy through a memory mapping (a subset of
    /// `hits + misses`; the rest took the heap-read fallback).
    pub mmap_reads: u64,
}

impl std::fmt::Display for StoreStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "hits={} misses={} writes={} extended={} mmap_reads={}",
            self.hits, self.misses, self.writes, self.extended, self.mmap_reads
        )
    }
}

/// A byte budget for a capped [`ArtifactStore`]: after every write the
/// store evicts least-recently-used artifacts until its total on-disk
/// size fits the cap again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreBudget {
    /// Maximum total size of the cache directory's artifact files, in
    /// bytes.
    pub max_bytes: u64,
}

/// Advisory cross-process lock on one manifest file, held for the
/// duration of a read-modify-write.
///
/// Acquisition creates `<manifest>.lock` with `create_new` — atomic on
/// every platform the store targets — and spins with a 1 ms sleep while
/// someone else holds it. A lock file older than [`STALE_LOCK`] is
/// presumed abandoned by a crashed process and broken: real holders
/// keep it for microseconds (one manifest rewrite). Lock failures due
/// to an unwritable directory degrade to lockless operation — the
/// store's rule that a broken cache never fails a run extends to its
/// locks.
#[derive(Debug)]
struct ManifestLock {
    path: Option<PathBuf>,
}

/// Age after which a manifest lock file is presumed leaked by a dead
/// process and taken over.
const STALE_LOCK: std::time::Duration = std::time::Duration::from_secs(5);

/// Per-process sequence for unique lock-takeover names, so concurrent
/// breakers in one process never collide on the rename target.
static BREAK_SEQ: AtomicU64 = AtomicU64::new(0);

impl ManifestLock {
    fn acquire(path: PathBuf) -> Self {
        let deadline = std::time::Instant::now() + 2 * STALE_LOCK;
        loop {
            match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(_) => return Self { path: Some(path) },
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    let stale = std::fs::metadata(&path)
                        .and_then(|m| m.modified())
                        .ok()
                        .and_then(|t| t.elapsed().ok())
                        .is_some_and(|age| age > STALE_LOCK);
                    if stale || std::time::Instant::now() > deadline {
                        Self::break_lock(&path, std::time::Instant::now() > deadline);
                    } else {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                }
                // Unwritable cache directory: proceed unlocked rather
                // than fail the run.
                Err(_) => return Self { path: None },
            }
        }
    }

    /// Breaks a presumed-stale lock by renaming it to a per-breaker
    /// unique name. The rename is atomic, so each lock-file incarnation
    /// is taken over by exactly one breaker — a plain `remove_file`
    /// here would let two waiters both judge the lock stale, with the
    /// second removal deleting a lock a third process freshly created
    /// after the first removal (two concurrent manifest writers). The
    /// winner re-judges the now-privately-owned file: genuinely stale
    /// (or past the acquisition deadline) means discard; a fresh one —
    /// we raced with a break-and-reacquire — is put back via
    /// `hard_link`, which cannot clobber any newer lock at the path.
    /// Either way the caller loops and re-contends on `create_new`.
    fn break_lock(path: &Path, past_deadline: bool) {
        let takeover = path.with_extension(format!(
            "lockbreak-{}-{}",
            std::process::id(),
            BREAK_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        if std::fs::rename(path, &takeover).is_err() {
            // Someone else broke it (or the holder released): just
            // re-contend.
            return;
        }
        let actually_stale = std::fs::metadata(&takeover)
            .and_then(|m| m.modified())
            .ok()
            .and_then(|t| t.elapsed().ok())
            .is_some_and(|age| age > STALE_LOCK);
        if !(actually_stale || past_deadline) {
            let _ = std::fs::hard_link(&takeover, path);
        }
        let _ = std::fs::remove_file(&takeover);
    }
}

impl Drop for ManifestLock {
    fn drop(&mut self) {
        if let Some(path) = &self.path {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// A content-addressed artifact cache rooted at one directory.
///
/// Cloning is cheap and clones share the statistics counters, so a
/// session can hold a clone while the caller keeps one for reporting.
#[derive(Debug, Clone)]
pub struct ArtifactStore {
    root: PathBuf,
    counters: Arc<Counters>,
    budget: Option<StoreBudget>,
}

impl ArtifactStore {
    /// Opens (creating if needed) a store rooted at `root`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the directory cannot be
    /// created — an unusable cache *directory* is a configuration
    /// error, unlike unusable cache *contents*.
    pub fn open(root: impl Into<PathBuf>) -> std::io::Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(Self {
            root,
            counters: Arc::new(Counters::default()),
            budget: None,
        })
    }

    /// Caps the store at `budget`: every write triggers LRU eviction
    /// until the directory fits again (see [`StoreBudget`]). Recency is
    /// tracked in a ledger file updated on hits and writes; manifests
    /// are evicted only after every data artifact, and manifest entries
    /// pointing at an evicted artifact are pruned so warm-start probes
    /// do not chase dangling keys.
    pub fn with_budget(mut self, budget: StoreBudget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// The configured byte budget, if any.
    pub fn budget(&self) -> Option<StoreBudget> {
        self.budget
    }

    /// The cache directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Total size in bytes of all artifact files (`*.bin`) currently in
    /// the cache directory — what a [`StoreBudget`] caps.
    pub fn total_bytes(&self) -> u64 {
        self.artifact_files()
            .into_iter()
            .filter_map(|name| std::fs::metadata(self.root.join(name)).ok())
            .map(|m| m.len())
            .sum()
    }

    /// The file path an artifact of `kind` under `key` lives at.
    pub fn file_path(&self, kind: Kind, key: &Key) -> PathBuf {
        self.root.join(self.file_name(kind, key))
    }

    fn file_name(&self, kind: Kind, key: &Key) -> String {
        format!("{}-{}.bin", kind.name(), key.hex())
    }

    /// Fetches and decodes the artifact under `key`, or `None` (counted
    /// as a miss) if it is absent or damaged in any way.
    pub fn get<T: Persist>(&self, key: &Key) -> Option<T> {
        let value = self.get_quiet::<T>(key);
        match value {
            Some(_) => {
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                self.touch_lru(&self.file_name(T::KIND, key));
            }
            None => {
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
            }
        };
        value
    }

    /// [`get`](Self::get) without touching the hit/miss counters — for
    /// speculative probes (manifest prefix candidates) that should not
    /// skew the stats. (The `mmap_reads` counter still ticks: it
    /// attributes I/O strategy, not cache effectiveness.)
    ///
    /// With the mmap read path enabled the file is mapped and its frame
    /// validated in place; the payload decodes straight from the mapped
    /// pages with no whole-file heap copy. A frame violation seen
    /// through the mapping is a definitive miss (the checksum verdict
    /// cannot change on a re-read); only a failure to *map* falls back
    /// to the byte-identical heap read.
    pub fn get_quiet<T: Persist>(&self, key: &Key) -> Option<T> {
        let path = self.file_path(T::KIND, key);
        #[cfg(all(feature = "mmap", unix))]
        if mmap::enabled() {
            if let Ok(verdict) = mmap::MappedArtifact::open(&path, T::KIND) {
                self.counters.mmap_reads.fetch_add(1, Ordering::Relaxed);
                return verdict.and_then(|mapped| decode_payload(mapped.payload()));
            }
        }
        let bytes = std::fs::read(path).ok()?;
        let payload = format::decode_file(T::KIND, &bytes)?;
        decode_payload(payload)
    }

    /// Whether an artifact file exists under `key` (no decode).
    pub fn contains<T: Persist>(&self, key: &Key) -> bool {
        self.file_path(T::KIND, key).is_file()
    }

    /// Encodes and stores `value` under `key`, atomically (temp file +
    /// rename). Returns `false` — after warning on stderr — if the
    /// write failed; a read-only or full cache degrades the run to
    /// cold compute, it never fails it.
    pub fn put<T: Encode>(&self, key: &Key, value: &T) -> bool {
        let file = format::encode_with(T::STORED_AS, value.encoded_len_hint(), |w| {
            value.encode_payload(w)
        });
        let path = self.file_path(T::STORED_AS, key);
        match self.write_atomic(&path, &file) {
            Ok(()) => {
                self.counters.writes.fetch_add(1, Ordering::Relaxed);
                self.touch_lru(&self.file_name(T::STORED_AS, key));
                self.enforce_budget();
                true
            }
            Err(e) => {
                eprintln!("warning: cache write to {} failed: {e}", path.display());
                false
            }
        }
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        // Unique per process; concurrent writers of the *same* key race
        // benignly (both write identical content-addressed bytes).
        let tmp = path.with_extension(format!("tmp{}", std::process::id()));
        std::fs::write(&tmp, bytes)?;
        let renamed = std::fs::rename(&tmp, path);
        if renamed.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        renamed
    }

    /// All `(item count, key)` entries of the manifest for `family`,
    /// ascending by item count. Empty if absent or damaged.
    ///
    /// A manifest lists, per `(artifact kind, parameters)` family, the
    /// keys of artifacts already stored for successive *prefixes* of a
    /// growing item sequence — the index that incremental matrix
    /// extension searches for its warm-start point.
    pub fn manifest_entries(&self, family: &Key) -> Vec<(usize, Key)> {
        let Ok(bytes) = std::fs::read(self.manifest_path(family)) else {
            return Vec::new();
        };
        let Some(payload) = format::decode_file(Kind::MANIFEST, &bytes) else {
            return Vec::new();
        };
        let mut r = Reader::new(payload);
        let Some(n) = r.count(24) else {
            return Vec::new();
        };
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let (Some(u), Some(raw)) = (r.usize(), r.take(16)) else {
                return Vec::new();
            };
            let mut key = [0u8; 16];
            key.copy_from_slice(raw);
            entries.push((u, Key(key)));
        }
        if !r.is_at_end() {
            return Vec::new();
        }
        entries.sort_by_key(|&(u, _)| u);
        entries
    }

    /// Records that the artifact for the first `u` items of `family`
    /// is stored under `key` (read-modify-write; exact duplicates
    /// dropped). Several keys may share one `u` — different item
    /// streams in the same parameter family; readers disambiguate by
    /// recomputing the expected key for their own stream.
    ///
    /// The read-modify-write holds the family's advisory lock, so
    /// concurrent writers — the `ftcd` daemon and an offline CLI run
    /// sharing one `--cache-dir`, or parallel jobs inside the daemon —
    /// never lose each other's entries.
    pub fn manifest_add(&self, family: &Key, u: usize, key: &Key) {
        {
            let _lock = ManifestLock::acquire(self.manifest_lock_path(family));
            let mut entries = self.manifest_entries(family);
            if entries.iter().any(|&(eu, ek)| eu == u && ek == *key) {
                return;
            }
            entries.push((u, *key));
            entries.sort_by_key(|&(u, _)| u);
            self.write_manifest(family, &entries);
        }
        // Budget enforcement takes per-family locks of its own; the
        // current family's lock is released first so they never nest.
        self.enforce_budget();
    }

    fn write_manifest(&self, family: &Key, entries: &[(usize, Key)]) {
        let mut w = Writer::new();
        w.usize(entries.len());
        for (u, k) in entries {
            w.usize(*u);
            w.raw(&k.0);
        }
        let file = format::encode_file(Kind::MANIFEST, w.as_slice());
        let path = self.manifest_path(family);
        if let Err(e) = self.write_atomic(&path, &file) {
            eprintln!("warning: cache write to {} failed: {e}", path.display());
        }
    }

    fn manifest_path(&self, family: &Key) -> PathBuf {
        self.root.join(self.file_name(Kind::MANIFEST, family))
    }

    fn manifest_lock_path(&self, family: &Key) -> PathBuf {
        self.manifest_path(family).with_extension("lock")
    }

    /// All artifact file names (`*.bin`) in the cache directory.
    fn artifact_files(&self) -> Vec<String> {
        let Ok(dir) = std::fs::read_dir(&self.root) else {
            return Vec::new();
        };
        dir.filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| n.ends_with(".bin"))
            .collect()
    }

    fn ledger_path(&self) -> PathBuf {
        self.root.join("lru.list")
    }

    /// The LRU ledger: artifact file names, least recently used first.
    fn lru_order(&self) -> Vec<String> {
        std::fs::read_to_string(self.ledger_path())
            .map(|s| {
                s.lines()
                    .filter(|l| !l.is_empty())
                    .map(String::from)
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Moves `name` to the most-recent end of the LRU ledger. Only
    /// maintained on capped stores; concurrent writers race benignly
    /// (a stale ledger skews eviction order, never correctness).
    fn touch_lru(&self, name: &str) {
        if self.budget.is_none() {
            return;
        }
        let mut order = self.lru_order();
        order.retain(|n| n != name);
        order.push(name.to_string());
        let _ = std::fs::write(self.ledger_path(), order.join("\n"));
    }

    fn ledger_remove(&self, name: &str) {
        let mut order = self.lru_order();
        let before = order.len();
        order.retain(|n| n != name);
        if order.len() != before {
            let _ = std::fs::write(self.ledger_path(), order.join("\n"));
        }
    }

    /// Evicts least-recently-used artifacts until the directory fits the
    /// budget again. Data artifacts go first (ledger order, then any
    /// unledgered files in name order); manifests only as a last resort.
    /// Every evicted data artifact is also pruned from any manifest that
    /// references it, so warm-start probes do not chase dangling keys.
    fn enforce_budget(&self) {
        let Some(budget) = self.budget else { return };
        if self.total_bytes() <= budget.max_bytes {
            return;
        }
        let manifest_prefix = format!("{}-", Kind::MANIFEST.name());
        let ledger = self.lru_order();
        let mut files = self.artifact_files();
        files.sort();
        // (class, recency): ledgered data files evict in ledger order,
        // unledgered data files next (name order), manifests last.
        files.sort_by_key(|name| {
            if name.starts_with(&manifest_prefix) {
                return (2, 0);
            }
            match ledger.iter().position(|l| l == name) {
                Some(p) => (0, p),
                None => (1, 0),
            }
        });
        for name in files {
            if self.total_bytes() <= budget.max_bytes {
                break;
            }
            let _ = std::fs::remove_file(self.root.join(&name));
            self.ledger_remove(&name);
            if !name.starts_with(&manifest_prefix) {
                if let Some(hex) = name.strip_suffix(".bin").and_then(|s| s.rsplit('-').next()) {
                    if let Some(key) = Key::from_hex(hex) {
                        self.prune_manifest_references(&key);
                    }
                }
            }
        }
    }

    /// Drops every manifest entry pointing at `evicted`; empty manifests
    /// are removed entirely. Each family's read-modify-write holds its
    /// advisory lock so a concurrent [`manifest_add`](Self::manifest_add)
    /// is never overwritten with stale entries.
    fn prune_manifest_references(&self, evicted: &Key) {
        let manifest_prefix = format!("{}-", Kind::MANIFEST.name());
        for name in self.artifact_files() {
            let Some(hex) = name
                .strip_prefix(&manifest_prefix)
                .and_then(|s| s.strip_suffix(".bin"))
            else {
                continue;
            };
            let Some(family) = Key::from_hex(hex) else {
                continue;
            };
            let _lock = ManifestLock::acquire(self.manifest_lock_path(&family));
            let entries = self.manifest_entries(&family);
            let kept: Vec<(usize, Key)> = entries
                .iter()
                .copied()
                .filter(|(_, k)| k != evicted)
                .collect();
            if kept.len() == entries.len() {
                continue;
            }
            if kept.is_empty() {
                let _ = std::fs::remove_file(self.root.join(&name));
            } else {
                self.write_manifest(&family, &kept);
            }
        }
    }

    /// Counts one incremental matrix extension (for stats reporting).
    pub fn record_extension(&self) {
        self.counters.extended.fetch_add(1, Ordering::Relaxed);
    }

    /// A snapshot of the counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            writes: self.counters.writes.load(Ordering::Relaxed),
            extended: self.counters.extended.load(Ordering::Relaxed),
            mmap_reads: self.counters.mmap_reads.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{Clustering, Label};

    fn temp_store(tag: &str) -> ArtifactStore {
        let dir = std::env::temp_dir().join(format!("store-unit-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ArtifactStore::open(dir).expect("open temp store")
    }

    fn key(b: u8) -> Key {
        Key([b; 16])
    }

    #[test]
    fn put_get_and_stats() {
        let store = temp_store("putget");
        let c = Clustering::from_labels(vec![Label::Cluster(0), Label::Noise]);
        assert_eq!(store.get::<Clustering>(&key(1)), None);
        assert!(store.put(&key(1), &c));
        assert_eq!(store.get::<Clustering>(&key(1)), Some(c));
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.writes, s.extended), (1, 1, 1, 0));
    }

    #[test]
    fn clones_share_stats() {
        let store = temp_store("clones");
        let clone = store.clone();
        let _ = clone.get::<Clustering>(&key(2));
        assert_eq!(store.stats().misses, 1);
        store.record_extension();
        assert_eq!(clone.stats().extended, 1);
    }

    #[test]
    fn capped_store_never_exceeds_budget_and_evicts_lru() {
        let store = temp_store("budget").with_budget(StoreBudget { max_bytes: 400 });
        let big = Clustering::from_labels(vec![Label::Cluster(0); 20]);
        assert!(store.put(&key(1), &big));
        assert!(store.total_bytes() <= 400);
        assert!(store.put(&key(2), &big));
        assert!(store.total_bytes() <= 400);
        // A hit refreshes key 1, so key 2 becomes the LRU victim.
        assert!(store.get::<Clustering>(&key(1)).is_some());
        assert!(store.put(&key(3), &big));
        assert!(store.total_bytes() <= 400);
        assert!(store.contains::<Clustering>(&key(1)));
        assert!(!store.contains::<Clustering>(&key(2)));
        assert!(store.contains::<Clustering>(&key(3)));
    }

    #[test]
    fn capped_store_warm_hits_still_verify_checksums() {
        let store = temp_store("budgetsum").with_budget(StoreBudget { max_bytes: 10_000 });
        let c = Clustering::from_labels(vec![Label::Cluster(0), Label::Cluster(1), Label::Noise]);
        assert!(store.put(&key(4), &c));
        assert_eq!(store.get::<Clustering>(&key(4)), Some(c));
        // A bit flip on disk must read as a miss, budget or not.
        let path = store.file_path(Kind::CLUSTERING, &key(4));
        let mut bytes = std::fs::read(&path).expect("read artifact");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, bytes).expect("rewrite artifact");
        assert_eq!(store.get::<Clustering>(&key(4)), None);
    }

    #[test]
    fn eviction_prunes_manifest_references() {
        let store = temp_store("budgetman").with_budget(StoreBudget { max_bytes: 300 });
        let c = Clustering::from_labels(vec![Label::Cluster(0); 20]);
        let fam = key(9);
        assert!(store.put(&key(1), &c));
        store.manifest_add(&fam, 20, &key(1));
        assert_eq!(store.manifest_entries(&fam), vec![(20, key(1))]);
        // The second artifact pushes the store over budget: key 1 is
        // evicted and its manifest entry pruned with it.
        assert!(store.put(&key(2), &c));
        assert!(store.total_bytes() <= 300);
        assert!(!store.contains::<Clustering>(&key(1)));
        assert!(store
            .manifest_entries(&fam)
            .iter()
            .all(|&(_, k)| k != key(1)));
    }

    #[test]
    fn mmap_and_heap_reads_agree() {
        let store = temp_store("mmapeq");
        let c = Clustering::from_labels(vec![Label::Cluster(0), Label::Cluster(1), Label::Noise]);
        assert!(store.put(&key(7), &c));
        let was_enabled = mmap::enabled();
        // The store's read path (mapped when enabled) …
        let via_store = store.get::<Clustering>(&key(7));
        // … against the explicit heap read of the same file.
        let bytes =
            std::fs::read(store.file_path(Kind::CLUSTERING, &key(7))).expect("read artifact");
        let via_heap: Option<Clustering> =
            format::decode_file(Kind::CLUSTERING, &bytes).and_then(decode_payload);
        assert_eq!(via_store, via_heap);
        assert_eq!(via_store, Some(c));
        if was_enabled && mmap::enabled() {
            assert!(store.stats().mmap_reads >= 1, "mapped read should count");
        }
    }

    #[test]
    fn manifest_roundtrip_sorted_and_deduped() {
        let store = temp_store("manifest");
        let fam = key(3);
        assert!(store.manifest_entries(&fam).is_empty());
        store.manifest_add(&fam, 50, &key(5));
        store.manifest_add(&fam, 10, &key(1));
        store.manifest_add(&fam, 50, &key(5)); // exact duplicate, ignored
        store.manifest_add(&fam, 10, &key(9)); // same u, other stream: kept
        let entries = store.manifest_entries(&fam);
        assert_eq!(entries.len(), 3);
        assert!(entries.contains(&(10, key(1))));
        assert!(entries.contains(&(10, key(9))));
        assert_eq!(entries.last(), Some(&(50, key(5))));
    }
}
