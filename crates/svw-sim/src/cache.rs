//! Content-addressed global result cache: memoize finished cells across sweeps,
//! users, and CI (`--result-cache DIR`, `svwsim cache stats|gc|verify`).
//!
//! Every successfully simulated cell is already uniquely identified by its full
//! [`CellId`] — the lineage triple `(result schema, model version, spec
//! fingerprint)` plus `(matrix, workload, configuration, seed, trace length,
//! workload fingerprint)` — and serialized as one canonical JSONL line. This
//! module turns that identity into an address: an FNV-1a hash over the full
//! identity selects a fanout directory and entry file under the cache root, the
//! entry holds the canonical line plus an integrity checksum, and a lookup
//! re-parses the stored line back into lossless [`CpuStats`]. A cell simulated
//! once — by any sweep, any shard, any user sharing the directory — is never
//! simulated again.
//!
//! Layering (cheapest first):
//!
//! 1. **Sharded in-process index** — a fixed set of mutex-striped maps, so the
//!    rounds of an adaptive sweep or the matrices of a multi-table artifact pay
//!    the disk read once per process;
//! 2. **On-disk fanout store** — `ROOT/xx/<hash>.svwr` entries written via
//!    tmp+rename, so concurrent sweeps (and shards of a distributed sweep) can
//!    share one directory with no locking protocol: a reader sees either the
//!    complete entry or nothing.
//!
//! Safety properties:
//!
//! * **Lineage mismatches miss.** The hash covers the full identity, and a
//!   matched entry's stored line is re-parsed and compared against the
//!   requested id — a different model version, spec fingerprint, or result
//!   schema can never be served.
//! * **Corruption is a miss, never a failure.** A torn entry (a crashed
//!   writer's truncated tmp leftover, a bad checksum, an unparsable line) is
//!   treated as absent on lookup; [`ResultCache::verify`] counts and prunes
//!   such entries, and [`ResultCache::gc`] bounds the store by
//!   least-recently-used eviction (file access time, falling back to mtime).
//! * **Only successes are stored.** Failed cells re-run, exactly as they do on
//!   JSONL resume.
//!
//! Results served from the cache are byte-identical to re-simulating: the
//! stored line *is* the canonical [`cell_line`] serialization, whose stats
//! round-trip losslessly (the jsonl unit tests enforce this).

use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::SystemTime;

use svw_cpu::CpuStats;

use crate::jsonl::{cell_line, parse_cell_line, CellId};

/// Entry-file magic: format version 1 of the result-cache entry layout.
const ENTRY_MAGIC: &str = "svwr1";

/// Extension of committed entry files (`<hash>.svwr`).
const ENTRY_EXT: &str = "svwr";

/// Mutex stripes of the in-process index.
const INDEX_SHARDS: usize = 16;

/// FNV-1a offset basis (the same parameters the spec registry and trace keys
/// use; kept private per module so each hash domain is self-contained).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Streaming FNV-1a: folds every byte written to it into the hash.
struct Fnv1a(u64);

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for &b in s.as_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        Ok(())
    }
}

/// FNV-1a of `value`'s text, streamed through the hash without a string.
fn fnv1a(value: impl fmt::Display) -> u64 {
    let mut hash = Fnv1a(FNV_OFFSET);
    let _ = write!(hash, "{value}");
    hash.0
}

/// How a [`ResultCache`] participates in a sweep.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CacheMode {
    /// Serve hits and publish freshly simulated cells (the default).
    #[default]
    ReadWrite,
    /// Serve hits but never write — for CI runs that must not grow a shared
    /// store, or for consuming a read-only mount.
    ReadOnly,
    /// Publish fresh results but never serve a hit — for deliberately
    /// re-simulating (e.g. validating a store, or warming it from scratch)
    /// while still sharing the outcome.
    WriteOnly,
}

impl CacheMode {
    /// Parses the CLI syntax `rw` / `ro` / `wo` (`--result-cache-mode`).
    pub fn parse(s: &str) -> Result<CacheMode, String> {
        match s {
            "rw" => Ok(CacheMode::ReadWrite),
            "ro" => Ok(CacheMode::ReadOnly),
            "wo" => Ok(CacheMode::WriteOnly),
            other => Err(format!(
                "invalid result-cache mode {other:?} (expected rw, ro, or wo)"
            )),
        }
    }

    /// The stable label used in summaries.
    pub fn label(self) -> &'static str {
        match self {
            CacheMode::ReadWrite => "rw",
            CacheMode::ReadOnly => "ro",
            CacheMode::WriteOnly => "wo",
        }
    }
}

/// Hit/miss/store traffic of one [`ResultCache`] instance (process-local).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups served (from the in-process index or the on-disk store).
    pub hits: u64,
    /// Lookups that found nothing valid (including torn/corrupt entries and
    /// lookups suppressed by [`CacheMode::WriteOnly`]).
    pub misses: u64,
    /// Entries published to the on-disk store.
    pub stores: u64,
    /// Store attempts that failed with an I/O error (the sweep continues; the
    /// cell is simply not shared).
    pub store_errors: u64,
}

/// What `svwsim cache stats` reports about an on-disk store.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Committed entries (`*.svwr` files).
    pub entries: u64,
    /// Total bytes of committed entries.
    pub bytes: u64,
    /// Fanout directories present.
    pub fanout_dirs: u64,
    /// Abandoned `*.tmp.*` files from interrupted writers.
    pub tmp_leftovers: u64,
}

/// What `svwsim cache verify` found (and, with pruning, removed).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Entries examined.
    pub checked: u64,
    /// Entries whose checksum, parse, and address all verified.
    pub valid: u64,
    /// Entries that failed verification (torn, corrupt, or misaddressed).
    pub corrupt: u64,
    /// Corrupt entries removed (always equals `corrupt` when pruning).
    pub pruned: u64,
    /// Abandoned tmp files removed.
    pub tmp_removed: u64,
}

/// What `svwsim cache gc` evicted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Committed entries before collection.
    pub entries_before: u64,
    /// Committed bytes before collection.
    pub bytes_before: u64,
    /// Entries evicted (least-recently-used first).
    pub evicted: u64,
    /// Bytes reclaimed from evicted entries.
    pub bytes_evicted: u64,
    /// Abandoned tmp files removed.
    pub tmp_removed: u64,
}

/// A content-addressed store of finished cell results shared by concurrent
/// sweeps: an in-process index striped across mutexes over an on-disk fanout
/// directory of checksummed canonical JSONL entries. See the module docs for
/// the layout and safety properties.
#[derive(Debug)]
pub struct ResultCache {
    root: PathBuf,
    mode: CacheMode,
    index: Vec<Mutex<HashMap<CellId, CpuStats>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    store_errors: AtomicU64,
}

/// Process-global in-flight-write sequence. Shared across *instances* so two
/// caches opened on the same directory in one process (same pid) can never
/// race each other onto the same tmp filename.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

impl ResultCache {
    /// Opens (creating if needed) the store rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>, mode: CacheMode) -> io::Result<ResultCache> {
        let root = dir.into();
        fs::create_dir_all(&root)?;
        Ok(ResultCache {
            root,
            mode,
            index: (0..INDEX_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            store_errors: AtomicU64::new(0),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The mode this instance was opened with.
    pub fn mode(&self) -> CacheMode {
        self.mode
    }

    /// Process-local hit/miss/store counters.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            store_errors: self.store_errors.load(Ordering::Relaxed),
        }
    }

    /// The content address of `id`: FNV-1a over a stable serialization of the
    /// full cell identity, lineage included. Any identity difference — a new
    /// model version, an edited spec, a different seed — lands at a different
    /// address (and a colliding address is still rejected by the stored line's
    /// identity check on lookup).
    pub fn cache_key(id: &CellId) -> u64 {
        fnv1a(format_args!(
            "{}\u{1f}{}\u{1f}{}\u{1f}{}\u{1f}{}\u{1f}{}\u{1f}{}\u{1f}{}\u{1f}{}",
            crate::registry::RESULT_SCHEMA_VERSION,
            id.model_version,
            id.spec_fingerprint,
            id.matrix,
            id.workload,
            id.config,
            id.seed,
            id.trace_len,
            id.fingerprint,
        ))
    }

    fn entry_path(&self, key: u64) -> PathBuf {
        self.root
            .join(format!("{:02x}/{key:016x}.{ENTRY_EXT}", key >> 56))
    }

    fn index_shard(&self, key: u64) -> MutexGuard<'_, HashMap<CellId, CpuStats>> {
        self.index[(key as usize) % INDEX_SHARDS]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    /// Looks up `id`, consulting the in-process index first and the on-disk
    /// store second. Returns `None` on a miss — including when the entry is
    /// torn or corrupt (a crashed writer never breaks a sweep) and always
    /// under [`CacheMode::WriteOnly`].
    pub fn lookup(&self, id: &CellId) -> Option<CpuStats> {
        if self.mode == CacheMode::WriteOnly {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let key = Self::cache_key(id);
        if let Some(stats) = self.index_shard(key).get(id) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some(stats.clone());
        }
        match read_entry(&self.entry_path(key), id) {
            Some(stats) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.index_shard(key).insert(id.clone(), stats.clone());
                Some(stats)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Looks up `id` and returns its canonical JSONL line (no trailing
    /// newline) — what `coordinate` splices into shard streams.
    pub fn lookup_line(&self, id: &CellId) -> Option<String> {
        self.lookup(id).map(|stats| cell_line(id, &Ok(stats)))
    }

    /// Publishes one successfully simulated cell: atomically (tmp+rename)
    /// writes the checksummed canonical line, so a concurrent reader sees
    /// either the whole entry or nothing. A no-op under
    /// [`CacheMode::ReadOnly`], and when an identical entry is already
    /// indexed in-process. I/O errors are returned for the caller to
    /// aggregate into a sweep warning — never to abort on.
    pub fn store(&self, id: &CellId, stats: &CpuStats) -> io::Result<()> {
        if self.mode == CacheMode::ReadOnly {
            return Ok(());
        }
        let key = Self::cache_key(id);
        {
            let mut shard = self.index_shard(key);
            if shard.get(id).is_some() {
                return Ok(());
            }
            shard.insert(id.clone(), stats.clone());
        }
        let payload = cell_line(id, &Ok(stats.clone()));
        let entry = format!("{ENTRY_MAGIC} {:016x}\n{payload}\n", fnv1a(&payload));
        let path = self.entry_path(key);
        let result = (|| {
            fs::create_dir_all(path.parent().expect("entry path has a fanout parent"))?;
            // Unique per process *and* per in-flight write, so concurrent
            // sweeps sharing the directory never collide on the tmp name.
            let tmp = path.with_extension(format!(
                "tmp.{}.{}",
                std::process::id(),
                TMP_SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            let mut file = fs::File::create(&tmp)?;
            let write = file
                .write_all(entry.as_bytes())
                .and_then(|()| file.flush())
                .and_then(|()| {
                    drop(file);
                    fs::rename(&tmp, &path)
                });
            if write.is_err() {
                let _ = fs::remove_file(&tmp);
            }
            write
        })();
        match &result {
            Ok(()) => {
                self.stores.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                self.store_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        result
    }

    /// Scans the on-disk store: entry/byte totals, fanout directories, and
    /// abandoned tmp files (`svwsim cache stats`).
    pub fn stats(&self) -> io::Result<StoreStats> {
        let mut out = StoreStats::default();
        for dir in fanout_dirs(&self.root)? {
            out.fanout_dirs += 1;
            for entry in walk_files(&dir)? {
                if is_tmp(&entry.path) {
                    out.tmp_leftovers += 1;
                } else if entry.path.extension().is_some_and(|e| e == ENTRY_EXT) {
                    out.entries += 1;
                    out.bytes += entry.len;
                }
            }
        }
        Ok(out)
    }

    /// Re-checksums every entry, pruning the ones that fail (torn writes,
    /// bit rot, misaddressed files) and removing abandoned tmp files
    /// (`svwsim cache verify`). Lookups already treat these as misses; verify
    /// makes the store clean again and reports how much was wrong.
    pub fn verify(&self) -> io::Result<VerifyReport> {
        let mut report = VerifyReport::default();
        for dir in fanout_dirs(&self.root)? {
            for entry in walk_files(&dir)? {
                if is_tmp(&entry.path) {
                    fs::remove_file(&entry.path)?;
                    report.tmp_removed += 1;
                    continue;
                }
                if entry.path.extension().is_none_or(|e| e != ENTRY_EXT) {
                    continue;
                }
                report.checked += 1;
                if entry_is_valid(&entry.path) {
                    report.valid += 1;
                } else {
                    report.corrupt += 1;
                    fs::remove_file(&entry.path)?;
                    report.pruned += 1;
                }
            }
        }
        Ok(report)
    }

    /// Size-bounded garbage collection (`svwsim cache gc --max-bytes N`):
    /// removes abandoned tmp files, then evicts committed entries least-
    /// recently-used first (file access time, falling back to mtime) until
    /// the store fits in `max_bytes`.
    pub fn gc(&self, max_bytes: u64) -> io::Result<GcReport> {
        let mut report = GcReport::default();
        let mut entries: Vec<FileInfo> = Vec::new();
        for dir in fanout_dirs(&self.root)? {
            for entry in walk_files(&dir)? {
                if is_tmp(&entry.path) {
                    fs::remove_file(&entry.path)?;
                    report.tmp_removed += 1;
                } else if entry.path.extension().is_some_and(|e| e == ENTRY_EXT) {
                    report.entries_before += 1;
                    report.bytes_before += entry.len;
                    entries.push(entry);
                }
            }
        }
        let mut live_bytes = report.bytes_before;
        // Oldest access first; ties break on path so eviction order is stable.
        entries.sort_by(|a, b| a.used.cmp(&b.used).then_with(|| a.path.cmp(&b.path)));
        for entry in entries {
            if live_bytes <= max_bytes {
                break;
            }
            fs::remove_file(&entry.path)?;
            live_bytes -= entry.len;
            report.evicted += 1;
            report.bytes_evicted += entry.len;
        }
        Ok(report)
    }
}

/// One candidate file in the store, with the metadata GC sorts on.
struct FileInfo {
    path: PathBuf,
    len: u64,
    used: SystemTime,
}

fn is_tmp(path: &Path) -> bool {
    path.file_name()
        .and_then(|n| n.to_str())
        .is_some_and(|n| n.contains(".tmp."))
}

/// The store's first-level fanout directories (other stray files are ignored).
fn fanout_dirs(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut dirs = Vec::new();
    for entry in fs::read_dir(root)? {
        let entry = entry?;
        if entry.file_type()?.is_dir() {
            dirs.push(entry.path());
        }
    }
    dirs.sort();
    Ok(dirs)
}

fn walk_files(dir: &Path) -> io::Result<Vec<FileInfo>> {
    let mut files = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        if !meta.is_file() {
            continue;
        }
        let used = meta
            .accessed()
            .or_else(|_| meta.modified())
            .unwrap_or(SystemTime::UNIX_EPOCH);
        files.push(FileInfo {
            path: entry.path(),
            len: meta.len(),
            used,
        });
    }
    files.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(files)
}

/// Parses and fully validates one entry file against the requested identity.
/// Every failure mode — unreadable, torn (no trailing newline), bad magic, bad
/// checksum, unparsable line, failed-status line, identity mismatch — is a
/// silent miss.
fn read_entry(path: &Path, id: &CellId) -> Option<CpuStats> {
    let (stored_id, stats) = decode_entry(&fs::read_to_string(path).ok()?)?;
    (stored_id == *id).then_some(stats)
}

/// The successful cell an entry file's content holds, when its envelope (magic,
/// checksum, framing) is intact — shared by lookup and verify.
fn decode_entry(content: &str) -> Option<(CellId, CpuStats)> {
    let (header, rest) = content.split_once('\n')?;
    let payload = rest.strip_suffix('\n')?;
    if payload.contains('\n') {
        return None;
    }
    let (magic, checksum) = header.split_once(' ')?;
    if magic != ENTRY_MAGIC || u64::from_str_radix(checksum, 16).ok()? != fnv1a(payload) {
        return None;
    }
    let (id, stats) = parse_cell_line(payload)?;
    Some((id, stats.ok()?))
}

/// Full validation of one entry file on disk: envelope intact, line parses to
/// a successful cell, and the file sits at the identity's content address.
fn entry_is_valid(path: &Path) -> bool {
    let Some((id, _)) = fs::read_to_string(path).ok().and_then(|c| decode_entry(&c)) else {
        return false;
    };
    let expected = format!("{:016x}.{ENTRY_EXT}", ResultCache::cache_key(&id));
    path.file_name()
        .is_some_and(|n| n.to_str() == Some(expected.as_str()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("svw-result-cache-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_id(seed: u64) -> CellId {
        CellId {
            matrix: "fig5".into(),
            workload: "gzip".into(),
            config: "+SVW+UPD".into(),
            seed,
            trace_len: 3_000,
            fingerprint: 0xfeed_f00d,
            model_version: 1,
            spec_fingerprint: 0xabcd,
        }
    }

    fn sample_stats(tag: u64) -> CpuStats {
        CpuStats {
            cycles: 1_000 + tag,
            committed: 900,
            ..CpuStats::default()
        }
    }

    #[test]
    fn store_then_lookup_round_trips_losslessly() {
        let dir = test_dir("roundtrip");
        let cache = ResultCache::open(&dir, CacheMode::ReadWrite).unwrap();
        let id = sample_id(1);
        let stats = sample_stats(7);
        assert!(cache.lookup(&id).is_none(), "cold store misses");
        cache.store(&id, &stats).unwrap();
        let hit = cache.lookup(&id).expect("stored entry hits");
        assert_eq!(
            format!("{hit:?}"),
            format!("{stats:?}"),
            "lossless round-trip"
        );
        // A second instance (fresh in-process index) reads it from disk.
        let other = ResultCache::open(&dir, CacheMode::ReadWrite).unwrap();
        assert!(other.lookup(&id).is_some(), "visible across instances");
        let counters = cache.counters();
        assert_eq!((counters.hits, counters.misses, counters.stores), (1, 1, 1));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lineage_and_identity_differences_always_miss() {
        let dir = test_dir("lineage");
        let cache = ResultCache::open(&dir, CacheMode::ReadWrite).unwrap();
        let id = sample_id(1);
        cache.store(&id, &sample_stats(0)).unwrap();
        let mut model_bump = id.clone();
        model_bump.model_version = 2;
        let mut spec_drift = id.clone();
        spec_drift.spec_fingerprint ^= 1;
        let mut workload_drift = id.clone();
        workload_drift.fingerprint ^= 1;
        for miss in [&model_bump, &spec_drift, &workload_drift] {
            assert!(cache.lookup(miss).is_none(), "{miss:?} must miss");
        }
        assert!(cache.lookup(&id).is_some(), "the original still hits");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_and_corrupt_entries_are_misses_and_verify_prunes_them() {
        let dir = test_dir("torn");
        let cache = ResultCache::open(&dir, CacheMode::ReadWrite).unwrap();
        let (good, torn, corrupt) = (sample_id(1), sample_id(2), sample_id(3));
        cache.store(&good, &sample_stats(0)).unwrap();
        // A torn entry: a writer died after the header, mid-payload.
        let torn_path = cache.entry_path(ResultCache::cache_key(&torn));
        fs::create_dir_all(torn_path.parent().unwrap()).unwrap();
        fs::write(&torn_path, "svwr1 0123456789abcdef\n{\"matrix\":\"fi").unwrap();
        // A corrupt entry: intact framing, flipped payload byte.
        cache.store(&corrupt, &sample_stats(0)).unwrap();
        let corrupt_path = cache.entry_path(ResultCache::cache_key(&corrupt));
        let mut bytes = fs::read(&corrupt_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] = bytes[mid].wrapping_add(1);
        fs::write(&corrupt_path, &bytes).unwrap();
        // And an abandoned tmp file next to them.
        fs::write(torn_path.with_extension("svwr.tmp.999"), "partial").unwrap();

        let fresh = ResultCache::open(&dir, CacheMode::ReadWrite).unwrap();
        assert!(fresh.lookup(&torn).is_none(), "torn entry is a miss");
        assert!(fresh.lookup(&corrupt).is_none(), "corrupt entry is a miss");
        assert!(fresh.lookup(&good).is_some(), "good entry still hits");

        let report = fresh.verify().unwrap();
        assert_eq!(report.checked, 3);
        assert_eq!(report.valid, 1);
        assert_eq!(report.corrupt, 2);
        assert_eq!(report.pruned, 2);
        assert_eq!(report.tmp_removed, 1);
        // The store is clean now.
        let again = fresh.verify().unwrap();
        assert_eq!((again.checked, again.corrupt, again.tmp_removed), (1, 0, 0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_bounds_the_store_and_clears_tmp_leftovers() {
        let dir = test_dir("gc");
        let cache = ResultCache::open(&dir, CacheMode::ReadWrite).unwrap();
        for seed in 0..8 {
            cache.store(&sample_id(seed), &sample_stats(seed)).unwrap();
        }
        let stats = cache.stats().unwrap();
        assert_eq!(stats.entries, 8);
        let entry_bytes = stats.bytes / 8;
        fs::write(dir.join("00"), "").ok(); // ignored stray (not a dir)
        let tmp = cache
            .entry_path(ResultCache::cache_key(&sample_id(0)))
            .with_extension("svwr.tmp.1234");
        fs::write(&tmp, "abandoned").unwrap();

        let cap = entry_bytes * 3;
        let report = cache.gc(cap).unwrap();
        assert_eq!(report.entries_before, 8);
        assert_eq!(report.tmp_removed, 1);
        assert!(report.evicted >= 5, "evicts below the cap: {report:?}");
        assert!(report.bytes_before - report.bytes_evicted <= cap);
        let after = cache.stats().unwrap();
        assert_eq!(after.entries, 8 - report.evicted);
        assert_eq!(after.tmp_leftovers, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_only_never_writes_and_write_only_never_serves() {
        let dir = test_dir("modes");
        let ro = ResultCache::open(&dir, CacheMode::ReadOnly).unwrap();
        let id = sample_id(1);
        ro.store(&id, &sample_stats(0)).unwrap();
        assert_eq!(ro.stats().unwrap().entries, 0, "read-only stored nothing");

        let wo = ResultCache::open(&dir, CacheMode::WriteOnly).unwrap();
        wo.store(&id, &sample_stats(0)).unwrap();
        assert_eq!(wo.stats().unwrap().entries, 1);
        assert!(wo.lookup(&id).is_none(), "write-only never serves");
        assert!(
            ResultCache::open(&dir, CacheMode::ReadOnly)
                .unwrap()
                .lookup(&id)
                .is_some(),
            "but the entry is there for readers"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_writers_share_one_directory_safely() {
        let dir = test_dir("concurrent");
        fs::create_dir_all(&dir).unwrap();
        std::thread::scope(|scope| {
            for writer in 0..4 {
                let dir = &dir;
                scope.spawn(move || {
                    let cache = ResultCache::open(dir, CacheMode::ReadWrite).unwrap();
                    // Overlapping key ranges: every entry is written by at
                    // least two threads, racing tmp+rename on the same path.
                    for seed in 0..32 {
                        let id = sample_id(seed + (writer % 2) * 16);
                        cache.store(&id, &sample_stats(id.seed)).unwrap();
                        assert!(cache.lookup(&id).is_some());
                    }
                });
            }
        });
        let cache = ResultCache::open(&dir, CacheMode::ReadWrite).unwrap();
        let report = cache.verify().unwrap();
        assert_eq!(report.corrupt, 0, "no torn entries after racing writers");
        assert_eq!(report.valid, 48, "all 48 distinct ids committed");
        for seed in 0..48 {
            assert!(cache.lookup(&sample_id(seed)).is_some(), "seed {seed} hits");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lookup_line_returns_the_canonical_serialization() {
        let dir = test_dir("line");
        let cache = ResultCache::open(&dir, CacheMode::ReadWrite).unwrap();
        let (id, stats) = (sample_id(5), sample_stats(5));
        cache.store(&id, &stats).unwrap();
        let line = cache.lookup_line(&id).expect("hit");
        assert_eq!(line, cell_line(&id, &Ok(stats)));
        let _ = fs::remove_dir_all(&dir);
    }
}
