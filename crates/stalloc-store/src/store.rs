//! Content-addressed on-disk plan cache.
//!
//! A [`PlanStore`] is a directory of binary plan artifacts named by the
//! [`Fingerprint`] of the job that produced them (`<32 hex>.stplan`) and
//! nothing else: the directory is the index. [`PlanStore::entries`]
//! (`stalloc cache ls`) lists it and decodes each artifact for its
//! summary; [`PlanStore::get`] and [`PlanStore::put`] touch exactly one
//! file.
//!
//! Every write is atomic (unique temp file, fsync, rename, directory
//! sync), so a crashed or concurrent writer can never leave a torn plan
//! behind — at worst a `.tmp-*` file that [`PlanStore::gc`] removes once
//! it has aged. The store is content-addressed, so racing writers of one
//! fingerprint rename identical bytes over each other, and writers of
//! different fingerprints never touch the same file: threads in one
//! process and separate processes (the `stalloc-served` daemon's worker
//! pool beside ad-hoc `stalloc plan --cache` runs) share a directory
//! without a lock.
//!
//! [`synthesize_cached`] is the integration point: look the job up by
//! fingerprint, and only on a miss run the (comparatively expensive)
//! [`synthesize`] and persist the result. Corrupt or unreadable cache
//! entries are treated as misses and overwritten, so the cache is
//! self-healing.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, UNIX_EPOCH};

use stalloc_core::plan::{synthesize, Plan, SynthConfig};
use stalloc_core::{fingerprint_job, Fingerprint, ProfiledRequests};

use crate::codec::{decode_plan, encode_plan, CodecError};

/// Extension of plan artifacts inside the store directory.
pub const PLAN_EXT: &str = "stplan";

/// Prefix of an in-flight writer's temp file.
const TEMP_PREFIX: &str = ".tmp-";

/// Store operation failures.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem error, tagged with the path involved.
    Io {
        /// Path the operation touched.
        path: PathBuf,
        /// Underlying error.
        source: std::io::Error,
    },
    /// A cached artifact failed to decode.
    Codec(CodecError),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { path, source } => write!(f, "{}: {source}", path.display()),
            StoreError::Codec(e) => write!(f, "cached plan: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            StoreError::Codec(e) => Some(e),
        }
    }
}

impl From<CodecError> for StoreError {
    fn from(e: CodecError) -> Self {
        StoreError::Codec(e)
    }
}

fn io_err(path: &Path, source: std::io::Error) -> StoreError {
    StoreError::Io {
        path: path.to_path_buf(),
        source,
    }
}

/// Metadata of one cached plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreEntry {
    /// Hex fingerprint (also the artifact file stem).
    pub fingerprint: String,
    /// Artifact size in bytes.
    pub bytes: u64,
    /// The artifact file's modification time, seconds since the Unix
    /// epoch: when the plan was last `put`.
    pub created_unix: u64,
    /// Cached plan's pool size.
    pub pool_size: u64,
    /// Cached plan's static request count.
    pub static_requests: u64,
}

impl StoreEntry {
    fn new(fp: Fingerprint, bytes: usize, created_unix: u64, plan: &Plan) -> Self {
        StoreEntry {
            fingerprint: fp.to_hex(),
            bytes: bytes as u64,
            created_unix,
            pool_size: plan.pool_size,
            static_requests: plan.stats.static_requests as u64,
        }
    }
}

/// Result of a [`PlanStore::gc`] sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// `*.stplan` files removed because they were misnamed, undecodable
    /// or unsound.
    pub orphan_files: usize,
    /// Stale temp files removed.
    pub temp_files: usize,
    /// Bytes reclaimed from removed files.
    pub reclaimed_bytes: u64,
}

/// Temp files younger than this are presumed to belong to an in-flight
/// writer and are left alone by [`PlanStore::gc`].
pub const GC_TEMP_TTL: Duration = Duration::from_secs(3600);

/// A content-addressed plan cache rooted at one directory.
#[derive(Debug, Clone)]
pub struct PlanStore {
    dir: PathBuf,
}

static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// The stem of a file name that claims to be a plan artifact
/// (`<stem>.stplan`).
fn artifact_stem(name: &str) -> Option<&str> {
    name.strip_suffix(PLAN_EXT)?.strip_suffix('.')
}

/// The fingerprint an artifact's stem spells, if it is exactly what
/// [`PlanStore::plan_path`] produces (32 lowercase hex digits).
fn stem_fingerprint(stem: &str) -> Option<Fingerprint> {
    Fingerprint::from_hex(stem).filter(|fp| fp.to_hex() == stem)
}

fn mtime_unix(meta: &fs::Metadata) -> u64 {
    meta.modified()
        .ok()
        .and_then(|t| t.duration_since(UNIX_EPOCH).ok())
        .map_or(0, |d| d.as_secs())
}

impl PlanStore {
    /// Opens (creating if necessary) a store at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
        Ok(PlanStore { dir })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the artifact for `fp` (whether or not it exists).
    pub fn plan_path(&self, fp: Fingerprint) -> PathBuf {
        self.dir.join(format!("{}.{PLAN_EXT}", fp.to_hex()))
    }

    /// Looks up a plan by fingerprint. `Ok(None)` on a clean miss; a
    /// present-but-corrupt artifact is an error (callers wanting
    /// self-healing semantics use [`synthesize_cached`]).
    pub fn get(&self, fp: Fingerprint) -> Result<Option<Plan>, StoreError> {
        Ok(self.get_with_bytes(fp)?.map(|(plan, _)| plan))
    }

    /// Like [`Self::get`], but also returns the artifact's raw encoded
    /// bytes. Because the codec is canonical and `put` writes exactly
    /// `encode_plan` output, those bytes *are* what a fresh
    /// `encode_plan(&plan)` would produce — callers that serve
    /// binary-encoded plans (the `stalloc-served` daemon) reuse them
    /// instead of re-encoding on every hit.
    pub fn get_with_bytes(&self, fp: Fingerprint) -> Result<Option<(Plan, Vec<u8>)>, StoreError> {
        let path = self.plan_path(fp);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(io_err(&path, e)),
        };
        let plan = decode_plan(&bytes)?;
        Ok(Some((plan, bytes)))
    }

    /// Stores `plan` under `fp` in one atomic artifact write and returns
    /// its metadata.
    ///
    /// Safe against concurrent writers without a lock: the store is
    /// content-addressed, so racing writers of `fp` rename identical
    /// bytes over each other and a `put` of a different job touches a
    /// different file.
    pub fn put(&self, fp: Fingerprint, plan: &Plan) -> Result<StoreEntry, StoreError> {
        self.put_encoded(fp, plan, &encode_plan(plan))
    }

    /// [`Self::put`] for callers that already hold the plan's encoded
    /// bytes (e.g. a server memoizing binary responses): skips the
    /// re-encode. `bytes` must be `encode_plan(plan)` output — the store
    /// is content-addressed, and a mismatching artifact would be served
    /// to every future reader of `fp`.
    pub fn put_encoded(
        &self,
        fp: Fingerprint,
        plan: &Plan,
        bytes: &[u8],
    ) -> Result<StoreEntry, StoreError> {
        let path = self.plan_path(fp);
        self.write_atomic(&path, bytes)?;
        // The rename carried the temp file's mtime over; a `clear` racing
        // this call may already have removed the artifact again.
        let created_unix = fs::metadata(&path).map_or(0, |m| mtime_unix(&m));
        Ok(StoreEntry::new(fp, bytes.len(), created_unix, plan))
    }

    /// Metadata of every cached plan, sorted by fingerprint: one
    /// directory listing and one decode per artifact. Files that are not
    /// named like an artifact, or do not decode, are not listed
    /// ([`Self::gc`] removes the ones that claim to be artifacts).
    pub fn entries(&self) -> Result<Vec<StoreEntry>, StoreError> {
        let mut entries = Vec::new();
        for dirent in fs::read_dir(&self.dir).map_err(|e| io_err(&self.dir, e))? {
            let dirent = dirent.map_err(|e| io_err(&self.dir, e))?;
            let name = dirent.file_name();
            let Some(fp) = name
                .to_str()
                .and_then(artifact_stem)
                .and_then(stem_fingerprint)
            else {
                continue;
            };
            // Raced away or unreadable is the same as undecodable here.
            let Ok(Some((plan, bytes))) = self.get_with_bytes(fp) else {
                continue;
            };
            let created_unix = dirent.metadata().map_or(0, |m| mtime_unix(&m));
            entries.push(StoreEntry::new(fp, bytes.len(), created_unix, &plan));
        }
        entries.sort_by(|a, b| a.fingerprint.cmp(&b.fingerprint));
        Ok(entries)
    }

    /// Sweeps what crashes and corruption leave behind: removes
    /// `*.stplan` files that are misnamed, undecodable or unsound, and
    /// temp files older than [`GC_TEMP_TTL`] (younger ones may belong to
    /// an in-flight writer). Sound artifacts and foreign files are never
    /// touched.
    pub fn gc(&self) -> Result<GcReport, StoreError> {
        self.gc_with_temp_ttl(GC_TEMP_TTL)
    }

    /// [`Self::gc`] with an explicit temp-file age cutoff.
    pub fn gc_with_temp_ttl(&self, temp_ttl: Duration) -> Result<GcReport, StoreError> {
        let mut report = GcReport::default();
        for dirent in fs::read_dir(&self.dir).map_err(|e| io_err(&self.dir, e))? {
            let dirent = dirent.map_err(|e| io_err(&self.dir, e))?;
            let name = dirent.file_name().to_string_lossy().into_owned();
            let (stale, count) = if name.starts_with(TEMP_PREFIX) {
                (temp_expired(&dirent, temp_ttl), &mut report.temp_files)
            } else if let Some(stem) = artifact_stem(&name) {
                // A sound plan under a well-formed name stays; so does
                // one a racing `clear` removed before it could be read.
                let keep = stem_fingerprint(stem).is_some_and(|fp| match self.get(fp) {
                    Ok(Some(plan)) => plan.validate().is_ok(),
                    Ok(None) => true,
                    Err(_) => false,
                });
                (!keep, &mut report.orphan_files)
            } else {
                continue;
            };
            if stale {
                let len = dirent.metadata().map_or(0, |m| m.len());
                if remove_if_present(&dirent.path())? {
                    *count += 1;
                    report.reclaimed_bytes += len;
                }
            }
        }
        Ok(report)
    }

    /// Removes every artifact. Returns the number of plans removed. Temp
    /// files go by [`Self::gc`]'s age rule: a young one may be an
    /// in-flight writer's, whose `put` would fail if it vanished before
    /// the rename. Any other file is not the store's and stays.
    pub fn clear(&self) -> Result<usize, StoreError> {
        let mut removed = 0;
        for dirent in fs::read_dir(&self.dir).map_err(|e| io_err(&self.dir, e))? {
            let dirent = dirent.map_err(|e| io_err(&self.dir, e))?;
            let name = dirent.file_name().to_string_lossy().into_owned();
            if artifact_stem(&name).is_some() {
                removed += usize::from(remove_if_present(&dirent.path())?);
            } else if name.starts_with(TEMP_PREFIX) && temp_expired(&dirent, GC_TEMP_TTL) {
                remove_if_present(&dirent.path())?;
            }
        }
        Ok(removed)
    }

    fn write_atomic(&self, dest: &Path, bytes: &[u8]) -> Result<(), StoreError> {
        let tmp = self.dir.join(format!(
            "{TEMP_PREFIX}{}-{}",
            std::process::id(),
            TEMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        // fsync before the rename: otherwise a crash can promote a
        // zero-length or partial temp file to the destination name.
        let write_synced = || -> std::io::Result<()> {
            use std::io::Write as _;
            let mut f = fs::File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_all()
        };
        write_synced().map_err(|e| {
            let _ = fs::remove_file(&tmp);
            io_err(&tmp, e)
        })?;
        fs::rename(&tmp, dest).map_err(|e| {
            let _ = fs::remove_file(&tmp);
            io_err(dest, e)
        })?;
        // Best-effort directory sync so the rename itself is durable;
        // not all platforms allow fsync on directories.
        if let Ok(d) = fs::File::open(&self.dir) {
            let _ = d.sync_all();
        }
        Ok(())
    }
}

/// Whether a temp file is at least `ttl` old. Unknown age (metadata
/// error, clock skew putting the mtime in the future) is *not* expired:
/// deleting an in-flight writer's temp file breaks its rename.
fn temp_expired(dirent: &fs::DirEntry, ttl: Duration) -> bool {
    dirent
        .metadata()
        .and_then(|m| m.modified())
        .ok()
        .and_then(|t| t.elapsed().ok())
        .is_some_and(|age| age >= ttl)
}

/// Removes `path`; `Ok(false)` when it was already gone. A file that
/// vanished between listing and removal (a racing `gc`, `clear` or writer
/// got there first) is the outcome the caller wanted, so only real I/O
/// failures surface as errors.
fn remove_if_present(path: &Path) -> Result<bool, StoreError> {
    match fs::remove_file(path) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
        Err(e) => Err(io_err(path, e)),
    }
}

/// Outcome of a [`synthesize_cached`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Plan decoded straight from the store; synthesis skipped.
    Hit,
    /// No usable entry; plan synthesized and persisted.
    Miss,
}

/// Plans a job through the cache: O(1) fingerprint lookup on a hit,
/// [`synthesize`] + [`PlanStore::put`] on a miss. A corrupt, unreadable,
/// or decodable-but-unsound entry counts as a miss and is overwritten.
///
/// The fingerprint incorporates every [`SynthConfig`] switch including
/// the strategy, and `synthesize` honours it, so a job planned by the
/// portfolio and the same profile planned by one concrete strategy are
/// distinct cache entries that can never serve each other.
pub fn synthesize_cached(
    profile: &ProfiledRequests,
    config: &SynthConfig,
    store: &PlanStore,
) -> Result<(Plan, Fingerprint, CacheOutcome), StoreError> {
    let fp = fingerprint_job(profile, config);
    // A bit flip past the header can decode to a *different* plan, so a
    // hit must also pass the soundness check before it is trusted.
    if let Ok(Some(plan)) = store.get(fp) {
        if plan.validate().is_ok() {
            return Ok((plan, fp, CacheOutcome::Hit));
        }
    }
    let plan = synthesize(profile, config);
    store.put(fp, &plan)?;
    Ok((plan, fp, CacheOutcome::Miss))
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace_gen::{ModelSpec, OptimConfig, ParallelConfig, TrainJob};

    fn temp_store(tag: &str) -> PlanStore {
        let dir =
            std::env::temp_dir().join(format!("stalloc-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        PlanStore::open(dir).unwrap()
    }

    fn profile() -> ProfiledRequests {
        let trace = TrainJob::new(
            ModelSpec::gpt2_345m(),
            ParallelConfig::new(1, 2, 1),
            OptimConfig::naive(),
        )
        .with_mbs(1)
        .with_seq(256)
        .with_microbatches(4)
        .with_iterations(2)
        .build_trace()
        .unwrap();
        stalloc_core::profile_trace(&trace, 1).unwrap()
    }

    #[test]
    fn put_get_roundtrip_and_index() {
        let store = temp_store("roundtrip");
        let p = profile();
        let config = SynthConfig::default();
        let plan = stalloc_core::synthesize(&p, &config);
        let fp = fingerprint_job(&p, &config);

        assert_eq!(store.get(fp).unwrap(), None);
        let entry = store.put(fp, &plan).unwrap();
        assert_eq!(entry.fingerprint, fp.to_hex());
        assert_eq!(entry.pool_size, plan.pool_size);
        assert_eq!(store.get(fp).unwrap(), Some(plan));
        assert_eq!(store.entries().unwrap(), vec![entry]);

        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn synthesize_cached_hits_on_second_call() {
        let store = temp_store("cached");
        let p = profile();
        let config = SynthConfig::default();

        let (plan1, fp1, out1) = synthesize_cached(&p, &config, &store).unwrap();
        assert_eq!(out1, CacheOutcome::Miss);
        let (plan2, fp2, out2) = synthesize_cached(&p, &config, &store).unwrap();
        assert_eq!(out2, CacheOutcome::Hit);
        assert_eq!(fp1, fp2);
        assert_eq!(plan1, plan2);

        // A different config is a different job.
        let other = SynthConfig {
            enable_gap_insertion: false,
            ..config
        };
        let (_, fp3, out3) = synthesize_cached(&p, &other, &store).unwrap();
        assert_eq!(out3, CacheOutcome::Miss);
        assert_ne!(fp1, fp3);
        assert_eq!(store.entries().unwrap().len(), 2);

        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn strategies_key_distinct_cache_entries() {
        // The strategy choice is part of the fingerprint, so a portfolio
        // job and a baseline job are distinct cache entries, and the
        // portfolio entry holds the race's winner.
        use stalloc_core::StrategyChoice;
        let store = temp_store("strategies");
        let p = profile();

        let base_cfg = SynthConfig::default();
        let port_cfg = SynthConfig {
            strategy: StrategyChoice::Portfolio,
            ..SynthConfig::default()
        };
        let (base_plan, base_fp, o1) = synthesize_cached(&p, &base_cfg, &store).unwrap();
        let (port_plan, port_fp, o2) = synthesize_cached(&p, &port_cfg, &store).unwrap();
        assert_eq!(o1, CacheOutcome::Miss);
        assert_eq!(o2, CacheOutcome::Miss);
        assert_ne!(base_fp, port_fp);
        assert_eq!(store.entries().unwrap().len(), 2);
        assert_eq!(base_plan.stats.strategy, StrategyChoice::Baseline);
        assert_eq!(port_plan, stalloc_core::synthesize(&p, &port_cfg));
        assert!(StrategyChoice::CONCRETE.contains(&port_plan.stats.strategy));
        assert_eq!(store.get(port_fp).unwrap(), Some(port_plan.clone()));

        // Both entries hit on repeat, returning the identical plan.
        let (again, _, o3) = synthesize_cached(&p, &port_cfg, &store).unwrap();
        assert_eq!(o3, CacheOutcome::Hit);
        assert_eq!(again, port_plan);
        let (again, _, o4) = synthesize_cached(&p, &base_cfg, &store).unwrap();
        assert_eq!(o4, CacheOutcome::Hit);
        assert_eq!(again, base_plan);

        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn get_with_bytes_returns_the_exact_artifact() {
        let store = temp_store("rawbytes");
        let p = profile();
        let config = SynthConfig::default();
        let (plan, fp, _) = synthesize_cached(&p, &config, &store).unwrap();

        let (decoded, bytes) = store.get_with_bytes(fp).unwrap().unwrap();
        assert_eq!(decoded, plan);
        assert_eq!(
            bytes,
            encode_plan(&plan),
            "bytes are the canonical encoding"
        );
        assert_eq!(bytes, fs::read(store.plan_path(fp)).unwrap());
        assert!(store
            .get_with_bytes(Fingerprint([9; 16]))
            .unwrap()
            .is_none());

        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn corrupt_entry_self_heals() {
        let store = temp_store("heal");
        let p = profile();
        let config = SynthConfig::default();
        let (_, fp, _) = synthesize_cached(&p, &config, &store).unwrap();

        fs::write(store.plan_path(fp), b"garbage").unwrap();
        assert!(store.get(fp).is_err(), "corrupt artifact surfaces as error");
        let (plan, _, outcome) = synthesize_cached(&p, &config, &store).unwrap();
        assert_eq!(outcome, CacheOutcome::Miss);
        assert_eq!(store.get(fp).unwrap(), Some(plan));

        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn gc_repairs_divergence() {
        let store = temp_store("gc");
        let p = profile();
        let config = SynthConfig::default();
        let (_, fp, _) = synthesize_cached(&p, &config, &store).unwrap();

        // A valid artifact nobody `put` (say, copied in from another
        // store), a garbage artifact, and a temp file.
        let good_orphan = store.dir().join(format!("{}.{PLAN_EXT}", "0".repeat(32)));
        fs::write(&good_orphan, encode_plan(&Plan::default())).unwrap();
        let bad_orphan = store.dir().join(format!("{}.{PLAN_EXT}", "f".repeat(32)));
        fs::write(&bad_orphan, b"garbage").unwrap();
        let temp = store.dir().join(".tmp-999-0");
        fs::write(&temp, b"stale").unwrap();

        // Default TTL: a freshly written temp file is presumed in-flight.
        let report = store.gc().unwrap();
        assert_eq!(report.orphan_files, 1, "garbage orphan is removed");
        assert_eq!(report.temp_files, 0, "fresh temp file survives");
        assert_eq!(report.reclaimed_bytes, 7);
        assert!(good_orphan.exists());
        assert!(!bad_orphan.exists());
        assert!(temp.exists());
        let entries = store.entries().unwrap();
        assert_eq!(entries.len(), 2, "a sound artifact is an entry");
        assert_eq!(entries[0].fingerprint, "0".repeat(32));
        assert_eq!(entries[1].fingerprint, fp.to_hex());

        // Zero TTL: the temp file is now fair game.
        let report = store.gc_with_temp_ttl(Duration::ZERO).unwrap();
        assert_eq!(report.temp_files, 1);
        assert!(!temp.exists());
        assert_eq!(store.gc().unwrap(), GcReport::default(), "nothing left");

        let _ = fs::remove_dir_all(store.dir());
    }

    /// The names in a store's directory, sorted.
    fn dir_names(store: &PlanStore) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(store.dir())
            .unwrap()
            .map(|d| d.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn the_directory_is_the_index() {
        let store = temp_store("dir-index");
        let p = profile();
        let plans: Vec<(Fingerprint, Plan)> = [false, true]
            .into_iter()
            .map(|ascending_sizes| {
                let config = SynthConfig {
                    ascending_sizes,
                    ..SynthConfig::default()
                };
                (
                    fingerprint_job(&p, &config),
                    stalloc_core::synthesize(&p, &config),
                )
            })
            .collect();
        let mut put: Vec<StoreEntry> = Vec::new();
        for (fp, plan) in plans.iter().chain(&plans) {
            put.retain(|e| e.fingerprint != fp.to_hex());
            put.push(store.put(*fp, plan).unwrap());
        }
        put.sort_by(|a, b| a.fingerprint.cmp(&b.fingerprint));
        let artifacts: Vec<String> = put
            .iter()
            .map(|e| format!("{}.{PLAN_EXT}", e.fingerprint))
            .collect();
        assert_eq!(dir_names(&store), artifacts, "N jobs put, exactly N files");
        assert_eq!(store.entries().unwrap(), put);

        // Nothing but `<32 lowercase hex>.stplan` holding a plan is an
        // entry, and `gc` removes only what claims to be an artifact.
        let sound = encode_plan(&plans[0].1);
        let kept = ["notes.txt", ".tmp-1-2", "plans"];
        let swept = [
            format!("{}.{PLAN_EXT}", "a".repeat(31)),
            format!("{}.{PLAN_EXT}", "g".repeat(32)),
            format!("{}.{PLAN_EXT}", "A".repeat(32)),
            format!("{}.{PLAN_EXT}", "b".repeat(32)),
        ];
        fs::write(store.dir().join(kept[0]), b"foreign").unwrap();
        fs::write(store.dir().join(kept[1]), &sound).unwrap();
        fs::create_dir(store.dir().join(kept[2])).unwrap();
        for name in &swept[..3] {
            fs::write(store.dir().join(name), &sound).unwrap();
        }
        fs::write(store.dir().join(&swept[3]), b"STPLgarbage").unwrap();
        assert_eq!(store.entries().unwrap(), put);

        let report = store.gc().unwrap();
        assert_eq!((report.orphan_files, report.temp_files), (4, 0));
        let mut want: Vec<String> = artifacts.clone();
        want.extend(kept.iter().map(|n| n.to_string()));
        want.sort();
        assert_eq!(dir_names(&store), want);
        assert_eq!(store.entries().unwrap(), put);
        for (fp, plan) in &plans {
            assert_eq!(store.get(*fp).unwrap().as_ref(), Some(plan));
        }

        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn files_that_are_not_artifacts_are_inert() {
        let store = temp_store("foreign-file");
        let foreign = store.dir().join("index.json");
        fs::write(&foreign, b"{ not json").unwrap();

        let store = PlanStore::open(store.dir()).unwrap();
        let p = profile();
        let config = SynthConfig::default();
        let plan = stalloc_core::synthesize(&p, &config);
        let fp = fingerprint_job(&p, &config);
        let entry = store.put(fp, &plan).unwrap();
        assert_eq!(store.get(fp).unwrap(), Some(plan));
        assert_eq!(store.entries().unwrap(), vec![entry]);
        assert_eq!(store.gc().unwrap(), GcReport::default());

        assert_eq!(store.clear().unwrap(), 1);
        assert_eq!(dir_names(&store), ["index.json"]);
        assert_eq!(fs::read(&foreign).unwrap(), b"{ not json");

        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn clear_empties_the_store() {
        let store = temp_store("clear");
        let p = profile();
        synthesize_cached(&p, &SynthConfig::default(), &store).unwrap();
        synthesize_cached(
            &p,
            &SynthConfig {
                ascending_sizes: true,
                ..SynthConfig::default()
            },
            &store,
        )
        .unwrap();
        let in_flight = store.dir().join(".tmp-1-0");
        fs::write(&in_flight, b"half a plan").unwrap();
        assert_eq!(store.clear().unwrap(), 2);
        assert!(store.entries().unwrap().is_empty());
        assert!(in_flight.exists(), "a young temp file may be a writer's");

        let _ = fs::remove_dir_all(store.dir());
    }
}
