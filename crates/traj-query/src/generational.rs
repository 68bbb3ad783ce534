//! Live ingestion: merged base + delta serving with background
//! compaction into snapshot generations.
//!
//! A [`QueryEngine`] and a [`TrajDb`](crate::TrajDb) serve *immutable*
//! databases: their indexes are built once over frozen columns. A
//! [`GenerationalDb`] adds writes without giving that up, LSM-style:
//!
//! - the **base** is an immutable snapshot generation (`gen-N.snap`),
//!   one stored segment over the mapped file with the index its
//!   [`DbOptions`] configure, built when the generation is opened;
//! - the **active delta** is a WAL-guarded
//!   [`DeltaStore`]: appends are simplified
//!   online at admission, logged, and acknowledged only after an
//!   `fsync` — a crash replays exactly the acked trajectories;
//! - **sealed** deltas are frozen segments awaiting compaction (their
//!   WALs still on disk), each stored once — when its WAL is replayed at
//!   open, or when a compaction seals the active delta — over the scan
//!   backend, so sealing builds no index under the write lock;
//! - a **compaction** folds base + sealed segments into the next
//!   snapshot generation and commits it by atomically renaming the
//!   `gens.manifest` — serving never stops, and a crash on either side
//!   of the rename recovers a consistent database.
//!
//! Queries see one logical database, and it is an ordered list of
//! [`Segment`]s: the indexed base, then each sealed delta, then the
//! active delta — the stored segments handed out as they are, and only
//! the active delta's view (a scan-backend engine borrowed over its
//! columns, O(1)) assembled per call under the read lock. Trajectory
//! ids are assigned in that (ingest) order, every query is the shared
//! [`fan_out`](crate::fan_out), and so every operator answers
//! **identically to a from-scratch rebuild** over the same
//! trajectories. Compaction preserves ids: folding appends sealed
//! trajectories to the base columns in segment order, exactly where the
//! merged view already placed them.
//!
//! # Directory layout
//!
//! ```text
//! live-db/
//! ├── gens.manifest      # "QDTSGENS v1" + generation + snapshot + wal_start
//! ├── gen-000003.snap    # current base generation (snapshot format)
//! └── wal-000007.log     # active delta WAL (earlier seqs = sealed)
//! ```
//!
//! `wal_start` names the first WAL sequence the manifest still depends
//! on: on open, WALs `wal_start..` are replayed (all but the highest as
//! sealed segments, the highest reopened for appends) and anything
//! older is garbage from before the last commit.
//!
//! # Example
//!
//! ```
//! use traj_query::{DbOptions, GenerationalDb, QueryExecutor};
//! use trajectory::{Cube, KeepAll, Point, PointStore, Trajectory};
//!
//! let dir = std::env::temp_dir().join("traj_query_generational_doc");
//! # let _ = std::fs::remove_dir_all(&dir);
//! let mut base = PointStore::new();
//! base.push_points(&[Point::new(0.0, 0.0, 0.0), Point::new(1.0, 1.0, 10.0)])
//!     .unwrap();
//! let db = GenerationalDb::create(&dir, &base, DbOptions::new(), Box::new(|| Box::new(KeepAll)))
//!     .unwrap();
//!
//! // Writes are durable once `ingest` returns...
//! let t = Trajectory::new(vec![Point::new(5.0, 5.0, 0.0), Point::new(6.0, 6.0, 5.0)]).unwrap();
//! let ack = db.ingest(std::slice::from_ref(&t)).unwrap();
//! assert_eq!((ack.accepted, ack.first_id), (1, Some(1)));
//!
//! // ...and served immediately, merged with the base generation.
//! assert_eq!(db.len(), 2);
//! assert_eq!(db.range(&Cube::new(4.0, 7.0, 4.0, 7.0, 0.0, 9.0)), vec![1]);
//!
//! // Compaction folds the delta into generation 1; ids are stable.
//! let report = db.compact().unwrap();
//! assert_eq!((report.generation, report.folded_trajs), (1, 1));
//! assert_eq!(db.range(&Cube::new(4.0, 7.0, 4.0, 7.0, 0.0, 9.0)), vec![1]);
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

use std::fmt;
use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

use trajectory::delta::{replay_wal, BoxedSimplifier, DeltaError, DeltaStore};
use trajectory::snapshot::{write_snapshot_to, SnapshotError};
use trajectory::{AsColumns, Cube, PointStore, TrajId, Trajectory};

use crate::db::{snapshot_part, DbOptions};
use crate::engine::{EngineConfig, QueryEngine};
use crate::segment::{IdMap, Segment, Segmented, StoredSegment};

/// File name of the generation manifest inside a live-db directory.
pub const GENS_MANIFEST: &str = "gens.manifest";

const MANIFEST_MAGIC: &str = "QDTSGENS v1";

fn snapshot_name(generation: u64) -> String {
    format!("gen-{generation:06}.snap")
}

fn wal_name(seq: u64) -> String {
    format!("wal-{seq:06}.log")
}

fn parse_wal_name(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?
        .strip_suffix(".log")?
        .parse()
        .ok()
}

fn parse_snapshot_name(name: &str) -> Option<u64> {
    name.strip_prefix("gen-")?
        .strip_suffix(".snap")?
        .parse()
        .ok()
}

// ---------------------------------------------------------------------
// Errors.
// ---------------------------------------------------------------------

/// What opening, ingesting into, or compacting a [`GenerationalDb`] can
/// fail with.
#[derive(Debug)]
pub enum GenError {
    /// Raw I/O (directory scans, WAL appends, manifest writes).
    Io(io::Error),
    /// A base generation snapshot failed to read or write.
    Snapshot(SnapshotError),
    /// A delta WAL failed to open or replay.
    Delta(DeltaError),
    /// The `gens.manifest` file is malformed.
    Manifest {
        /// Human-readable description of the violation.
        reason: String,
    },
}

impl fmt::Display for GenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenError::Io(e) => write!(f, "live db I/O error: {e}"),
            GenError::Snapshot(e) => write!(f, "generation snapshot error: {e}"),
            GenError::Delta(e) => write!(f, "delta WAL error: {e}"),
            GenError::Manifest { reason } => write!(f, "malformed generation manifest: {reason}"),
        }
    }
}

impl std::error::Error for GenError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GenError::Io(e) => Some(e),
            GenError::Snapshot(e) => Some(e),
            GenError::Delta(e) => Some(e),
            GenError::Manifest { .. } => None,
        }
    }
}

impl From<io::Error> for GenError {
    fn from(e: io::Error) -> Self {
        GenError::Io(e)
    }
}

impl From<SnapshotError> for GenError {
    fn from(e: SnapshotError) -> Self {
        GenError::Snapshot(e)
    }
}

impl From<DeltaError> for GenError {
    fn from(e: DeltaError) -> Self {
        GenError::Delta(e)
    }
}

// ---------------------------------------------------------------------
// Manifest.
// ---------------------------------------------------------------------

struct Manifest {
    generation: u64,
    snapshot: String,
    wal_start: u64,
}

fn load_manifest(path: &Path) -> Result<Manifest, GenError> {
    let text = fs::read_to_string(path)?;
    let mut lines = text.lines();
    let magic = lines.next().unwrap_or("");
    if magic != MANIFEST_MAGIC {
        return Err(GenError::Manifest {
            reason: format!("bad magic line {magic:?}"),
        });
    }
    let (mut generation, mut snapshot, mut wal_start) = (None, None, None);
    for line in lines {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (key, value) = line.split_once(' ').ok_or_else(|| GenError::Manifest {
            reason: format!("line {line:?} is not `key value`"),
        })?;
        let slot: &mut Option<String> = match key {
            "generation" => &mut generation,
            "snapshot" => &mut snapshot,
            "wal_start" => &mut wal_start,
            _ => {
                return Err(GenError::Manifest {
                    reason: format!("unknown key {key:?}"),
                })
            }
        };
        if slot.replace(value.to_string()).is_some() {
            return Err(GenError::Manifest {
                reason: format!("duplicate key {key:?}"),
            });
        }
    }
    let parse_u64 = |key: &str, v: Option<String>| -> Result<u64, GenError> {
        v.ok_or_else(|| GenError::Manifest {
            reason: format!("missing key {key:?}"),
        })?
        .parse()
        .map_err(|_| GenError::Manifest {
            reason: format!("key {key:?} is not a u64"),
        })
    };
    Ok(Manifest {
        generation: parse_u64("generation", generation)?,
        snapshot: snapshot.ok_or_else(|| GenError::Manifest {
            reason: "missing key \"snapshot\"".to_string(),
        })?,
        wal_start: parse_u64("wal_start", wal_start)?,
    })
}

/// Commits `parts`, concatenated, as generation `generation`: streams
/// them into a temporary file, `fsync`s it, renames it to its
/// `gen-N.snap` name and stores the manifest naming it with `wal_start`.
/// The snapshot is durable before any manifest names it, so a crash at
/// any step leaves the previous commit (or none) in force. Returns the
/// snapshot's path.
fn commit_generation<S: AsColumns + ?Sized>(
    dir: &Path,
    generation: u64,
    parts: &[&S],
    wal_start: u64,
) -> Result<PathBuf, GenError> {
    let snapshot = snapshot_name(generation);
    let path = dir.join(&snapshot);
    let tmp = dir.join(format!("{snapshot}.tmp"));
    let file = write_snapshot_to(parts, None, BufWriter::new(File::create(&tmp)?))?
        .into_inner()
        .map_err(io::IntoInnerError::into_error)?;
    file.sync_all()?;
    drop(file);
    fs::rename(&tmp, &path)?;
    store_manifest(
        dir,
        &Manifest {
            generation,
            snapshot,
            wal_start,
        },
    )?;
    Ok(path)
}

/// Writes the manifest durably: temp file, `fsync`, atomic rename —
/// the rename is the commit point of a compaction.
fn store_manifest(dir: &Path, m: &Manifest) -> Result<(), GenError> {
    let text = format!(
        "{MANIFEST_MAGIC}\ngeneration {}\nsnapshot {}\nwal_start {}\n",
        m.generation, m.snapshot, m.wal_start
    );
    let tmp = dir.join(format!("{GENS_MANIFEST}.tmp"));
    let mut f = File::create(&tmp)?;
    f.write_all(text.as_bytes())?;
    f.sync_all()?;
    drop(f);
    fs::rename(&tmp, dir.join(GENS_MANIFEST))?;
    // Make the rename itself durable where the platform allows it.
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

// ---------------------------------------------------------------------
// The merged view.
// ---------------------------------------------------------------------

/// A sealed delta: its stored segment, queued for the next compaction.
/// Its WAL stays on disk until the manifest commits a generation that
/// contains it.
struct Sealed {
    seq: u64,
    segment: StoredSegment,
}

struct Inner {
    generation: u64,
    base: Arc<StoredSegment>,
    sealed: Vec<Arc<Sealed>>,
    active: DeltaStore,
    /// Running bounding cube of the active delta, unioned on ingest.
    active_bounds: Cube,
    active_seq: u64,
}

impl Inner {
    fn base_len(&self) -> usize {
        self.base.engine.store().len()
    }

    /// The global id of the active delta's first trajectory: ids run in
    /// segment order, base then sealed deltas then the active one.
    fn active_first(&self) -> TrajId {
        let sealed = self.sealed.iter().map(|s| s.segment.engine.store().len());
        self.base_len() + sealed.sum::<usize>()
    }

    fn delta_trajs(&self) -> usize {
        self.active_first() - self.base_len() + self.active.len()
    }

    fn delta_points(&self) -> usize {
        self.sealed
            .iter()
            .map(|s| s.segment.engine.store().total_points())
            .sum::<usize>()
            + self.active.total_points()
    }
}

// ---------------------------------------------------------------------
// Reports.
// ---------------------------------------------------------------------

/// What one [`GenerationalDb::ingest`] batch did. Returned only after
/// the WAL is synced: every accepted trajectory survives a crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestReport {
    /// Trajectories admitted (logged, simplified, and serving).
    pub accepted: u32,
    /// Trajectories rejected wholesale (empty, non-finite coordinates,
    /// or time-regressing samples).
    pub rejected: u32,
    /// Global id of the first accepted trajectory; subsequent accepted
    /// trajectories of the batch took consecutive ids.
    pub first_id: Option<TrajId>,
    /// Total trajectories served after the batch.
    pub total_trajs: u64,
    /// Total points served after the batch (post-simplification).
    pub total_points: u64,
}

/// What one [`GenerationalDb::compact`] pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionReport {
    /// The generation now serving (unchanged when there was nothing to
    /// fold).
    pub generation: u64,
    /// Delta trajectories folded into the new base generation.
    pub folded_trajs: usize,
    /// Delta points folded into the new base generation.
    pub folded_points: usize,
    /// Base trajectories after the pass.
    pub base_trajs: usize,
}

/// Builds the online simplifier each new delta WAL admits points
/// through — one fresh instance per WAL, so replay is deterministic.
pub type SimpFactory = Box<dyn Fn() -> BoxedSimplifier + Send + Sync>;

// ---------------------------------------------------------------------
// The database.
// ---------------------------------------------------------------------

/// A mutable trajectory database: an immutable base snapshot
/// generation merged with a WAL-backed delta, compacted in the
/// background. See the [module docs](self) for the layout and
/// recovery protocol.
///
/// All methods take `&self`; interior locking makes the database
/// shareable across serving threads (`Arc<GenerationalDb>`). Queries
/// hold a read lock for their duration; [`GenerationalDb::ingest`]
/// holds the write lock only for the in-memory append and buffered
/// WAL write, running its durability `fsync` after release so readers
/// never queue behind stable storage; [`GenerationalDb::compact`]
/// holds the write lock only briefly at its seal and swap edges, so
/// serving continues while the new generation is written.
pub struct GenerationalDb {
    inner: RwLock<Inner>,
    dir: PathBuf,
    opts: DbOptions,
    simp_factory: SimpFactory,
    /// Serializes compaction passes (the write lock is released during
    /// the fold, so the gate keeps two passes from interleaving).
    compact_gate: Mutex<()>,
}

impl fmt::Debug for GenerationalDb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.read().unwrap();
        f.debug_struct("GenerationalDb")
            .field("dir", &self.dir)
            .field("generation", &inner.generation)
            .field("base_len", &inner.base_len())
            .field("sealed", &inner.sealed.len())
            .field("active_len", &inner.active.len())
            .finish()
    }
}

impl GenerationalDb {
    /// Initializes `dir` as a live database whose generation 0 is a
    /// snapshot of `base`, then opens it.
    pub fn create(
        dir: impl AsRef<Path>,
        base: &PointStore,
        opts: DbOptions,
        simp_factory: SimpFactory,
    ) -> Result<Self, GenError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        commit_generation(&dir, 0, &[base], 0)?;
        Self::open(dir, opts, simp_factory)
    }

    /// Opens a live database directory: reads the manifest, serves the
    /// committed base generation (mapped, indexed per `opts`),
    /// replays every WAL the manifest still depends on — all but the
    /// highest sequence become sealed segments, the highest is
    /// reopened for appends (its torn tail, if any, truncated).
    pub fn open(
        dir: impl AsRef<Path>,
        opts: DbOptions,
        simp_factory: SimpFactory,
    ) -> Result<Self, GenError> {
        let dir = dir.as_ref().to_path_buf();
        let manifest = load_manifest(&dir.join(GENS_MANIFEST))?;
        let base_part = snapshot_part(&dir.join(&manifest.snapshot))?;
        let base = StoredSegment::build(base_part, opts);
        let mut seqs: Vec<u64> = Vec::new();
        for entry in fs::read_dir(&dir)? {
            if let Some(seq) = parse_wal_name(&entry?.file_name().to_string_lossy()) {
                if seq >= manifest.wal_start {
                    seqs.push(seq);
                }
            }
        }
        seqs.sort_unstable();
        let active_seq = seqs.pop().unwrap_or(manifest.wal_start);
        let mut sealed = Vec::new();
        let mut first = base.engine.store().len();
        for seq in seqs {
            let mut simp = simp_factory();
            let store = replay_wal(dir.join(wal_name(seq)), simp.as_mut())?;
            if !store.is_empty() {
                let (len, bounds) = (store.len(), store.bounding_cube());
                let segment = StoredSegment::scan(store, first, bounds);
                sealed.push(Arc::new(Sealed { seq, segment }));
                first += len;
            }
        }
        let active = DeltaStore::open(dir.join(wal_name(active_seq)), simp_factory())?;
        let active_bounds = active.store().bounding_cube();

        Ok(Self {
            inner: RwLock::new(Inner {
                generation: manifest.generation,
                base: Arc::new(base),
                sealed,
                active,
                active_bounds,
                active_seq,
            }),
            dir,
            opts,
            simp_factory,
            compact_gate: Mutex::new(()),
        })
    }

    /// Ingests a batch of trajectories: each is WAL-logged, simplified
    /// online at admission, and serving in the merged view when this
    /// returns. Returns after a single `fsync` covering the whole
    /// batch — the acknowledgement point crash recovery honors.
    ///
    /// The write lock covers only the in-memory append and the buffered
    /// WAL write; the durability `fsync` runs on a cloned file handle
    /// after the lock is released, so queries are never stuck behind
    /// stable storage. A concurrent [`GenerationalDb::compact`] cannot
    /// orphan the batch: its seal phase syncs the outgoing WAL under
    /// the write lock before swapping it out, so the bytes this call
    /// flushed are on disk before the WAL is retired, and the late
    /// `sync_data` here is a no-op on the old file.
    ///
    /// Invalid trajectories (empty, non-finite, time-regressing) are
    /// rejected individually; the rest of the batch proceeds.
    pub fn ingest(&self, trajs: &[Trajectory]) -> io::Result<IngestReport> {
        let (report, wal) = {
            let mut guard = self.inner.write().unwrap();
            let inner = &mut *guard;
            let first_global = inner.active_first() + inner.active.len();
            let mut accepted = 0u32;
            let mut rejected = 0u32;
            let mut first_id = None;
            for t in trajs {
                match inner.active.push_traj(t.points())? {
                    Some(local) => {
                        let bounds = inner.active.store().view(local).bounding_cube();
                        inner.active_bounds.union_with(&bounds);
                        if first_id.is_none() {
                            first_id = Some(first_global + accepted as usize);
                        }
                        accepted += 1;
                    }
                    None => rejected += 1,
                }
            }
            let wal = inner.active.sync_handle()?;
            let report = IngestReport {
                accepted,
                rejected,
                first_id,
                total_trajs: (inner.base_len() + inner.delta_trajs()) as u64,
                total_points: (inner.base.engine.store().total_points() + inner.delta_points())
                    as u64,
            };
            (report, wal)
        };
        wal.sync_data()?;
        Ok(report)
    }

    /// Folds every sealed segment and the current active delta into
    /// the next snapshot generation, then swaps serving onto it.
    ///
    /// The pass holds the write lock only while sealing the active
    /// delta (a pointer swap plus one small file create) and while
    /// swapping the new base in; the fold — base and sealed columns
    /// streamed into the next snapshot, then its index built — runs
    /// with serving live. The atomic manifest rename is the commit
    /// point: a crash before it replays the old generation plus all
    /// WALs, a crash after it opens the new generation and ignores the
    /// folded WALs. Trajectory ids are preserved exactly.
    pub fn compact(&self) -> Result<CompactionReport, GenError> {
        let _gate = self.compact_gate.lock().unwrap();

        // Phase 1 (write lock): seal the active delta behind a fresh WAL.
        let (base, sealed, next_gen, new_wal_start);
        {
            let mut guard = self.inner.write().unwrap();
            let inner = &mut *guard;
            inner.active.sync()?;
            if inner.sealed.is_empty() && inner.active.is_empty() {
                return Ok(CompactionReport {
                    generation: inner.generation,
                    folded_trajs: 0,
                    folded_points: 0,
                    base_trajs: inner.base_len(),
                });
            }
            let new_seq = inner.active_seq + 1;
            let fresh =
                DeltaStore::create(self.dir.join(wal_name(new_seq)), (self.simp_factory)())?;
            let old = std::mem::replace(&mut inner.active, fresh);
            let old_bounds = std::mem::replace(&mut inner.active_bounds, Cube::empty());
            let old_seq = inner.active_seq;
            inner.active_seq = new_seq;
            if !old.is_empty() {
                let segment =
                    StoredSegment::scan(old.into_store(), inner.active_first(), old_bounds);
                inner.sealed.push(Arc::new(Sealed {
                    seq: old_seq,
                    segment,
                }));
            }
            base = Arc::clone(&inner.base);
            sealed = inner.sealed.clone();
            next_gen = inner.generation + 1;
            new_wal_start = new_seq;
        }

        // Phase 2 (no lock): stream base + sealed straight into the next
        // snapshot and commit it — the manifest rename is the commit
        // point. No folded copy of the columns is made.
        let sealed_stores: Vec<_> = sealed.iter().map(|s| s.segment.engine.store()).collect();
        let folded_trajs = sealed_stores.iter().map(|s| s.len()).sum();
        let folded_points = sealed_stores.iter().map(|s| s.total_points()).sum();
        let mut parts = vec![base.engine.store()];
        parts.extend(sealed_stores);
        let new_base_len = parts.iter().map(|s| s.len()).sum();
        let snap_path = commit_generation(&self.dir, next_gen, &parts, new_wal_start)?;

        // Phase 3 (no lock): open the committed generation and build its
        // index, ahead of the swap.
        let part = snapshot_part(&snap_path)?;
        let next_base = StoredSegment::build(part, self.opts);

        // Phase 4 (write lock): swap serving onto the new generation.
        {
            let mut inner = self.inner.write().unwrap();
            inner.base = Arc::new(next_base);
            inner.generation = next_gen;
            inner.sealed.retain(|s| s.seq >= new_wal_start);
        }

        // Phase 5: best-effort cleanup of superseded files.
        self.cleanup(next_gen, new_wal_start);

        Ok(CompactionReport {
            generation: next_gen,
            folded_trajs,
            folded_points,
            base_trajs: new_base_len,
        })
    }

    /// Deletes snapshots below `generation` and WALs below `wal_start`.
    /// Failures are ignored: stale files are re-collected by the next
    /// pass and never affect correctness (open ignores them).
    fn cleanup(&self, generation: u64, wal_start: u64) {
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let stale = parse_snapshot_name(&name).is_some_and(|g| g < generation)
                || parse_wal_name(&name).is_some_and(|s| s < wal_start);
            if stale {
                let _ = fs::remove_file(entry.path());
            }
        }
    }

    /// The generation currently serving as the immutable base.
    pub fn generation(&self) -> u64 {
        self.inner.read().unwrap().generation
    }

    /// Points currently living in the delta (sealed + active) — the
    /// quantity compaction thresholds watch.
    pub fn delta_points(&self) -> usize {
        self.inner.read().unwrap().delta_points()
    }

    /// Trajectories currently living in the delta (sealed + active).
    pub fn delta_trajs(&self) -> usize {
        self.inner.read().unwrap().delta_trajs()
    }

    /// The directory this database lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

/// `[base, sealed…, active]`; the whole [`QueryExecutor`](crate::QueryExecutor)
/// surface follows from the shared fan-out. `RangeKept` falls out of
/// the merge rule: the active delta never carries a kept bitmap, so a
/// live database answers `None`.
impl Segmented for GenerationalDb {
    /// Takes the read lock once: `f` sees a consistent generation +
    /// delta snapshot. The base and the sealed deltas are handed out as
    /// stored; only the active delta's view is assembled here.
    fn with_segments<R>(&self, f: impl FnOnce(&[Segment<'_>]) -> R) -> R {
        let inner = self.inner.read().unwrap();
        let active = QueryEngine::over_store(inner.active.store(), EngineConfig::scan());
        let stored = std::iter::once(&*inner.base).chain(inner.sealed.iter().map(|s| &s.segment));
        let mut segments: Vec<Segment<'_>> = stored.map(StoredSegment::segment).collect();
        segments.push(Segment {
            engine: &active,
            ids: IdMap::Offset {
                first: inner.active_first(),
                len: inner.active.len(),
            },
            bounds: inner.active_bounds,
        });
        f(&segments)
    }
}

// ---------------------------------------------------------------------
// The background compactor.
// ---------------------------------------------------------------------

/// Handle on a background compaction thread: signals shutdown and
/// joins on [`CompactorHandle::shutdown`] or drop.
#[derive(Debug)]
pub struct CompactorHandle {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl CompactorHandle {
    /// Stops the compactor and waits for an in-flight pass to finish.
    pub fn shutdown(mut self) {
        self.finish();
    }

    fn finish(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for CompactorHandle {
    fn drop(&mut self) {
        self.finish();
    }
}

/// Spawns a background thread that compacts `db` whenever the delta
/// holds at least `threshold_points` points, polling every `interval`.
/// Compaction errors are swallowed (the delta keeps serving and the
/// next pass retries); shut the handle down to stop the thread.
pub fn spawn_compactor(
    db: Arc<GenerationalDb>,
    threshold_points: usize,
    interval: Duration,
) -> CompactorHandle {
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let thread = std::thread::spawn(move || {
        while !flag.load(Ordering::Relaxed) {
            if db.delta_points() >= threshold_points {
                let _ = db.compact();
            }
            let mut slept = Duration::ZERO;
            while slept < interval && !flag.load(Ordering::Relaxed) {
                let step = (interval - slept).min(Duration::from_millis(20));
                std::thread::sleep(step);
                slept += step;
            }
        }
    });
    CompactorHandle {
        stop,
        thread: Some(thread),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QueryExecutor;
    use trajectory::{KeepAll, Point};

    fn keep_all_factory() -> SimpFactory {
        Box::new(|| Box::new(KeepAll))
    }

    fn traj(points: &[(f64, f64, f64)]) -> Trajectory {
        Trajectory::new(
            points
                .iter()
                .map(|&(x, y, t)| Point::new(x, y, t))
                .collect(),
        )
        .unwrap()
    }

    fn base_store() -> PointStore {
        let mut s = PointStore::new();
        s.push_points(&[
            Point::new(0.0, 0.0, 0.0),
            Point::new(1.0, 0.5, 10.0),
            Point::new(2.0, 1.0, 20.0),
        ])
        .unwrap();
        s.push_points(&[Point::new(10.0, 10.0, 5.0), Point::new(11.0, 11.0, 15.0)])
            .unwrap();
        s
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("qdts_generational_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn ingest_serves_immediately_and_survives_reopen() {
        let dir = tmp_dir("reopen");
        let db = GenerationalDb::create(&dir, &base_store(), DbOptions::new(), keep_all_factory())
            .unwrap();
        let ack = db
            .ingest(&[
                traj(&[(5.0, 5.0, 0.0), (6.0, 6.0, 5.0)]),
                traj(&[(20.0, 20.0, 0.0)]),
            ])
            .unwrap();
        assert_eq!((ack.accepted, ack.rejected, ack.first_id), (2, 0, Some(2)));
        assert_eq!(db.len(), 4);
        let q = Cube::new(4.0, 7.0, 4.0, 7.0, -1.0, 9.0);
        assert_eq!(db.range(&q), vec![2]);
        drop(db);

        let db = GenerationalDb::open(&dir, DbOptions::new(), keep_all_factory()).unwrap();
        assert_eq!(db.len(), 4);
        assert_eq!(db.range(&q), vec![2]);
        assert_eq!(db.generation(), 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_preserves_ids_and_answers() {
        let dir = tmp_dir("compact");
        let db = GenerationalDb::create(&dir, &base_store(), DbOptions::new(), keep_all_factory())
            .unwrap();
        db.ingest(&[traj(&[(5.0, 5.0, 0.0), (6.0, 6.0, 5.0)])])
            .unwrap();
        let q = Cube::new(4.0, 7.0, 4.0, 7.0, -1.0, 9.0);
        let before = db.range(&q);
        let report = db.compact().unwrap();
        assert_eq!(report.generation, 1);
        assert_eq!(report.folded_trajs, 1);
        assert_eq!(db.range(&q), before);
        assert_eq!(db.delta_points(), 0);
        // A second pass with nothing to fold is a no-op.
        assert_eq!(db.compact().unwrap().generation, 1);
        drop(db);

        // Reopen serves the committed generation.
        let db = GenerationalDb::open(&dir, DbOptions::new(), keep_all_factory()).unwrap();
        assert_eq!(db.generation(), 1);
        assert_eq!(db.len(), 3);
        assert_eq!(db.range(&q), before);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ingest_rejects_invalid_trajectories_individually() {
        let dir = tmp_dir("reject");
        let db = GenerationalDb::create(&dir, &base_store(), DbOptions::new(), keep_all_factory())
            .unwrap();
        // A trajectory with no admissible point is rejected wholesale;
        // its neighbors in the batch are unaffected.
        let bad = Trajectory::from_sorted_unchecked(vec![Point::new(f64::NAN, 1.0, 5.0)]);
        let ok = traj(&[(3.0, 3.0, 0.0)]);
        let ack = db.ingest(&[ok.clone(), bad, ok]).unwrap();
        assert_eq!((ack.accepted, ack.rejected), (2, 1));
        assert_eq!(db.len(), 4);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_round_trips_and_rejects_malformed() {
        let dir = tmp_dir("manifest");
        fs::create_dir_all(&dir).unwrap();
        store_manifest(
            &dir,
            &Manifest {
                generation: 3,
                snapshot: "gen-000003.snap".into(),
                wal_start: 7,
            },
        )
        .unwrap();
        let m = load_manifest(&dir.join(GENS_MANIFEST)).unwrap();
        assert_eq!((m.generation, m.wal_start), (3, 7));
        assert_eq!(m.snapshot, "gen-000003.snap");

        for bad in [
            "QDTSWRONG v1\ngeneration 0\nsnapshot a\nwal_start 0\n",
            "QDTSGENS v1\ngeneration x\nsnapshot a\nwal_start 0\n",
            "QDTSGENS v1\nsnapshot a\nwal_start 0\n",
            "QDTSGENS v1\ngeneration 0\ngeneration 1\nsnapshot a\nwal_start 0\n",
            "QDTSGENS v1\ngeneration 0\nsnapshot a\nwal_start 0\nmystery 1\n",
        ] {
            fs::write(dir.join(GENS_MANIFEST), bad).unwrap();
            assert!(matches!(
                load_manifest(&dir.join(GENS_MANIFEST)),
                Err(GenError::Manifest { .. })
            ));
        }
        fs::remove_dir_all(&dir).ok();
    }

    /// A sealed delta is built once, when its WAL is replayed: two
    /// readers in flight at the same time are handed the same engine.
    #[test]
    fn a_replayed_sealed_delta_is_served_by_one_stored_engine() {
        // Sealed as `crash_before_manifest_commit_replays_the_wals` seals
        // it: a compaction that died after creating the next WAL.
        let dir = tmp_dir("sealed_once");
        let db = GenerationalDb::create(&dir, &base_store(), DbOptions::new(), keep_all_factory())
            .unwrap();
        db.ingest(&[traj(&[(5.0, 5.0, 0.0), (6.0, 6.0, 5.0)])])
            .unwrap();
        drop(db);
        DeltaStore::create(dir.join(wal_name(1)), Box::new(KeepAll)).unwrap();
        let db = GenerationalDb::open(&dir, DbOptions::new(), keep_all_factory()).unwrap();

        let sealed_engine = |segments: &[Segment<'_>]| {
            assert_eq!(segments.len(), 3, "[base, sealed, active]");
            assert_eq!(segments[1].ids.len(), 1);
            std::ptr::from_ref(segments[1].engine) as usize
        };
        let (outer, inner) = std::thread::scope(|s| {
            db.with_segments(|segments| {
                let other = s.spawn(|| db.with_segments(sealed_engine));
                (sealed_engine(segments), other.join().unwrap())
            })
        });
        assert_eq!(outer, inner);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn background_compactor_fires_on_threshold() {
        let dir = tmp_dir("compactor");
        let db = Arc::new(
            GenerationalDb::create(&dir, &base_store(), DbOptions::new(), keep_all_factory())
                .unwrap(),
        );
        let handle = spawn_compactor(Arc::clone(&db), 1, Duration::from_millis(5));
        db.ingest(&[traj(&[(5.0, 5.0, 0.0), (6.0, 6.0, 5.0)])])
            .unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while db.generation() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        handle.shutdown();
        assert!(db.generation() >= 1, "compactor never folded the delta");
        assert_eq!(db.len(), 3);
        fs::remove_dir_all(&dir).ok();
    }
}
