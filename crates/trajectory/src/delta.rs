//! Mutable delta store with a checksummed write-ahead log.
//!
//! Everything else in this crate is build-once-serve-forever: a
//! [`PointStore`] is parsed or mapped once and never
//! mutated. This module adds the write side of the system — the small,
//! bounded, *mutable* tier that live ingestion appends to while the big
//! immutable base snapshot keeps serving reads:
//!
//! - [`DeltaStore`] accepts the same streaming `begin_traj` /
//!   `push_point` / `end_traj` protocol as [`PointStore`]
//!   (crate::PointStore), but every accepted raw point is first recorded
//!   in a **write-ahead log** so a crash mid-ingest replays cleanly;
//! - the WAL reuses the snapshot format's conventions — little-endian
//!   fields via [`snapshot::put_f64`](crate::snapshot::put_f64) and
//!   friends, FNV-1a 64 checksums via
//!   [`snapshot::fnv1a64`](crate::snapshot::fnv1a64) — so corruption
//!   (bit flips, torn tails) is detected and replay stops at the last
//!   intact record, never ingesting garbage;
//! - an [`OnlineSimplifier`] is applied **at admission**: raw points go
//!   to the WAL, simplified points go to the in-memory columns. Replay
//!   re-feeds the raw log through a fresh simplifier, so the simplifier
//!   must be deterministic — the recovered store is then byte-identical
//!   to the pre-crash one.
//!
//! Only *complete* trajectories (a `begin..end` record group) are
//! recovered; an interrupted group at the tail of the log is truncated
//! on reopen. That is exactly the acknowledgement contract: callers ack
//! a write after [`DeltaStore::sync`], and a synced `end` record is by
//! definition part of a complete group.
//!
//! # WAL layout
//!
//! ```text
//! header   "QDTSWAL\0"  u32 version (=1)  u32 reserved (=0)      16 B
//! begin    [0x01] [fnv1a64 of kind byte]                          9 B
//! point    [0x02] [x f64le] [y f64le] [t f64le] [fnv1a64]        33 B
//! end      [0x03] [fnv1a64 of kind byte]                          9 B
//! ```
//!
//! The checksum of each record covers the kind byte plus the payload.
//!
//! # Example: crash replay
//!
//! ```
//! use trajectory::delta::{DeltaStore, KeepAll};
//! use trajectory::Point;
//!
//! let dir = std::env::temp_dir().join("delta_doc_example");
//! std::fs::create_dir_all(&dir).unwrap();
//! let wal = dir.join("wal-000000.log");
//! # std::fs::remove_file(&wal).ok();
//!
//! let mut d = DeltaStore::create(&wal, Box::new(KeepAll)).unwrap();
//! d.begin_traj().unwrap();
//! d.push_point(Point::new(1.0, 2.0, 0.0)).unwrap();
//! d.push_point(Point::new(3.0, 4.0, 1.0)).unwrap();
//! d.end_traj().unwrap();
//! d.sync().unwrap();
//! drop(d); // "crash"
//!
//! let d = DeltaStore::open(&wal, Box::new(KeepAll)).unwrap();
//! assert_eq!(d.store().len(), 1);
//! assert_eq!(d.store().total_points(), 2);
//! # std::fs::remove_file(&wal).ok();
//! ```

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use crate::db::TrajId;
use crate::point::Point;
use crate::snapshot::{fnv1a64, get_f64, get_u32, put_f64, put_u32, put_u64};
use crate::store::PointStore;

/// Magic bytes opening every WAL file.
pub const WAL_MAGIC: &[u8; 8] = b"QDTSWAL\0";
/// The current WAL format version.
pub const WAL_VERSION: u32 = 1;
/// Size of the fixed WAL header in bytes.
pub const WAL_HEADER_LEN: usize = 16;

const REC_BEGIN: u8 = 1;
const REC_POINT: u8 = 2;
const REC_END: u8 = 3;

const BEGIN_LEN: usize = 9; // kind + checksum
const POINT_LEN: usize = 33; // kind + 3 f64 + checksum
const END_LEN: usize = 9; // kind + checksum

// ---------------------------------------------------------------------
// Online simplification.
// ---------------------------------------------------------------------

/// A deterministic, one-pass, per-trajectory simplifier applied at
/// ingest admission.
///
/// The contract mirrors the streaming store protocol: `begin` once per
/// trajectory, `push` per raw point (emitting zero or more *kept*
/// points into `out`), `finish` to flush whatever the window still
/// holds. Implementations **must be deterministic**: crash recovery
/// replays the raw WAL through a fresh instance and expects to rebuild
/// the exact same columns.
pub trait OnlineSimplifier {
    /// Resets per-trajectory state; called before the first point of
    /// every trajectory.
    fn begin(&mut self);
    /// Feeds one raw point; kept points are appended to `out`.
    fn push(&mut self, p: Point, out: &mut Vec<Point>);
    /// Flushes buffered state at end-of-trajectory into `out`.
    fn finish(&mut self, out: &mut Vec<Point>);
}

/// The boxed simplifier form the WAL-backed stores hold. `Send + Sync`
/// because a [`DeltaStore`] is served behind shared locks: the
/// simplifier is only ever *mutated* through `&mut DeltaStore`, but the
/// type must be shareable for read-side access to the store.
pub type BoxedSimplifier = Box<dyn OnlineSimplifier + Send + Sync>;

/// The identity simplifier: every raw point is kept. Useful for tests
/// and for workloads that want lossless ingestion.
#[derive(Debug, Clone, Copy, Default)]
pub struct KeepAll;

impl OnlineSimplifier for KeepAll {
    fn begin(&mut self) {}
    fn push(&mut self, p: Point, out: &mut Vec<Point>) {
        out.push(p);
    }
    fn finish(&mut self, _out: &mut Vec<Point>) {}
}

// ---------------------------------------------------------------------
// Errors.
// ---------------------------------------------------------------------

/// Errors opening or replaying a delta WAL.
#[derive(Debug)]
pub enum DeltaError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file does not start with [`WAL_MAGIC`].
    BadMagic,
    /// The header names a version this build cannot read.
    UnsupportedVersion(u32),
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::Io(e) => write!(f, "delta WAL I/O error: {e}"),
            DeltaError::BadMagic => write!(f, "not a delta WAL (bad magic)"),
            DeltaError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported delta WAL version {v} (expected {WAL_VERSION})"
                )
            }
        }
    }
}

impl std::error::Error for DeltaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DeltaError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for DeltaError {
    fn from(e: std::io::Error) -> Self {
        DeltaError::Io(e)
    }
}

// ---------------------------------------------------------------------
// Record encoding.
// ---------------------------------------------------------------------

fn encode_marker(kind: u8) -> [u8; BEGIN_LEN] {
    let mut rec = [0u8; BEGIN_LEN];
    rec[0] = kind;
    let sum = fnv1a64(&rec[..1]);
    put_u64(&mut rec, 1, sum);
    rec
}

fn encode_point(p: Point) -> [u8; POINT_LEN] {
    let mut rec = [0u8; POINT_LEN];
    rec[0] = REC_POINT;
    put_f64(&mut rec, 1, p.x);
    put_f64(&mut rec, 9, p.y);
    put_f64(&mut rec, 17, p.t);
    let sum = fnv1a64(&rec[..25]);
    put_u64(&mut rec, 25, sum);
    rec
}

fn checksum_ok(rec: &[u8]) -> bool {
    let body = rec.len() - 8;
    let mut stored = [0u8; 8];
    stored.copy_from_slice(&rec[body..]);
    fnv1a64(&rec[..body]) == u64::from_le_bytes(stored)
}

/// One decoded replay of a WAL file: the recovered store plus the byte
/// offset one past the last *complete* trajectory group (everything
/// after it is a torn tail to truncate on reopen).
struct Replay {
    store: PointStore,
    /// File offset just past the last complete `begin..end` group.
    durable_end: u64,
    /// Raw (pre-simplification) points recovered, for observability.
    raw_points: u64,
}

fn replay_bytes(bytes: &[u8], simp: &mut dyn OnlineSimplifier) -> Result<Replay, DeltaError> {
    if bytes.len() < WAL_HEADER_LEN {
        return Err(DeltaError::BadMagic);
    }
    if &bytes[..8] != WAL_MAGIC {
        return Err(DeltaError::BadMagic);
    }
    let version = get_u32(bytes, 8);
    if version != WAL_VERSION {
        return Err(DeltaError::UnsupportedVersion(version));
    }

    let mut store = PointStore::new();
    let mut pos = WAL_HEADER_LEN;
    let mut durable_end = WAL_HEADER_LEN as u64;
    let mut raw_points = 0u64;
    let mut group: Option<Vec<Point>> = None;

    while let Some(&kind) = bytes.get(pos) {
        let len = match kind {
            REC_BEGIN => BEGIN_LEN,
            REC_POINT => POINT_LEN,
            REC_END => END_LEN,
            _ => break, // unknown kind: torn/corrupt tail
        };
        if pos + len > bytes.len() {
            break; // truncated record
        }
        let rec = &bytes[pos..pos + len];
        if !checksum_ok(rec) {
            break; // bit flip: stop at last intact prefix
        }
        match (kind, &mut group) {
            (REC_BEGIN, None) => group = Some(Vec::new()),
            (REC_POINT, Some(pts)) => {
                let p = Point::new(get_f64(rec, 1), get_f64(rec, 9), get_f64(rec, 17));
                pts.push(p);
            }
            (REC_END, Some(pts)) => {
                raw_points += pts.len() as u64;
                simp.begin();
                let mut kept = Vec::new();
                for &p in pts.iter() {
                    simp.push(p, &mut kept);
                }
                simp.finish(&mut kept);
                store.push_points(&kept);
                group = None;
                durable_end = (pos + len) as u64;
            }
            // begin-inside-group / point-or-end outside a group: the
            // writer never produces these, so treat as a corrupt tail.
            _ => break,
        }
        pos += len;
    }

    Ok(Replay {
        store,
        durable_end,
        raw_points,
    })
}

/// Replays a WAL file read-only (no truncation, no lock), returning
/// the recovered store. Torn or corrupt tails are silently dropped —
/// only complete, checksummed `begin..end` groups are recovered.
///
/// This is how sealed (no-longer-written) WALs are loaded at database
/// open without mutating them.
pub fn replay_wal(
    path: impl AsRef<Path>,
    simp: &mut dyn OnlineSimplifier,
) -> Result<PointStore, DeltaError> {
    let mut bytes = Vec::new();
    File::open(path.as_ref())?.read_to_end(&mut bytes)?;
    Ok(replay_bytes(&bytes, simp)?.store)
}

// ---------------------------------------------------------------------
// DeltaStore.
// ---------------------------------------------------------------------

/// A mutable, WAL-guarded columnar store for live ingestion.
///
/// Writes stream in through the `begin_traj` / `push_point` /
/// `end_traj` protocol. Each accepted **raw** point is appended to the
/// WAL before anything else happens; the configured
/// [`OnlineSimplifier`] decides which points reach the in-memory
/// [`PointStore`] that queries read. Call [`DeltaStore::sync`] to make
/// everything written so far durable — that is the acknowledgement
/// point.
///
/// Dropping (or crashing) mid-trajectory loses only the unfinished
/// trajectory: [`DeltaStore::open`] truncates the torn tail and
/// recovers every complete group.
pub struct DeltaStore {
    store: PointStore,
    wal: BufWriter<File>,
    path: PathBuf,
    simp: BoxedSimplifier,
    /// Simplified points of the open trajectory, buffered until `end`.
    pending: Vec<Point>,
    /// Last *raw* timestamp of the open trajectory (admission gate; the
    /// store's own gate sees only simplified points).
    last_raw_t: Option<f64>,
    open: bool,
    raw_points: u64,
    /// Bytes of complete groups on disk (file truncation point on a
    /// torn-tail reopen).
    durable_end: u64,
}

impl std::fmt::Debug for DeltaStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeltaStore")
            .field("path", &self.path)
            .field("trajs", &self.store.len())
            .field("points", &self.store.total_points())
            .field("raw_points", &self.raw_points)
            .field("open", &self.open)
            .finish()
    }
}

impl DeltaStore {
    /// Creates a fresh delta store with an empty WAL at `path`
    /// (truncating any existing file).
    pub fn create(path: impl AsRef<Path>, simp: BoxedSimplifier) -> Result<Self, DeltaError> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        let mut wal = BufWriter::new(file);
        let mut header = [0u8; WAL_HEADER_LEN];
        header[..8].copy_from_slice(WAL_MAGIC);
        put_u32(&mut header, 8, WAL_VERSION);
        wal.write_all(&header)?;
        wal.flush()?;
        Ok(DeltaStore {
            store: PointStore::new(),
            wal,
            path,
            simp,
            pending: Vec::new(),
            last_raw_t: None,
            open: false,
            raw_points: 0,
            durable_end: WAL_HEADER_LEN as u64,
        })
    }

    /// Opens an existing WAL (creating it when absent), replaying every
    /// complete trajectory group and truncating any torn tail so the
    /// file is ready for appends.
    pub fn open(path: impl AsRef<Path>, mut simp: BoxedSimplifier) -> Result<Self, DeltaError> {
        let path = path.as_ref().to_path_buf();
        if !path.exists() {
            return Self::create(path, simp);
        }
        let mut bytes = Vec::new();
        File::open(&path)?.read_to_end(&mut bytes)?;
        let replay = replay_bytes(&bytes, simp.as_mut())?;
        let file = OpenOptions::new().write(true).open(&path)?;
        if replay.durable_end < bytes.len() as u64 {
            file.set_len(replay.durable_end)?;
            file.sync_data()?;
        }
        use std::io::{Seek, SeekFrom};
        let mut file = file;
        file.seek(SeekFrom::Start(replay.durable_end))?;
        Ok(DeltaStore {
            store: replay.store,
            wal: BufWriter::new(file),
            path,
            simp,
            pending: Vec::new(),
            last_raw_t: None,
            open: false,
            raw_points: replay.raw_points,
            durable_end: replay.durable_end,
        })
    }

    /// Starts a new trajectory.
    ///
    /// # Panics
    /// When a trajectory is already open.
    pub fn begin_traj(&mut self) -> std::io::Result<()> {
        assert!(!self.open, "a trajectory is already open");
        self.wal.write_all(&encode_marker(REC_BEGIN))?;
        self.open = true;
        self.last_raw_t = None;
        self.pending.clear();
        self.simp.begin();
        Ok(())
    }

    /// Streams one raw point into the open trajectory. Returns
    /// `Ok(false)` (and logs nothing) when the point is non-finite or
    /// regresses in time relative to the previous **raw** point of this
    /// trajectory — the same admission rule as
    /// [`PointStore::push_point`].
    ///
    /// # Panics
    /// When no trajectory is open.
    pub fn push_point(&mut self, p: Point) -> std::io::Result<bool> {
        assert!(self.open, "begin_traj before push_point");
        if !p.is_finite() {
            return Ok(false);
        }
        if let Some(last) = self.last_raw_t {
            if p.t < last {
                return Ok(false);
            }
        }
        self.wal.write_all(&encode_point(p))?;
        self.last_raw_t = Some(p.t);
        self.raw_points += 1;
        self.simp.push(p, &mut self.pending);
        Ok(true)
    }

    /// Closes the open trajectory: logs the `end` record, flushes the
    /// WAL (buffered — call [`DeltaStore::sync`] for durability), runs
    /// the simplifier's flush, and commits the simplified points to the
    /// in-memory store. Returns `None` when no point survived (empty or
    /// fully rejected trajectory).
    ///
    /// # Panics
    /// When no trajectory is open.
    pub fn end_traj(&mut self) -> std::io::Result<Option<TrajId>> {
        assert!(self.open, "no open trajectory");
        self.wal.write_all(&encode_marker(REC_END))?;
        self.wal.flush()?;
        self.open = false;
        self.simp.finish(&mut self.pending);
        let id = self.store.push_points(&self.pending);
        self.pending.clear();
        self.last_raw_t = None;
        self.durable_end = self.wal.get_ref().metadata()?.len();
        Ok(id)
    }

    /// Convenience: ingests one whole trajectory (begin + points + end).
    pub fn push_traj(&mut self, pts: &[Point]) -> std::io::Result<Option<TrajId>> {
        self.begin_traj()?;
        for &p in pts {
            self.push_point(p)?;
        }
        self.end_traj()
    }

    /// Forces everything logged so far to stable storage. Acknowledge
    /// writes only after this returns.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.wal.flush()?;
        self.wal.get_ref().sync_data()
    }

    /// Flushes the WAL buffer to the OS and returns an independent
    /// handle to the WAL file, so the caller can run the durability
    /// `fsync` (`sync_data`) *without* holding whatever lock guards
    /// this store — the acknowledgement point is then
    /// `handle.sync_data()` returning. Anything already flushed when a
    /// later writer swaps or seals the WAL stays covered: sealing
    /// paths sync the old file before replacing it.
    pub fn sync_handle(&mut self) -> std::io::Result<File> {
        self.wal.flush()?;
        self.wal.get_ref().try_clone()
    }

    /// The simplified, committed columns queries read.
    #[must_use]
    pub fn store(&self) -> &PointStore {
        &self.store
    }

    /// Number of committed trajectories.
    #[must_use]
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True when no trajectory has been committed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Total committed (simplified) points.
    #[must_use]
    pub fn total_points(&self) -> usize {
        self.store.total_points()
    }

    /// Total raw points accepted (before simplification).
    #[must_use]
    pub fn raw_points(&self) -> u64 {
        self.raw_points
    }

    /// Consumes the delta store, returning the committed columns.
    #[must_use]
    pub fn into_store(self) -> PointStore {
        self.store
    }
}

/// A [`DeltaStore`] is a [`PointSink`](crate::io::PointSink), so CSV
/// replay ([`crate::io::read_csv_into`]) and live network writes drive
/// the identical WAL-guarded ingest path.
impl crate::io::PointSink for DeltaStore {
    fn begin_traj(&mut self) -> std::io::Result<()> {
        DeltaStore::begin_traj(self)
    }
    fn push_point(&mut self, p: Point) -> std::io::Result<bool> {
        DeltaStore::push_point(self, p)
    }
    fn end_traj(&mut self) -> std::io::Result<Option<TrajId>> {
        DeltaStore::end_traj(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("qdts_delta_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(name);
        std::fs::remove_file(&p).ok();
        p
    }

    fn pts(n: usize, base: f64) -> Vec<Point> {
        (0..n)
            .map(|i| Point::new(base + i as f64, base - i as f64, i as f64))
            .collect()
    }

    #[test]
    fn create_ingest_reopen_roundtrip() {
        let path = tmp("roundtrip.log");
        let mut d = DeltaStore::create(&path, Box::new(KeepAll)).unwrap();
        d.push_traj(&pts(3, 0.0)).unwrap().unwrap();
        d.push_traj(&pts(5, 10.0)).unwrap().unwrap();
        d.sync().unwrap();
        let (xs, ys, ts, offs) = (
            d.store().xs().to_vec(),
            d.store().ys().to_vec(),
            d.store().ts().to_vec(),
            d.store().offsets().to_vec(),
        );
        drop(d);

        let d = DeltaStore::open(&path, Box::new(KeepAll)).unwrap();
        assert_eq!(d.store().xs(), &xs[..]);
        assert_eq!(d.store().ys(), &ys[..]);
        assert_eq!(d.store().ts(), &ts[..]);
        assert_eq!(d.store().offsets(), &offs[..]);
        assert_eq!(d.raw_points(), 8);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_nonfinite_and_time_regress() {
        let path = tmp("reject.log");
        let mut d = DeltaStore::create(&path, Box::new(KeepAll)).unwrap();
        d.begin_traj().unwrap();
        assert!(d.push_point(Point::new(0.0, 0.0, 0.0)).unwrap());
        assert!(!d.push_point(Point::new(f64::NAN, 0.0, 1.0)).unwrap());
        assert!(
            !d.push_point(Point::new(1.0, 1.0, -1.0)).unwrap(),
            "time regress"
        );
        assert!(d.push_point(Point::new(1.0, 1.0, 2.0)).unwrap());
        assert_eq!(d.end_traj().unwrap(), Some(0));
        assert_eq!(d.total_points(), 2);

        // Rejected points never hit the WAL: replay sees the same store.
        d.sync().unwrap();
        drop(d);
        let d = DeltaStore::open(&path, Box::new(KeepAll)).unwrap();
        assert_eq!(d.total_points(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_trajectory_commits_nothing() {
        let path = tmp("empty.log");
        let mut d = DeltaStore::create(&path, Box::new(KeepAll)).unwrap();
        d.begin_traj().unwrap();
        assert_eq!(d.end_traj().unwrap(), None);
        d.push_traj(&pts(2, 0.0)).unwrap().unwrap();
        d.sync().unwrap();
        drop(d);
        let d = DeltaStore::open(&path, Box::new(KeepAll)).unwrap();
        assert_eq!((d.len(), d.total_points()), (1, 2));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_truncated_and_appendable() {
        let path = tmp("torn.log");
        let mut d = DeltaStore::create(&path, Box::new(KeepAll)).unwrap();
        d.push_traj(&pts(3, 0.0)).unwrap().unwrap();
        // Unfinished second trajectory: begin + one point, no end.
        d.begin_traj().unwrap();
        d.push_point(Point::new(9.0, 9.0, 0.0)).unwrap();
        d.sync().unwrap();
        drop(d);

        let mut d = DeltaStore::open(&path, Box::new(KeepAll)).unwrap();
        assert_eq!((d.len(), d.total_points()), (1, 3), "torn group dropped");
        // The truncated log accepts new appends cleanly.
        d.push_traj(&pts(2, 50.0)).unwrap().unwrap();
        d.sync().unwrap();
        drop(d);
        let d = DeltaStore::open(&path, Box::new(KeepAll)).unwrap();
        assert_eq!((d.len(), d.total_points()), (2, 5));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn any_bit_flip_truncates_to_prefix() {
        let path = tmp("bitflip.log");
        let mut d = DeltaStore::create(&path, Box::new(KeepAll)).unwrap();
        d.push_traj(&pts(2, 0.0)).unwrap().unwrap();
        d.push_traj(&pts(2, 10.0)).unwrap().unwrap();
        d.sync().unwrap();
        drop(d);

        let clean = std::fs::read(&path).unwrap();
        let group1_end = WAL_HEADER_LEN + BEGIN_LEN + 2 * POINT_LEN + END_LEN;
        // Flip one bit inside the *second* group: replay keeps group 1.
        for bit in [0usize, 3, 7] {
            let mut bytes = clean.clone();
            bytes[group1_end + 5] ^= 1 << bit;
            std::fs::write(&path, &bytes).unwrap();
            let d = DeltaStore::open(&path, Box::new(KeepAll)).unwrap();
            assert_eq!((d.len(), d.total_points()), (1, 2), "bit {bit}");
            drop(d);
            std::fs::write(&path, &clean).unwrap();
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        let path = tmp("magic.log");
        std::fs::write(&path, b"NOTAWAL\0junkjunk").unwrap();
        assert!(matches!(
            DeltaStore::open(&path, Box::new(KeepAll)),
            Err(DeltaError::BadMagic)
        ));
        let mut hdr = [0u8; WAL_HEADER_LEN];
        hdr[..8].copy_from_slice(WAL_MAGIC);
        put_u32(&mut hdr, 8, 99);
        std::fs::write(&path, hdr).unwrap();
        assert!(matches!(
            DeltaStore::open(&path, Box::new(KeepAll)),
            Err(DeltaError::UnsupportedVersion(99))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn replay_wal_is_read_only() {
        let path = tmp("readonly.log");
        let mut d = DeltaStore::create(&path, Box::new(KeepAll)).unwrap();
        d.push_traj(&pts(2, 0.0)).unwrap().unwrap();
        d.begin_traj().unwrap();
        d.push_point(Point::new(1.0, 1.0, 0.0)).unwrap();
        d.sync().unwrap();
        drop(d);

        let before = std::fs::read(&path).unwrap();
        let mut keep = KeepAll;
        let store = replay_wal(&path, &mut keep).unwrap();
        assert_eq!((store.len(), store.total_points()), (1, 2));
        assert_eq!(std::fs::read(&path).unwrap(), before, "file untouched");
        std::fs::remove_file(&path).ok();
    }

    /// A deterministic thinning simplifier (keeps every other point plus
    /// the last): replay must reproduce the same simplified columns.
    struct EveryOther {
        i: usize,
        last: Option<Point>,
        emitted_last: bool,
    }
    impl OnlineSimplifier for EveryOther {
        fn begin(&mut self) {
            self.i = 0;
            self.last = None;
            self.emitted_last = false;
        }
        fn push(&mut self, p: Point, out: &mut Vec<Point>) {
            self.emitted_last = self.i.is_multiple_of(2);
            if self.emitted_last {
                out.push(p);
            }
            self.last = Some(p);
            self.i += 1;
        }
        fn finish(&mut self, out: &mut Vec<Point>) {
            if let (Some(p), false) = (self.last, self.emitted_last) {
                out.push(p);
            }
        }
    }

    #[test]
    fn simplifier_applies_at_admission_and_replay() {
        let path = tmp("simp.log");
        let fresh = || {
            Box::new(EveryOther {
                i: 0,
                last: None,
                emitted_last: false,
            })
        };
        let mut d = DeltaStore::create(&path, fresh()).unwrap();
        d.push_traj(&pts(5, 0.0)).unwrap().unwrap(); // keeps 0,2,4 → 3 pts
        d.push_traj(&pts(4, 10.0)).unwrap().unwrap(); // keeps 0,2 + last(3) → 3 pts
        assert_eq!(d.total_points(), 6);
        assert_eq!(d.raw_points(), 9, "WAL logs raw points");
        d.sync().unwrap();
        let ts = d.store().ts().to_vec();
        drop(d);

        let d = DeltaStore::open(&path, fresh()).unwrap();
        assert_eq!(d.total_points(), 6);
        assert_eq!(d.store().ts(), &ts[..], "deterministic replay");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn drop_without_sync_mid_group_loses_only_open_traj() {
        let path = tmp("nosync.log");
        let mut d = DeltaStore::create(&path, Box::new(KeepAll)).unwrap();
        d.push_traj(&pts(3, 0.0)).unwrap().unwrap();
        // end_traj flushes the BufWriter, so complete groups reach the
        // OS even without sync(); only durability across power loss
        // needs sync. Simulate process death:
        d.begin_traj().unwrap();
        d.push_point(Point::new(0.0, 0.0, 0.0)).unwrap();
        drop(d);
        let d = DeltaStore::open(&path, Box::new(KeepAll)).unwrap();
        assert_eq!(d.len(), 1);
        std::fs::remove_file(&path).ok();
    }
}
