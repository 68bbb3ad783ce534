//! Columnar (struct-of-arrays) trajectory storage.
//!
//! This is the **one layout** algorithms are written against: index
//! construction, every query operator, every simplifier, the error
//! measures and Eq. 10 workload maintenance all walk *points*, and a
//! `Vec<Trajectory>` of `Vec<Point>` would make each of those walks chase
//! a pointer per trajectory and interleave x/y/t in memory. The row-form
//! [`TrajectoryDb`] survives only as a builder whose exit is
//! [`TrajectoryDb::to_store`]; [`AsColumns::to_db`] is the way back.
//!
//! [`PointStore`] keeps the whole database as three contiguous `f64`
//! columns (`xs`, `ys`, `ts`) plus a per-trajectory offset table:
//!
//! ```text
//!  xs: [ x0 x1 x2 | x3 x4 | x5 x6 x7 x8 | ... ]
//!  ys: [ y0 y1 y2 | y3 y4 | y5 y6 y7 y8 | ... ]
//!  ts: [ t0 t1 t2 | t3 t4 | t5 t6 t7 t8 | ... ]
//!           traj 0 | traj 1 |    traj 2  | ...
//!  offsets: [0, 3, 5, 9, ...]
//! ```
//!
//! A point's *global id* ([`PointId`]) is simply its column index, so an
//! index leaf can store bare `u32`s instead of `(TrajId, u32)` pairs, and a
//! query engine tests containment with three contiguous loads. Trajectories
//! are exposed as zero-copy [`TrajView`]s (three sub-slices), which
//! implement the whole read-side API of [`Trajectory`].
//!
//! The store is **append-only**: whole trajectories via
//! [`PointStore::push_traj`] / [`PointStore::push_points`], or point-at-a-
//! time streaming ingestion via [`PointStore::begin_traj`] /
//! [`PointStore::push_point`] / [`PointStore::end_traj`] (the access
//! pattern of one-pass error-bounded streaming simplifiers). This layout is
//! also the stepping stone to mmap persistence and sharded stores: the
//! columns are plain `f64` runs with no interior pointers.

use crate::bbox::Cube;
use crate::db::{Simplification, TrajId, TrajectoryDb};
use crate::pagebuf::PageBuf;
use crate::point::Point;
use crate::snapshot::MappedStore;
use crate::traj::Trajectory;

/// Global identifier of a point inside a [`PointStore`]: its column index.
pub type PointId = u32;

/// A trajectory database stored as struct-of-arrays columns.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PointStore {
    xs: Vec<f64>,
    ys: Vec<f64>,
    ts: Vec<f64>,
    /// `offsets[id]..offsets[id + 1]` is trajectory `id`'s column range.
    /// Always ends with the committed point count; points past the last
    /// sentinel belong to a still-open streaming trajectory.
    offsets: Vec<u32>,
    /// True between [`PointStore::begin_traj`] and
    /// [`PointStore::end_traj`].
    open: bool,
}

impl PointStore {
    /// An empty store.
    #[must_use]
    pub fn new() -> Self {
        Self {
            xs: Vec::new(),
            ys: Vec::new(),
            ts: Vec::new(),
            offsets: vec![0],
            open: false,
        }
    }

    /// An empty store with room for `trajs` trajectories of `points` total
    /// points.
    #[must_use]
    pub fn with_capacity(trajs: usize, points: usize) -> Self {
        let mut offsets = Vec::with_capacity(trajs + 1);
        offsets.push(0);
        Self {
            xs: Vec::with_capacity(points),
            ys: Vec::with_capacity(points),
            ts: Vec::with_capacity(points),
            offsets,
            open: false,
        }
    }

    /// Assembles a store directly from already-validated columns (the
    /// snapshot loader's path). The caller guarantees the usual invariants:
    /// equal column lengths, `offsets` monotone starting at 0 and ending at
    /// the point count, per-trajectory time order.
    pub(crate) fn from_raw_columns(
        xs: Vec<f64>,
        ys: Vec<f64>,
        ts: Vec<f64>,
        offsets: Vec<u32>,
    ) -> Self {
        debug_assert_eq!(xs.len(), ys.len());
        debug_assert_eq!(xs.len(), ts.len());
        debug_assert_eq!(*offsets.last().expect("sentinel") as usize, xs.len());
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        Self {
            xs,
            ys,
            ts,
            offsets,
            open: false,
        }
    }

    // ------------------------------------------------------------------
    // Append-only ingestion.
    // ------------------------------------------------------------------

    /// Appends an already-validated trajectory, returning its id.
    pub fn push_traj(&mut self, t: &Trajectory) -> TrajId {
        assert!(!self.open, "finish the open trajectory first");
        for p in t.points() {
            self.xs.push(p.x);
            self.ys.push(p.y);
            self.ts.push(p.t);
        }
        self.commit_traj()
    }

    /// Seals the points appended since the last sentinel as one
    /// trajectory, enforcing the u32 global-id capacity loudly instead of
    /// letting offsets wrap.
    fn commit_traj(&mut self) -> TrajId {
        assert!(
            self.xs.len() < u32::MAX as usize,
            "PointStore exceeds u32 point capacity; shard the store"
        );
        self.offsets.push(self.xs.len() as u32);
        self.offsets.len() - 2
    }

    /// Appends a trajectory from raw points with the same validation as
    /// [`Trajectory::new`] (non-empty, finite, time-ordered). On invalid
    /// input nothing is appended and `None` is returned.
    pub fn push_points(&mut self, pts: &[Point]) -> Option<TrajId> {
        assert!(!self.open, "finish the open trajectory first");
        if pts.is_empty()
            || !pts.iter().all(Point::is_finite)
            || pts.windows(2).any(|w| w[1].t < w[0].t)
        {
            return None;
        }
        for p in pts {
            self.xs.push(p.x);
            self.ys.push(p.y);
            self.ts.push(p.t);
        }
        Some(self.commit_traj())
    }

    /// Appends a (possibly foreign) view as a new trajectory. Empty views
    /// append nothing and return `None` — a zero-length trajectory would
    /// break every store invariant. Debug builds also assert the view's
    /// time order (views of a valid store always satisfy it).
    pub fn push_view(&mut self, v: TrajView<'_>) -> Option<TrajId> {
        assert!(!self.open, "finish the open trajectory first");
        if v.is_empty() {
            return None;
        }
        debug_assert!(v.ts.windows(2).all(|w| w[1] >= w[0]));
        self.xs.extend_from_slice(v.xs);
        self.ys.extend_from_slice(v.ys);
        self.ts.extend_from_slice(v.ts);
        Some(self.commit_traj())
    }

    /// Opens a new trajectory for streaming ingestion.
    ///
    /// # Panics
    /// When a trajectory is already open.
    pub fn begin_traj(&mut self) {
        assert!(!self.open, "a trajectory is already open");
        self.open = true;
    }

    /// Streams one point into the open trajectory. Returns `false` (and
    /// appends nothing) when the point is non-finite or regresses in time
    /// relative to the previous streamed point.
    ///
    /// # Panics
    /// When no trajectory is open.
    pub fn push_point(&mut self, p: Point) -> bool {
        assert!(self.open, "begin_traj before push_point");
        if !p.is_finite() {
            return false;
        }
        if let Some(&last_t) = self.ts.last() {
            // Only constrain against points of the *open* trajectory.
            if self.xs.len() as u32 > *self.offsets.last().expect("sentinel") && p.t < last_t {
                return false;
            }
        }
        self.xs.push(p.x);
        self.ys.push(p.y);
        self.ts.push(p.t);
        true
    }

    /// Closes the open trajectory, returning its id — or `None` (and
    /// discarding nothing, as nothing was buffered) when no point was
    /// streamed since [`PointStore::begin_traj`].
    pub fn end_traj(&mut self) -> Option<TrajId> {
        assert!(self.open, "no open trajectory");
        self.open = false;
        let committed = *self.offsets.last().expect("sentinel") as usize;
        if self.xs.len() == committed {
            return None;
        }
        Some(self.commit_traj())
    }

    // ------------------------------------------------------------------
    // Shape.
    // ------------------------------------------------------------------

    /// Number of (committed) trajectories `M`.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when the store holds no committed trajectory.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.offsets.len() == 1
    }

    /// Total number of committed points `N`.
    #[inline]
    #[must_use]
    pub fn total_points(&self) -> usize {
        *self.offsets.last().expect("sentinel") as usize
    }

    /// The per-trajectory offset table (length `M + 1`, starts at 0).
    #[inline]
    #[must_use]
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The x column (committed points).
    #[inline]
    #[must_use]
    pub fn xs(&self) -> &[f64] {
        &self.xs[..self.total_points()]
    }

    /// The y column (committed points).
    #[inline]
    #[must_use]
    pub fn ys(&self) -> &[f64] {
        &self.ys[..self.total_points()]
    }

    /// The t column (committed points).
    #[inline]
    #[must_use]
    pub fn ts(&self) -> &[f64] {
        &self.ts[..self.total_points()]
    }

    // ------------------------------------------------------------------
    // Access.
    // ------------------------------------------------------------------

    /// Zero-copy view of trajectory `id`.
    #[inline]
    #[must_use]
    pub fn view(&self, id: TrajId) -> TrajView<'_> {
        let lo = self.offsets[id] as usize;
        let hi = self.offsets[id + 1] as usize;
        TrajView {
            xs: &self.xs[lo..hi],
            ys: &self.ys[lo..hi],
            ts: &self.ts[lo..hi],
        }
    }

    /// Iterator over all trajectory views in id order.
    pub fn views(&self) -> impl Iterator<Item = TrajView<'_>> {
        (0..self.len()).map(move |id| self.view(id))
    }

    /// Iterator over `(id, view)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (TrajId, TrajView<'_>)> {
        (0..self.len()).map(move |id| (id, self.view(id)))
    }

    /// The point with global id `gid`.
    #[inline]
    #[must_use]
    pub fn point(&self, gid: PointId) -> Point {
        let i = gid as usize;
        Point::new(self.xs[i], self.ys[i], self.ts[i])
    }

    /// Global column range of trajectory `id`.
    #[inline]
    #[must_use]
    pub fn global_range(&self, id: TrajId) -> std::ops::Range<usize> {
        self.offsets[id] as usize..self.offsets[id + 1] as usize
    }

    /// Global id of point `idx` of trajectory `id`.
    #[inline]
    #[must_use]
    pub fn global_id(&self, id: TrajId, idx: u32) -> PointId {
        self.offsets[id] + idx
    }

    /// The trajectory owning global point `gid` (binary search over the
    /// offset table). For O(1) lookups in hot loops, materialize
    /// [`AsColumns::owner_column`] once instead.
    #[must_use]
    pub fn traj_of(&self, gid: PointId) -> TrajId {
        debug_assert!((gid as usize) < self.total_points());
        self.offsets.partition_point(|&o| o <= gid) - 1
    }

    /// Splits a global id into `(trajectory, local point index)`.
    #[must_use]
    pub fn locate(&self, gid: PointId) -> (TrajId, u32) {
        let id = self.traj_of(gid);
        (id, gid - self.offsets[id])
    }

    /// Smallest cube covering every committed point: three straight-line
    /// column scans instead of a pointer chase per trajectory (the fold
    /// lives in [`TrajView::bounding_cube`], applied to the whole store).
    #[must_use]
    pub fn bounding_cube(&self) -> Cube {
        TrajView {
            xs: self.xs(),
            ys: self.ys(),
            ts: self.ts(),
        }
        .bounding_cube()
    }

    /// Time span covered by the whole store.
    #[must_use]
    pub fn time_span(&self) -> (f64, f64) {
        let c = self.bounding_cube();
        (c.t_min, c.t_max)
    }

    // ------------------------------------------------------------------
    // Gathers.
    // ------------------------------------------------------------------

    /// Gathers the listed trajectories (in the given order) into a new
    /// store — how training samples sub-databases without cloning
    /// `Vec<Point>`s.
    #[must_use]
    pub fn gather_trajs(&self, ids: &[TrajId]) -> PointStore {
        let points = ids.iter().map(|&id| self.view(id).len()).sum();
        let mut out = PointStore::with_capacity(ids.len(), points);
        for &id in ids {
            // Views of a valid store are never empty.
            let _ = out.push_view(self.view(id));
        }
        out
    }

    /// Gathers the kept points of `simp` into a new store (the columnar
    /// `materialize`): one pass over the kept lists, no re-validation.
    #[must_use]
    pub fn gather(&self, simp: &Simplification) -> PointStore {
        debug_assert_eq!(simp.len(), self.len());
        if simp.total_points() == self.total_points() {
            // Fully-kept fast path: the gather is the identity.
            return self.clone();
        }
        let mut out = PointStore::with_capacity(self.len(), simp.total_points());
        for id in 0..self.len() {
            let base = self.offsets[id] as usize;
            for &idx in simp.kept(id) {
                let i = base + idx as usize;
                out.xs.push(self.xs[i]);
                out.ys.push(self.ys[i]);
                out.ts.push(self.ts[i]);
            }
            out.offsets.push(out.xs.len() as u32);
        }
        out
    }
}

impl FromIterator<Trajectory> for PointStore {
    fn from_iter<I: IntoIterator<Item = Trajectory>>(iter: I) -> Self {
        let mut store = PointStore::new();
        for t in iter {
            store.push_traj(&t);
        }
        store
    }
}

/// A zero-copy view of one trajectory inside a [`PointStore`]: three column
/// sub-slices. `Copy`, 48 bytes, no allocation — this is what read paths
/// take instead of `&Trajectory`.
#[derive(Debug, Clone, Copy)]
pub struct TrajView<'a> {
    /// x coordinates.
    pub xs: &'a [f64],
    /// y coordinates.
    pub ys: &'a [f64],
    /// Timestamps (non-decreasing).
    pub ts: &'a [f64],
}

impl<'a> TrajView<'a> {
    /// Number of points.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// True when the view covers no points.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// The `i`-th point, assembled from the columns.
    #[inline]
    #[must_use]
    pub fn point(&self, i: usize) -> Point {
        Point::new(self.xs[i], self.ys[i], self.ts[i])
    }

    /// First point.
    #[inline]
    #[must_use]
    pub fn first(&self) -> Point {
        self.point(0)
    }

    /// Last point.
    #[inline]
    #[must_use]
    pub fn last(&self) -> Point {
        self.point(self.len() - 1)
    }

    /// Time span `[t1, tn]`.
    #[must_use]
    pub fn time_span(&self) -> (f64, f64) {
        (self.ts[0], self.ts[self.len() - 1])
    }

    /// Iterator over the points in time order.
    pub fn points(&self) -> impl Iterator<Item = Point> + '_ {
        (0..self.len()).map(move |i| self.point(i))
    }

    /// Materializes the view's points.
    #[must_use]
    pub fn collect_points(&self) -> Vec<Point> {
        self.points().collect()
    }

    /// Materializes the view as an owned [`Trajectory`].
    #[must_use]
    pub fn to_trajectory(&self) -> Trajectory {
        Trajectory::from_sorted_unchecked(self.collect_points())
    }

    /// Indices `[lo, hi]` (inclusive) of points with timestamps in
    /// `[ts, te]`, or `None` when the window misses the view. The search
    /// runs on the contiguous `ts` column.
    #[must_use]
    pub fn window_indices(&self, ts: f64, te: f64) -> Option<(usize, usize)> {
        if ts > te {
            return None;
        }
        let lo = self.ts.partition_point(|&t| t < ts);
        let hi = self.ts.partition_point(|&t| t <= te);
        if lo >= hi {
            None
        } else {
            Some((lo, hi - 1))
        }
    }

    /// The zero-copy sub-view restricted to the time window `[ts, te]`
    /// (`T[ts, te]`); `None` when no sampled point falls inside.
    #[must_use]
    pub fn window(&self, ts: f64, te: f64) -> Option<TrajView<'a>> {
        let (lo, hi) = self.window_indices(ts, te)?;
        Some(self.slice(lo, hi + 1))
    }

    /// The sub-view over point indices `lo..hi`.
    #[must_use]
    pub fn slice(&self, lo: usize, hi: usize) -> TrajView<'a> {
        TrajView {
            xs: &self.xs[lo..hi],
            ys: &self.ys[lo..hi],
            ts: &self.ts[lo..hi],
        }
    }

    /// Synchronized position at time `t` (linear interpolation, clamped to
    /// the endpoints) — the view-side twin of
    /// [`Trajectory::position_at`](crate::Trajectory::position_at),
    /// delegating to the shared [`PointSeq`](crate::PointSeq)
    /// implementation so both layouts interpolate identically.
    #[must_use]
    pub fn position_at(&self, t: f64) -> Point {
        crate::seq::PointSeq::seq_position_at(self, t)
    }

    /// Smallest cube covering the view's points — three lane-wide
    /// [`min_max`](crate::simd::min_max) column reductions.
    #[must_use]
    pub fn bounding_cube(&self) -> Cube {
        let (x_min, x_max) = crate::simd::min_max(self.xs);
        let (y_min, y_max) = crate::simd::min_max(self.ys);
        let (t_min, t_max) = crate::simd::min_max(self.ts);
        Cube {
            x_min,
            x_max,
            y_min,
            y_max,
            t_min,
            t_max,
        }
    }
}

/// A bitmap of kept points over a [`PointStore`]'s global ids — the
/// query-time face of a [`Simplification`]: `contains(gid)` is one shift
/// and mask instead of a per-trajectory binary search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeptBitmap {
    words: Vec<u64>,
    len: usize,
}

impl KeptBitmap {
    /// An all-zero bitmap over `n` points.
    #[must_use]
    pub fn zeros(n: usize) -> Self {
        Self {
            words: vec![0; n.div_ceil(64)],
            len: n,
        }
    }

    /// Number of point slots.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitmap covers no points.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Marks global point `gid` as kept.
    #[inline]
    pub fn insert(&mut self, gid: PointId) {
        self.words[gid as usize / 64] |= 1u64 << (gid % 64);
    }

    /// Clears global point `gid`.
    #[inline]
    pub fn remove(&mut self, gid: PointId) {
        self.words[gid as usize / 64] &= !(1u64 << (gid % 64));
    }

    /// True when global point `gid` is kept.
    #[inline]
    #[must_use]
    pub fn contains(&self, gid: PointId) -> bool {
        self.words[gid as usize / 64] & (1u64 << (gid % 64)) != 0
    }

    /// Number of kept points.
    #[must_use]
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The kept global ids, ascending.
    pub fn ones(&self) -> impl Iterator<Item = PointId> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                let bit = (rest != 0).then(|| rest.trailing_zeros())?;
                rest &= rest - 1;
                Some(w as PointId * 64 + bit)
            })
        })
    }

    /// The raw 64-bit words backing the bitmap (bit `gid % 64` of word
    /// `gid / 64` is point `gid`). This is the exact run the snapshot
    /// format persists.
    #[inline]
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Reassembles a bitmap from its raw words (the snapshot loader's
    /// path).
    ///
    /// # Panics
    /// When `words` is not exactly `n.div_ceil(64)` long, or a bit above
    /// `n` is set — either would silently corrupt membership tests.
    #[must_use]
    pub fn from_words(words: Vec<u64>, n: usize) -> Self {
        assert_eq!(words.len(), n.div_ceil(64), "word count mismatch for {n}");
        if !n.is_multiple_of(64) {
            if let Some(&last) = words.last() {
                assert_eq!(last >> (n % 64), 0, "bits set past the point count");
            }
        }
        Self { words, len: n }
    }
}

// ---------------------------------------------------------------------
// Layout-agnostic column access.
// ---------------------------------------------------------------------

/// Read-side access to columnar trajectory storage: the four plain runs
/// (`xs`/`ys`/`ts`/`offsets`) plus every derived read operation the index
/// builders and the query engine consume.
///
/// [`PointStore`] (heap-owned columns) and [`MappedStore`] (columns
/// backed by a read-only file mapping) both implement it, so one index build and one
/// query path serve either backend — a snapshot on disk is queryable with
/// zero deserialization. [`StoreRef`] is the enum that lets a struct hold
/// "some store" without going generic.
///
/// All provided methods mirror the semantics of [`PointStore`]'s inherent
/// methods of the same name; implementors only supply the four column
/// accessors.
pub trait AsColumns {
    /// The x column (committed points).
    fn xs(&self) -> &[f64];

    /// The y column (committed points).
    fn ys(&self) -> &[f64];

    /// The t column (committed points, non-decreasing per trajectory).
    fn ts(&self) -> &[f64];

    /// The per-trajectory offset table (length `M + 1`, starts at 0, ends
    /// at the total point count).
    fn offsets(&self) -> &[u32];

    /// Number of trajectories `M`.
    #[inline]
    fn len(&self) -> usize {
        self.offsets().len() - 1
    }

    /// True when the store holds no trajectory.
    #[inline]
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of points `N`.
    #[inline]
    fn total_points(&self) -> usize {
        *self.offsets().last().expect("sentinel") as usize
    }

    /// Zero-copy view of trajectory `id`.
    #[inline]
    fn view(&self, id: TrajId) -> TrajView<'_> {
        let lo = self.offsets()[id] as usize;
        let hi = self.offsets()[id + 1] as usize;
        TrajView {
            xs: &self.xs()[lo..hi],
            ys: &self.ys()[lo..hi],
            ts: &self.ts()[lo..hi],
        }
    }

    /// Iterator over all trajectory views in id order.
    fn views(&self) -> impl Iterator<Item = TrajView<'_>> {
        (0..self.len()).map(move |id| self.view(id))
    }

    /// Iterator over `(id, view)` pairs.
    fn iter(&self) -> impl Iterator<Item = (TrajId, TrajView<'_>)> {
        (0..self.len()).map(move |id| (id, self.view(id)))
    }

    /// The point with global id `gid`.
    #[inline]
    fn point(&self, gid: PointId) -> Point {
        let i = gid as usize;
        Point::new(self.xs()[i], self.ys()[i], self.ts()[i])
    }

    /// Global column range of trajectory `id`.
    #[inline]
    fn global_range(&self, id: TrajId) -> std::ops::Range<usize> {
        self.offsets()[id] as usize..self.offsets()[id + 1] as usize
    }

    /// Global id of point `idx` of trajectory `id`.
    #[inline]
    fn global_id(&self, id: TrajId, idx: u32) -> PointId {
        self.offsets()[id] + idx
    }

    /// The trajectory owning global point `gid` (binary search over the
    /// offset table).
    fn traj_of(&self, gid: PointId) -> TrajId {
        debug_assert!((gid as usize) < self.total_points());
        self.offsets().partition_point(|&o| o <= gid) - 1
    }

    /// Splits a global id into `(trajectory, local point index)`.
    fn locate(&self, gid: PointId) -> (TrajId, u32) {
        let id = self.traj_of(gid);
        (id, gid - self.offsets()[id])
    }

    /// Materializes the owner column: `owners[gid]` = owning trajectory.
    /// Index builds hold it while they run; it is a [`PageBuf`], so a
    /// large one is its own mapping and gone once the build is.
    fn owner_column(&self) -> PageBuf<u32> {
        let mut owners = PageBuf::zeroed(self.total_points());
        for (id, run) in self.offsets().windows(2).enumerate() {
            owners[run[0] as usize..run[1] as usize].fill(id as u32);
        }
        owners
    }

    /// Smallest cube covering every point.
    fn bounding_cube(&self) -> Cube {
        TrajView {
            xs: self.xs(),
            ys: self.ys(),
            ts: self.ts(),
        }
        .bounding_cube()
    }

    /// Time span covered by the whole store.
    fn time_span(&self) -> (f64, f64) {
        let c = self.bounding_cube();
        (c.t_min, c.t_max)
    }

    /// Materializes an owned, heap-backed copy of the columns. For an
    /// already-owned [`PointStore`] this is a full clone — it exists so a
    /// mapped store can be detached from its file.
    fn to_point_store(&self) -> PointStore {
        PointStore::from_raw_columns(
            self.xs().to_vec(),
            self.ys().to_vec(),
            self.ts().to_vec(),
            self.offsets().to_vec(),
        )
    }

    /// Materializes the columns into a row-form [`TrajectoryDb`] — the
    /// one way back from columns (CSV export, handing a sampled
    /// sub-database to code that builds on rows). The way in is
    /// [`TrajectoryDb::to_store`].
    fn to_db(&self) -> TrajectoryDb {
        self.views()
            .map(|v| Trajectory::from_sorted_unchecked(v.collect_points()))
            .collect()
    }
}

impl AsColumns for PointStore {
    #[inline]
    fn xs(&self) -> &[f64] {
        PointStore::xs(self)
    }

    #[inline]
    fn ys(&self) -> &[f64] {
        PointStore::ys(self)
    }

    #[inline]
    fn ts(&self) -> &[f64] {
        PointStore::ts(self)
    }

    #[inline]
    fn offsets(&self) -> &[u32] {
        PointStore::offsets(self)
    }
}

/// A query engine's handle on "some columnar store": owned or borrowed,
/// heap-backed or mmap-backed, behind one non-generic type.
///
/// This is the seam that lets `traj_query::QueryEngine` (and anything else
/// holding a store long-term) serve queries straight off a
/// [`MappedStore`] without a generic parameter rippling through every
/// consumer. All read access goes through
/// the [`AsColumns`] impl.
#[derive(Debug)]
pub enum StoreRef<'a> {
    /// An owned heap-backed store.
    Owned(PointStore),
    /// A borrowed heap-backed store.
    Borrowed(&'a PointStore),
    /// An owned read-only file mapping.
    Mapped(MappedStore),
    /// A borrowed read-only file mapping.
    MappedRef(&'a MappedStore),
}

impl StoreRef<'_> {
    /// The heap-backed [`PointStore`] behind this handle, when there is
    /// one (`None` for mapped stores — use
    /// [`AsColumns::to_point_store`] to materialize a copy).
    #[must_use]
    pub fn as_point_store(&self) -> Option<&PointStore> {
        match self {
            StoreRef::Owned(s) => Some(s),
            StoreRef::Borrowed(s) => Some(s),
            StoreRef::Mapped(_) | StoreRef::MappedRef(_) => None,
        }
    }

    /// The file mapping behind this handle, when there is one.
    #[must_use]
    pub fn as_mapped(&self) -> Option<&MappedStore> {
        match self {
            StoreRef::Mapped(m) => Some(m),
            StoreRef::MappedRef(m) => Some(m),
            StoreRef::Owned(_) | StoreRef::Borrowed(_) => None,
        }
    }
}

impl AsColumns for StoreRef<'_> {
    #[inline]
    fn xs(&self) -> &[f64] {
        match self {
            StoreRef::Owned(s) => PointStore::xs(s),
            StoreRef::Borrowed(s) => PointStore::xs(s),
            StoreRef::Mapped(m) => m.xs(),
            StoreRef::MappedRef(m) => m.xs(),
        }
    }

    #[inline]
    fn ys(&self) -> &[f64] {
        match self {
            StoreRef::Owned(s) => PointStore::ys(s),
            StoreRef::Borrowed(s) => PointStore::ys(s),
            StoreRef::Mapped(m) => m.ys(),
            StoreRef::MappedRef(m) => m.ys(),
        }
    }

    #[inline]
    fn ts(&self) -> &[f64] {
        match self {
            StoreRef::Owned(s) => PointStore::ts(s),
            StoreRef::Borrowed(s) => PointStore::ts(s),
            StoreRef::Mapped(m) => m.ts(),
            StoreRef::MappedRef(m) => m.ts(),
        }
    }

    #[inline]
    fn offsets(&self) -> &[u32] {
        match self {
            StoreRef::Owned(s) => PointStore::offsets(s),
            StoreRef::Borrowed(s) => PointStore::offsets(s),
            StoreRef::Mapped(m) => m.offsets(),
            StoreRef::MappedRef(m) => m.offsets(),
        }
    }
}

impl From<PointStore> for StoreRef<'static> {
    fn from(s: PointStore) -> Self {
        StoreRef::Owned(s)
    }
}

impl<'a> From<&'a PointStore> for StoreRef<'a> {
    fn from(s: &'a PointStore) -> Self {
        StoreRef::Borrowed(s)
    }
}

impl From<MappedStore> for StoreRef<'static> {
    fn from(m: MappedStore) -> Self {
        StoreRef::Mapped(m)
    }
}

impl<'a> From<&'a MappedStore> for StoreRef<'a> {
    fn from(m: &'a MappedStore) -> Self {
        StoreRef::MappedRef(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, DatasetSpec, Scale};

    fn sample_db() -> TrajectoryDb {
        generate(&DatasetSpec::geolife(Scale::Smoke), 42)
    }

    #[test]
    fn round_trips_through_columns() {
        let db = sample_db();
        let store = db.to_store();
        assert_eq!(store.len(), db.len());
        assert_eq!(store.total_points(), db.total_points());
        let back = store.to_db();
        for (id, t) in db.iter() {
            assert_eq!(back.get(id).points(), t.points());
        }
    }

    #[test]
    fn views_match_trajectories() {
        let db = sample_db();
        let store = db.to_store();
        for (id, t) in db.iter() {
            let v = store.view(id);
            assert_eq!(v.len(), t.len());
            assert_eq!(v.first(), *t.first());
            assert_eq!(v.last(), *t.last());
            for i in 0..t.len() {
                assert_eq!(v.point(i), *t.point(i));
            }
        }
    }

    #[test]
    fn global_ids_locate_and_round_trip() {
        let db = sample_db();
        let store = db.to_store();
        let owners = store.owner_column();
        for gid in 0..store.total_points() as u32 {
            let (traj, idx) = store.locate(gid);
            assert_eq!(owners[gid as usize] as usize, traj);
            assert_eq!(store.global_id(traj, idx), gid);
            assert_eq!(store.point(gid), *db.get(traj).point(idx as usize));
        }
    }

    #[test]
    fn bounding_cube_matches_aos() {
        let db = sample_db();
        let store = db.to_store();
        assert_eq!(store.bounding_cube(), db.bounding_cube());
        assert_eq!(store.time_span(), db.time_span());
    }

    #[test]
    fn streaming_ingestion_builds_trajectories() {
        let mut store = PointStore::new();
        store.begin_traj();
        assert!(store.push_point(Point::new(0.0, 0.0, 0.0)));
        assert!(store.push_point(Point::new(1.0, 1.0, 1.0)));
        assert!(!store.push_point(Point::new(2.0, 2.0, 0.5)), "time regress");
        assert!(!store.push_point(Point::new(f64::NAN, 0.0, 2.0)));
        assert_eq!(store.end_traj(), Some(0));
        assert_eq!(store.view(0).len(), 2);

        // A fresh trajectory may restart time from zero.
        store.begin_traj();
        assert!(store.push_point(Point::new(5.0, 5.0, 0.0)));
        assert_eq!(store.end_traj(), Some(1));
        assert_eq!(store.len(), 2);

        // Empty open trajectory commits nothing.
        store.begin_traj();
        assert_eq!(store.end_traj(), None);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn push_points_validates_like_trajectory_new() {
        let mut store = PointStore::new();
        assert_eq!(store.push_points(&[]), None);
        assert_eq!(
            store.push_points(&[Point::new(0.0, 0.0, 5.0), Point::new(1.0, 1.0, 4.0)]),
            None
        );
        assert_eq!(store.total_points(), 0, "failed pushes append nothing");
        assert_eq!(
            store.push_points(&[Point::new(0.0, 0.0, 5.0), Point::new(1.0, 1.0, 5.0)]),
            Some(0)
        );
    }

    #[test]
    fn window_and_position_match_trajectory_semantics() {
        let db = sample_db();
        let store = db.to_store();
        for (id, t) in db.iter().take(4) {
            let v = store.view(id);
            let (t0, t1) = t.time_span();
            let mid = 0.5 * (t0 + t1);
            assert_eq!(v.window_indices(t0, mid), t.window_indices(t0, mid));
            assert_eq!(v.window_indices(t1 + 1.0, t1 + 2.0), None);
            for probe in [t0 - 10.0, t0, mid, t1, t1 + 10.0] {
                assert_eq!(v.position_at(probe), t.position_at(probe));
            }
            if let Some(w) = v.window(t0, mid) {
                let tw = t.window(t0, mid).unwrap();
                assert_eq!(w.collect_points(), tw.points());
            }
        }
    }

    #[test]
    fn gather_trajs_subsets_without_cloning_points() {
        let db = sample_db();
        let store = db.to_store();
        let ids = vec![2usize, 0];
        let sub = store.gather_trajs(&ids);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.view(0).collect_points(), store.view(2).collect_points());
        assert_eq!(sub.view(1).collect_points(), store.view(0).collect_points());
    }

    #[test]
    fn gather_simplification_matches_materialize() {
        let db = sample_db();
        let store = db.to_store();
        let mut simp = Simplification::most_simplified_store(&store);
        for (id, t) in db.iter() {
            for idx in (0..t.len() as u32).step_by(3) {
                simp.insert(id, idx);
            }
        }
        let gathered = store.gather(&simp);
        let materialized = simp.materialize(&db);
        assert_eq!(gathered.len(), materialized.len());
        for (id, t) in materialized.iter() {
            assert_eq!(gathered.view(id).collect_points(), t.points());
        }
    }

    #[test]
    fn gather_full_simplification_is_identity() {
        let db = sample_db();
        let store = db.to_store();
        let full = Simplification::full_store(&store);
        assert_eq!(store.gather(&full), store);
    }

    #[test]
    fn bitmap_sets_and_clears() {
        let mut b = KeptBitmap::zeros(130);
        assert_eq!(b.len(), 130);
        assert!(!b.contains(129));
        b.insert(129);
        b.insert(0);
        b.insert(64);
        assert!(b.contains(129) && b.contains(0) && b.contains(64));
        assert_eq!(b.count(), 3);
        assert_eq!(b.ones().collect::<Vec<_>>(), [0, 64, 129]);
        b.remove(64);
        assert!(!b.contains(64));
        assert_eq!(b.count(), 2);
        assert_eq!(b.ones().collect::<Vec<_>>(), [0, 129]);
        assert_eq!(KeptBitmap::zeros(70).ones().count(), 0);
    }
}
