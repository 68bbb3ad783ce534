//! The row-form database builder and the simplification of a database.
//!
//! [`TrajectoryDb`] is a *builder*: a `Vec<Trajectory>` that generators,
//! CSV readers and tests assemble row by row, and whose one exit is
//! [`TrajectoryDb::to_store`]. No algorithm is written against it — every
//! simplifier, query operator and error measure walks columns
//! ([`AsColumns`]) and single trajectories as [`PointSeq`](crate::PointSeq).

use crate::bbox::Cube;
use crate::store::{AsColumns, KeptBitmap, PointStore};
use crate::traj::Trajectory;

/// Identifier of a trajectory inside a database (its index).
pub type TrajId = usize;

/// A database `D` of trajectories in row form. `N` in the paper is
/// [`TrajectoryDb::total_points`], `M` is [`TrajectoryDb::len`].
#[derive(Debug, Clone, Default)]
pub struct TrajectoryDb {
    trajectories: Vec<Trajectory>,
}

impl TrajectoryDb {
    /// Creates a database from trajectories.
    pub fn new(trajectories: Vec<Trajectory>) -> Self {
        Self { trajectories }
    }

    /// Number of trajectories `M`.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.trajectories.len()
    }

    /// True when the database holds no trajectories.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.trajectories.is_empty()
    }

    /// Total number of points `N` across all trajectories.
    #[must_use]
    pub fn total_points(&self) -> usize {
        self.trajectories.iter().map(Trajectory::len).sum()
    }

    /// Immutable access to all trajectories.
    #[inline]
    #[must_use]
    pub fn trajectories(&self) -> &[Trajectory] {
        &self.trajectories
    }

    /// The trajectory with the given id.
    #[inline]
    #[must_use]
    pub fn get(&self, id: TrajId) -> &Trajectory {
        &self.trajectories[id]
    }

    /// Adds a trajectory, returning its id.
    pub fn push(&mut self, t: Trajectory) -> TrajId {
        self.trajectories.push(t);
        self.trajectories.len() - 1
    }

    /// Iterator over `(id, trajectory)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (TrajId, &Trajectory)> {
        self.trajectories.iter().enumerate()
    }

    /// Smallest cube covering every point of every trajectory.
    #[must_use]
    pub fn bounding_cube(&self) -> Cube {
        let mut c = Cube::empty();
        for t in &self.trajectories {
            for p in t.points() {
                c.extend(p);
            }
        }
        c
    }

    /// Time span covered by the whole database.
    #[must_use]
    pub fn time_span(&self) -> (f64, f64) {
        let c = self.bounding_cube();
        (c.t_min, c.t_max)
    }

    /// Converts the database into columnar storage (see
    /// [`PointStore`]) — the layout every algorithm operates on. The
    /// reverse direction is [`AsColumns::to_db`].
    #[must_use]
    pub fn to_store(&self) -> PointStore {
        let mut store = PointStore::with_capacity(self.len(), self.total_points());
        for t in &self.trajectories {
            store.push_traj(t);
        }
        store
    }

    /// Splits the database into `(head, tail)` where `head` keeps the first
    /// `n` trajectories. Used to carve train/test splits.
    pub fn split_at(mut self, n: usize) -> (TrajectoryDb, TrajectoryDb) {
        let n = n.min(self.trajectories.len());
        let tail = self.trajectories.split_off(n);
        (self, TrajectoryDb::new(tail))
    }
}

impl FromIterator<Trajectory> for TrajectoryDb {
    fn from_iter<I: IntoIterator<Item = Trajectory>>(iter: I) -> Self {
        Self::new(iter.into_iter().collect())
    }
}

/// A simplification of a database: for every trajectory, the sorted set of
/// *kept* point indices. The first and last index of every trajectory are
/// always kept (the paper's "most simplified database" keeps exactly those
/// two).
///
/// This representation is what all simplification algorithms produce; it
/// is materialized into standalone columns with
/// [`Simplification::materialize_store`] (a gather) or consumed in place as
/// a [`KeptBitmap`] ([`Simplification::to_bitmap`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Simplification {
    /// `kept[id]` = sorted indices of retained points of trajectory `id`.
    kept: Vec<Vec<u32>>,
    /// Σ `kept[id].len()`, maintained by every constructor and by
    /// `insert` / `remove`: insertion loops test it once per point.
    total: usize,
}

impl Simplification {
    /// The most simplified database: every trajectory reduced to its first
    /// and last point (single-point trajectories keep their one point).
    /// Works over owned or mapped columns — anything [`AsColumns`].
    pub fn most_simplified_store<S: AsColumns + ?Sized>(store: &S) -> Self {
        let kept = store
            .views()
            .map(|v| {
                if v.len() <= 1 {
                    vec![0]
                } else {
                    vec![0, (v.len() - 1) as u32]
                }
            })
            .collect();
        Self::counted(kept)
    }

    /// A simplification that keeps everything (identity).
    pub fn full_store<S: AsColumns + ?Sized>(store: &S) -> Self {
        let kept = store
            .views()
            .map(|v| (0..v.len() as u32).collect())
            .collect();
        Self::counted(kept)
    }

    /// Builds from per-trajectory kept-index lists. Lists must be sorted,
    /// deduplicated, and contain the endpoints; debug builds assert this
    /// against the store's per-trajectory lengths.
    pub fn from_kept_store<S: AsColumns + ?Sized>(store: &S, kept: Vec<Vec<u32>>) -> Self {
        debug_assert_eq!(kept.len(), store.len());
        #[cfg(debug_assertions)]
        for (id, ks) in kept.iter().enumerate() {
            Self::assert_kept_list(id, ks, store.view(id).len() as u32);
        }
        Self::counted(kept)
    }

    fn counted(kept: Vec<Vec<u32>>) -> Self {
        let total = kept.iter().map(Vec::len).sum();
        Self { kept, total }
    }

    #[cfg(debug_assertions)]
    fn assert_kept_list(id: usize, ks: &[u32], n: u32) {
        assert!(!ks.is_empty());
        assert_eq!(ks[0], 0, "trajectory {id} must keep its first point");
        assert_eq!(
            *ks.last().unwrap(),
            n - 1,
            "trajectory {id} must keep its last point"
        );
        assert!(
            ks.windows(2).all(|w| w[0] < w[1]),
            "kept indices must be strictly sorted"
        );
    }

    /// Number of trajectories.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.kept.len()
    }

    /// True when the simplification covers no trajectories.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.kept.is_empty()
    }

    /// Kept indices of one trajectory.
    #[inline]
    #[must_use]
    pub fn kept(&self, id: TrajId) -> &[u32] {
        &self.kept[id]
    }

    /// Total number of retained points (the quantity bounded by the storage
    /// budget `W`).
    #[inline]
    #[must_use]
    pub fn total_points(&self) -> usize {
        debug_assert_eq!(self.total, self.kept.iter().map(Vec::len).sum::<usize>());
        self.total
    }

    /// True when point `idx` of trajectory `id` is retained.
    #[must_use]
    pub fn contains(&self, id: TrajId, idx: u32) -> bool {
        self.kept[id].binary_search(&idx).is_ok()
    }

    /// Inserts point `idx` of trajectory `id` into the simplification.
    /// Returns `false` when it was already present.
    pub fn insert(&mut self, id: TrajId, idx: u32) -> bool {
        match self.kept[id].binary_search(&idx) {
            Ok(_) => false,
            Err(pos) => {
                self.kept[id].insert(pos, idx);
                self.total += 1;
                true
            }
        }
    }

    /// Removes point `idx` of trajectory `id`. Endpoints cannot be removed.
    /// Returns `false` when the point was not present or is an endpoint.
    pub fn remove(&mut self, id: TrajId, idx: u32) -> bool {
        let ks = &mut self.kept[id];
        if ks.len() <= 2 {
            return false;
        }
        match ks.binary_search(&idx) {
            Ok(pos) if pos != 0 && pos != ks.len() - 1 => {
                ks.remove(pos);
                self.total -= 1;
                true
            }
            _ => false,
        }
    }

    /// The *anchor segment* of original point `idx` in trajectory `id`: the
    /// pair of kept indices `(s_j, s_{j+1})` with `s_j ≤ idx ≤ s_{j+1}`.
    /// For a kept interior point the anchor brackets it as `(prev, next)`
    /// of its own position only when `idx` itself is *not* kept; for kept
    /// points the anchor is `(idx, idx)` conceptually — callers that need
    /// the bracketing kept neighbours of a *kept* point should use
    /// [`Simplification::kept_neighbors`].
    #[must_use]
    pub fn anchor(&self, id: TrajId, idx: u32) -> (u32, u32) {
        let ks = &self.kept[id];
        match ks.binary_search(&idx) {
            Ok(pos) => (ks[pos], ks[pos]),
            Err(pos) => {
                debug_assert!(pos > 0 && pos < ks.len(), "endpoints are always kept");
                (ks[pos - 1], ks[pos])
            }
        }
    }

    /// For a *kept* point at `idx`, the kept indices immediately before and
    /// after it (used by Bottom-Up to evaluate the error of dropping it).
    /// Returns `None` for endpoints or non-kept points.
    #[must_use]
    pub fn kept_neighbors(&self, id: TrajId, idx: u32) -> Option<(u32, u32)> {
        let ks = &self.kept[id];
        match ks.binary_search(&idx) {
            Ok(pos) if pos > 0 && pos + 1 < ks.len() => Some((ks[pos - 1], ks[pos + 1])),
            _ => None,
        }
    }

    /// True when the simplification keeps every point of `db` (cheap
    /// total-count check: kept lists are sorted subsets, so count equality
    /// implies identity).
    #[must_use]
    pub fn is_full(&self, total_points: usize) -> bool {
        self.total_points() == total_points
    }

    /// Row-form forward of [`Simplification::materialize_store`], kept for
    /// callers that hold a builder.
    #[must_use]
    pub fn materialize(&self, db: &TrajectoryDb) -> TrajectoryDb {
        self.materialize_store(&db.to_store()).to_db()
    }

    /// Materializes the simplified database `D'`: a straight gather over
    /// the store's columns (no per-trajectory re-validation, no
    /// `Vec<Point>` intermediaries). The identity simplification
    /// short-circuits to a column clone.
    #[must_use]
    pub fn materialize_store(&self, store: &PointStore) -> PointStore {
        store.gather(self)
    }

    /// The simplification as a bitmap over the store's global point ids —
    /// the representation query execution consumes (`contains` becomes one
    /// mask test instead of a per-trajectory binary search).
    #[must_use]
    pub fn to_bitmap<S: AsColumns + ?Sized>(&self, store: &S) -> KeptBitmap {
        debug_assert_eq!(self.kept.len(), store.len());
        let mut bitmap = KeptBitmap::zeros(store.total_points());
        for (id, ks) in self.kept.iter().enumerate() {
            let base = store.offsets()[id];
            for &idx in ks {
                bitmap.insert(base + idx);
            }
        }
        bitmap
    }

    /// Per-trajectory compression ratios `|T'| / |T|` (diagnostics for the
    /// paper's "uniform compression ratio" discussion). The fully-kept
    /// case short-circuits to all-ones.
    #[must_use]
    pub fn compression_ratios<S: AsColumns + ?Sized>(&self, store: &S) -> Vec<f64> {
        if self.is_full(store.total_points()) {
            return vec![1.0; self.kept.len()];
        }
        self.kept
            .iter()
            .zip(store.views())
            .map(|(ks, v)| ks.len() as f64 / v.len() as f64)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point;

    fn db() -> TrajectoryDb {
        let t1 = Trajectory::new(
            (0..5)
                .map(|i| Point::new(i as f64, 0.0, i as f64))
                .collect(),
        )
        .unwrap();
        let t2 = Trajectory::new(
            (0..3)
                .map(|i| Point::new(0.0, i as f64, i as f64))
                .collect(),
        )
        .unwrap();
        TrajectoryDb::new(vec![t1, t2])
    }

    fn store() -> PointStore {
        db().to_store()
    }

    #[test]
    fn counts_match() {
        let db = db();
        assert_eq!(db.len(), 2);
        assert_eq!(db.total_points(), 8);
    }

    #[test]
    fn most_simplified_keeps_endpoints() {
        let s = Simplification::most_simplified_store(&store());
        assert_eq!(s.total_points(), 4);
        assert_eq!(s.kept(0), &[0, 4]);
        assert_eq!(s.kept(1), &[0, 2]);
    }

    #[test]
    fn insert_and_contains() {
        let mut s = Simplification::most_simplified_store(&store());
        assert!(s.insert(0, 2));
        assert!(!s.insert(0, 2), "double insert must be rejected");
        assert!(s.contains(0, 2));
        assert!(!s.contains(0, 3));
        assert_eq!(s.kept(0), &[0, 2, 4]);
    }

    #[test]
    fn anchor_brackets_missing_points() {
        let mut s = Simplification::most_simplified_store(&store());
        assert_eq!(s.anchor(0, 2), (0, 4));
        s.insert(0, 2);
        assert_eq!(s.anchor(0, 1), (0, 2));
        assert_eq!(s.anchor(0, 3), (2, 4));
        // Kept point anchors to itself.
        assert_eq!(s.anchor(0, 2), (2, 2));
    }

    #[test]
    fn kept_neighbors_only_for_interior_kept_points() {
        let mut s = Simplification::most_simplified_store(&store());
        s.insert(0, 2);
        assert_eq!(s.kept_neighbors(0, 2), Some((0, 4)));
        assert_eq!(s.kept_neighbors(0, 0), None);
        assert_eq!(s.kept_neighbors(0, 4), None);
        assert_eq!(s.kept_neighbors(0, 3), None);
    }

    #[test]
    fn remove_protects_endpoints() {
        let mut s = Simplification::most_simplified_store(&store());
        s.insert(0, 2);
        assert!(!s.remove(0, 0));
        assert!(!s.remove(0, 4));
        assert!(s.remove(0, 2));
        assert_eq!(s.kept(0), &[0, 4]);
        assert!(!s.remove(0, 2), "already gone");
    }

    #[test]
    fn total_points_follows_every_constructor_and_edit() {
        let store = store();
        let summed = |s: &Simplification| (0..s.len()).map(|id| s.kept(id).len()).sum::<usize>();
        let from_kept = Simplification::from_kept_store(&store, vec![vec![0, 1, 3, 4], vec![0, 2]]);
        assert_eq!(from_kept.total_points(), 6);
        assert_eq!(Simplification::full_store(&store).total_points(), 8);
        let single = TrajectoryDb::new(vec![
            Trajectory::new(vec![Point::new(0.0, 0.0, 0.0)]).unwrap()
        ]);
        let single = Simplification::most_simplified_store(&single.to_store());
        assert_eq!(single.total_points(), 1);

        let mut s = Simplification::most_simplified_store(&store);
        assert_eq!(s.total_points(), 4);
        let edits: [(bool, TrajId, u32, bool, usize); 8] = [
            (true, 0, 2, true, 5),
            (true, 0, 2, false, 5), // duplicate insert
            (true, 1, 1, true, 6),
            (false, 0, 0, false, 6), // endpoint remove
            (false, 0, 4, false, 6),
            (false, 0, 3, false, 6), // not kept
            (false, 0, 2, true, 5),
            (false, 1, 1, true, 4),
        ];
        for (insert, id, idx, changed, total) in edits {
            let did = if insert {
                s.insert(id, idx)
            } else {
                s.remove(id, idx)
            };
            assert_eq!(did, changed, "insert {insert} ({id}, {idx})");
            assert_eq!(s.total_points(), total, "insert {insert} ({id}, {idx})");
            assert_eq!(s.total_points(), summed(&s));
            assert!(!s.is_full(8));
        }
        assert_eq!(s, Simplification::most_simplified_store(&store));
        assert_eq!(s.clone().total_points(), summed(&s));
    }

    #[test]
    fn materialize_builds_sub_trajectories() {
        let db = db();
        let mut s = Simplification::most_simplified_store(&db.to_store());
        s.insert(0, 2);
        let simplified = s.materialize(&db);
        assert_eq!(simplified.get(0).len(), 3);
        assert_eq!(simplified.get(0).point(1).x, 2.0);
        assert_eq!(simplified.get(1).len(), 2);
    }

    #[test]
    fn full_simplification_is_identity() {
        let db = db();
        let s = Simplification::full_store(&db.to_store());
        assert_eq!(s.total_points(), db.total_points());
        let m = s.materialize(&db);
        assert_eq!(m.get(0).points(), db.get(0).points());
    }

    #[test]
    fn compression_ratios_per_trajectory() {
        let store = store();
        let s = Simplification::most_simplified_store(&store);
        let r = s.compression_ratios(&store);
        assert_eq!(r, vec![2.0 / 5.0, 2.0 / 3.0]);
        let full = Simplification::full_store(&store);
        assert_eq!(full.compression_ratios(&store), vec![1.0, 1.0]);
    }

    #[test]
    fn bitmap_agrees_with_contains() {
        let db = db();
        let store = db.to_store();
        let mut s = Simplification::most_simplified_store(&store);
        s.insert(0, 2);
        let bitmap = s.to_bitmap(&store);
        for (id, t) in db.iter() {
            for idx in 0..t.len() as u32 {
                assert_eq!(
                    bitmap.contains(store.global_id(id, idx)),
                    s.contains(id, idx),
                    "traj {id} idx {idx}"
                );
            }
        }
        assert_eq!(bitmap.count(), s.total_points());
    }

    #[test]
    fn materialize_store_is_a_gather() {
        let db = db();
        let store = db.to_store();
        let mut s = Simplification::most_simplified_store(&store);
        s.insert(0, 2);
        let gathered = s.materialize_store(&store);
        let materialized = s.materialize(&db);
        assert_eq!(
            gathered.to_db().get(0).points(),
            materialized.get(0).points()
        );
        // Fully-kept fast path is the identity.
        assert_eq!(
            Simplification::full_store(&store).materialize_store(&store),
            store
        );
    }

    #[test]
    fn split_at_partitions() {
        let (a, b) = db().split_at(1);
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
        assert_eq!(a.get(0).len(), 5);
        assert_eq!(b.get(0).len(), 3);
    }
}
