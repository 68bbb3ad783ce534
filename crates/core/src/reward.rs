//! The shared delayed reward (§IV-B, Eq. 10).
//!
//! Every `Δ` insertions the training loop measures
//! `R = diff(Q(D), Q(D'_before)) − diff(Q(D), Q(D'_after))` over a range-
//! query workload, where `diff` is `1 − mean F1` (results on the original
//! database are the ground truth). The telescoping argument of Eq. 11 makes
//! maximizing ΣR equivalent to minimizing the final query-result
//! difference — the QDTS objective itself.
//!
//! Execution goes through a [`traj_query::QueryEngine`]: the ground truth
//! `Q(D)` is computed once with index pruning, and the simplification's
//! results are *maintained* as points are inserted
//! ([`traj_query::MaintainedWorkload`]) — closing a reward window is O(W)
//! counter reads instead of a full workload rescan.

use traj_query::{QueryEngine, QueryExecutor};
use trajectory::{AsColumns, Cube, Point, Simplification, TrajId};

/// Evaluates range queries against a simplification *without*
/// materializing the simplified database: a trajectory matches when one of
/// its kept points falls inside the query cube.
///
/// This is the linear-scan reference semantic;
/// [`QueryExecutor::range_simplified`] executes the same query with index
/// pruning.
#[must_use]
pub fn range_query_simplified<S: AsColumns + ?Sized>(
    store: &S,
    simp: &Simplification,
    q: &Cube,
) -> Vec<TrajId> {
    store
        .iter()
        .filter(|(id, v)| {
            simp.kept(*id)
                .iter()
                .any(|&idx| q.contains(&v.point(idx as usize)))
        })
        .map(|(id, _)| id)
        .collect()
}

/// Tracks `diff(Q(D), Q(D'))` across training and emits window rewards.
///
/// The tracker is fed every insertion through [`RewardTracker::on_insert`],
/// so the current difference is always available in O(W) from maintained
/// counters; [`RewardTracker::window_reward`] never touches the database.
#[derive(Debug, Clone)]
pub struct RewardTracker {
    workload: traj_query::MaintainedWorkload,
    last_diff: f64,
}

impl RewardTracker {
    /// Computes the ground truth `Q(D)` for the workload through `engine`
    /// and initializes the running difference against `simp` (usually the
    /// most simplified database, making the first window's baseline the
    /// constant `C` of Eq. 11).
    #[must_use]
    pub fn new(engine: &QueryEngine<'_>, queries: Vec<Cube>, simp: &Simplification) -> Self {
        let workload = engine.maintained_workload(queries, simp);
        let last_diff = workload.diff();
        Self {
            workload,
            last_diff,
        }
    }

    /// Number of workload queries.
    #[must_use]
    pub fn num_queries(&self) -> usize {
        self.workload.len()
    }

    /// Records that point `idx` of trajectory `traj`, located at `p`, was
    /// inserted into the simplification.
    pub fn on_insert(&mut self, traj: TrajId, p: &Point) {
        self.workload.insert(traj, p);
    }

    /// The current `diff(Q(D), Q(D'))` of the tracked simplification, from
    /// maintained counters (no database access).
    #[must_use]
    pub fn diff(&self) -> f64 {
        self.workload.diff()
    }

    /// `diff(Q(D), Q(D'))` for an *arbitrary* simplification of the same
    /// database, recomputed from scratch through `executor` (any layout
    /// over the same trajectories). Useful for scoring unrelated
    /// simplifications against the tracker's ground truth.
    #[must_use]
    pub fn diff_of(&self, executor: &impl QueryExecutor, simp: &Simplification) -> f64 {
        self.workload.diff_of(executor, simp)
    }

    /// Closes a reward window (Eq. 10): returns
    /// `R = diff_before − diff_now` and makes `diff_now` the new baseline.
    /// Positive when the window's insertions improved query accuracy.
    pub fn window_reward(&mut self) -> f64 {
        let now = self.workload.diff();
        let r = self.last_diff - now;
        self.last_diff = now;
        r
    }

    /// The current baseline difference.
    #[must_use]
    pub fn last_diff(&self) -> f64 {
        self.last_diff
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traj_query::EngineConfig;
    use trajectory::{Point, PointStore, Trajectory, TrajectoryDb};

    /// A trajectory passing through the query box only at its midpoint.
    fn db() -> PointStore {
        let t = Trajectory::new(vec![
            Point::new(0.0, 0.0, 0.0),
            Point::new(50.0, 0.0, 50.0),
            Point::new(100.0, 0.0, 100.0),
        ])
        .unwrap();
        let far = Trajectory::new(vec![
            Point::new(1000.0, 1000.0, 0.0),
            Point::new(1000.0, 1000.0, 100.0),
        ])
        .unwrap();
        TrajectoryDb::new(vec![t, far]).to_store()
    }

    fn mid_query() -> Cube {
        Cube::centered(50.0, 0.0, 50.0, 5.0, 5.0, 5.0)
    }

    /// Inserts into both the simplification and the tracker.
    fn insert(
        tracker: &mut RewardTracker,
        db: &PointStore,
        simp: &mut Simplification,
        id: usize,
        idx: u32,
    ) {
        if simp.insert(id, idx) {
            tracker.on_insert(id, &db.view(id).point(idx as usize));
        }
    }

    #[test]
    fn simplified_query_sees_only_kept_points() {
        let db = db();
        let simp = Simplification::most_simplified_store(&db);
        // Endpoints only: the midpoint hit is lost.
        assert!(range_query_simplified(&db, &simp, &mid_query()).is_empty());
        let mut richer = simp.clone();
        richer.insert(0, 1);
        assert_eq!(range_query_simplified(&db, &richer, &mid_query()), vec![0]);
        // The engine's pruned execution agrees.
        let engine = QueryEngine::over_store(&db, EngineConfig::octree());
        assert_eq!(engine.range_simplified(&richer, &mid_query()), vec![0]);
        assert!(engine.range_simplified(&simp, &mid_query()).is_empty());
    }

    #[test]
    fn reward_is_positive_when_accuracy_improves() {
        let db = db();
        let engine = QueryEngine::over_store(&db, EngineConfig::octree());
        let mut simp = Simplification::most_simplified_store(&db);
        let mut tracker = RewardTracker::new(&engine, vec![mid_query()], &simp);
        assert!(tracker.last_diff() > 0.99, "endpoints miss the query");
        insert(&mut tracker, &db, &mut simp, 0, 1);
        let r = tracker.window_reward();
        assert!(r > 0.99, "restoring the hit should earn ~1.0, got {r}");
        assert!(tracker.last_diff() < 1e-9);
    }

    #[test]
    fn useless_insertions_earn_zero() {
        let db = db();
        let engine = QueryEngine::over_store(&db, EngineConfig::octree());
        let mut simp = Simplification::most_simplified_store(&db);
        let mut tracker = RewardTracker::new(&engine, vec![mid_query()], &simp);
        let before = tracker.last_diff();
        // Inserting a point of the far trajectory changes nothing.
        insert(&mut tracker, &db, &mut simp, 1, 0);
        let r = tracker.window_reward();
        assert_eq!(r, 0.0);
        assert_eq!(tracker.last_diff(), before);
    }

    #[test]
    fn rewards_telescope_to_total_improvement() {
        // Eq. 11: the sum of window rewards equals initial minus final diff.
        let db = db();
        let engine = QueryEngine::over_store(&db, EngineConfig::octree());
        let mut simp = Simplification::most_simplified_store(&db);
        let mut tracker = RewardTracker::new(&engine, vec![mid_query()], &simp);
        let initial = tracker.last_diff();
        let mut total = 0.0;
        insert(&mut tracker, &db, &mut simp, 1, 0);
        total += tracker.window_reward();
        insert(&mut tracker, &db, &mut simp, 0, 1);
        total += tracker.window_reward();
        let final_diff = tracker.last_diff();
        assert!((total - (initial - final_diff)).abs() < 1e-12);
    }

    #[test]
    fn maintained_diff_equals_scratch_recomputation() {
        let db = db();
        let engine = QueryEngine::over_store(&db, EngineConfig::octree());
        let mut simp = Simplification::most_simplified_store(&db);
        let mut tracker = RewardTracker::new(&engine, vec![mid_query(), db.bounding_cube()], &simp);
        assert!((tracker.diff() - tracker.diff_of(&engine, &simp)).abs() < 1e-12);
        insert(&mut tracker, &db, &mut simp, 0, 1);
        assert!((tracker.diff() - tracker.diff_of(&engine, &simp)).abs() < 1e-12);
    }

    #[test]
    fn empty_workload_is_neutral() {
        let db = db();
        let engine = QueryEngine::over_store(&db, EngineConfig::octree());
        let simp = Simplification::most_simplified_store(&db);
        let mut tracker = RewardTracker::new(&engine, vec![], &simp);
        assert_eq!(tracker.last_diff(), 0.0);
        assert_eq!(tracker.window_reward(), 0.0);
    }
}
