//! Range queries (§III-B).
//!
//! A range query is a spatio-temporal cube; it returns every trajectory
//! with at least one *sampled* point inside the cube. Running the same
//! query over the original and the simplified database and comparing the
//! result sets is the core accuracy signal of the paper (both for training
//! rewards and for evaluation).

use trajectory::{AsColumns, Cube, PointSeq, TrajId, TrajView};

/// Executes a range query by linear scan, returning matching trajectory
/// ids in ascending order.
///
/// This is the **scan reference** every executor is checked against — the
/// engine for each index backend, the sharded, generational and remote
/// executors, and the SIMD kernels. It is deliberately plain scalar code
/// over [`PointSeq`] and shares no kernel with what it checks: in
/// particular it never calls [`trajectory::simd`], which [`view_matches`]
/// and the engine's `Scan` backend use. Production code should prefer
/// [`QueryExecutor::range`](crate::QueryExecutor::range) on a
/// [`QueryEngine`](crate::QueryEngine), which prunes through an index and
/// returns identical results.
#[must_use]
pub fn range_query_store<S: AsColumns + ?Sized>(store: &S, q: &Cube) -> Vec<TrajId> {
    store
        .iter()
        .filter(|(_, v)| trajectory_matches(v, q))
        .map(|(id, _)| id)
        .collect()
}

/// True when `t` has at least one sampled point inside `q` — the scalar
/// reference predicate. Uses the time dimension to narrow the scan before
/// testing the spatial predicate point by point.
#[must_use]
pub fn trajectory_matches<S: PointSeq + ?Sized>(t: &S, q: &Cube) -> bool {
    match t.seq_window_indices(q.t_min, q.t_max) {
        None => false,
        Some((lo, hi)) => (lo..=hi).any(|i| {
            let p = t.point_at(i);
            p.x >= q.x_min && p.x <= q.x_max && p.y >= q.y_min && p.y <= q.y_max
        }),
    }
}

/// [`trajectory_matches`] as the serving path runs it: the time window is
/// narrowed on the contiguous `ts` column, then the surviving x/y/t runs
/// go through the lane-wide containment kernel
/// ([`trajectory::simd::any_in_cube`]).
#[must_use]
pub fn view_matches(v: TrajView<'_>, q: &Cube) -> bool {
    match v.window_indices(q.t_min, q.t_max) {
        None => false,
        Some((lo, hi)) => {
            trajectory::simd::any_in_cube(&v.xs[lo..=hi], &v.ys[lo..=hi], &v.ts[lo..=hi], q)
        }
    }
}

/// Executes a batch of range queries (the result of one workload) by
/// linear scan — the reference for
/// [`QueryExecutor::range_batch`](crate::QueryExecutor::range_batch), which
/// spreads queries across cores and prunes each through the index.
#[must_use]
pub fn range_query_batch<S: AsColumns + ?Sized>(store: &S, queries: &[Cube]) -> Vec<Vec<TrajId>> {
    queries
        .iter()
        .map(|q| range_query_store(store, q))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use trajectory::{Point, PointStore, Trajectory, TrajectoryDb};

    fn store() -> PointStore {
        let east = Trajectory::new(
            (0..10)
                .map(|i| Point::new(i as f64 * 10.0, 0.0, i as f64))
                .collect(),
        )
        .unwrap();
        let north = Trajectory::new(
            (0..10)
                .map(|i| Point::new(0.0, i as f64 * 10.0, i as f64 + 100.0))
                .collect(),
        )
        .unwrap();
        TrajectoryDb::new(vec![east, north]).to_store()
    }

    #[test]
    fn finds_spatially_and_temporally_matching_trajectories() {
        let store = store();
        // Around (50, 0) at times 0..10: only the eastbound trajectory.
        let q = Cube::new(45.0, 55.0, -1.0, 1.0, 0.0, 10.0);
        assert_eq!(range_query_store(&store, &q), vec![0]);
        // Around (0, 50) at times 100..110: only the northbound one.
        let q = Cube::new(-1.0, 1.0, 45.0, 55.0, 100.0, 110.0);
        assert_eq!(range_query_store(&store, &q), vec![1]);
    }

    #[test]
    fn time_window_filters_even_when_space_matches() {
        // Space matches the eastbound path but the time window is wrong.
        let q = Cube::new(45.0, 55.0, -1.0, 1.0, 500.0, 600.0);
        assert!(range_query_store(&store(), &q).is_empty());
    }

    #[test]
    fn whole_space_returns_everything() {
        let store = store();
        let q = store.bounding_cube();
        assert_eq!(range_query_store(&store, &q), vec![0, 1]);
    }

    #[test]
    fn matches_are_point_based_not_interpolated() {
        // A gap between samples: the object "passed through" the box between
        // fixes but no sample lies inside => no match. This is the
        // simplification-sensitive semantics the paper measures.
        let t = Trajectory::new(vec![
            Point::new(0.0, 0.0, 0.0),
            Point::new(100.0, 0.0, 10.0),
        ])
        .unwrap();
        let q = Cube::new(40.0, 60.0, -1.0, 1.0, 0.0, 10.0);
        assert!(!trajectory_matches(&t, &q));
        assert!(range_query_store(&TrajectoryDb::new(vec![t]).to_store(), &q).is_empty());
    }

    #[test]
    fn batch_matches_single_queries() {
        let store = store();
        let qs = vec![
            Cube::new(45.0, 55.0, -1.0, 1.0, 0.0, 10.0),
            store.bounding_cube(),
        ];
        let batch = range_query_batch(&store, &qs);
        assert_eq!(batch[0], range_query_store(&store, &qs[0]));
        assert_eq!(batch[1], range_query_store(&store, &qs[1]));
    }

    #[test]
    fn simd_predicate_agrees_with_the_scalar_reference() {
        let store = store();
        for q in [
            Cube::new(45.0, 55.0, -1.0, 1.0, 0.0, 10.0),
            Cube::new(-1.0, 1.0, 45.0, 55.0, 100.0, 110.0),
            Cube::new(45.0, 55.0, -1.0, 1.0, 500.0, 600.0),
            store.bounding_cube(),
        ] {
            for v in store.views() {
                assert_eq!(view_matches(v, &q), trajectory_matches(&v, &q));
            }
        }
    }
}
