//! Trajectory similarity join (extension).
//!
//! The paper's introduction motivates simplification with applications
//! like "identifying ridesharing candidates", and the evaluation
//! methodology it follows (Zhang et al., PVLDB'18) includes a join
//! operator. This module provides it: find all pairs of trajectories that
//! travel within δ of each other for a sufficient stretch of *common*
//! time. Like the similarity query, the join interpolates synchronized
//! positions, so it runs identically on original and simplified databases.

use trajectory::{AsColumns, Cube, PointSeq, TrajId};

/// Parameters of a trajectory similarity join.
#[derive(Debug, Clone, Copy)]
pub struct JoinParams {
    /// Distance threshold δ (meters): pairs must stay within δ.
    pub delta: f64,
    /// Minimum temporal overlap (seconds) for a pair to be considered.
    pub min_overlap: f64,
    /// Synchronization step (seconds) for the "at all times" check.
    pub step: f64,
}

impl Default for JoinParams {
    fn default() -> Self {
        Self {
            delta: 1_000.0,
            min_overlap: 300.0,
            step: 60.0,
        }
    }
}

/// Self-join: all unordered pairs `(i, j)`, `i < j`, whose trajectories
/// overlap for at least `min_overlap` seconds and stay within `delta`
/// throughout the overlap. Pairs are returned sorted.
pub fn similarity_join<S: AsColumns + ?Sized>(
    store: &S,
    params: &JoinParams,
) -> Vec<(TrajId, TrajId)> {
    let mut out = Vec::new();
    // Precompute bounding cubes once: cheap pair pruning.
    let cubes: Vec<Cube> = store.views().map(|v| v.bounding_cube()).collect();
    for i in 0..store.len() {
        for j in i + 1..store.len() {
            // Spatial prune: expand one box by δ and require intersection.
            let mut grown = cubes[i];
            grown.x_min -= params.delta;
            grown.x_max += params.delta;
            grown.y_min -= params.delta;
            grown.y_max += params.delta;
            if !grown.intersects(&cubes[j]) {
                continue;
            }
            if pair_matches(&store.view(i), &store.view(j), params) {
                out.push((i, j));
            }
        }
    }
    out
}

/// True when the pair overlaps long enough and stays within δ.
pub fn pair_matches<A: PointSeq + ?Sized, B: PointSeq + ?Sized>(
    a: &A,
    b: &B,
    params: &JoinParams,
) -> bool {
    let (a0, a1) = a.seq_time_span();
    let (b0, b1) = b.seq_time_span();
    let lo = a0.max(b0);
    let hi = a1.min(b1);
    if hi - lo < params.min_overlap {
        return false;
    }
    let close_at =
        |t: f64| a.seq_position_at(t).spatial_distance(&b.seq_position_at(t)) <= params.delta;
    // Regular grid plus both trajectories' own samples inside the overlap.
    let step = if params.step > 0.0 {
        params.step
    } else {
        (hi - lo) / 16.0
    };
    let mut t = lo;
    while t < hi {
        if !close_at(t) {
            return false;
        }
        t += step;
    }
    sample_times(a, lo, hi)
        .chain(sample_times(b, lo, hi))
        .all(close_at)
        && close_at(hi)
}

/// The sample times of `s` inside `[lo, hi]`.
fn sample_times<S: PointSeq + ?Sized>(s: &S, lo: f64, hi: f64) -> impl Iterator<Item = f64> + '_ {
    s.seq_window_indices(lo, hi)
        .into_iter()
        .flat_map(move |(i, j)| (i..=j).map(move |k| s.point_at(k).t))
}

#[cfg(test)]
mod tests {
    use super::*;
    use trajectory::{Point, PointStore, Trajectory, TrajectoryDb};

    fn store_of(trajectories: Vec<Trajectory>) -> PointStore {
        TrajectoryDb::new(trajectories).to_store()
    }

    fn line(y: f64, t0: f64, n: usize) -> Trajectory {
        Trajectory::new(
            (0..n)
                .map(|i| Point::new(i as f64 * 100.0, y, t0 + i as f64 * 60.0))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn parallel_companions_join() {
        // Two vehicles driving the same road 200 m apart, same schedule.
        let store = store_of(vec![line(0.0, 0.0, 20), line(200.0, 0.0, 20)]);
        let pairs = similarity_join(&store, &JoinParams::default());
        assert_eq!(pairs, vec![(0, 1)]);
    }

    #[test]
    fn distant_trajectories_do_not_join() {
        let store = store_of(vec![line(0.0, 0.0, 20), line(50_000.0, 0.0, 20)]);
        assert!(similarity_join(&store, &JoinParams::default()).is_empty());
    }

    #[test]
    fn temporally_disjoint_trajectories_do_not_join() {
        // Same road, but hours apart.
        let store = store_of(vec![line(0.0, 0.0, 20), line(100.0, 1e6, 20)]);
        assert!(similarity_join(&store, &JoinParams::default()).is_empty());
    }

    #[test]
    fn short_overlap_is_rejected() {
        let a = line(0.0, 0.0, 20); // spans [0, 1140]
        let b = line(100.0, 1100.0, 20); // overlap of only 40 s
        let store = store_of(vec![a, b]);
        let params = JoinParams {
            min_overlap: 300.0,
            ..JoinParams::default()
        };
        assert!(similarity_join(&store, &params).is_empty());
    }

    #[test]
    fn mid_route_divergence_breaks_the_pair() {
        let a = line(0.0, 0.0, 20);
        // Starts close, veers 5 km away at the midpoint, then comes back.
        let mut pts = Vec::new();
        for i in 0..20 {
            let y = if (8..12).contains(&i) { 5_000.0 } else { 150.0 };
            pts.push(Point::new(i as f64 * 100.0, y, i as f64 * 60.0));
        }
        let b = Trajectory::new(pts).unwrap();
        let store = store_of(vec![a, b]);
        assert!(similarity_join(&store, &JoinParams::default()).is_empty());
    }

    #[test]
    fn join_shrinks_under_aggressive_simplification() {
        // Two wiggly companions: endpoint-only simplification straightens
        // one of them, pulling the pair apart mid-route.
        let mut pa = Vec::new();
        let mut pb = Vec::new();
        for i in 0..30 {
            let wiggle = if i % 2 == 0 { 0.0 } else { 800.0 };
            pa.push(Point::new(i as f64 * 100.0, wiggle, i as f64 * 60.0));
            pb.push(Point::new(
                i as f64 * 100.0,
                wiggle + 100.0,
                i as f64 * 60.0,
            ));
        }
        let a = Trajectory::new(pa).unwrap();
        let b = Trajectory::new(pb).unwrap();
        let store = store_of(vec![a.clone(), b.clone()]);
        let params = JoinParams {
            delta: 500.0,
            min_overlap: 300.0,
            step: 30.0,
        };
        assert_eq!(similarity_join(&store, &params), vec![(0, 1)]);

        // Simplify trajectory 1 to its endpoints: a straight line that the
        // wiggling partner departs from by ~800 m.
        let simplified_b = Trajectory::new(vec![*b.first(), *b.last()]).unwrap();
        let simplified = store_of(vec![a, simplified_b]);
        assert!(similarity_join(&simplified, &params).is_empty());
    }

    #[test]
    fn pairs_are_sorted_and_unique() {
        let store = store_of(vec![
            line(0.0, 0.0, 20),
            line(100.0, 0.0, 20),
            line(200.0, 0.0, 20),
        ]);
        let pairs = similarity_join(&store, &JoinParams::default());
        assert_eq!(pairs, vec![(0, 1), (0, 2), (1, 2)]);
    }
}
