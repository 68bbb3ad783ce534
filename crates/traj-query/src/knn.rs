//! kNN queries over time windows (§III-B).
//!
//! Given a query trajectory `Tq` and a window `[ts, te]`, return the `k`
//! database trajectories whose windowed restriction is closest to `Tq`'s
//! under a dissimilarity Θ — instantiated here with EDR or the t2vec-like
//! embedding (the solution is orthogonal to the choice, as the paper
//! notes).

use crate::edr::edr_seq;
use crate::t2vec::T2vecEmbedder;
use trajectory::{AsColumns, Point, PointSeq, TrajId, TrajView, Trajectory};

/// The dissimilarity Θ used by a kNN query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Dissimilarity {
    /// Edit Distance on Real sequence with matching tolerance ε (meters).
    Edr {
        /// Matching tolerance (paper: 2 km).
        eps: f64,
    },
    /// t2vec-like embedding distance.
    T2vec(T2vecEmbedder),
}

impl Dissimilarity {
    /// The paper's EDR configuration (ε = 2 km).
    pub fn edr_paper() -> Self {
        Dissimilarity::Edr { eps: 2_000.0 }
    }

    /// The default t2vec-like configuration.
    pub fn t2vec_default() -> Self {
        Dissimilarity::T2vec(T2vecEmbedder::default())
    }

    /// Short name as used in figure captions.
    pub fn name(&self) -> &'static str {
        match self {
            Dissimilarity::Edr { .. } => "EDR",
            Dissimilarity::T2vec(_) => "t2vec",
        }
    }

    /// Distance between two windowed point sequences (any layout).
    pub(crate) fn distance_seq<A: PointSeq + ?Sized, B: PointSeq + ?Sized>(
        &self,
        a: &A,
        b: &B,
    ) -> f64 {
        match self {
            Dissimilarity::Edr { eps } => edr_seq(a, b, *eps),
            Dissimilarity::T2vec(e) => T2vecEmbedder::distance(&e.embed_seq(a), &e.embed_seq(b)),
        }
    }
}

/// A kNN query instance.
#[derive(Debug, Clone, PartialEq)]
pub struct KnnQuery {
    /// The query trajectory (not required to be in the database).
    pub query: Trajectory,
    /// Window start.
    pub ts: f64,
    /// Window end.
    pub te: f64,
    /// Number of neighbours to return.
    pub k: usize,
    /// Dissimilarity measure Θ.
    pub measure: Dissimilarity,
}

impl KnnQuery {
    /// Executes the query by linear scan over columnar storage (anything
    /// [`AsColumns`]), returning the ids of the `k` nearest trajectories
    /// in ascending id order (the F1 comparison is set-based, and sorted
    /// output makes it deterministic). Candidate windows are zero-copy
    /// column sub-views; no `Vec<Point>` is materialized.
    ///
    /// Trajectories with no points in the window rank after all others;
    /// ties break by id, so results are stable across runs.
    pub fn execute_store<S: AsColumns + ?Sized>(&self, store: &S) -> Vec<TrajId> {
        let q_window = self.query_window();
        let scored: Vec<(f64, TrajId)> = store
            .iter()
            .map(|(id, v)| (self.windowed_distance_view(q_window, v), id))
            .collect();
        rank_ids(scored, self.k)
    }

    /// The query trajectory's windowed restriction (empty when the window
    /// misses it entirely). Compute once per query, then feed to
    /// [`KnnQuery::windowed_distance_view`] per candidate.
    pub(crate) fn query_window(&self) -> &[Point] {
        window_points(&self.query, self.ts, self.te)
    }

    /// The samples of the query trajectory this query's answer depends
    /// on: those inside `[ts, te]`, the last one before `ts` and the first
    /// one after `te` where they exist; the first sample alone when that
    /// range is empty (a reversed window); the whole trajectory when `ts`
    /// or `te` is NaN. What the wire carries of a kNN or similarity query
    /// ([`SimilarityQuery::answer_points`](crate::SimilarityQuery::answer_points)
    /// applies the same rule).
    ///
    /// A query rebuilt over these samples, with everything else the same,
    /// answers bit for bit what this one answers:
    ///
    /// - **kNN** reads only the samples inside the window (the query side
    ///   of every windowed distance), and the kept range holds exactly
    ///   those.
    /// - **Similarity** reads three things of its query, and each
    ///   survives. (1) The window clipped to the query's span,
    ///   `[max(ts, t₀), min(te, tₙ)]`: where a sample precedes `ts`, the
    ///   kept neighbour lies below `ts` as `t₀` does and the clip is `ts`
    ///   either way; where none does, `t₀` itself is kept. The same holds
    ///   at `te`, so the `t ≤ first` / `t ≥ last` clamps of interpolation
    ///   act where they did. (2) The query's samples inside the clipped
    ///   window, which lies inside `[ts, te]`. (3) Positions interpolated
    ///   at instants `τ` of the clipped window: the bracketing segment
    ///   runs from the last sample with time `≤ τ` — the neighbour before
    ///   `ts` or a later one — to the first with time `> τ` — the
    ///   neighbour after `te` or an earlier one. Both ends are kept, and
    ///   since the kept samples are a contiguous run and the search picks
    ///   by time, repeated timestamps pick the same pair.
    ///
    /// NaN is the exception: the clip takes `f64::max(NaN, t₀) = t₀`, so a
    /// NaN bound reaches the whole span, while the searches that find the
    /// neighbours would find nothing at or before it.
    #[must_use]
    pub fn answer_points(&self) -> &[Point] {
        answer_points(&self.query, self.ts, self.te)
    }

    /// Distance between the precomputed query window and `v`'s window
    /// (a zero-copy sub-view). This is the single definition of the
    /// empty-window conventions the engine's pruned execution shares with
    /// the scan: both empty → 0, candidate empty → ∞.
    pub(crate) fn windowed_distance_view(&self, q_window: &[Point], v: TrajView<'_>) -> f64 {
        match v.window(self.ts, self.te) {
            None if q_window.is_empty() => 0.0,
            None => f64::INFINITY,
            Some(w) => self.measure.distance_seq(q_window, &w),
        }
    }
}

/// Selects the `k` best `(distance, id)` scores — ordered by
/// `(distance, id)`, so ties are deterministic — and returns their ids
/// ascending (the set-based F1 comparison downstream is
/// order-insensitive). An O(n) `select_nth_unstable_by` partition
/// replaces the former full O(n log n) sort: only the k survivors pay
/// the final (id) sort.
fn rank_ids(mut scored: Vec<(f64, TrajId)>, k: usize) -> Vec<TrajId> {
    if k < scored.len() {
        scored.select_nth_unstable_by(k, |a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.1.cmp(&b.1))
        });
        scored.truncate(k);
    }
    let mut ids: Vec<TrajId> = scored.into_iter().map(|(_, id)| id).collect();
    ids.sort_unstable();
    ids
}

/// The windowed restriction `T[ts, te]` as a point slice (no allocation).
fn window_points(t: &Trajectory, ts: f64, te: f64) -> &[Point] {
    match t.window_indices(ts, te) {
        Some((lo, hi)) => &t.points()[lo..=hi],
        None => &[],
    }
}

/// The samples of `t` an answer over `[ts, te]` reads — the window plus
/// one neighbour on each side; the rule and why it is exact are on
/// [`KnnQuery::answer_points`].
pub(crate) fn answer_points(t: &Trajectory, ts: f64, te: f64) -> &[Point] {
    let pts = t.points();
    if ts.is_nan() || te.is_nan() {
        return pts;
    }
    let lo = pts.partition_point(|p| p.t < ts).saturating_sub(1);
    let hi = (pts.partition_point(|p| p.t <= te) + 1).min(pts.len());
    if lo < hi {
        &pts[lo..hi]
    } else {
        &pts[..1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trajectory::{PointStore, TrajectoryDb};

    fn traj(coords: &[(f64, f64)], t0: f64) -> Trajectory {
        Trajectory::new(
            coords
                .iter()
                .enumerate()
                .map(|(i, &(x, y))| Point::new(x, y, t0 + i as f64))
                .collect(),
        )
        .unwrap()
    }

    fn store() -> PointStore {
        TrajectoryDb::new(vec![
            traj(&[(0.0, 0.0), (100.0, 0.0), (200.0, 0.0)], 0.0), // 0: east low
            traj(&[(0.0, 50.0), (100.0, 50.0), (200.0, 50.0)], 0.0), // 1: east mid
            traj(&[(0.0, 9e5), (100.0, 9e5), (200.0, 9e5)], 0.0), // 2: far away
            traj(&[(0.0, 0.0), (100.0, 0.0)], 1e6),               // 3: wrong time
        ])
        .to_store()
    }

    #[test]
    fn knn_edr_returns_nearest_ids() {
        let q = KnnQuery {
            query: traj(&[(0.0, 10.0), (100.0, 10.0), (200.0, 10.0)], 0.0),
            ts: 0.0,
            te: 10.0,
            k: 2,
            measure: Dissimilarity::Edr { eps: 100.0 },
        };
        assert_eq!(q.execute_store(&store()), vec![0, 1]);
    }

    #[test]
    fn knn_t2vec_returns_nearest_ids() {
        let q = KnnQuery {
            query: traj(&[(0.0, 10.0), (100.0, 10.0), (200.0, 10.0)], 0.0),
            ts: 0.0,
            te: 10.0,
            k: 2,
            measure: Dissimilarity::t2vec_default(),
        };
        let r = q.execute_store(&store());
        assert_eq!(r.len(), 2);
        assert!(r.contains(&0) || r.contains(&1));
        assert!(!r.contains(&2), "far trajectory must not be a neighbour");
    }

    #[test]
    fn out_of_window_trajectories_rank_last() {
        let q = KnnQuery {
            query: traj(&[(0.0, 0.0), (100.0, 0.0)], 0.0),
            ts: 0.0,
            te: 10.0,
            k: 3,
            measure: Dissimilarity::Edr { eps: 100.0 },
        };
        let r = q.execute_store(&store());
        assert!(!r.contains(&3), "trajectory outside the window: {r:?}");
    }

    #[test]
    fn k_larger_than_db_returns_all() {
        let q = KnnQuery {
            query: traj(&[(0.0, 0.0)], 0.0),
            ts: 0.0,
            te: 10.0,
            k: 100,
            measure: Dissimilarity::edr_paper(),
        };
        assert_eq!(q.execute_store(&store()).len(), 4);
    }

    #[test]
    fn results_are_deterministic_under_ties() {
        let store = TrajectoryDb::new(vec![
            traj(&[(0.0, 0.0), (1.0, 0.0)], 0.0),
            traj(&[(0.0, 0.0), (1.0, 0.0)], 0.0),
            traj(&[(0.0, 0.0), (1.0, 0.0)], 0.0),
        ])
        .to_store();
        let q = KnnQuery {
            query: traj(&[(0.0, 0.0), (1.0, 0.0)], 0.0),
            ts: 0.0,
            te: 10.0,
            k: 2,
            measure: Dissimilarity::edr_paper(),
        };
        // All tie at distance 0; ids 0 and 1 win deterministically.
        assert_eq!(q.execute_store(&store), vec![0, 1]);
    }
}
