//! Similarity queries (§III-B, after Chen & Patel's trajectory join).
//!
//! Given a query trajectory `Tq`, a time window `[ts, te]`, and a distance
//! threshold δ, return every trajectory that stays within δ of `Tq` at
//! *every* instant of the window. Positions between samples are
//! synchronized by linear interpolation — the definition quantifies over
//! all times `i` in the window, so (unlike the point-based range query)
//! this query interpolates on both databases.

use trajectory::{AsColumns, Point, PointSeq, TrajId, Trajectory};

/// Most grid instants one candidate check evaluates. A `step` finer than
/// `window / MAX_GRID_INSTANTS` is widened to it, so a step off the wire
/// cannot size the check. Widening cannot flip an answer (beyond
/// rounding): between two consecutive sample times of either trajectory
/// both positions are linear in `t`, so their distance is convex on that
/// piece and peaks at an end — and both trajectories' sample times, `ts`
/// and `te` are always checked. Every grid in the repository (300–600 s
/// steps over windows of hours to a week) is far below the bound.
const MAX_GRID_INSTANTS: usize = 4096;

/// A similarity query instance.
#[derive(Debug, Clone, PartialEq)]
pub struct SimilarityQuery {
    /// The query trajectory.
    pub query: Trajectory,
    /// Window start.
    pub ts: f64,
    /// Window end.
    pub te: f64,
    /// Distance threshold δ (paper: 5 km).
    pub delta: f64,
    /// Synchronization time step for checking the "for all i" condition
    /// (seconds). The check also evaluates both trajectories' own sample
    /// times inside the window, so no sampled deviation is missed. A
    /// non-positive or NaN step selects a 16-instant default grid; a step
    /// that would put more than 4096 instants in the window is widened to
    /// exactly that many.
    pub step: f64,
}

impl SimilarityQuery {
    /// Executes the query by linear scan over columnar storage (anything
    /// [`AsColumns`]), returning matching ids ascending. Candidates are
    /// zero-copy views.
    pub fn execute_store<S: AsColumns + ?Sized>(&self, store: &S) -> Vec<TrajId> {
        store
            .iter()
            .filter(|(_, v)| self.matches_seq(v))
            .map(|(id, _)| id)
            .collect()
    }

    /// True when `t` — a column view, an owned [`Trajectory`], a point
    /// slice — stays within δ of the query over the whole window.
    ///
    /// A trajectory that does not overlap the window temporally cannot
    /// testify about it and is rejected; the window is first clipped to the
    /// *query* trajectory's own span (the query cannot demand testimony
    /// about times it does not cover itself).
    pub fn matches_seq<S: PointSeq + ?Sized>(&self, t: &S) -> bool {
        self.check()
            .is_some_and(|check| check.overlaps(t.seq_time_span()) && check.stays_within(t))
    }

    /// The samples of the query trajectory this query's answer depends
    /// on: the window plus one neighbour on each side. The rule, and why
    /// a query rebuilt over them answers bit for bit the same, are on
    /// [`KnnQuery::answer_points`](crate::KnnQuery::answer_points).
    #[must_use]
    pub fn answer_points(&self) -> &[Point] {
        crate::knn::answer_points(&self.query, self.ts, self.te)
    }

    /// What every candidate check needs of the query alone, `None` when
    /// the window misses the query trajectory entirely: vacuous truth
    /// would make every trajectory match, so nothing does.
    pub(crate) fn check(&self) -> Option<SimilarityCheck<'_>> {
        let (q0, q1) = self.query.seq_time_span();
        let ts = self.ts.max(q0);
        let te = self.te.min(q1);
        if ts > te {
            return None;
        }
        let step = if self.step > 0.0 {
            self.step
        } else {
            (te - ts).max(1.0) / 16.0
        };
        Some(SimilarityCheck {
            query: &self.query,
            delta: self.delta,
            ts,
            te,
            step: step.max((te - ts) / MAX_GRID_INSTANTS as f64),
            query_samples: self.query.seq_window_indices(ts, te),
        })
    }
}

/// A [`SimilarityQuery`] ready to be held against candidates: the window
/// clipped to the query trajectory's span, the widened grid step and the
/// query's own samples inside the window — computed once, however many
/// candidates are checked.
pub(crate) struct SimilarityCheck<'q> {
    query: &'q Trajectory,
    delta: f64,
    ts: f64,
    te: f64,
    step: f64,
    query_samples: Option<(usize, usize)>,
}

impl SimilarityCheck<'_> {
    /// True when a trajectory spanning `[t0, t1]` overlaps the clipped
    /// window — the first thing asked of a candidate, and askable without
    /// the candidate: one that does not overlap cannot testify about the
    /// window and is rejected.
    pub(crate) fn overlaps(&self, (t0, t1): (f64, f64)) -> bool {
        !(t1 < self.ts || t0 > self.te)
    }

    /// True when `t` — which [overlaps](Self::overlaps) the clipped
    /// window — stays within δ of the query at a regular grid over it, at
    /// its end and at both trajectories' sample times inside it. Instants
    /// are checked as they are produced: a candidate that is far away at
    /// `ts` costs one pair of interpolations.
    pub(crate) fn stays_within<S: PointSeq + ?Sized>(&self, t: &S) -> bool {
        let (ts, te) = (self.ts, self.te);
        let within = |time: f64| {
            let qp = self.query.seq_position_at(time);
            let tp = t.seq_position_at(time);
            qp.spatial_distance(&tp) <= self.delta
        };
        // The cap also ends the grid when `step` is too small against
        // `ts` for the cursor to advance at all.
        let mut grid = (0..MAX_GRID_INSTANTS)
            .scan(ts, |cursor, _| {
                let time = *cursor;
                *cursor += self.step;
                Some(time)
            })
            .take_while(|&time| time < te);
        grid.all(within)
            && within(te)
            && self
                .query_samples
                .is_none_or(|(lo, hi)| (lo..=hi).all(|i| within(self.query.point_at(i).t)))
            && t.seq_window_indices(ts, te)
                .is_none_or(|(lo, hi)| (lo..=hi).all(|i| within(t.point_at(i).t)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use trajectory::{Point, PointStore, TrajectoryDb};

    impl SimilarityQuery {
        /// `matches_seq` as it stood before it checked lazily, body
        /// verbatim: every instant materialized, then tested. The lazy
        /// matcher is the kernel the scan reference and the engine share,
        /// so this copy is what pins it from outside.
        fn matches_seq_eager<S: PointSeq + ?Sized>(&self, t: &S) -> bool {
            let (q0, q1) = self.query.seq_time_span();
            let ts = self.ts.max(q0);
            let te = self.te.min(q1);
            if ts > te {
                // Window misses the query trajectory entirely: vacuous truth
                // would make every trajectory match; reject instead.
                return false;
            }
            let (t0, t1) = t.seq_time_span();
            if t1 < ts || t0 > te {
                return false;
            }

            // Check at a regular grid plus both trajectories' sample times.
            let step = if self.step > 0.0 {
                self.step
            } else {
                (te - ts).max(1.0) / 16.0
            };
            let step = step.max((te - ts) / MAX_GRID_INSTANTS as f64);
            let mut check_times: Vec<f64> = Vec::new();
            let mut t_cursor = ts;
            // The length test also ends the loop when `step` is too small
            // against `ts` for the cursor to advance at all.
            while t_cursor < te && check_times.len() < MAX_GRID_INSTANTS {
                check_times.push(t_cursor);
                t_cursor += step;
            }
            check_times.push(te);
            if let Some((lo, hi)) = self.query.seq_window_indices(ts, te) {
                check_times.extend((lo..=hi).map(|i| self.query.point_at(i).t));
            }
            if let Some((lo, hi)) = t.seq_window_indices(ts, te) {
                check_times.extend((lo..=hi).map(|i| t.point_at(i).t));
            }
            check_times.iter().all(|&time| {
                let qp = self.query.seq_position_at(time);
                let tp = t.seq_position_at(time);
                qp.spatial_distance(&tp) <= self.delta
            })
        }
    }

    /// A trajectory on a 0.1 coordinate lattice over integer times, some
    /// of them repeated, starting within 6 s of time 10.
    fn arb_lattice_traj() -> impl Strategy<Value = Trajectory> {
        let steps = prop::collection::vec((0..8i32, 0..8i32, 0..3i32), 1..9);
        (10..16i32, steps).prop_map(|(start, steps)| {
            let mut t = start;
            let points = steps.into_iter().map(|(x, y, dt)| {
                t += dt;
                Point::new(f64::from(x) * 0.1, f64::from(y) * 0.1, f64::from(t))
            });
            Trajectory::new(points.collect()).unwrap()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The lazy matcher decides what the eager one decided: windows
        /// before, inside and after both trajectories, one instant wide
        /// or reversed; δ on the coordinate lattice, so a distance of
        /// exactly δ occurs; default, ordinary and hostile steps.
        #[test]
        fn lazy_matcher_equals_the_eager_one(
            (query, candidate) in (arb_lattice_traj(), arb_lattice_traj()),
            (ts, len) in (5..25i32, -2..12i32),
            (delta, step) in (0..16i32, 0..5usize),
        ) {
            let q = SimilarityQuery {
                query,
                ts: f64::from(ts),
                te: f64::from(ts + len),
                delta: f64::from(delta) * 0.1,
                step: [0.0, 0.5, 1.0, 1e-20, f64::NAN][step],
            };
            prop_assert_eq!(q.matches_seq(&candidate), q.matches_seq_eager(&candidate));
            prop_assert_eq!(q.matches_seq(&q.query), q.matches_seq_eager(&q.query));
        }
    }

    fn store_of(trajectories: Vec<Trajectory>) -> PointStore {
        TrajectoryDb::new(trajectories).to_store()
    }

    fn line(y: f64, t0: f64, n: usize) -> Trajectory {
        Trajectory::new(
            (0..n)
                .map(|i| Point::new(i as f64 * 10.0, y, t0 + i as f64))
                .collect(),
        )
        .unwrap()
    }

    fn query(delta: f64) -> SimilarityQuery {
        SimilarityQuery {
            query: line(0.0, 0.0, 10),
            ts: 0.0,
            te: 9.0,
            delta,
            step: 0.5,
        }
    }

    #[test]
    fn close_parallel_trajectory_matches() {
        let store = store_of(vec![line(3.0, 0.0, 10)]);
        assert_eq!(query(5.0).execute_store(&store), vec![0]);
    }

    #[test]
    fn distant_trajectory_does_not_match() {
        let store = store_of(vec![line(100.0, 0.0, 10)]);
        assert!(query(5.0).execute_store(&store).is_empty());
    }

    #[test]
    fn must_hold_at_every_instant() {
        // Starts close, then diverges mid-window: must NOT match.
        let diverging = Trajectory::new(vec![
            Point::new(0.0, 0.0, 0.0),
            Point::new(40.0, 0.0, 4.0),
            Point::new(50.0, 500.0, 5.0),
            Point::new(90.0, 0.0, 9.0),
        ])
        .unwrap();
        let store = store_of(vec![diverging]);
        assert!(query(5.0).execute_store(&store).is_empty());
    }

    #[test]
    fn interpolated_excursions_are_caught() {
        // The excursion happens *between* the grid instants: sample times
        // of the candidate itself must be checked too.
        let spike = Trajectory::new(vec![
            Point::new(0.0, 0.0, 0.0),
            Point::new(42.0, 300.0, 4.2),
            Point::new(90.0, 0.0, 9.0),
        ])
        .unwrap();
        let store = store_of(vec![spike]);
        let mut q = query(50.0);
        q.step = 9.0; // coarse grid that would miss t=4.2
        assert!(q.execute_store(&store).is_empty());
    }

    #[test]
    fn temporally_disjoint_trajectory_is_rejected() {
        let store = store_of(vec![line(0.0, 1_000.0, 10)]);
        assert!(query(5.0).execute_store(&store).is_empty());
    }

    #[test]
    fn window_outside_query_span_matches_nothing() {
        let store = store_of(vec![line(0.0, 0.0, 10)]);
        let q = SimilarityQuery {
            query: line(0.0, 0.0, 10),
            ts: 100.0,
            te: 200.0,
            delta: 5.0,
            step: 1.0,
        };
        assert!(q.execute_store(&store).is_empty());
    }

    #[test]
    fn query_matches_itself() {
        let store = store_of(vec![line(0.0, 0.0, 10)]);
        assert_eq!(query(0.1).execute_store(&store), vec![0]);
    }

    #[test]
    fn a_hostile_step_is_widened_not_obeyed() {
        // `1e-20` never advances a cursor starting at `t = 1`, a subnormal
        // advances nothing anywhere, and `1e-9` over this window is ten
        // billion instants: each must answer — in bounded memory — what
        // the default grid answers.
        let store = store_of(vec![
            line(3.0, 1.0, 10),
            line(100.0, 1.0, 10),
            line(0.0, 1_000.0, 10),
        ]);
        let with_step = |step: f64| SimilarityQuery {
            query: line(0.0, 1.0, 10),
            ts: 1.0,
            te: 10.0,
            delta: 5.0,
            step,
        };
        let want = with_step(0.0).execute_store(&store);
        assert_eq!(want, vec![0]);
        for step in [1e-20, f64::from_bits(1), f64::MIN_POSITIVE, 1e-9] {
            assert_eq!(with_step(step).execute_store(&store), want, "step {step:e}");
        }
        // A window of a few ulps at t = 1e9: even the widened step cannot
        // advance the cursor, so the instant count itself must be capped.
        let late = store_of(vec![line(3.0, 1e9, 10), line(100.0, 1e9, 10)]);
        let narrow = |step: f64| SimilarityQuery {
            query: line(0.0, 1e9, 10),
            ts: 1e9,
            te: 1e9 + 1e-6,
            delta: 5.0,
            step,
        };
        assert_eq!(narrow(1e-30).execute_store(&late), vec![0]);
        assert_eq!(narrow(0.0).execute_store(&late), vec![0]);
    }
}
