//! Error-bounded simplification (extension).
//!
//! The paper's related work distinguishes the *min-error* EDTS problem
//! (this crate's main mode: fixed budget, minimize error) from the
//! *min-size* problem: given an error tolerance ε, keep as few points as
//! possible while every anchor segment's Eq. 1 error stays within ε
//! (Meratnia & de By's greedy one-pass strategy). This module provides
//! that dual mode — useful for users who think in tolerances rather than
//! budgets — plus the bridge both directions: the minimum ε that reaches a
//! given budget.

use trajectory::{AsColumns, ErrorMeasure, PointSeq, Simplification};

/// Greedy error-bounded simplification of one trajectory: from each kept
/// point, extend the anchor as far as the Eq. 1 segment error allows.
/// Every produced anchor satisfies `segment_error ≤ eps`.
pub fn bounded_one<S: PointSeq + ?Sized>(traj: &S, measure: ErrorMeasure, eps: f64) -> Vec<u32> {
    let n = traj.n_points();
    if n <= 2 {
        return (0..n as u32).collect();
    }
    let mut kept = vec![0u32];
    let mut s = 0usize;
    while s < n - 1 {
        // Furthest e with error(s, e) ≤ eps; e = s+1 is always valid
        // (single original segment has zero spatial error; DAD/SAD are
        // zero against themselves too).
        let mut e = s + 1;
        while e + 1 < n && measure.segment_error_seq(traj, s, e + 1) <= eps {
            e += 1;
        }
        kept.push(e as u32);
        s = e;
    }
    kept
}

/// Error-bounded simplification of a whole database: one tolerance, every
/// trajectory simplified independently (the error bound is local by
/// definition).
pub fn bounded_db<S: AsColumns + ?Sized>(
    store: &S,
    measure: ErrorMeasure,
    eps: f64,
) -> Simplification {
    let kept = store
        .views()
        .map(|v| bounded_one(&v, measure, eps))
        .collect();
    Simplification::from_kept_store(store, kept)
}

/// The smallest tolerance (within `tol` relative precision) whose bounded
/// simplification fits in `budget` points — the bridge from the min-size
/// formulation back to the paper's budgeted setting. Returns the tolerance
/// and its simplification.
pub fn min_eps_for_budget<S: AsColumns + ?Sized>(
    store: &S,
    measure: ErrorMeasure,
    budget: usize,
) -> (f64, Simplification) {
    // Establish an upper bound by doubling.
    let mut hi = 1.0f64;
    let mut best = bounded_db(store, measure, hi);
    let mut guard = 0;
    while best.total_points() > budget && guard < 60 {
        hi *= 2.0;
        best = bounded_db(store, measure, hi);
        guard += 1;
    }
    let mut lo = 0.0f64;
    for _ in 0..40 {
        let mid = 0.5 * (lo + hi);
        let s = bounded_db(store, measure, mid);
        if s.total_points() <= budget {
            hi = mid;
            best = s;
        } else {
            lo = mid;
        }
    }
    (hi, best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use trajectory::{Point, Trajectory, TrajectoryDb};

    fn zigzag(n: usize, amp: f64) -> Trajectory {
        Trajectory::new(
            (0..n)
                .map(|i| {
                    let y = if i % 2 == 0 { 0.0 } else { amp };
                    Point::new(i as f64 * 10.0, y, i as f64)
                })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn result_respects_the_bound() {
        let t = zigzag(50, 7.0);
        for eps in [0.5, 4.0, 10.0] {
            let kept = bounded_one(&t, ErrorMeasure::Sed, eps);
            let err = ErrorMeasure::Sed.trajectory_error(&t, &kept);
            assert!(err <= eps + 1e-9, "eps {eps}: error {err}");
        }
    }

    #[test]
    fn larger_tolerance_keeps_fewer_points() {
        let t = zigzag(60, 7.0);
        let tight = bounded_one(&t, ErrorMeasure::Sed, 0.5).len();
        let loose = bounded_one(&t, ErrorMeasure::Sed, 20.0).len();
        assert!(loose < tight, "loose {loose} vs tight {tight}");
        assert_eq!(loose, 2, "a zigzag within tolerance collapses to endpoints");
    }

    #[test]
    fn zero_tolerance_keeps_everything_wiggly() {
        let t = zigzag(20, 5.0);
        let kept = bounded_one(&t, ErrorMeasure::Sed, 0.0);
        // Every interior point deviates, so all must be kept.
        assert_eq!(kept.len(), 20);
    }

    #[test]
    fn straight_line_collapses_regardless() {
        let t = Trajectory::new(
            (0..30)
                .map(|i| Point::new(i as f64 * 5.0, 0.0, i as f64))
                .collect(),
        )
        .unwrap();
        let kept = bounded_one(&t, ErrorMeasure::Sed, 1e-6);
        assert_eq!(kept, vec![0, 29]);
    }

    #[test]
    fn min_eps_for_budget_meets_budget() {
        let db = TrajectoryDb::new(vec![zigzag(40, 9.0), zigzag(25, 3.0)]).to_store();
        let budget = 20;
        let (eps, simp) = min_eps_for_budget(&db, ErrorMeasure::Sed, budget);
        assert!(simp.total_points() <= budget);
        assert!(eps > 0.0);
        // The bound holds on the result.
        assert!(ErrorMeasure::Sed.db_error(&db, &simp) <= eps + 1e-9);
        // A slightly tighter eps would blow the budget (minimality, up to
        // binary-search precision).
        let tighter = bounded_db(&db, ErrorMeasure::Sed, eps * 0.8);
        assert!(tighter.total_points() >= simp.total_points());
    }

    #[test]
    fn works_for_all_measures() {
        let db = TrajectoryDb::new(vec![zigzag(30, 6.0)]).to_store();
        for m in ErrorMeasure::ALL {
            let s = bounded_db(&db, m, 1.0);
            assert!(s.total_points() >= 2);
            assert!(m.db_error(&db, &s) <= 1.0 + 1e-9, "{m}");
        }
    }
}
