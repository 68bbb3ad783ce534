//! Span-Search (Long, Wong, Jagadish — PVLDB 2014): direction-preserving
//! trajectory simplification. Designed specifically for the DAD error:
//! binary-search the angular tolerance ε and greedily cover the trajectory
//! with maximal *spans* whose direction constraints remain satisfiable.
//!
//! A span `p_s..p_e` is feasible at tolerance ε when some heading θ exists
//! with `angle_diff(θ, dir(p_i, p_{i+1})) ≤ ε` for all `i ∈ [s, e)` *and*
//! the anchor's own heading `dir(p_s, p_e)` satisfies all constraints —
//! tracked incrementally as an intersection of angular intervals.
//!
//! Only the "E" adaptation exists (the paper notes "W" is not possible:
//! the greedy span cover is inherently per-trajectory).

use crate::adapt::simplify_each;
use crate::Simplifier;
use trajectory::{geom, PointSeq, PointStore, Simplification};

/// The Span-Search baseline (DAD, "E" adaptation).
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanSearch;

impl Simplifier for SpanSearch {
    fn name(&self) -> String {
        "Span-Search".to_string()
    }

    fn simplify_store(&self, store: &PointStore, budget: usize) -> Simplification {
        simplify_each(store, budget, |v, b| spansearch_one(&v, b))
    }
}

/// Simplifies one trajectory to at most `budget` points, minimizing the
/// DAD tolerance by binary search over ε ∈ [0, π].
pub fn spansearch_one<S: PointSeq + ?Sized>(traj: &S, budget: usize) -> Vec<u32> {
    let n = traj.n_points();
    if n <= 2 {
        return (0..n as u32).collect();
    }
    let budget = budget.clamp(2, n);
    // Feasibility is monotone in ε: a larger tolerance allows longer spans.
    let mut lo = 0.0f64;
    let mut hi = std::f64::consts::PI;
    let mut best = greedy_cover(traj, hi);
    for _ in 0..40 {
        let mid = 0.5 * (lo + hi);
        let cover = greedy_cover(traj, mid);
        if cover.len() <= budget {
            best = cover;
            hi = mid;
        } else {
            lo = mid;
        }
    }
    best
}

/// Greedy maximal-span cover at tolerance `eps`: from each start point,
/// extend the span while the angular constraint intersection stays
/// non-empty and contains the anchor's own heading.
fn greedy_cover<S: PointSeq + ?Sized>(traj: &S, eps: f64) -> Vec<u32> {
    let n = traj.n_points();
    let dir = |a: usize, b: usize| geom::direction(&traj.point_at(a), &traj.point_at(b));
    // At ε ≥ π every heading satisfies every constraint (angle_diff ≤ π),
    // and the linear interval unwrapping below is only valid for ε < π.
    if eps >= std::f64::consts::PI {
        return vec![0, n as u32 - 1];
    }
    let mut kept: Vec<u32> = vec![0];
    let mut s = 0usize;
    while s < n - 1 {
        // Interval intersection of [d_i - eps, d_i + eps], unwrapped
        // around the first segment's heading to avoid circular logic.
        let base = dir(s, s + 1);
        let mut lo = -eps;
        let mut hi = eps;
        let mut e = s + 1;
        // Invariant: span (s, e) is feasible.
        while e < n - 1 {
            let next = e + 1;
            let d = unwrap_near(dir(e, e + 1) - base);
            let nlo = lo.max(d - eps);
            let nhi = hi.min(d + eps);
            if nlo > nhi {
                break;
            }
            // The anchor heading of the extended span must itself satisfy
            // every constraint (that's what DAD measures against).
            let anchor = unwrap_near(dir(s, next) - base);
            if anchor < nlo - 1e-12 || anchor > nhi + 1e-12 {
                break;
            }
            lo = nlo;
            hi = nhi;
            e = next;
        }
        kept.push(e as u32);
        s = e;
    }
    kept
}

/// Wraps an angle difference into (−π, π].
fn unwrap_near(mut d: f64) -> f64 {
    use std::f64::consts::{PI, TAU};
    while d > PI {
        d -= TAU;
    }
    while d <= -PI {
        d += TAU;
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use trajectory::{ErrorMeasure, Point, Trajectory, TrajectoryDb};

    fn traj(coords: &[(f64, f64)]) -> Trajectory {
        Trajectory::new(
            coords
                .iter()
                .enumerate()
                .map(|(i, &(x, y))| Point::new(x, y, i as f64))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn straight_line_collapses_to_endpoints() {
        let t = traj(&[(0.0, 0.0), (10.0, 0.0), (20.0, 0.0), (30.0, 0.0)]);
        assert_eq!(spansearch_one(&t, 4), vec![0, 3]);
    }

    #[test]
    fn right_angle_turn_is_preserved() {
        let t = traj(&[
            (0.0, 0.0),
            (10.0, 0.0),
            (20.0, 0.0),
            (20.0, 10.0),
            (20.0, 20.0),
        ]);
        let kept = spansearch_one(&t, 3);
        assert!(kept.contains(&2), "turn at index 2 must survive: {kept:?}");
        // With the corner kept, the DAD error is (near) zero.
        let err = ErrorMeasure::Dad.trajectory_error(&t, &kept);
        assert!(err < 0.1, "DAD error {err}");
    }

    #[test]
    fn respects_budget() {
        // Spiral with constantly changing direction.
        let pts: Vec<(f64, f64)> = (0..30)
            .map(|i| {
                let a = i as f64 * 0.4;
                (100.0 * a.cos(), 100.0 * a.sin())
            })
            .collect();
        let t = traj(&pts);
        for budget in [2, 4, 8, 16] {
            let kept = spansearch_one(&t, budget);
            assert!(kept.len() <= budget, "budget {budget}: kept {}", kept.len());
        }
    }

    #[test]
    fn smaller_budget_means_larger_dad_error() {
        let pts: Vec<(f64, f64)> = (0..40)
            .map(|i| {
                let a = i as f64 * 0.3;
                (100.0 * a.cos(), 100.0 * a.sin())
            })
            .collect();
        let t = traj(&pts);
        let coarse = ErrorMeasure::Dad.trajectory_error(&t, &spansearch_one(&t, 3));
        let fine = ErrorMeasure::Dad.trajectory_error(&t, &spansearch_one(&t, 20));
        assert!(fine <= coarse + 1e-9, "fine {fine} vs coarse {coarse}");
    }

    #[test]
    fn simplifier_impl_covers_database() {
        let store = TrajectoryDb::new(vec![
            traj(&[(0.0, 0.0), (10.0, 0.0), (20.0, 5.0), (30.0, 0.0)]),
            traj(&[(0.0, 0.0), (0.0, 10.0)]),
        ])
        .to_store();
        let simp = SpanSearch.simplify_store(&store, 5);
        assert!(simp.total_points() <= 6);
        assert_eq!(simp.kept(1), &[0, 1]);
        assert_eq!(SpanSearch.name(), "Span-Search");
    }

    #[test]
    fn unwrap_near_is_principal() {
        use std::f64::consts::PI;
        assert!((unwrap_near(3.0 * PI) - PI).abs() < 1e-12);
        assert!((unwrap_near(-3.0 * PI) - PI).abs() < 1e-12);
        assert_eq!(unwrap_near(0.5), 0.5);
    }
}
