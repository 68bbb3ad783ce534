//! Uniform sampling: keep every k-th point. Not one of the paper's 25
//! baselines, but a useful floor for sanity checks and examples — any
//! error-aware method should beat it.

use crate::adapt::simplify_each;
use crate::Simplifier;
use trajectory::{PointStore, Simplification};

/// The uniform-sampling baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct Uniform;

impl Simplifier for Uniform {
    fn name(&self) -> String {
        "Uniform".to_string()
    }

    /// Only per-trajectory lengths are consulted.
    fn simplify_store(&self, store: &PointStore, budget: usize) -> Simplification {
        simplify_each(store, budget, |v, b| uniform_indices(v.len(), b))
    }
}

/// Evenly spaced `budget` indices over `[0, n-1]` for a trajectory of `n`
/// points, endpoints included.
pub fn uniform_indices(n: usize, budget: usize) -> Vec<u32> {
    if n <= 2 || budget >= n {
        return (0..n as u32).collect();
    }
    let budget = budget.max(2);
    let mut kept: Vec<u32> = (0..budget)
        .map(|i| ((i as f64) * (n - 1) as f64 / (budget - 1) as f64).round() as u32)
        .collect();
    kept.dedup();
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use trajectory::{Point, Trajectory, TrajectoryDb};

    fn traj(n: usize) -> Trajectory {
        Trajectory::new(
            (0..n)
                .map(|i| Point::new(i as f64, 0.0, i as f64))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn spacing_is_even() {
        let kept = uniform_indices(11, 3);
        assert_eq!(kept, vec![0, 5, 10]);
    }

    #[test]
    fn budget_of_two_keeps_endpoints() {
        assert_eq!(uniform_indices(50, 2), vec![0, 49]);
    }

    #[test]
    fn oversized_budget_keeps_everything() {
        assert_eq!(uniform_indices(5, 100).len(), 5);
    }

    #[test]
    fn database_level_budget_is_respected() {
        let store = TrajectoryDb::new(vec![traj(100), traj(50), traj(3)]).to_store();
        for budget in [7, 15, 60, 1_000] {
            let simp = Uniform.simplify_store(&store, budget);
            assert!(simp.total_points() <= budget.max(6), "budget {budget}");
        }
    }
}
