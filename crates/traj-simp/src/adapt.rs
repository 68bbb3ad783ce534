//! The two adaptations of trajectory-level EDTS algorithms to a database
//! (§V-A): **Each** ("E") simplifies every trajectory separately with a
//! proportional budget; **Whole** ("W") treats the database as one global
//! pool of insertion/drop candidates.

use trajectory::parallel::par_map_indexed;
use trajectory::{AsColumns, Simplification, TrajView};

/// How a trajectory-level algorithm is adapted to a database.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Adaptation {
    /// Simplify each trajectory with budget `r·|T|` (the paper's "E").
    Each,
    /// Simplify the database as a whole with one global budget ("W").
    Whole,
}

impl std::fmt::Display for Adaptation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Adaptation::Each => write!(f, "E"),
            Adaptation::Whole => write!(f, "W"),
        }
    }
}

/// Splits a database-level budget into per-trajectory budgets for the
/// "Each" adaptation: every trajectory gets at least its two endpoints,
/// the rest is distributed proportionally to trajectory length
/// (largest-remainder rounding), and the total never exceeds
/// `max(budget, Σ min(|T|, 2))`. Only the per-trajectory lengths matter,
/// which are offset-table differences.
pub fn per_trajectory_budgets_store<S: AsColumns + ?Sized>(store: &S, budget: usize) -> Vec<usize> {
    let lens: Vec<usize> = store.views().map(|v| v.len()).collect();
    let n: usize = lens.iter().sum();
    let mut budgets: Vec<usize> = lens.iter().map(|&len| len.min(2)).collect();
    let floor_total: usize = budgets.iter().sum();
    if n == 0 || budget <= floor_total {
        return budgets;
    }
    let spare = budget - floor_total;
    let r = spare as f64 / n as f64;
    // Proportional shares beyond the endpoint floor, capped by capacity.
    let mut fractional: Vec<(f64, usize)> = Vec::with_capacity(lens.len());
    let mut assigned = 0usize;
    for (id, &len) in lens.iter().enumerate() {
        let capacity = len - budgets[id];
        let share = (r * len as f64).min(capacity as f64);
        let whole = share.floor() as usize;
        budgets[id] += whole;
        assigned += whole;
        fractional.push((share - whole as f64, id));
    }
    // Largest remainders get the leftover, capacity permitting.
    let mut leftover = spare.saturating_sub(assigned);
    fractional.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
    for (_, id) in fractional {
        if leftover == 0 {
            break;
        }
        if budgets[id] < lens[id] {
            budgets[id] += 1;
            leftover -= 1;
        }
    }
    budgets
}

/// The "E" adaptation, written once: split `budget` proportionally
/// ([`per_trajectory_budgets_store`]), hand every trajectory's zero-copy
/// view and its share to `one`, and assemble the kept lists.
///
/// Trajectories share nothing under "E", so they are simplified in
/// parallel ([`par_map_indexed`]): the work-stealing counter balances
/// long and short trajectories across the cores, and the kept lists come
/// back in id order — the same lists a sequential map returns.
pub fn simplify_each<S: AsColumns + Sync + ?Sized>(
    store: &S,
    budget: usize,
    one: impl Fn(TrajView<'_>, usize) -> Vec<u32> + Sync,
) -> Simplification {
    let budgets = per_trajectory_budgets_store(store, budget);
    let kept = par_map_indexed(&budgets, |id, &b| one(store.view(id), b));
    Simplification::from_kept_store(store, kept)
}

#[cfg(test)]
mod tests {
    use super::*;
    use trajectory::{Point, PointStore, Trajectory, TrajectoryDb};

    fn db(lens: &[usize]) -> PointStore {
        TrajectoryDb::new(
            lens.iter()
                .map(|&n| {
                    Trajectory::new(
                        (0..n)
                            .map(|i| Point::new(i as f64, 0.0, i as f64))
                            .collect(),
                    )
                    .unwrap()
                })
                .collect(),
        )
        .to_store()
    }

    #[test]
    fn budgets_respect_total_and_floors() {
        let db = db(&[100, 200, 700]);
        let budget = 100; // 10% of 1000
        let budgets = per_trajectory_budgets_store(&db, budget);
        assert!(budgets.iter().sum::<usize>() <= budget);
        assert!(budgets.iter().all(|&b| b >= 2));
        // Proportionality: the 700-point trajectory gets the biggest share.
        assert!(budgets[2] > budgets[1] && budgets[1] > budgets[0]);
    }

    #[test]
    fn tiny_budget_degrades_to_endpoints() {
        let db = db(&[50, 50]);
        let budgets = per_trajectory_budgets_store(&db, 1);
        assert_eq!(budgets, vec![2, 2]);
    }

    #[test]
    fn budget_larger_than_db_caps_at_lengths() {
        let db = db(&[5, 7]);
        let budgets = per_trajectory_budgets_store(&db, 1_000);
        assert!(budgets[0] <= 5 && budgets[1] <= 7);
        assert_eq!(budgets.iter().sum::<usize>(), 12);
    }

    #[test]
    fn single_point_trajectories_get_one() {
        let db = db(&[1, 10]);
        let budgets = per_trajectory_budgets_store(&db, 6);
        assert_eq!(budgets[0], 1);
        assert!(budgets[1] >= 2);
    }

    #[test]
    fn display_matches_paper_labels() {
        assert_eq!(Adaptation::Each.to_string(), "E");
        assert_eq!(Adaptation::Whole.to_string(), "W");
    }
}
