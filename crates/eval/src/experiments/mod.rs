//! One module per table/figure of the paper. Each exposes a `run`
//! function returning renderable [`crate::table::Table`]s so the `repro`
//! printers stay thin and the experiments remain testable at smoke scale.

pub mod ablation;
pub mod comparison;
pub mod datasets;
pub mod deformation;
pub mod efficiency;
pub mod index_ablation;
pub mod params;
pub mod skyline_sel;
pub mod training;
pub mod transferability;

use crate::tasks::{TaskScores, Truth};
use traj_simp::Simplifier;
use trajectory::gen::Scale;
use trajectory::TrajectoryDb;

/// Compression-ratio sweep for Geolife/T-Drive-shaped figures
/// (paper: 0.25%–2%). Synthetic trajectories are shorter than the real
/// datasets' (Table I), so the endpoint floor `2/|T|` sits higher and the
/// sweep shifts upward at smaller scales — same shape, feasible budgets.
pub fn ratio_sweep(scale: Scale) -> Vec<f64> {
    match scale {
        Scale::Paper => vec![0.0025, 0.003, 0.0035, 0.004, 0.0045, 0.01, 0.02],
        Scale::Small => vec![0.02, 0.025, 0.03, 0.035, 0.045, 0.08, 0.15],
        Scale::Smoke => vec![0.05, 0.12, 0.25],
    }
}

/// Compression-ratio sweep for Chengdu-shaped figures (paper: 2%–20%;
/// Chengdu trajectories are short, so budgets are larger).
pub fn chengdu_ratio_sweep(scale: Scale) -> Vec<f64> {
    match scale {
        Scale::Paper => vec![0.02, 0.025, 0.03, 0.035, 0.04, 0.10, 0.20],
        Scale::Small => vec![0.03, 0.04, 0.05, 0.06, 0.08, 0.15, 0.25],
        Scale::Smoke => vec![0.05, 0.12, 0.25],
    }
}

/// Splits a generated database into the training quarter (at least two
/// trajectories) and the held-out rest the experiments score on.
pub fn split_train_test(db: TrajectoryDb) -> (TrajectoryDb, TrajectoryDb) {
    let n = (db.len() / 4).max(2);
    db.split_at(n)
}

/// Number of evaluation queries per scale (paper: 100).
pub fn query_count(scale: Scale) -> usize {
    match scale {
        Scale::Paper => 100,
        Scale::Small => 40,
        Scale::Smoke => 10,
    }
}

/// Runs one method at one budget over `db` and scores it against `truth`,
/// the workload's answers on `db`.
pub fn score_method(
    method: &dyn Simplifier,
    db: &TrajectoryDb,
    budget: usize,
    truth: &Truth,
) -> TaskScores {
    truth.score(&method.simplify(db, budget).materialize(db))
}

/// Formats a ratio like the paper's x-axes ("0.25%").
pub fn fmt_ratio(r: f64) -> String {
    format!("{:.2}%", r * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_are_ascending_and_nonempty() {
        for scale in [Scale::Smoke, Scale::Small, Scale::Paper] {
            for sweep in [ratio_sweep(scale), chengdu_ratio_sweep(scale)] {
                assert!(!sweep.is_empty());
                assert!(sweep.windows(2).all(|w| w[0] < w[1]));
                assert!(sweep.iter().all(|&r| r > 0.0 && r < 1.0));
            }
        }
    }

    #[test]
    fn ratio_formatting_matches_axis_labels() {
        assert_eq!(fmt_ratio(0.0025), "0.25%");
        assert_eq!(fmt_ratio(0.2), "20.00%");
    }
}
