//! Figure 7: deformation study.
//!
//! Run the range-query workload on the *original* database once, take the
//! returned trajectories, and, for each method and budget, measure their
//! mean SED deformation between original and simplified form. A
//! query-aware method should deform the trajectories that queries actually
//! return less than error-driven methods do.

use crate::experiments::{query_count, ratio_sweep, split_train_test};
use crate::suite::{
    baseline_suite, paper_skyline_names, select_by_name, state_workload, train_rl4qdts,
    Rl4QdtsSimplifier,
};
use crate::table::Table;
use crate::tasks::{build_tasks, TaskParams, Truth};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rl4qdts::PolicyVariant;
use traj_query::QueryDistribution;
use traj_simp::Simplifier;
use trajectory::gen::{generate, DatasetSpec, Scale};
use trajectory::{ErrorMeasure, Simplification, TrajId, TrajectoryDb};

/// Mean SED of the `returned` trajectories (those the workload's range
/// queries return on the original, [`Truth::returned_by_ranges`]),
/// measured between their original and simplified forms.
pub fn returned_trajectory_sed(
    db: &TrajectoryDb,
    simp: &Simplification,
    returned: &[TrajId],
) -> f64 {
    if returned.is_empty() {
        return 0.0;
    }
    let total: f64 = returned
        .iter()
        .map(|&id| ErrorMeasure::Sed.trajectory_error(db.get(id), simp.kept(id)))
        .sum();
    total / returned.len() as f64
}

/// Runs the deformation study for one distribution; rows are methods,
/// columns compression ratios, cells mean SED (meters — lower is better).
pub fn run_one(scale: Scale, seed: u64, dist: QueryDistribution) -> Table {
    let db = generate(&DatasetSpec::geolife(scale), seed);
    let (train_db, test_db) = split_train_test(db);
    let suite = baseline_suite(&train_db, seed);
    let baselines = select_by_name(&suite, &paper_skyline_names(dist));
    let model = train_rl4qdts(&train_db, dist, query_count(scale), seed);

    let mut rng = StdRng::seed_from_u64(seed ^ 0xdef0);
    let params = TaskParams::for_scale(scale, query_count(scale));
    let tasks = build_tasks(&test_db, dist, params, &mut rng);
    let returned = Truth::new(&test_db, tasks.ranges_only()).returned_by_ranges();
    let ratios = ratio_sweep(scale);
    let floor = traj_simp::min_points_store(&test_db.to_store());

    let mut header: Vec<String> = vec!["method".into()];
    header.extend(ratios.iter().map(|&r| crate::experiments::fmt_ratio(r)));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = Table::new(&header_refs);

    let rl4qdts = Rl4QdtsSimplifier {
        model,
        state_queries: state_workload(&test_db, dist, query_count(scale), seed ^ 3),
        seed,
        variant: PolicyVariant::FULL,
    };
    let mut methods: Vec<&dyn Simplifier> = baselines;
    methods.push(&rl4qdts);

    for method in methods {
        let mut row = vec![method.name()];
        for &ratio in &ratios {
            let budget = ((test_db.total_points() as f64 * ratio) as usize).max(floor);
            let simp = method.simplify(&test_db, budget);
            let sed = returned_trajectory_sed(&test_db, &simp, &returned);
            row.push(format!("{sed:.1}"));
        }
        table.row(row);
    }
    table
}

/// Runs both sub-figures (data and Gaussian distributions).
pub fn run(scale: Scale, seed: u64) -> Vec<(String, Table)> {
    [
        QueryDistribution::Data,
        QueryDistribution::Gaussian {
            mu: 0.5,
            sigma: 0.25,
        },
    ]
    .into_iter()
    .map(|d| (d.to_string(), run_one(scale, seed, d)))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use trajectory::gen::generate;

    #[test]
    fn sed_decreases_with_more_budget() {
        let db = generate(&DatasetSpec::geolife(Scale::Smoke), 6);
        let mut rng = StdRng::seed_from_u64(2);
        let params = TaskParams::paper_scaled(8);
        let tasks = build_tasks(&db, QueryDistribution::Data, params, &mut rng);
        let returned = Truth::new(&db, tasks.ranges_only()).returned_by_ranges();
        let store = db.to_store();
        let endpoints = Simplification::most_simplified_store(&store);
        let full = Simplification::full_store(&store);
        let harsh = returned_trajectory_sed(&db, &endpoints, &returned);
        let none = returned_trajectory_sed(&db, &full, &returned);
        assert!(none < 1e-9);
        assert!(harsh > none);
    }

    #[test]
    fn produces_method_rows() {
        let t = run_one(Scale::Smoke, 7, QueryDistribution::Data);
        // 5 data-dist skyline baselines + RL4QDTS.
        assert_eq!(t.rows().len(), 6);
    }
}
