//! Figures 4, 5, 6: RL4QDTS vs. the skyline baselines across compression
//! ratios, five query tasks per distribution.

use crate::experiments::{query_count, score_method, split_train_test};
use crate::suite::{
    baseline_suite, paper_skyline_names, select_by_name, state_workload, train_rl4qdts,
    Rl4QdtsSimplifier,
};
use crate::table::{mean, std_dev, Table};
use crate::tasks::{build_tasks, TaskParams, TaskScores, Truth};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rl4qdts::PolicyVariant;
use traj_query::QueryDistribution;
use trajectory::gen::{DatasetSpec, Scale};
use trajectory::TrajectoryDb;

/// The comparison outcome for one (dataset, distribution): one table per
/// query task with methods as rows and compression ratios as columns.
pub struct ComparisonOutcome {
    /// Distribution label.
    pub distribution: String,
    /// One table per task, ordered as [`TaskScores::NAMES`].
    pub per_task: Vec<(String, Table)>,
}

/// Runs one comparison figure.
///
/// `spec` selects the dataset (Geolife for Fig. 4, T-Drive for Fig. 5,
/// Chengdu for Fig. 6); `dists` the query distributions of the sub-figures;
/// `ratios` the x-axis.
pub fn run(
    spec: &DatasetSpec,
    dists: &[QueryDistribution],
    ratios: &[f64],
    scale: Scale,
    seed: u64,
    runs: usize,
) -> Vec<ComparisonOutcome> {
    let db = trajectory::gen::generate(spec, seed);
    let (train_db, test_db) = split_train_test(db);
    dists
        .iter()
        .map(|&dist| run_one(&train_db, &test_db, dist, ratios, scale, seed, runs))
        .collect()
}

fn run_one(
    train_db: &TrajectoryDb,
    test_db: &TrajectoryDb,
    dist: QueryDistribution,
    ratios: &[f64],
    scale: Scale,
    seed: u64,
    runs: usize,
) -> ComparisonOutcome {
    let suite = baseline_suite(train_db, seed);
    let names = paper_skyline_names(dist);
    let baselines = select_by_name(&suite, &names);
    let model = train_rl4qdts(train_db, dist, query_count(scale), seed);

    let mut rng = StdRng::seed_from_u64(seed ^ 0xbeef);
    let params = TaskParams::for_scale(scale, query_count(scale));
    let truth = Truth::new(test_db, build_tasks(test_db, dist, params, &mut rng));
    let floor = traj_simp::min_points_store(&test_db.to_store());

    // scores[task][method_row][ratio] = formatted cell
    let mut method_names: Vec<String> = baselines.iter().map(|b| b.name()).collect();
    method_names.push("RL4QDTS".to_string());
    let mut cells: Vec<Vec<Vec<String>>> =
        vec![vec![Vec::new(); method_names.len()]; TaskScores::NAMES.len()];

    for &ratio in ratios {
        let budget = ((test_db.total_points() as f64 * ratio) as usize).max(floor);
        for (mi, b) in baselines.iter().enumerate() {
            let s = score_method(*b, test_db, budget, &truth).as_vec();
            for (ti, v) in s.iter().enumerate() {
                cells[ti][mi].push(format!("{v:.3}"));
            }
        }
        // RL4QDTS: repeated runs over start-sampling seeds, mean ± std.
        let mut per_task_runs: Vec<Vec<f64>> = vec![Vec::new(); TaskScores::NAMES.len()];
        for run_idx in 0..runs {
            let simplifier = Rl4QdtsSimplifier {
                model: model.clone(),
                state_queries: state_workload(
                    test_db,
                    dist,
                    query_count(scale),
                    seed ^ (run_idx as u64 + 1),
                ),
                seed: seed.wrapping_add(run_idx as u64 * 31),
                variant: PolicyVariant::FULL,
            };
            let s = score_method(&simplifier, test_db, budget, &truth).as_vec();
            for (ti, v) in s.iter().enumerate() {
                per_task_runs[ti].push(*v);
            }
        }
        let last = method_names.len() - 1;
        for (ti, vals) in per_task_runs.iter().enumerate() {
            cells[ti][last].push(format!("{:.3}±{:.3}", mean(vals), std_dev(vals)));
        }
    }

    let mut header: Vec<String> = vec!["method".to_string()];
    header.extend(ratios.iter().map(|&r| crate::experiments::fmt_ratio(r)));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let per_task = TaskScores::NAMES
        .iter()
        .enumerate()
        .map(|(ti, task)| {
            let mut t = Table::new(&header_refs);
            for (mi, name) in method_names.iter().enumerate() {
                let mut row = vec![name.clone()];
                row.extend(cells[ti][mi].iter().cloned());
                t.row(row);
            }
            (task.to_string(), t)
        })
        .collect();

    ComparisonOutcome {
        distribution: dist.to_string(),
        per_task,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_comparison_produces_five_task_tables() {
        let spec = DatasetSpec::geolife(Scale::Smoke);
        let out = run(
            &spec,
            &[QueryDistribution::Data],
            &[0.1, 0.3],
            Scale::Smoke,
            11,
            2,
        );
        assert_eq!(out.len(), 1);
        let tables = &out[0].per_task;
        assert_eq!(tables.len(), 5);
        for (task, t) in tables {
            // 5 data-dist skyline baselines + RL4QDTS.
            assert_eq!(t.rows().len(), 6, "{task}");
            // Two ratio columns + method column.
            assert!(t.rows()[0].len() == 3, "{task}");
        }
        // RL4QDTS row carries a ± std cell.
        let last = &tables[0].1.rows()[5];
        assert!(last[1].contains('±'), "{last:?}");
    }
}
