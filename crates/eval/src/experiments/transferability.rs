//! Figure 9: transferability under query-distribution changes.
//!
//! RL4QDTS is trained once with Gaussian(μ=0.5, σ=0.25) range queries and
//! then evaluated on range workloads whose distribution drifts: Gaussian μ
//! ∈ [0.5, 0.9], Gaussian σ ∈ [0.25, 0.85], and Zipf a ∈ [4, 8]. The
//! baseline is Bottom-Up(E,SED), as in the paper.

use crate::experiments::{query_count, ratio_sweep, split_train_test};
use crate::suite::{state_workload, train_rl4qdts, Rl4QdtsSimplifier};
use crate::table::{mean, std_dev, Table};
use crate::tasks::{build_tasks, eval_range_with_engines, TaskParams};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rl4qdts::{PolicyVariant, Rl4Qdts};
use traj_query::{EngineConfig, QueryDistribution, QueryEngine};
use traj_simp::{Adaptation, BottomUp, Simplifier};
use trajectory::gen::{generate, DatasetSpec, Scale};
use trajectory::{ErrorMeasure, TrajectoryDb};

/// The distribution RL4QDTS is trained with in this experiment.
pub const TRAIN_DIST: QueryDistribution = QueryDistribution::Gaussian {
    mu: 0.5,
    sigma: 0.25,
};

/// One transferability series: the varied parameter values and the F1 of
/// baseline and RL4QDTS at each.
pub struct TransferOutcome {
    /// Sub-figure label ("Gaussian μ", "Gaussian σ", "Zipf a").
    pub label: String,
    /// The rendered table.
    pub table: Table,
}

/// Runs all three sub-figures.
pub fn run(scale: Scale, seed: u64, runs: usize) -> Vec<TransferOutcome> {
    let db = generate(&DatasetSpec::geolife(scale), seed);
    let (train_db, test_db) = split_train_test(db);
    let model = train_rl4qdts(&train_db, TRAIN_DIST, query_count(scale), seed);

    let mu_dists: Vec<(String, QueryDistribution)> = [0.5, 0.6, 0.7, 0.8, 0.9]
        .iter()
        .map(|&mu| {
            (
                format!("{mu}"),
                QueryDistribution::Gaussian { mu, sigma: 0.25 },
            )
        })
        .collect();
    let sigma_dists: Vec<(String, QueryDistribution)> = [0.25, 0.4, 0.55, 0.7, 0.85]
        .iter()
        .map(|&sigma| {
            (
                format!("{sigma}"),
                QueryDistribution::Gaussian { mu: 0.5, sigma },
            )
        })
        .collect();
    let zipf_dists: Vec<(String, QueryDistribution)> = [4.0, 5.0, 6.0, 7.0, 8.0]
        .iter()
        .map(|&a| (format!("{a}"), QueryDistribution::Zipf { a }))
        .collect();

    vec![
        series(
            scale,
            seed,
            runs,
            &test_db,
            &model,
            "Gaussian mu",
            &mu_dists,
        ),
        series(
            scale,
            seed,
            runs,
            &test_db,
            &model,
            "Gaussian sigma",
            &sigma_dists,
        ),
        series(scale, seed, runs, &test_db, &model, "Zipf a", &zipf_dists),
    ]
}

fn series(
    scale: Scale,
    seed: u64,
    runs: usize,
    test_db: &TrajectoryDb,
    model: &Rl4Qdts,
    label: &str,
    dists: &[(String, QueryDistribution)],
) -> TransferOutcome {
    let ratio = ratio_sweep(scale)[ratio_sweep(scale).len() / 2];
    let budget = ((test_db.total_points() as f64 * ratio) as usize)
        .max(traj_simp::min_points_store(&test_db.to_store()));
    let baseline = BottomUp::new(ErrorMeasure::Sed, Adaptation::Each);
    let baseline_simp = baseline.simplify(test_db, budget).materialize(test_db);
    // One ground-truth engine (and one over the fixed baseline) for the
    // whole distribution sweep; only per-run simplifications re-index.
    let truth_engine = QueryEngine::over(test_db, EngineConfig::octree());
    let baseline_engine = QueryEngine::over(&baseline_simp, EngineConfig::octree());

    let mut header: Vec<String> = vec!["method".into()];
    header.extend(dists.iter().map(|(l, _)| l.clone()));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = Table::new(&header_refs);

    let mut baseline_row = vec![baseline.name()];
    let mut ours_row = vec!["RL4QDTS".to_string()];
    for (_, dist) in dists {
        // The *test* workload follows the drifted distribution…
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7a);
        let params = TaskParams::for_scale(scale, query_count(scale));
        let tasks = build_tasks(test_db, *dist, params, &mut rng);
        baseline_row.push(format!(
            "{:.3}",
            eval_range_with_engines(&truth_engine, &baseline_engine, &tasks)
        ));

        // …while RL4QDTS's state workload stays the *training* distribution
        // (at deployment the drift is unknown — that is the point).
        let mut f1s = Vec::with_capacity(runs);
        for run_idx in 0..runs {
            let rl = Rl4QdtsSimplifier {
                model: model.clone(),
                state_queries: state_workload(
                    test_db,
                    TRAIN_DIST,
                    query_count(scale),
                    seed ^ (run_idx as u64 + 5),
                ),
                seed: seed.wrapping_add(run_idx as u64 * 17),
                variant: PolicyVariant::FULL,
            };
            let simp = rl.simplify(test_db, budget).materialize(test_db);
            let simp_engine = QueryEngine::over(&simp, EngineConfig::octree());
            f1s.push(eval_range_with_engines(&truth_engine, &simp_engine, &tasks));
        }
        ours_row.push(format!("{:.3}±{:.3}", mean(&f1s), std_dev(&f1s)));
    }
    table.row(baseline_row);
    table.row(ours_row);
    TransferOutcome {
        label: label.to_string(),
        table,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_three_series_with_five_points_each() {
        let out = run(Scale::Smoke, 31, 1);
        assert_eq!(out.len(), 3);
        for o in &out {
            assert_eq!(o.table.rows().len(), 2, "{}: baseline + ours", o.label);
            assert_eq!(o.table.rows()[0].len(), 6, "{}: 5 x-values", o.label);
        }
    }
}
