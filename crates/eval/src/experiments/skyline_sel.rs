//! Figure 3: skyline selection over the 25 baselines.
//!
//! For each query distribution (data / Gaussian / real), every baseline is
//! scored on the five query tasks at a fixed budget; the Pareto skyline is
//! reported. The paper uses this to pick per-distribution comparison sets
//! for Figures 4–6.

use crate::experiments::{
    chengdu_ratio_sweep, query_count, ratio_sweep, score_method, split_train_test,
};
use crate::skyline::{skyline, ScoredMethod};
use crate::suite::baseline_suite;
use crate::table::Table;
use crate::tasks::{build_tasks, TaskParams, TaskScores, Truth};
use rand::rngs::StdRng;
use rand::SeedableRng;
use traj_query::QueryDistribution;
use trajectory::gen::{generate, DatasetSpec, Scale};

/// The outcome for one distribution: the full score table plus the
/// skyline member names.
pub struct SkylineOutcome {
    /// Distribution label.
    pub distribution: String,
    /// Score table (25 rows × 5 task columns + skyline marker).
    pub table: Table,
    /// Names of the skyline members.
    pub skyline: Vec<String>,
}

/// Runs the skyline selection for the three distributions of Fig. 3.
pub fn run(scale: Scale, seed: u64) -> Vec<SkylineOutcome> {
    let dists = [
        QueryDistribution::Data,
        QueryDistribution::Gaussian {
            mu: 0.5,
            sigma: 0.25,
        },
        QueryDistribution::Real,
    ];
    dists.iter().map(|&d| run_one(scale, seed, d)).collect()
}

/// Skyline selection for one distribution. The real distribution uses the
/// Chengdu-like dataset (as in the paper); the others use Geolife-like.
pub fn run_one(scale: Scale, seed: u64, dist: QueryDistribution) -> SkylineOutcome {
    let is_real = matches!(dist, QueryDistribution::Real);
    let (db, anchor_ratio) = if is_real {
        (
            generate(&DatasetSpec::chengdu(scale), seed),
            chengdu_ratio_sweep(scale)[0],
        )
    } else {
        (
            generate(&DatasetSpec::geolife(scale), seed),
            ratio_sweep(scale)[0],
        )
    };
    let (train_db, test_db) = split_train_test(db);

    let suite = baseline_suite(&train_db, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xf00d);
    let params = TaskParams::for_scale(scale, query_count(scale));
    let truth = Truth::new(&test_db, build_tasks(&test_db, dist, params, &mut rng));
    let budget = ((test_db.total_points() as f64 * anchor_ratio) as usize)
        .max(traj_simp::min_points_store(&test_db.to_store()));

    // The 25 baselines are independent: score them in parallel (the same
    // work-stealing helper the query engine's batch paths use).
    let scored: Vec<ScoredMethod> = traj_query::parallel::par_map(&suite, |method| {
        let s = score_method(method.as_ref(), &test_db, budget, &truth);
        ScoredMethod {
            name: method.name(),
            scores: s.as_vec(),
        }
    });
    let sky = skyline(&scored);

    let mut header = vec!["method"];
    header.extend(TaskScores::NAMES);
    header.push("skyline");
    let mut table = Table::new(&header);
    for (i, m) in scored.iter().enumerate() {
        let mut row = vec![m.name.clone()];
        row.extend(m.scores.iter().map(|v| format!("{v:.3}")));
        row.push(if sky.contains(&i) {
            "*".into()
        } else {
            "".into()
        });
        table.row(row);
    }
    SkylineOutcome {
        distribution: dist.to_string(),
        table,
        skyline: sky.iter().map(|&i| scored[i].name.clone()).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_all_25_baselines_and_a_nonempty_skyline() {
        let out = run_one(Scale::Smoke, 3, QueryDistribution::Data);
        assert_eq!(out.table.rows().len(), 25);
        assert!(!out.skyline.is_empty());
        assert!(out.skyline.len() <= 25);
    }
}
