//! Experiment 11: training cost.
//!
//! (a) training time vs. the number of training trajectories;
//! (b) effectiveness/time trade-off of the reward interval Δ.

use crate::experiments::{query_count, ratio_sweep};
use crate::suite::{state_workload, Rl4QdtsSimplifier};
use crate::table::Table;
use crate::tasks::{build_tasks, TaskParams, Truth};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rl4qdts::{train, PolicyVariant, Rl4QdtsConfig, TrainerConfig};
use traj_query::workload::RangeWorkloadSpec;
use traj_query::QueryDistribution;
use traj_simp::Simplifier;
use trajectory::gen::{generate, DatasetSpec, Scale};
use trajectory::TrajectoryDb;

const DIST: QueryDistribution = QueryDistribution::Data;

fn workload(scale: Scale) -> RangeWorkloadSpec {
    RangeWorkloadSpec {
        count: query_count(scale),
        spatial_extent: 2_000.0,
        temporal_extent: 7.0 * 86_400.0,
        dist: DIST,
    }
}

/// (a) Training time and held-out range F1 vs. training-pool size.
pub fn run_pool_size(scale: Scale, seed: u64) -> Table {
    let db = generate(&DatasetSpec::geolife(scale), seed);
    let n = db.len() * 3 / 4;
    let (train_pool, test_db) = db.split_at(n);
    let truth = held_out_truth(&test_db, scale, seed);
    let sizes: Vec<usize> = match scale {
        Scale::Paper => vec![10, 50, 100, 200],
        Scale::Small => vec![8, 16, 32, 64],
        Scale::Smoke => vec![4, 8, 16],
    };
    let mut table = Table::new(&["# train trajs", "Train time (s)", "Transitions", "Range F1"]);
    for &n in &sizes {
        let config = Rl4QdtsConfig::scaled_to(&train_pool).with_delta(15);
        let trainer = TrainerConfig {
            num_dbs: 3,
            trajs_per_db: n,
            episodes_per_db: 3,
            ratio: 0.06,
            workload: workload(scale),
        };
        let (model, stats) = train(&train_pool, config, &trainer, seed);
        let f1 = held_out_f1(&model, &test_db, &truth, scale, seed);
        table.row(vec![
            n.to_string(),
            format!("{:.2}", stats.wall_seconds),
            stats.transitions.to_string(),
            format!("{f1:.3}"),
        ]);
    }
    table
}

/// (b) Effect of the reward interval Δ on training time and accuracy.
pub fn run_delta(scale: Scale, seed: u64) -> Table {
    let db = generate(&DatasetSpec::geolife(scale), seed);
    let n = db.len() * 3 / 4;
    let (train_pool, test_db) = db.split_at(n);
    let truth = held_out_truth(&test_db, scale, seed);
    let mut table = Table::new(&["Δ", "Train time (s)", "Windows/episode", "Range F1"]);
    for delta in [10usize, 25, 50, 100] {
        let config = Rl4QdtsConfig::scaled_to(&train_pool).with_delta(delta);
        let trainer = TrainerConfig {
            num_dbs: 3,
            trajs_per_db: 12,
            episodes_per_db: 3,
            ratio: 0.06,
            workload: workload(scale),
        };
        let (model, stats) = train(&train_pool, config, &trainer, seed);
        let f1 = held_out_f1(&model, &test_db, &truth, scale, seed);
        let windows_per_ep = if stats.episodes > 0 {
            stats.insertions as f64 / delta as f64 / stats.episodes as f64
        } else {
            0.0
        };
        table.row(vec![
            delta.to_string(),
            format!("{:.2}", stats.wall_seconds),
            format!("{windows_per_ep:.1}"),
            format!("{f1:.3}"),
        ]);
    }
    table
}

/// The range truth every row of a training table is scored against.
fn held_out_truth(test_db: &TrajectoryDb, scale: Scale, seed: u64) -> Truth {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x77);
    let params = TaskParams::for_scale(scale, query_count(scale));
    Truth::new(
        test_db,
        build_tasks(test_db, DIST, params, &mut rng).ranges_only(),
    )
}

fn held_out_f1(
    model: &rl4qdts::Rl4Qdts,
    test_db: &TrajectoryDb,
    truth: &Truth,
    scale: Scale,
    seed: u64,
) -> f64 {
    let ratio = ratio_sweep(scale)[0];
    let budget = ((test_db.total_points() as f64 * ratio) as usize)
        .max(traj_simp::min_points_store(&test_db.to_store()));
    let rl = Rl4QdtsSimplifier {
        model: model.clone(),
        state_queries: state_workload(test_db, DIST, query_count(scale), seed ^ 21),
        seed,
        variant: PolicyVariant::FULL,
    };
    truth
        .score(&rl.simplify(test_db, budget).materialize(test_db))
        .range
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_size_sweep_reports_time_and_f1() {
        let t = run_pool_size(Scale::Smoke, 51);
        assert_eq!(t.rows().len(), 3);
        for r in t.rows() {
            assert!(r[1].parse::<f64>().unwrap() >= 0.0);
            let f1: f64 = r[3].parse().unwrap();
            assert!((0.0..=1.0).contains(&f1));
        }
    }

    #[test]
    fn delta_sweep_covers_paper_values() {
        let t = run_delta(Scale::Smoke, 53);
        let deltas: Vec<&str> = t.rows().iter().map(|r| r[0].as_str()).collect();
        assert_eq!(deltas, vec!["10", "25", "50", "100"]);
    }
}
