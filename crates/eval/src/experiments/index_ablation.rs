//! Index ablation (extension of the paper's §I future-work note):
//! octree vs. kd-tree-style median splits as the cube hierarchy.
//!
//! Trains one model per index kind under identical settings and compares
//! held-out range-query F1 and simplification wall time across budgets.

use crate::experiments::{query_count, ratio_sweep, split_train_test};
use crate::suite::{state_workload, Rl4QdtsSimplifier};
use crate::table::Table;
use crate::tasks::{build_tasks, TaskParams, Truth};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rl4qdts::{train, IndexKind, PolicyVariant, Rl4QdtsConfig, TrainerConfig};
use traj_query::workload::RangeWorkloadSpec;
use traj_query::QueryDistribution;
use traj_simp::Simplifier;
use trajectory::gen::{generate, DatasetSpec, Scale};

const DIST: QueryDistribution = QueryDistribution::Data;

/// Runs the index ablation. One row per index kind and ratio:
/// `index, ratio, Range F1, simplify time (s)`.
pub fn run(scale: Scale, seed: u64) -> Table {
    let db = generate(&DatasetSpec::geolife(scale), seed);
    let (train_db, test_db) = split_train_test(db);
    let workload = RangeWorkloadSpec {
        count: query_count(scale),
        spatial_extent: 2_000.0,
        temporal_extent: 7.0 * 86_400.0,
        dist: DIST,
    };
    let trainer = TrainerConfig {
        num_dbs: 2,
        trajs_per_db: (train_db.len() / 2).clamp(4, 40),
        episodes_per_db: 2,
        ratio: 0.02,
        workload,
    };

    let mut rng = StdRng::seed_from_u64(seed ^ 0x1d);
    let params = TaskParams::for_scale(scale, query_count(scale));
    let truth = Truth::new(
        &test_db,
        build_tasks(&test_db, DIST, params, &mut rng).ranges_only(),
    );
    let ratios = ratio_sweep(scale);
    let floor = traj_simp::min_points_store(&test_db.to_store());

    let mut table = Table::new(&["index", "ratio", "Range F1", "Simplify time (s)"]);
    for kind in [IndexKind::Octree, IndexKind::MedianKdTree] {
        let config = Rl4QdtsConfig::scaled_to(&train_db)
            .with_delta(25)
            .with_index(kind);
        let (model, _) = train(&train_db, config, &trainer, seed);
        for &ratio in &ratios {
            let budget = ((test_db.total_points() as f64 * ratio) as usize).max(floor);
            let rl = Rl4QdtsSimplifier {
                model: model.clone(),
                state_queries: state_workload(&test_db, DIST, query_count(scale), seed ^ 2),
                seed,
                variant: PolicyVariant::FULL,
            };
            let started = std::time::Instant::now();
            let simp = rl.simplify(&test_db, budget);
            let elapsed = started.elapsed().as_secs_f64();
            let f1 = truth.score(&simp.materialize(&test_db)).range;
            table.row(vec![
                kind.label().to_string(),
                crate::experiments::fmt_ratio(ratio),
                format!("{f1:.3}"),
                format!("{elapsed:.3}"),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compares_both_index_kinds() {
        let t = run(Scale::Smoke, 61);
        let kinds: std::collections::BTreeSet<&str> =
            t.rows().iter().map(|r| r[0].as_str()).collect();
        assert!(kinds.contains("octree"));
        assert!(kinds.contains("median-kd"));
        assert_eq!(t.rows().len(), 2 * ratio_sweep(Scale::Smoke).len());
        for r in t.rows() {
            let f1: f64 = r[2].parse().unwrap();
            assert!((0.0..=1.0).contains(&f1), "{r:?}");
        }
    }
}
