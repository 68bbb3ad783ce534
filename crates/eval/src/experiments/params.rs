//! Parameter studies (experiments 5–8, detailed in the paper's technical
//! report): the start level `S`, end level `E`, Agent-Point's `K`, and the
//! kNN `k`.

use crate::experiments::{query_count, ratio_sweep, split_train_test};
use crate::suite::{state_workload, Rl4QdtsSimplifier};
use crate::table::Table;
use crate::tasks::{build_tasks, eval_range_with_engines, TaskParams};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rl4qdts::{train, PolicyVariant, Rl4QdtsConfig, TrainerConfig};
use traj_query::knn::{Dissimilarity, KnnQuery};
use traj_query::workload::RangeWorkloadSpec;
use traj_query::{f1_sets, mean_f1, EngineConfig, QueryDistribution, QueryEngine};
use traj_simp::Simplifier;
use trajectory::gen::{generate, DatasetSpec, Scale};
use trajectory::TrajectoryDb;

const DIST: QueryDistribution = QueryDistribution::Data;

fn trainer_for(scale: Scale) -> TrainerConfig {
    let workload = RangeWorkloadSpec {
        count: query_count(scale),
        spatial_extent: 2_000.0,
        temporal_extent: 7.0 * 86_400.0,
        dist: DIST,
    };
    TrainerConfig {
        num_dbs: 2,
        trajs_per_db: 10,
        episodes_per_db: 1,
        ratio: 0.02,
        workload,
    }
}

/// Trains with `config`, then reports held-out range F1 and the combined
/// train+simplify wall time. `truth` is the sweep-wide engine over the
/// test database, built once by the caller.
fn score_config(
    config: Rl4QdtsConfig,
    train_db: &TrajectoryDb,
    test_db: &TrajectoryDb,
    truth: &QueryEngine<'_>,
    scale: Scale,
    seed: u64,
) -> (f64, f64) {
    let started = std::time::Instant::now();
    let (model, _) = train(train_db, config, &trainer_for(scale), seed);
    let ratio = ratio_sweep(scale)[0];
    let budget = ((test_db.total_points() as f64 * ratio) as usize)
        .max(traj_simp::min_points_store(&test_db.to_store()));
    let rl = Rl4QdtsSimplifier {
        model,
        state_queries: state_workload(test_db, DIST, query_count(scale), seed ^ 9),
        seed,
        variant: PolicyVariant::FULL,
    };
    let simp = rl.simplify(test_db, budget).materialize(test_db);
    let elapsed = started.elapsed().as_secs_f64();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9a);
    let tasks = build_tasks(
        test_db,
        DIST,
        TaskParams::for_scale(scale, query_count(scale)),
        &mut rng,
    );
    let simp_engine = QueryEngine::over(&simp, EngineConfig::octree());
    (
        eval_range_with_engines(truth, &simp_engine, &tasks),
        elapsed,
    )
}

/// One row of held-out range F1 and train+simplify time per `(value,
/// config)` that `configs` derives from the scaled default configuration.
fn sweep<V: ToString>(
    scale: Scale,
    seed: u64,
    name: &str,
    configs: impl FnOnce(Rl4QdtsConfig) -> Vec<(V, Rl4QdtsConfig)>,
) -> Table {
    let (train_db, test_db) = split_train_test(generate(&DatasetSpec::geolife(scale), seed));
    let truth = QueryEngine::over(&test_db, EngineConfig::octree());
    let base = Rl4QdtsConfig::scaled_to(&train_db).with_delta(25);
    let mut table = Table::new(&[name, "Range F1", "Time (s)"]);
    for (value, config) in configs(base) {
        let (f1, time) = score_config(config, &train_db, &test_db, &truth, scale, seed);
        table.row(vec![
            value.to_string(),
            format!("{f1:.3}"),
            format!("{time:.2}"),
        ]);
    }
    table
}

/// Sweeps the start level `S` (with `E` fixed at the scaled default).
pub fn run_start_level(scale: Scale, seed: u64) -> Table {
    sweep(scale, seed, "S", |base| {
        let levels = 1..=base.max_depth.saturating_sub(1);
        levels.map(|s| (s, base.with_start_level(s))).collect()
    })
}

/// Sweeps the end level `E` (with `S` fixed at 1).
pub fn run_max_depth(scale: Scale, seed: u64) -> Table {
    sweep(scale, seed, "E", |base| {
        let base = base.with_start_level(1);
        let depths = 3..=(base.max_depth + 2).min(10);
        depths.map(|e| (e, base.with_max_depth(e))).collect()
    })
}

/// Sweeps Agent-Point's `K`.
pub fn run_k(scale: Scale, seed: u64) -> Table {
    sweep(scale, seed, "K", |base| {
        [1usize, 2, 4, 8].map(|k| (k, base.with_k(k))).into()
    })
}

/// Sweeps the kNN `k` on a fixed trained model (experiment 8): F1 of both
/// kNN variants as `k` grows.
pub fn run_knn_k(scale: Scale, seed: u64) -> Table {
    let db = generate(&DatasetSpec::geolife(scale), seed);
    let (train_db, test_db) = split_train_test(db);
    let model = crate::suite::train_rl4qdts(&train_db, DIST, query_count(scale), seed);
    let ratio = ratio_sweep(scale)[0];
    let test_store = test_db.to_store();
    let budget = ((test_db.total_points() as f64 * ratio) as usize)
        .max(traj_simp::min_points_store(&test_store));
    let rl = Rl4QdtsSimplifier {
        model,
        state_queries: state_workload(&test_db, DIST, query_count(scale), seed ^ 4),
        seed,
        variant: PolicyVariant::FULL,
    };
    let simplified = rl
        .simplify_store(&test_store, budget)
        .materialize_store(&test_store);

    let mut rng = StdRng::seed_from_u64(seed ^ 0x5b);
    let params = TaskParams::for_scale(scale, query_count(scale));
    let tasks = build_tasks(&test_db, DIST, params, &mut rng);

    let mut table = Table::new(&["k", "kNN(EDR) F1", "kNN(t2vec) F1"]);
    for k in [1usize, 3, 5, 10] {
        let mut cells = Vec::new();
        for measure in [
            Dissimilarity::Edr {
                eps: params.edr_eps,
            },
            Dissimilarity::t2vec_default(),
        ] {
            let scores: Vec<_> = tasks
                .knn_queries
                .iter()
                .map(|(q, ts, te)| {
                    let query = KnnQuery {
                        query: q.clone(),
                        ts: *ts,
                        te: *te,
                        k,
                        measure,
                    };
                    f1_sets(
                        &query.execute_store(&test_store),
                        &query.execute_store(&simplified),
                    )
                })
                .collect();
            cells.push(format!("{:.3}", mean_f1(&scores)));
        }
        table.row(vec![k.to_string(), cells[0].clone(), cells[1].clone()]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k_sweep_has_four_rows() {
        let t = run_k(Scale::Smoke, 41);
        assert_eq!(t.rows().len(), 4);
        for r in t.rows() {
            let f1: f64 = r[1].parse().unwrap();
            assert!((0.0..=1.0).contains(&f1));
        }
    }

    #[test]
    fn knn_k_sweep_scores_both_measures() {
        let t = run_knn_k(Scale::Smoke, 43);
        assert_eq!(t.rows().len(), 4);
        assert_eq!(t.rows()[0].len(), 3);
    }
}
