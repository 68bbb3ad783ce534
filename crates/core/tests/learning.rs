//! End-to-end learning checks: a trained RL4QDTS model must preserve
//! range-query accuracy at least as well as query-oblivious baselines on
//! held-out data — the paper's core claim, at smoke scale.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rl4qdts::{train_store, RewardTracker, Rl4QdtsConfig, TrainerConfig};
use traj_query::{
    range_workload_store, EngineConfig, QueryDistribution, QueryEngine, RangeWorkloadSpec,
};
use traj_simp::{Simplifier, Uniform};
use trajectory::gen::{generate, DatasetSpec, Scale};
use trajectory::{PointStore, Simplification};

fn pool(seed: u64) -> PointStore {
    generate(&DatasetSpec::geolife(Scale::Smoke), seed).to_store()
}

fn workload_spec(count: usize) -> RangeWorkloadSpec {
    RangeWorkloadSpec {
        count,
        spatial_extent: 2_500.0,
        temporal_extent: 2.0 * 86_400.0,
        dist: QueryDistribution::Data,
    }
}

#[test]
fn trained_model_beats_uniform_sampling_on_query_accuracy() {
    let (train_pool, test_db) = generate(&DatasetSpec::geolife(Scale::Smoke), 1234).split_at(8);
    let (train_pool, test_db) = (train_pool.to_store(), test_db.to_store());

    let config = Rl4QdtsConfig::scaled_to_points(train_pool.total_points()).with_delta(25);
    let trainer = TrainerConfig {
        num_dbs: 3,
        trajs_per_db: 6,
        episodes_per_db: 2,
        ratio: 0.03,
        workload: workload_spec(30),
    };
    let (model, stats) = train_store(&train_pool, config, &trainer, 2024);
    assert!(stats.insertions > 0);

    // Held-out evaluation: same query distribution, fresh queries.
    let mut rng = StdRng::seed_from_u64(555);
    let state_queries = range_workload_store(&test_db, &workload_spec(30), &mut rng);
    let eval_queries = range_workload_store(&test_db, &workload_spec(50), &mut rng);
    let budget = (test_db.total_points() / 50).max(2 * test_db.len() + 50);

    let ours = model.simplify_store(&test_db, budget, &state_queries, 9);
    let uniform = Uniform.simplify_store(&test_db, budget);

    let base = Simplification::most_simplified_store(&test_db);
    let engine = QueryEngine::over_store(&test_db, EngineConfig::octree());
    let tracker = RewardTracker::new(&engine, eval_queries, &base);
    let diff_ours = tracker.diff_of(&engine, &ours);
    let diff_uniform = tracker.diff_of(&engine, &uniform);

    // The RL model may not win every smoke-scale configuration, but it must
    // be clearly competitive (the paper's wins are 5-40% at full scale).
    assert!(
        diff_ours <= diff_uniform + 0.10,
        "RL4QDTS diff {diff_ours:.3} should not trail uniform {diff_uniform:.3} by >0.10"
    );
}

#[test]
fn more_budget_never_hurts_much() {
    let pool = pool(99);
    let config = Rl4QdtsConfig::scaled_to_points(pool.total_points()).with_delta(20);
    let trainer = TrainerConfig {
        num_dbs: 2,
        trajs_per_db: 6,
        episodes_per_db: 1,
        ratio: 0.03,
        workload: workload_spec(20),
    };
    let (model, _) = train_store(&pool, config, &trainer, 3);

    let mut rng = StdRng::seed_from_u64(4);
    let state_queries = range_workload_store(&pool, &workload_spec(20), &mut rng);
    let eval_queries = range_workload_store(&pool, &workload_spec(40), &mut rng);
    let base = Simplification::most_simplified_store(&pool);
    let engine = QueryEngine::over_store(&pool, EngineConfig::octree());
    let tracker = RewardTracker::new(&engine, eval_queries, &base);

    let small = model.simplify_store(&pool, pool.total_points() / 40, &state_queries, 5);
    let large = model.simplify_store(&pool, pool.total_points() / 5, &state_queries, 5);
    let d_small = tracker.diff_of(&engine, &small);
    let d_large = tracker.diff_of(&engine, &large);
    assert!(
        d_large <= d_small + 0.05,
        "8x budget should not be noticeably worse: small {d_small:.3} vs large {d_large:.3}"
    );
}

#[test]
fn compression_ratios_are_nonuniform_across_trajectories() {
    // The motivating claim: collective simplification spends budget
    // unevenly (complex/queried trajectories keep more points).
    let pool = pool(777);
    let config = Rl4QdtsConfig::scaled_to_points(pool.total_points()).with_delta(20);
    let trainer = TrainerConfig {
        num_dbs: 2,
        trajs_per_db: 6,
        episodes_per_db: 1,
        ratio: 0.05,
        workload: workload_spec(20),
    };
    let (model, _) = train_store(&pool, config, &trainer, 6);
    let mut rng = StdRng::seed_from_u64(8);
    let queries = range_workload_store(&pool, &workload_spec(20), &mut rng);
    let simp = model.simplify_store(&pool, pool.total_points() / 10, &queries, 2);

    let ratios = simp.compression_ratios(&pool);
    let min = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = ratios.iter().cloned().fold(0.0f64, f64::max);
    assert!(
        max > min * 1.2,
        "expected non-uniform ratios, got min {min:.4} max {max:.4}"
    );
}
