//! Quickstart: generate a trajectory database, train RL4QDTS, simplify
//! under a budget, and verify that query accuracy survives.
//!
//! Run with: `cargo run --release --example quickstart`

use qdts::query::{
    range_workload_store, EngineConfig, QueryDistribution, QueryEngine, RangeWorkloadSpec,
};
use qdts::rl4qdts::{train_store, RewardTracker, Rl4QdtsConfig, TrainerConfig};
use qdts::trajectory::gen::{generate, DatasetSpec, Scale};
use qdts::trajectory::{DatasetStats, Simplification};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // 1. A Geolife-shaped synthetic database (dense GPS, mixed movement).
    let spec = DatasetSpec::geolife(Scale::Smoke).with_trajectories(30);
    let pool = generate(&spec, 42);
    // The generator hands back a row-form builder; `to_store()` is its
    // exit into the columns everything below runs over.
    let (train_pool, db) = pool.split_at(14);
    let (train_pool, db) = (train_pool.to_store(), db.to_store());
    println!("database: {}", DatasetStats::compute(&db));

    // 2. The query workload we want the simplified database to keep
    //    answering correctly: tight range queries (1 km x 1 km x 1 h)
    //    centered on the data — the kind endpoint-only storage fails.
    let workload = RangeWorkloadSpec {
        count: 30,
        spatial_extent: 1_000.0,
        temporal_extent: 3_600.0,
        dist: QueryDistribution::Data,
    };

    // 3. Train the two agents (Agent-Cube picks octree cubes, Agent-Point
    //    picks points) with the shared query-accuracy reward.
    let config = Rl4QdtsConfig::scaled_to_points(train_pool.total_points()).with_delta(25);
    let trainer = TrainerConfig::small(workload);
    let (model, stats) = train_store(&train_pool, config, &trainer, 7);
    println!(
        "trained: {} episodes, {} insertions, {:.2}s",
        stats.episodes, stats.insertions, stats.wall_seconds
    );

    // 4. Simplify to 5% of the original points.
    let budget = db.total_points() / 20;
    let mut rng = StdRng::seed_from_u64(1);
    let state_queries = range_workload_store(&db, &workload, &mut rng);
    let simplified = model.simplify_store(&db, budget, &state_queries, 1);
    println!(
        "simplified: {} -> {} points ({:.1}x reduction)",
        db.total_points(),
        simplified.total_points(),
        db.total_points() as f64 / simplified.total_points() as f64
    );

    // 5. How much query accuracy survived? (1.0 = identical results)
    //    Query execution runs through the index-accelerated engine.
    let eval_queries = range_workload_store(&db, &workload, &mut rng);
    let baseline = Simplification::most_simplified_store(&db);
    let engine = QueryEngine::over_store(&db, EngineConfig::octree());
    let tracker = RewardTracker::new(&engine, eval_queries, &baseline);
    println!(
        "range-query F1 endpoints-only: {:.3}, RL4QDTS: {:.3}",
        1.0 - tracker.diff_of(&engine, &baseline),
        1.0 - tracker.diff_of(&engine, &simplified),
    );
}
