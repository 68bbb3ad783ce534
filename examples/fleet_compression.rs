//! Scenario: a ride-hailing operator archives a week of taxi traces but
//! must keep answering pickup-hotspot (range) queries from the archive.
//!
//! Compares four ways to spend the same storage budget on a Chengdu-shaped
//! fleet: uniform sampling, per-trajectory Top-Down, database-level
//! Bottom-Up, and RL4QDTS — reporting the storage/accuracy trade-off each
//! achieves under the *real* (pickup/dropoff-biased) query distribution.
//!
//! Run with: `cargo run --release --example fleet_compression`

use qdts::query::{
    range_workload_store, EngineConfig, QueryDistribution, QueryEngine, RangeWorkloadSpec,
};
use qdts::rl4qdts::{train_store, RewardTracker, Rl4QdtsConfig, TrainerConfig};
use qdts::simp::{Adaptation, BottomUp, Simplifier, TopDown, Uniform};
use qdts::trajectory::gen::{generate, DatasetSpec, Scale};
use qdts::trajectory::{ErrorMeasure, Simplification};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let fleet = generate(&DatasetSpec::chengdu(Scale::Smoke), 11);
    // The generator hands back a row-form builder; everything downstream
    // runs over its columns.
    let (train_pool, archive) = fleet.split_at(20);
    let (train_pool, archive) = (train_pool.to_store(), archive.to_store());
    println!(
        "archive: {} trips, {} GPS points",
        archive.len(),
        archive.total_points()
    );

    // Ride-hailing queries concentrate near pickup/dropoff hubs.
    let workload = RangeWorkloadSpec {
        count: 40,
        spatial_extent: 1_500.0,
        temporal_extent: 86_400.0,
        dist: QueryDistribution::Real,
    };
    let mut rng = StdRng::seed_from_u64(2);
    let state_queries = range_workload_store(&archive, &workload, &mut rng);
    let eval_queries = range_workload_store(&archive, &workload, &mut rng);
    let baseline = Simplification::most_simplified_store(&archive);
    let engine = QueryEngine::over_store(&archive, EngineConfig::octree());
    let tracker = RewardTracker::new(&engine, eval_queries, &baseline);

    let config = Rl4QdtsConfig::scaled_to_points(train_pool.total_points()).with_delta(25);
    let (model, _) = train_store(&train_pool, config, &TrainerConfig::small(workload), 5);

    let budget = archive.total_points() / 10; // keep 10%
    println!("storage budget: {budget} points (10%)\n");
    println!("{:<22} {:>8} {:>10}", "method", "points", "range F1");

    let report = |name: &str, simp: &Simplification| {
        println!(
            "{:<22} {:>8} {:>10.3}",
            name,
            simp.total_points(),
            1.0 - tracker.diff_of(&engine, simp)
        );
    };

    report("Uniform", &Uniform.simplify_store(&archive, budget));
    report(
        "Top-Down(E,SED)",
        &TopDown::new(ErrorMeasure::Sed, Adaptation::Each).simplify_store(&archive, budget),
    );
    report(
        "Bottom-Up(W,PED)",
        &BottomUp::new(ErrorMeasure::Ped, Adaptation::Whole).simplify_store(&archive, budget),
    );
    report(
        "RL4QDTS",
        &model.simplify_store(&archive, budget, &state_queries, 3),
    );

    // Where did RL4QDTS spend the budget? Show the spread of per-trip
    // compression ratios — collective simplification is deliberately
    // non-uniform.
    let simp = model.simplify_store(&archive, budget, &state_queries, 3);
    let ratios = simp.compression_ratios(&archive);
    let min = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = ratios.iter().cloned().fold(0.0f64, f64::max);
    println!(
        "\nRL4QDTS per-trip keep-ratio spread: {:.1}% .. {:.1}% (uniform methods: flat)",
        100.0 * min,
        100.0 * max
    );
}
