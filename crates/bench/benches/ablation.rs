//! Table II's time column as a criterion bench: the cost of the four
//! RL4QDTS policy variants. The full method pays for both learned
//! decisions; dropping agents trades accuracy for speed.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qdts_eval::suite::{state_workload, train_rl4qdts, Rl4QdtsSimplifier};
use rl4qdts::PolicyVariant;
use traj_query::QueryDistribution;
use traj_simp::Simplifier;
use trajectory::gen::{generate, DatasetSpec, Scale};

fn bench_ablation(c: &mut Criterion) {
    let db = generate(
        &DatasetSpec::geolife(Scale::Smoke).with_trajectories(12),
        31,
    );
    let train_db = generate(&DatasetSpec::geolife(Scale::Smoke), 32);
    let model = train_rl4qdts(&train_db, QueryDistribution::Data, 8, 33);
    let budget = ((db.total_points() as f64 * 0.05) as usize)
        .max(traj_simp::min_points_store(&db.to_store()));

    let mut group = c.benchmark_group("table2_variant_time");
    group.sample_size(10);
    for variant in [
        PolicyVariant::FULL,
        PolicyVariant::NO_CUBE,
        PolicyVariant::NO_POINT,
        PolicyVariant::NEITHER,
    ] {
        let rl = Rl4QdtsSimplifier {
            model: model.clone(),
            state_queries: state_workload(&db, QueryDistribution::Data, 8, 34),
            seed: 34,
            variant,
        };
        group.bench_with_input(
            BenchmarkId::from_parameter(variant.label()),
            &rl,
            |b, rl| b.iter(|| rl.simplify(&db, budget)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
