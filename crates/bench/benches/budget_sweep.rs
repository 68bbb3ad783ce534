//! Fig. 8(b) as a criterion bench: simplification time as the budget `W`
//! grows at fixed data size. Top-Down's cost *grows* with W (more
//! insertions) while Bottom-Up's *shrinks* (fewer drops) — the crossover
//! the paper reports.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qdts_eval::suite::{state_workload, train_rl4qdts, Rl4QdtsSimplifier};
use rl4qdts::PolicyVariant;
use traj_query::QueryDistribution;
use traj_simp::{Adaptation, BottomUp, Simplifier, TopDown};
use trajectory::gen::{generate, DatasetSpec, Scale};
use trajectory::ErrorMeasure;

fn bench_budget_sweep(c: &mut Criterion) {
    let spec = DatasetSpec::osm(Scale::Smoke);
    let db = generate(&spec.clone().with_trajectories(8), 21);
    let train_db = generate(&spec.with_trajectories(4), 22);
    let model = train_rl4qdts(&train_db, QueryDistribution::Data, 8, 23);

    let mut group = c.benchmark_group("fig8b_time_vs_budget");
    group.sample_size(10);
    for ratio in [0.05f64, 0.15, 0.4] {
        let budget = ((db.total_points() as f64 * ratio) as usize)
            .max(traj_simp::min_points_store(&db.to_store()));
        let label = format!("{:.0}%", ratio * 100.0);

        let td = TopDown::new(ErrorMeasure::Ped, Adaptation::Each);
        group.bench_with_input(
            BenchmarkId::new("TopDown(E,PED)", &label),
            &budget,
            |b, &w| b.iter(|| td.simplify(&db, w)),
        );
        let bu = BottomUp::new(ErrorMeasure::Sed, Adaptation::Each);
        group.bench_with_input(
            BenchmarkId::new("BottomUp(E,SED)", &label),
            &budget,
            |b, &w| b.iter(|| bu.simplify(&db, w)),
        );
        let rl = Rl4QdtsSimplifier {
            model: model.clone(),
            state_queries: state_workload(&db, QueryDistribution::Data, 8, 24),
            seed: 24,
            variant: PolicyVariant::FULL,
        };
        group.bench_with_input(BenchmarkId::new("RL4QDTS", &label), &budget, |b, &w| {
            b.iter(|| rl.simplify(&db, w))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_budget_sweep);
criterion_main!(benches);
