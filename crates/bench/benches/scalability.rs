//! Fig. 8(a) as a criterion bench: RL4QDTS + representative baselines'
//! simplification time as the data size grows (OSM-like data, fixed
//! ratio). The shape — near-linear growth, Top-Down fastest, Bottom-Up
//! slowest — is the reproduced claim.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qdts_eval::suite::{state_workload, train_rl4qdts, Rl4QdtsSimplifier};
use rl4qdts::PolicyVariant;
use traj_query::QueryDistribution;
use traj_simp::{Adaptation, BottomUp, Simplifier, TopDown};
use trajectory::gen::{generate, DatasetSpec, Scale};
use trajectory::ErrorMeasure;

fn bench_scalability(c: &mut Criterion) {
    let spec = DatasetSpec::osm(Scale::Smoke);
    let train_db = generate(&spec.clone().with_trajectories(4), 11);
    let model = train_rl4qdts(&train_db, QueryDistribution::Data, 8, 11);

    let mut group = c.benchmark_group("fig8a_time_vs_datasize");
    group.sample_size(10);
    for m in [4usize, 8, 16] {
        let db = generate(&spec.clone().with_trajectories(m), 12);
        let budget = ((db.total_points() as f64 * 0.05) as usize)
            .max(traj_simp::min_points_store(&db.to_store()));
        let n = db.total_points();

        let td = TopDown::new(ErrorMeasure::Ped, Adaptation::Each);
        group.bench_with_input(BenchmarkId::new("TopDown(E,PED)", n), &db, |b, db| {
            b.iter(|| td.simplify(db, budget))
        });
        let bu = BottomUp::new(ErrorMeasure::Sed, Adaptation::Each);
        group.bench_with_input(BenchmarkId::new("BottomUp(E,SED)", n), &db, |b, db| {
            b.iter(|| bu.simplify(db, budget))
        });
        let rl = Rl4QdtsSimplifier {
            model: model.clone(),
            state_queries: state_workload(&db, QueryDistribution::Data, 8, 13),
            seed: 13,
            variant: PolicyVariant::FULL,
        };
        group.bench_with_input(BenchmarkId::new("RL4QDTS", n), &db, |b, db| {
            b.iter(|| rl.simplify(db, budget))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_scalability);
criterion_main!(benches);
