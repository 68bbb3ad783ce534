//! Simplifier benchmarks: the cost of each baseline family at a fixed
//! budget — the per-method component behind Fig. 8's curves.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use traj_simp::rlts::{RltsPlus, RltsTrainConfig};
use traj_simp::{Adaptation, BottomUp, Simplifier, SpanSearch, TopDown, Uniform};
use trajectory::gen::{generate, DatasetSpec, Scale};
use trajectory::ErrorMeasure;

fn bench_simplifiers(c: &mut Criterion) {
    let db = generate(&DatasetSpec::geolife(Scale::Smoke).with_trajectories(12), 1).to_store();
    let budget = db.total_points() / 10;
    let rlts = RltsPlus::train(
        ErrorMeasure::Sed,
        Adaptation::Each,
        3,
        &db,
        &RltsTrainConfig {
            episodes: 5,
            ..RltsTrainConfig::default()
        },
        7,
    );

    let methods: Vec<Box<dyn Simplifier>> = vec![
        Box::new(Uniform),
        Box::new(TopDown::new(ErrorMeasure::Sed, Adaptation::Each)),
        Box::new(TopDown::new(ErrorMeasure::Sed, Adaptation::Whole)),
        Box::new(BottomUp::new(ErrorMeasure::Sed, Adaptation::Each)),
        Box::new(BottomUp::new(ErrorMeasure::Sed, Adaptation::Whole)),
        Box::new(SpanSearch),
        Box::new(rlts),
    ];

    let mut group = c.benchmark_group("simplify_10pct");
    group.sample_size(10);
    for m in &methods {
        group.bench_with_input(BenchmarkId::from_parameter(m.name()), m, |b, m| {
            b.iter(|| m.simplify_store(std::hint::black_box(&db), budget))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_simplifiers);
criterion_main!(benches);
