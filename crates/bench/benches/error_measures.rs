//! Micro-benchmarks of the four error measures (Eq. 1–2): the innermost
//! kernel of every simplifier.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use trajectory::gen::{generate, DatasetSpec, Scale};
use trajectory::ErrorMeasure;

fn bench_error_measures(c: &mut Criterion) {
    let db = generate(&DatasetSpec::geolife(Scale::Smoke), 1);
    let traj = db.get(0).clone();
    let n = traj.len();

    let mut group = c.benchmark_group("point_error");
    group.sample_size(20);
    for m in ErrorMeasure::ALL {
        group.bench_with_input(BenchmarkId::from_parameter(m.name()), &m, |b, &m| {
            b.iter(|| {
                let mut acc = 0.0;
                for i in 1..n - 1 {
                    acc += m.point_error_seq(std::hint::black_box(&traj), 0, n - 1, i);
                }
                acc
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("trajectory_error");
    group.sample_size(20);
    let kept: Vec<u32> = (0..n as u32).step_by(8).chain([n as u32 - 1]).collect();
    for m in ErrorMeasure::ALL {
        group.bench_with_input(BenchmarkId::from_parameter(m.name()), &m, |b, &m| {
            b.iter(|| m.trajectory_error(std::hint::black_box(&traj), &kept))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_error_measures);
criterion_main!(benches);
