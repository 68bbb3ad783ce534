//! Octree benchmarks: build cost (the O(N) term of the paper's complexity
//! analysis), query assignment, the start-cube distribution (its
//! once-per-loop build and its per-insertion draw, timed apart), and
//! per-cube point enumeration (Agent-Point's state construction input).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use traj_index::{CubeIndex, Octree, OctreeConfig};
use traj_query::{range_workload, QueryDistribution, RangeWorkloadSpec};
use trajectory::gen::{generate, DatasetSpec, Scale};

fn bench_octree(c: &mut Criterion) {
    let mut group = c.benchmark_group("octree_build");
    group.sample_size(10);
    for m in [8usize, 16, 32] {
        let store =
            generate(&DatasetSpec::geolife(Scale::Smoke).with_trajectories(m), 1).to_store();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("N={}", store.total_points())),
            &store,
            |b, store| b.iter(|| Octree::build(store, OctreeConfig::default())),
        );
    }
    group.finish();

    let db = generate(&DatasetSpec::geolife(Scale::Smoke).with_trajectories(16), 1);
    let mut tree = Octree::build(&db.to_store(), OctreeConfig::default());
    let spec = RangeWorkloadSpec::paper_default(100, QueryDistribution::Data);
    let mut rng = StdRng::seed_from_u64(2);
    let queries = range_workload(&db, &spec, &mut rng);

    c.bench_function("octree_assign_100_queries", |b| {
        b.iter(|| tree.assign_queries(std::hint::black_box(&queries)))
    });

    tree.assign_queries(&queries);
    c.bench_function("octree_start_sampler_build", |b| {
        b.iter(|| tree.start_sampler(std::hint::black_box(3), false))
    });

    c.bench_function("octree_start_sampler_draw", |b| {
        let sampler = tree.start_sampler(3, false);
        let mut rng = StdRng::seed_from_u64(3);
        b.iter(|| sampler.sample(&mut rng))
    });

    c.bench_function("octree_sorted_point_ids_root", |b| {
        let mut ids = Vec::new();
        b.iter(|| {
            tree.sorted_point_ids(tree.root(), &mut ids);
            ids.len()
        })
    });
}

criterion_group!(benches, bench_octree);
criterion_main!(benches);
