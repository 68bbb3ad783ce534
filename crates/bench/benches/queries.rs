//! Query-operator benchmarks: the evaluation pipeline's building blocks
//! (range scan, EDR dynamic program, t2vec embedding, similarity check,
//! TRACLUS clustering), plus the headline comparison of this crate —
//! the indexed, parallel `QueryEngine` versus the naive linear scan on a
//! T-Drive-scale batch range workload.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use traj_query::knn::{Dissimilarity, KnnQuery};
use traj_query::similarity::SimilarityQuery;
use traj_query::t2vec::T2vecEmbedder;
use traj_query::traclus::{traclus, TraclusParams};
use traj_query::{
    edr, range_workload_store, BackendKind, DbOptions, EngineConfig, QueryBatch, QueryDistribution,
    QueryEngine, QueryExecutor, RangeWorkloadSpec, TrajDb,
};
use trajectory::gen::{generate, DatasetSpec, Scale};
use trajectory::shard::{partition, PartitionStrategy};

fn bench_queries(c: &mut Criterion) {
    let db = generate(&DatasetSpec::geolife(Scale::Smoke).with_trajectories(16), 1);
    let store = db.to_store();
    let spec = RangeWorkloadSpec::paper_default(20, QueryDistribution::Data);
    let mut rng = StdRng::seed_from_u64(1);
    let queries = range_workload_store(&store, &spec, &mut rng);

    c.bench_function("range_query_batch_20", |b| {
        b.iter(|| traj_query::range_query_batch(std::hint::black_box(&store), &queries))
    });

    let a = db.get(0);
    let bt = db.get(1);
    c.bench_function("edr_full_trajectories", |b| {
        b.iter(|| edr::edr_seq(std::hint::black_box(a), std::hint::black_box(bt), 2_000.0))
    });

    let embedder = T2vecEmbedder::default();
    c.bench_function("t2vec_embed", |b| {
        b.iter(|| embedder.embed_points(std::hint::black_box(a).points()))
    });

    let (t0, t1) = db.time_span();
    let knn = KnnQuery {
        query: a.clone(),
        ts: t0,
        te: t1,
        k: 3,
        measure: Dissimilarity::Edr { eps: 2_000.0 },
    };
    c.bench_function("knn_edr_whole_db", |b| {
        b.iter(|| knn.execute_store(std::hint::black_box(&store)))
    });

    let sim = SimilarityQuery {
        query: a.clone(),
        ts: a.time_span().0,
        te: a.time_span().1,
        delta: 5_000.0,
        step: 600.0,
    };
    c.bench_function("similarity_whole_db", |b| {
        b.iter(|| sim.execute_store(std::hint::black_box(&store)))
    });

    let small = store.gather_trajs(&(0..8).collect::<Vec<_>>());
    let mut group = c.benchmark_group("traclus");
    group.sample_size(10);
    group.bench_function("traclus_8_trajectories", |b| {
        b.iter(|| traclus(std::hint::black_box(&small), &TraclusParams::default()))
    });
    group.finish();
}

/// The tentpole number: one batch range workload (paper query shape,
/// 2 km × 2 km × 7 days, data-distributed) over a T-Drive-shaped database,
/// executed by the naive per-query linear scan (the scalar column
/// reference, `range_query_store`) versus the `QueryEngine` with each index
/// backend. The acceptance bar is octree ≥ 5× over scan.
fn bench_batch_workload_indexed_vs_scan(c: &mut Criterion) {
    let db = generate(&DatasetSpec::tdrive(Scale::Small).with_trajectories(400), 7).to_store();
    let spec = RangeWorkloadSpec::paper_default(100, QueryDistribution::Data);
    let mut rng = StdRng::seed_from_u64(11);
    let queries = range_workload_store(&db, &spec, &mut rng);

    let mut group = c.benchmark_group("batch_range_workload");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("linear_scan", db.total_points()), |b| {
        b.iter(|| traj_query::range_query_batch(std::hint::black_box(&db), &queries))
    });
    for backend in [
        BackendKind::Scan,
        BackendKind::Octree,
        BackendKind::MedianKd,
    ] {
        let engine = QueryEngine::over_store(&db, EngineConfig::default().backend(backend));
        group.bench_function(BenchmarkId::new(backend.label(), db.total_points()), |b| {
            b.iter(|| std::hint::black_box(&engine).range_batch(&queries))
        });
    }
    // Index construction cost, for the amortization story.
    group.bench_function(BenchmarkId::new("octree_build", db.total_points()), |b| {
        b.iter(|| QueryEngine::over_store(std::hint::black_box(&db), EngineConfig::octree()))
    });
    group.finish();
}

/// The API-redesign number: one *mixed* workload — ranges, kNNs, and
/// similarities, the shape of the paper's Eq. 10 evaluation — executed
/// the pre-façade way (three homogeneous `*_batch` calls, serial per
/// kind, a synchronization barrier between kinds) versus as one
/// heterogeneous `QueryBatch` in a single work-stealing pass, on both
/// the single-store and the sharded executor.
fn bench_heterogeneous_batch(c: &mut Criterion) {
    let store = generate(&DatasetSpec::tdrive(Scale::Small).with_trajectories(200), 7).to_store();
    let mut rng = StdRng::seed_from_u64(23);
    let spec = RangeWorkloadSpec::paper_default(60, QueryDistribution::Data);
    let cubes = range_workload_store(&store, &spec, &mut rng);
    let (t0, t1) = store.time_span();
    let knns: Vec<KnnQuery> = (0..12)
        .map(|i| KnnQuery {
            query: store.view(i * store.len() / 12).to_trajectory(),
            ts: t0,
            te: t1,
            k: 3,
            measure: Dissimilarity::Edr { eps: 2_000.0 },
        })
        .collect();
    let sims: Vec<SimilarityQuery> = (0..12)
        .map(|i| {
            let q = store.view(i * store.len() / 12).to_trajectory();
            let (ts, te) = q.time_span();
            SimilarityQuery {
                query: q,
                ts,
                te,
                delta: 5_000.0,
                step: 600.0,
            }
        })
        .collect();
    // Interleave kinds so the heterogeneous plan cannot win by accident
    // of ordering.
    let mut batch = QueryBatch::new();
    for (i, q) in cubes.iter().enumerate() {
        batch.push_range(*q);
        if i % 5 == 0 && i / 5 < knns.len() {
            batch.push_knn(knns[i / 5].clone());
            batch.push_similarity(sims[i / 5].clone());
        }
    }

    let single = TrajDb::from_store(store.clone(), DbOptions::new());
    let shards = partition(&store, &PartitionStrategy::Time { parts: 4 });
    let sharded = TrajDb::from_shards(
        shards.into_iter().map(Into::into).collect(),
        DbOptions::new(),
    );
    let mut group = c.benchmark_group("mixed_workload");
    group.sample_size(10);
    for (label, db) in [("single", &single), ("sharded", &sharded)] {
        group.bench_function(BenchmarkId::new("per_kind_batches", label), |b| {
            b.iter(|| {
                let db = std::hint::black_box(db);
                (
                    db.range_batch(&cubes),
                    db.knn_batch(&knns),
                    db.similarity_batch(&sims),
                )
            })
        });
        group.bench_function(BenchmarkId::new("heterogeneous_batch", label), |b| {
            b.iter(|| std::hint::black_box(db).execute_batch(&batch))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_queries,
    bench_batch_workload_indexed_vs_scan,
    bench_heterogeneous_batch
);
criterion_main!(benches);
