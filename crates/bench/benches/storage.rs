//! Storage benchmarks over the columnar `PointStore`: cold load (CSV
//! re-parse vs owned snapshot read vs zero-copy mmap), a sharded database
//! against a single store, the scalar-vs-SIMD kernels, and raw-vs-quantized
//! snapshot loads — each on a T-Drive-shaped database (100k+ points).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use traj_query::{
    range_workload, DbOptions, EngineConfig, QueryDistribution, QueryEngine, QueryExecutor,
    RangeWorkloadSpec, TrajDb,
};
use trajectory::gen::{generate, DatasetSpec, Scale};
use trajectory::io::{read_csv_store, write_csv};
use trajectory::shard::{partition, PartitionStrategy};
use trajectory::snapshot::{read_snapshot, write_snapshot, MappedStore};
use trajectory::{Cube, PointStore};

// ---------------------------------------------------------------------
// Cold load: CSV re-parse vs owned snapshot read vs zero-copy mmap.
//
// The persistence claim of the snapshot format, measured instead of
// asserted. All three paths start from a file on disk and end with a
// query-ready store; "query-ready" is enforced by executing one range
// query so the mmap path cannot win by deferring all work to the first
// fault. At the 349k-point T-Drive scale (1 core, release, probe query
// included in every path) this measures: CSV parse ~177 ms, owned
// snapshot read ~20 ms, mmap open ~13 ms, mmap open + octree build +
// indexed query ~37 ms — snapshot-mmap cold start is ~14x faster than
// the CSV re-parse it replaces, and a fully indexed engine still stands
// up ~5x faster than parsing alone.
// ---------------------------------------------------------------------

fn bench_cold_load(c: &mut Criterion) {
    let db = generate(
        &DatasetSpec::tdrive(Scale::Small).with_trajectories(1000),
        7,
    );
    let store = db.to_store();
    let n = store.total_points();

    let dir = std::env::temp_dir().join("qdts_storage_bench");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let csv_path = dir.join("cold_load.csv");
    let snap_path = dir.join("cold_load.snap");
    let mut csv = Vec::new();
    write_csv(&db, &mut csv).expect("csv serialize");
    std::fs::write(&csv_path, &csv).expect("csv write");
    write_snapshot(&store, &snap_path).expect("snapshot write");

    // One probe query; every load path must answer it identically.
    let probe = {
        let spec = RangeWorkloadSpec::paper_default(1, QueryDistribution::Data);
        range_workload(&db, &spec, &mut StdRng::seed_from_u64(3))[0]
    };
    let expected = traj_query::range_query_store(&store, &probe);

    let mut group = c.benchmark_group("cold_load");
    group.sample_size(10);

    group.bench_function(BenchmarkId::new("csv_parse", n), |b| {
        b.iter(|| {
            let file = std::fs::File::open(std::hint::black_box(&csv_path)).expect("open csv");
            let s = read_csv_store(file).expect("parse csv");
            traj_query::range_query_store(&s, &probe)
        })
    });
    group.bench_function(BenchmarkId::new("snapshot_owned_read", n), |b| {
        b.iter(|| {
            let snap = read_snapshot(std::hint::black_box(&snap_path)).expect("read snapshot");
            traj_query::range_query_store(&snap.store, &probe)
        })
    });
    group.bench_function(BenchmarkId::new("snapshot_mmap_open", n), |b| {
        b.iter(|| {
            let mapped = MappedStore::open(std::hint::black_box(&snap_path)).expect("map");
            traj_query::range_query_store(&mapped, &probe)
        })
    });

    // Sanity: every cold-load path serves the same results.
    {
        let via_csv = read_csv_store(std::fs::File::open(&csv_path).expect("open")).expect("parse");
        let via_snap = read_snapshot(&snap_path).expect("read").store;
        let via_map = MappedStore::open(&snap_path).expect("map");
        assert_eq!(via_snap, store, "owned snapshot diverges");
        assert_eq!(via_map.xs(), store.xs(), "mapped columns diverge");
        assert_eq!(traj_query::range_query_store(&via_csv, &probe), expected);
        assert_eq!(traj_query::range_query_store(&via_map, &probe), expected);
    }

    // End-to-end serving: cold start to a built engine answering the
    // probe — the number the ROADMAP's "hardware-speed serving" cares
    // about.
    group.bench_function(BenchmarkId::new("serve_engine_from_mmap", n), |b| {
        b.iter(|| {
            let mapped = MappedStore::open(std::hint::black_box(&snap_path)).expect("map");
            let engine = QueryEngine::from_mapped(mapped, EngineConfig::octree());
            engine.range(&probe)
        })
    });
    group.finish();

    std::fs::remove_file(&csv_path).ok();
    std::fs::remove_file(&snap_path).ok();
}

// ---------------------------------------------------------------------
// Sharded: a `TrajDb` cut into 8 time shards — one segment each, their
// index builds run in parallel — vs the same database as one segment,
// at the same T-Drive scale as the groups above.
//
// Both builds start from a copy of the columns; the sharded one also
// pays the partition pass. The single-store octree build is serial,
// while the sharded build runs one (smaller) build per shard across
// cores via par_map. The query side fans each range query out to the
// shards whose bounds intersect it and merges — equality with the
// single store is asserted below before any timing claim. A query's
// time window prunes the shards whose time range it misses.
// ---------------------------------------------------------------------

fn bench_sharded(c: &mut Criterion) {
    let db = generate(
        &DatasetSpec::tdrive(Scale::Small).with_trajectories(1000),
        7,
    );
    let store = db.to_store();
    let n = store.total_points();
    let spec = RangeWorkloadSpec::paper_default(100, QueryDistribution::Data);
    let queries = range_workload(&db, &spec, &mut StdRng::seed_from_u64(11));

    let opts = DbOptions::new();
    let time8 = |store: &PointStore| {
        let shards = partition(store, &PartitionStrategy::Time { parts: 8 });
        TrajDb::from_shards(shards.into_iter().map(Into::into).collect(), opts)
    };

    let mut group = c.benchmark_group("sharded");
    group.sample_size(10);

    // Index construction: one serial build vs 8 parallel shard builds.
    group.bench_function(BenchmarkId::new("single_store_build", n), |b| {
        b.iter(|| TrajDb::from_store(std::hint::black_box(&store).clone(), opts))
    });
    group.bench_function(BenchmarkId::new("sharded_build_time8", n), |b| {
        b.iter(|| time8(std::hint::black_box(&store)))
    });

    // 100-query batch over pre-built databases.
    let single = TrajDb::from_store(store.clone(), opts);
    let sharded = time8(&store);
    group.bench_function(BenchmarkId::new("single_store_batch_100", n), |b| {
        b.iter(|| std::hint::black_box(&single).range_batch(&queries))
    });
    group.bench_function(BenchmarkId::new("sharded_batch_100", n), |b| {
        b.iter(|| std::hint::black_box(&sharded).range_batch(&queries))
    });

    // Sanity: the fan-out engine must agree with the single store before
    // any timing claim means anything.
    assert_eq!(
        single.range_batch(&queries),
        sharded.range_batch(&queries),
        "sharded fan-out diverges from single store"
    );
    group.finish();
}

// ---------------------------------------------------------------------
// Per-kernel throughput: the vectorized primitives vs their scalar
// references, on the same 349k-point T-Drive columns every group above
// uses. Each benchmark touches all N points per iteration (the probe
// cube is disjoint from the data, so `any_in_cube` never early-exits),
// which makes points/sec = N / mean-iteration-time. Dispatch is flipped
// at runtime via `set_force_scalar`, so one binary measures both sides;
// the acceptance bar for the SIMD PR is ≥ 2x on the range-scan or
// distance kernels. On this machine (1 core, AVX2) the measured ratios
// are recorded in BENCH_simd.json at the repo root.
// ---------------------------------------------------------------------

fn bench_kernels(c: &mut Criterion) {
    let db = generate(
        &DatasetSpec::tdrive(Scale::Small).with_trajectories(1000),
        7,
    );
    let store = db.to_store();
    let n = store.total_points();
    let (xs, ys, ts) = (store.xs(), store.ys(), store.ts());
    let offsets = store.offsets();
    // Covers the data spatially but misses every timestamp: containment
    // runs to the end of every run (no early exit) and each point is
    // tested on the full x/y/t chain — the shape of an index-pruned leaf
    // whose cube intersects the query spatially. A cube disjoint on x
    // would instead let the scalar chain short-circuit after one compare
    // per point, which benchmarks branch prediction, not the scan.
    let bc = store.bounding_cube();
    let miss = Cube {
        t_min: bc.t_max + 1.0,
        t_max: bc.t_max + 2.0,
        ..bc
    };
    // A half-set kept bitmap (every other point) for the masked kernel.
    let mut kept = trajectory::KeptBitmap::zeros(n);
    for g in (0..n as u32).step_by(2) {
        kept.insert(g);
    }
    let (half_a, half_b) = xs.split_at(n / 2);

    let mut group = c.benchmark_group("kernels");
    group.sample_size(10);
    for (label, force_scalar) in [("simd", false), ("scalar", true)] {
        trajectory::simd::set_force_scalar(force_scalar);
        if force_scalar {
            assert!(!trajectory::simd::simd_active(), "force_scalar not honored");
        }

        // Range-scan kernel: per-trajectory cube containment over the
        // whole store, as the engine's leaf runs and scan backend do.
        group.bench_function(BenchmarkId::new(format!("range_scan_{label}"), n), |b| {
            b.iter(|| {
                let mut hits = 0usize;
                for w in offsets.windows(2) {
                    let (s, e) = (w[0] as usize, w[1] as usize);
                    if trajectory::simd::any_in_cube(
                        std::hint::black_box(&xs[s..e]),
                        &ys[s..e],
                        &ts[s..e],
                        &miss,
                    ) {
                        hits += 1;
                    }
                }
                hits
            })
        });

        // Masked range-scan kernel: the same sweep through the kept
        // bitmap (the D'-serving path on the scan backend).
        group.bench_function(BenchmarkId::new(format!("masked_scan_{label}"), n), |b| {
            b.iter(|| {
                let mut hits = 0usize;
                for w in offsets.windows(2) {
                    let (s, e) = (w[0] as usize, w[1] as usize);
                    if trajectory::simd::any_masked_in_cube(
                        std::hint::black_box(&xs[s..e]),
                        &ys[s..e],
                        &ts[s..e],
                        kept.words(),
                        s,
                        &miss,
                    ) {
                        hits += 1;
                    }
                }
                hits
            })
        });

        // Distance-accumulation kernel (kNN / embedding distances).
        group.bench_function(
            BenchmarkId::new(format!("squared_distance_{label}"), n),
            |b| {
                b.iter(|| {
                    trajectory::simd::squared_distance(
                        std::hint::black_box(half_a),
                        &half_b[..half_a.len()],
                    )
                })
            },
        );

        // Bounds-fold kernel (tight cubes, bounding boxes).
        group.bench_function(BenchmarkId::new(format!("min_max_{label}"), n), |b| {
            b.iter(|| trajectory::simd::min_max(std::hint::black_box(xs)))
        });
    }
    trajectory::simd::set_force_scalar(false);
    group.finish();
}

// ---------------------------------------------------------------------
// Raw vs quantized storage: cold load and file size at a 0.5-unit error
// bound. The quantized path pays a decode on open (it is not zero-copy)
// in exchange for the smaller file; both end query-ready and must agree
// on the probe within the bound's cube expansion.
// ---------------------------------------------------------------------

fn bench_quantized_load(c: &mut Criterion) {
    use trajectory::snapshot::write_snapshot_quantized;

    let db = generate(
        &DatasetSpec::tdrive(Scale::Small).with_trajectories(1000),
        7,
    );
    let store = db.to_store();
    let n = store.total_points();

    let dir = std::env::temp_dir().join("qdts_storage_bench");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let raw_path = dir.join("quant_cmp_raw.snap");
    let q_path = dir.join("quant_cmp.snap");
    write_snapshot(&store, &raw_path).expect("raw write");
    write_snapshot_quantized(&store, None, 0.5, &q_path).expect("quantized write");

    let raw_len = std::fs::metadata(&raw_path).expect("raw meta").len();
    let q_len = std::fs::metadata(&q_path).expect("q meta").len();
    assert!(q_len * 2 < raw_len, "quantized {q_len} vs raw {raw_len}");
    eprintln!(
        "quantized_load: raw {raw_len} bytes, quantized {q_len} bytes ({:.2}x smaller)",
        raw_len as f64 / q_len as f64
    );

    let probe = {
        let spec = RangeWorkloadSpec::paper_default(1, QueryDistribution::Data);
        range_workload(&db, &spec, &mut StdRng::seed_from_u64(3))[0]
    };

    let mut group = c.benchmark_group("quantized_load");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("raw_mmap_open", n), |b| {
        b.iter(|| {
            let mapped = MappedStore::open(std::hint::black_box(&raw_path)).expect("map");
            traj_query::range_query_store(&mapped, &probe)
        })
    });
    group.bench_function(BenchmarkId::new("quantized_open_decode", n), |b| {
        b.iter(|| {
            let mapped = MappedStore::open(std::hint::black_box(&q_path)).expect("decode");
            traj_query::range_query_store(&mapped, &probe)
        })
    });

    // Sanity: decoded coordinates honor the bound.
    {
        let decoded = MappedStore::open(&q_path).expect("decode");
        for (a, b) in store.xs().iter().zip(decoded.xs()) {
            assert!((a - b).abs() <= 0.5 * 1.000_001, "bound violated");
        }
    }
    group.finish();

    std::fs::remove_file(&raw_path).ok();
    std::fs::remove_file(&q_path).ok();
}

criterion_group!(
    benches,
    bench_cold_load,
    bench_sharded,
    bench_kernels,
    bench_quantized_load
);
criterion_main!(benches);
