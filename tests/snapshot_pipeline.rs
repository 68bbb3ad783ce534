//! The operational pipeline end to end, through library calls only:
//! acquire a database (synthetic or CSV), optionally simplify it, write a
//! snapshot file or a shard-set directory (raw or quantized), reopen it
//! with `TrajDb::open`, and serve it in process, over one loopback wire
//! server, through a coordinator over one server per shard, or live with
//! ingestion and compaction. Every serving path must answer a mixed
//! range + kNN + similarity batch exactly like in-process execution.

use std::path::PathBuf;
use std::sync::Arc;

use qdts::query::knn::Dissimilarity;
use qdts::query::{
    range_query_store, range_workload_store, DbOptions, GenerationalDb, KnnQuery, Query,
    QueryBatch, QueryDistribution, QueryExecutor, QueryResult, RangeWorkloadSpec, SimilarityQuery,
    TrajDb,
};
use qdts::serve::{
    Client, Coordinator, CoordinatorOptions, Placement, ResponseStatus, ServeOptions, Server,
};
use qdts::simp::{simplify_shards, simplify_to_snapshot, write_simplified_shard_set};
use qdts::simp::{Simplifier, Uniform};
use qdts::trajectory::gen::{generate, DatasetSpec, Scale};
use qdts::trajectory::io::{read_csv_store, write_csv_file};
use qdts::trajectory::shard::{partition, PartitionStrategy, ShardSet};
use qdts::trajectory::snapshot::{write_snapshot, write_snapshot_quantized, write_snapshot_with};
use qdts::trajectory::{AsColumns, KeepAll, KeptBitmap, PointStore};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn temp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("qdts_snapshot_pipeline_tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("{}_{name}", std::process::id()));
    std::fs::remove_dir_all(&path).ok();
    std::fs::remove_file(&path).ok();
    path
}

/// A T-Drive-shaped synthetic database of 1 000 trajectories.
fn tdrive_store(seed: u64) -> PointStore {
    generate(
        &DatasetSpec::tdrive(Scale::Smoke).with_trajectories(1000),
        seed,
    )
    .to_store()
}

/// A simplification budget of `ratio · N` points.
fn budget(store: &PointStore, ratio: f64) -> usize {
    ((store.total_points() as f64 * ratio) as usize).max(1)
}

/// `queries` data-distributed range cubes plus `max(queries/5, 1)` each
/// of kNN and similarity queries anchored on trajectories strided
/// through the database, windowed to each query trajectory's own span.
fn mixed_batch(db: &TrajDb, queries: usize, seed: u64) -> QueryBatch {
    let spec = RangeWorkloadSpec::paper_default(queries, QueryDistribution::Data);
    let mut batch = QueryBatch::new();
    for q in db.range_workload(&spec, &mut StdRng::seed_from_u64(seed)) {
        batch.push_range(q);
    }
    let traj_queries = (queries / 5).max(1).min(db.len());
    let stride = db.len() / traj_queries;
    for i in 0..traj_queries {
        let t = db.trajectory(i * stride);
        let (ts, te) = t.time_span();
        batch.push_knn(KnnQuery {
            query: t.clone(),
            ts,
            te,
            k: 3,
            measure: Dissimilarity::edr_paper(),
        });
        batch.push_similarity(SimilarityQuery {
            query: t,
            ts,
            te,
            delta: 5_000.0,
            step: 600.0,
        });
    }
    batch
}

/// Total result-set size over a batch's answers.
fn result_ids(results: &[QueryResult]) -> usize {
    results
        .iter()
        .map(|r| r.ids().map_or(0, <[usize]>::len))
        .sum()
}

/// Directory bytes of a shard set's snapshot files (manifest excluded).
fn shard_set_bytes(dir: &std::path::Path, set: &ShardSet) -> u64 {
    set.entries()
        .iter()
        .map(|e| std::fs::metadata(dir.join(&e.file)).unwrap().len())
        .sum()
}

/// A simplified snapshot reopens with its kept bitmap and serves the same
/// mixed batch in process and over a loopback wire server shared by four
/// concurrent clients.
#[test]
fn snapshot_then_serve_round_trips_at_smoke_scale() {
    let path = temp("smoke.snap");
    let store = tdrive_store(7);
    let simp = simplify_to_snapshot(&Uniform, &store, budget(&store, 0.3), &path).unwrap();
    let kept = simp.total_points();
    assert!(kept > 0 && kept <= (store.total_points() * 3) / 10 + 2 * store.len());

    let db = TrajDb::open(&path, DbOptions::new()).unwrap();
    assert!(!db.is_sharded());
    assert_eq!(db.shard_count(), 1);
    assert_eq!(db.total_points(), store.total_points());
    assert_eq!(db.len(), store.len());
    assert!(db.has_kept_bitmap());
    let batch = mixed_batch(&db, 20, 11);
    let kinds = batch.kind_counts();
    assert_eq!(kinds[0], 20, "20 range queries");
    assert!(kinds[1] >= 1 && kinds[2] >= 1);
    let in_process = db.execute_batch(&batch);
    for q in batch.queries() {
        if let Query::Range(cube) = q {
            assert!(db.range_kept(cube).is_some());
        }
    }

    // Round-robin the batch across four connections, one request each.
    let server = Server::start(db, "127.0.0.1:0", ServeOptions::batched()).unwrap();
    let addr = server.local_addr();
    let mut shares = vec![Vec::new(); 4];
    for (i, q) in batch.queries().iter().enumerate() {
        shares[i % 4].push((i, q.clone()));
    }
    let mut wired: Vec<Option<QueryResult>> = vec![None; batch.len()];
    std::thread::scope(|scope| {
        let handles: Vec<_> = shares
            .into_iter()
            .map(|share| {
                scope.spawn(move || {
                    let (slots, queries): (Vec<usize>, Vec<Query>) = share.into_iter().unzip();
                    let mut client = Client::connect(addr).unwrap();
                    let results = client
                        .execute_batch(&QueryBatch::from_queries(queries))
                        .unwrap();
                    slots.into_iter().zip(results).collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for (slot, r) in h.join().unwrap() {
                wired[slot] = Some(r);
            }
        }
    });
    let wired: Vec<QueryResult> = wired.into_iter().map(Option::unwrap).collect();
    assert_eq!(wired, in_process);
    let stats = server.stats();
    assert_eq!(stats.queries, batch.len() as u64);
    assert!(stats.requests >= 1 && stats.requests <= 4);
    server.shutdown();
    std::fs::remove_file(&path).ok();
}

/// A database written with `write_snapshot` and reopened through the
/// façade answers exactly like the owned store.
#[test]
fn served_results_match_owned_store_results() {
    let store = generate(&DatasetSpec::tdrive(Scale::Smoke), 3).to_store();
    let path = temp("parity.snap");
    write_snapshot(&store, &path).unwrap();
    let served = TrajDb::open(&path, DbOptions::new()).unwrap();
    assert!(!served.is_sharded());

    let spec = RangeWorkloadSpec::paper_default(25, QueryDistribution::Data);
    let workload = range_workload_store(&store, &spec, &mut StdRng::seed_from_u64(5));
    let owned = TrajDb::from_store(store.clone(), DbOptions::new());
    for q in &workload {
        assert_eq!(owned.range(q), served.range(q));
        assert_eq!(served.range(q), range_query_store(&store, q));
    }
    std::fs::remove_file(&path).ok();
}

/// A simplified hash-sharded set reopens as a sharded database, and a
/// coordinator over one wire server per shard snapshot answers the mixed
/// batch exactly like it.
#[test]
fn shard_snapshot_then_serve_round_trips() {
    let dir = temp("sharded_smoke");
    let store = tdrive_store(7);
    let shards = partition(&store, &PartitionStrategy::Time { parts: 3 });
    let simps = simplify_shards(&Uniform, &shards, budget(&store, 0.3));
    assert!(simps.iter().map(|s| s.total_points()).sum::<usize>() > 0);
    let set = write_simplified_shard_set(&dir, &shards, &simps).unwrap();
    assert_eq!(set.len(), 3);

    let db = TrajDb::open(&dir, DbOptions::new()).unwrap();
    assert!(db.is_sharded());
    assert_eq!(db.shard_count(), 3);
    assert_eq!(db.total_points(), store.total_points());
    assert_eq!(db.len(), store.len());
    assert!(db.has_kept_bitmap());
    let batch = mixed_batch(&db, 20, 11);
    assert_eq!(batch.kind_counts()[0], 20);
    let in_process = db.execute_batch(&batch);

    let mut servers = Vec::new();
    let mut parts = Vec::new();
    for e in set.entries() {
        let server = Server::open(
            dir.join(&e.file),
            DbOptions::new(),
            "127.0.0.1:0",
            ServeOptions::batched(),
        )
        .unwrap();
        parts.push((server.local_addr().to_string(), e.global_ids.clone()));
        servers.push(server);
    }
    let placement = Placement::from_parts(parts).unwrap();
    let coord = Coordinator::connect(placement, CoordinatorOptions::default()).unwrap();
    let response = coord.execute_batch(&batch).unwrap();
    assert_eq!(response.status, ResponseStatus::Complete);
    assert_eq!(response.results, in_process);
    assert!(result_ids(&in_process) > 0);
    for server in servers {
        server.shutdown();
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// An opened shard directory returns the same range results as the
/// unsharded database, at several part counts.
#[test]
fn sharded_serving_matches_single_store_serving() {
    let store = generate(&DatasetSpec::tdrive(Scale::Smoke), 3).to_store();
    let spec = RangeWorkloadSpec::paper_default(25, QueryDistribution::Data);
    let workload = range_workload_store(&store, &spec, &mut StdRng::seed_from_u64(5));
    let single = TrajDb::from_store(store.clone(), DbOptions::new());
    for parts in [2, 3, 4] {
        let strategy = PartitionStrategy::Time { parts };
        let label = format!("time-{parts}");
        let dir = temp(&format!("sharded_parity_{label}"));
        ShardSet::write(&dir, &partition(&store, &strategy)).unwrap();
        let sharded = TrajDb::open(&dir, DbOptions::new()).unwrap();
        assert!(sharded.is_sharded());
        for q in &workload {
            assert_eq!(sharded.range(q), single.range(q), "{label} diverges");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A simplified snapshot quantized at bound 0.5 is under half the raw
/// file's bytes, reopens with no extra option, keeps its bitmap, serves
/// the mixed batch, and decodes every coordinate within the bound.
#[test]
fn quantized_snapshot_is_smaller_and_serves_within_bound() {
    let raw_path = temp("quant_raw.snap");
    let q_path = temp("quant_q.snap");
    let store = tdrive_store(7);
    let kept = Uniform
        .simplify_store(&store, budget(&store, 0.3))
        .to_bitmap(&store);
    write_snapshot_with(&store, Some(&kept), &raw_path).unwrap();
    write_snapshot_quantized(&store, Some(&kept), 0.5, &q_path).unwrap();
    let raw_bytes = std::fs::metadata(&raw_path).unwrap().len();
    let q_bytes = std::fs::metadata(&q_path).unwrap().len();
    assert!(
        q_bytes * 2 < raw_bytes,
        "quantized {q_bytes} vs raw {raw_bytes} bytes"
    );

    let raw_db = TrajDb::open(&raw_path, DbOptions::new()).unwrap();
    let q_db = TrajDb::open(&q_path, DbOptions::new()).unwrap();
    assert_eq!(q_db.total_points(), store.total_points());
    let q_engine = q_db.as_single().unwrap();
    assert_eq!(q_engine.kept_bitmap(), Some(&kept));
    let batch = mixed_batch(&q_db, 10, 11);
    assert_eq!(q_db.execute_batch(&batch).len(), batch.len());

    let rs = raw_db.as_single().unwrap().store();
    let qs = q_engine.store();
    let bound = 0.5 * 1.000_001;
    for (a, b) in rs.xs().iter().zip(qs.xs()) {
        assert!((a - b).abs() <= bound);
    }
    for (a, b) in rs.ys().iter().zip(qs.ys()) {
        assert!((a - b).abs() <= bound);
    }
    for (a, b) in rs.ts().iter().zip(qs.ts()) {
        assert!((a - b).abs() <= bound);
    }
    std::fs::remove_file(&raw_path).ok();
    std::fs::remove_file(&q_path).ok();
}

/// A simplified shard set quantized at bound 0.5 is under half the raw
/// set's bytes and reopens as a sharded database with its bitmaps.
#[test]
fn quantized_shard_set_serves_and_shrinks() {
    let raw_dir = temp("quant_shards_raw");
    let q_dir = temp("quant_shards_q");
    let store = tdrive_store(7);
    let shards = partition(&store, &PartitionStrategy::Time { parts: 3 });
    let simps = simplify_shards(&Uniform, &shards, budget(&store, 0.3));
    let kept: Vec<KeptBitmap> = shards
        .iter()
        .zip(&simps)
        .map(|(shard, simp)| simp.to_bitmap(&shard.store))
        .collect();
    let raw = write_simplified_shard_set(&raw_dir, &shards, &simps).unwrap();
    let quant = ShardSet::write_quantized(&q_dir, &shards, Some(&kept), 0.5).unwrap();
    let (raw_bytes, q_bytes) = (
        shard_set_bytes(&raw_dir, &raw),
        shard_set_bytes(&q_dir, &quant),
    );
    assert!(
        q_bytes * 2 < raw_bytes,
        "quantized shards {q_bytes} vs raw {raw_bytes} bytes"
    );

    let db = TrajDb::open(&q_dir, DbOptions::new()).unwrap();
    assert!(db.is_sharded());
    assert_eq!(db.total_points(), store.total_points());
    assert!(db.has_kept_bitmap());
    let batch = mixed_batch(&db, 10, 11);
    assert_eq!(db.execute_batch(&batch).len(), batch.len());
    std::fs::remove_dir_all(&raw_dir).ok();
    std::fs::remove_dir_all(&q_dir).ok();
}

/// A generational database behind a wire server takes trajectories over
/// the wire, answers from base plus delta like in-process execution, and
/// answers the same after compaction advances its generation.
#[test]
fn live_serve_ingests_and_compacts() {
    let dir = temp("live_serve");
    let seed = 21;
    let store = generate(
        &DatasetSpec::tdrive(Scale::Smoke).with_trajectories(64),
        seed,
    )
    .to_store();
    let db = Arc::new(
        GenerationalDb::create(
            &dir,
            &store,
            DbOptions::new(),
            Box::new(|| Box::new(KeepAll)),
        )
        .unwrap(),
    );
    let generation_before = db.generation();
    let server = Server::start(Arc::clone(&db), "127.0.0.1:0", ServeOptions::batched()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let mut accepted = 0;
    for b in 0..3 {
        let fresh = generate(
            &DatasetSpec::tdrive(Scale::Smoke).with_trajectories(8),
            seed + 100 + b,
        );
        let trajs: Vec<_> = fresh.iter().map(|(_, t)| t.clone()).collect();
        let ack = client.ingest(&trajs).unwrap();
        assert_eq!(ack.rejected, 0);
        accepted += ack.accepted;
    }
    assert_eq!(accepted, 24);

    let spec = RangeWorkloadSpec::paper_default(10, QueryDistribution::Data);
    let mut batch = QueryBatch::new();
    for q in range_workload_store(&store, &spec, &mut StdRng::seed_from_u64(seed)) {
        batch.push_range(q);
    }
    let wire = client.execute_batch(&batch).unwrap();
    assert_eq!(wire, db.execute_batch(&batch));
    assert!(result_ids(&wire) > 0);

    db.compact().unwrap();
    assert!(
        db.generation() > generation_before,
        "compaction must advance the generation: {generation_before} -> {}",
        db.generation()
    );
    assert_eq!(client.execute_batch(&batch).unwrap(), wire);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A CSV file parses into a store whose snapshot serves like the CSV
/// itself, which the façade also opens directly.
#[test]
fn csv_source_feeds_the_pipeline() {
    let db = generate(&DatasetSpec::geolife(Scale::Smoke), 13);
    let csv = temp("source.csv");
    write_csv_file(&db, &csv).unwrap();
    let store = read_csv_store(std::fs::File::open(&csv).unwrap()).unwrap();
    assert_eq!(store.len(), db.len());
    assert_eq!(store.total_points(), db.total_points());
    let snap = temp("from_csv.snap");
    write_snapshot(&store, &snap).unwrap();

    let served = TrajDb::open(&snap, DbOptions::new()).unwrap();
    assert!(!served.has_kept_bitmap());
    let from_csv = TrajDb::open(&csv, DbOptions::new()).unwrap();
    assert_eq!(from_csv.len(), served.len());
    assert_eq!(from_csv.total_points(), served.total_points());
    let batch = mixed_batch(&served, 5, 2);
    assert_eq!(from_csv.execute_batch(&batch), served.execute_batch(&batch));
    std::fs::remove_file(&csv).ok();
    std::fs::remove_file(&snap).ok();
}
