//! Answers of the query executors **recorded at the parent commit**
//! (`208a102`) — where `QueryEngine` and `TrajDb` each implemented
//! `QueryExecutor` by hand, beside the blanket impl over a segment list —
//! on fixed-seed `geolife`/`tdrive` `Scale::Smoke` stores and one fixed
//! mixed batch, and asserted here against the one fan-out.
//!
//! Once every executor answers through the same code, `sharded == single`
//! and `live == rebuild` compare two runs of one implementation; these
//! constants are the check that does not. Answers are encoded to bytes and
//! compared through an FNV-1a fingerprint (with the total id count beside
//! it, so an all-empty answer cannot pass for a match), floats through
//! `f64::to_bits`.

use qdts::query::knn::{Dissimilarity, KnnQuery};
use qdts::query::{
    range_workload_store, DbOptions, EngineConfig, GenerationalDb, QueryBatch, QueryDistribution,
    QueryEngine, QueryExecutor, QueryResult, RangeWorkloadSpec, ShardResult, SimilarityQuery,
    TrajDb,
};
use qdts::trajectory::gen::{generate, DatasetSpec, Scale};
use qdts::trajectory::snapshot::{fnv1a64, write_snapshot_with};
use qdts::trajectory::{
    partition, Cube, KeepAll, KeptBitmap, OpenShard, PartitionStrategy, PointStore, Simplification,
    Trajectory,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `(total ids, fingerprint)` of one encoded answer list.
type Print = (usize, u64);

/// What the parent commit answered for one dataset.
struct Recorded {
    name: &'static str,
    store: fn() -> PointStore,
    /// Spatial (m) and temporal (s) extent of the workload cubes, sized to
    /// the dataset's sampling rate so a cube holds a few dozen points.
    extents: (f64, f64),
    /// `execute_batch` on an executor without a kept bitmap, then with the
    /// every-25th-point bitmap attached.
    execute_batch: [Print; 2],
    /// `shard_batch`, same two executors.
    shard_batch: [Print; 2],
    /// `range_simplified_batch` of the every-25th-point simplification
    /// over the batch's range cubes.
    range_simplified_batch: Print,
    /// `maintained_workload(cubes, every-25th-point).diff()` bits.
    diff: u64,
    /// `diff_of` the endpoints-only simplification, bits.
    diff_of: u64,
}

const RECORDED: [Recorded; 2] = [
    Recorded {
        name: "geolife",
        store: || generate(&DatasetSpec::geolife(Scale::Smoke), 7).to_store(),
        extents: (150.0, 60.0),
        execute_batch: [(54, 0xaa1f6a4814cb7b30), (62, 0x811d23f79bebb794)],
        shard_batch: [(51, 0xb262535a5927b147), (59, 0x51f96d91e4223d3f)],
        range_simplified_batch: (8, 0xe491850180efaa25),
        diff: 0x3fd3b13b13b13b14,
        diff_of: 0x3fed89d89d89d89e,
    },
    Recorded {
        name: "tdrive",
        store: || generate(&DatasetSpec::tdrive(Scale::Smoke), 7).to_store(),
        extents: (8_000.0, 3_600.0),
        execute_batch: [(49, 0xd2dac55549516aed), (63, 0xb0172b54825d6c5d)],
        shard_batch: [(46, 0xb37ece3a0abc3fc0), (60, 0xb818c542a612cfdc)],
        range_simplified_batch: (14, 0x903d3974e27a9953),
        diff: 0x3f9a41a41a41a400,
        diff_of: 0x3fed89d89d89d89e,
    },
];

/// Endpoints plus every `step`-th point of every trajectory.
fn every_nth(store: &PointStore, step: usize) -> Simplification {
    let mut simp = Simplification::most_simplified_store(store);
    for (id, v) in store.iter() {
        for idx in (0..v.len() as u32).step_by(step) {
            simp.insert(id, idx);
        }
    }
    simp
}

/// Twelve data-centred cubes plus one that misses the data entirely.
fn cubes(r: &Recorded, store: &PointStore) -> Vec<Cube> {
    let spec = RangeWorkloadSpec {
        count: 12,
        spatial_extent: r.extents.0,
        temporal_extent: r.extents.1,
        dist: QueryDistribution::Data,
    };
    let mut cubes = range_workload_store(store, &spec, &mut StdRng::seed_from_u64(7));
    let bc = store.bounding_cube();
    cubes.push(Cube::new(
        bc.x_max + 1_000.0,
        bc.x_max + 2_000.0,
        bc.y_max + 1_000.0,
        bc.y_max + 2_000.0,
        bc.t_min,
        bc.t_max,
    ));
    cubes
}

/// The fixed mixed batch: every cube as `Range` and as `RangeKept` (one
/// misses the data; executors without a bitmap answer `RangeKept(None)`),
/// kNN at two EDR tolerances, with `k` above the trajectory count, over a
/// window before the data, and over a window that misses the query
/// trajectory itself (the both-empty convention: everything scores 0),
/// and similarity over a trajectory's own span and over a window after
/// the data. EDR only: an edit count is exact on every kernel, while a
/// t2vec distance is a float sum the vector kernels reassociate, so its
/// near-ties rank differently on scalar, AVX2 and NEON.
fn mixed_batch(r: &Recorded, store: &PointStore) -> QueryBatch {
    let (t0, t1) = store.time_span();
    let mut batch = QueryBatch::new();
    for c in cubes(r, store) {
        batch.push_range(c);
        batch.push_range_kept(c);
    }
    let knn = |id: usize, ts: f64, te: f64, k: usize, measure: Dissimilarity| KnnQuery {
        query: store.view(id).to_trajectory(),
        ts,
        te,
        k,
        measure,
    };
    let edr = Dissimilarity::Edr { eps: 1_000.0 };
    batch.push_knn(knn(0, t0, t1, 3, edr));
    let tight = Dissimilarity::Edr { eps: 150.0 };
    batch.push_knn(knn(2, t0, (t0 + t1) / 2.0, 5, tight));
    batch.push_knn(knn(1, t0, t1, store.len() + 5, edr));
    let (q0, q1) = store.view(3).time_span();
    batch.push_knn(knn(3, q0, q1, 4, edr));
    batch.push_knn(knn(0, t0 - 500.0, t0 - 100.0, 4, edr));
    batch.push_knn(knn(0, t1 + 100.0, t1 + 500.0, store.len() + 1, edr));
    let similarity = |id: usize, ts: f64, te: f64| SimilarityQuery {
        query: store.view(id).to_trajectory(),
        ts,
        te,
        delta: 2_500.0,
        step: 300.0,
    };
    let (s0, s1) = store.view(1).time_span();
    batch.push_similarity(similarity(1, s0, s1));
    batch.push_similarity(similarity(4, t0, t1));
    batch.push_similarity(similarity(1, t1 + 100.0, t1 + 500.0));
    batch
}

fn put_ids(bytes: &mut Vec<u8>, total: &mut usize, ids: Option<&[usize]>) {
    match ids {
        None => bytes.push(0),
        Some(ids) => {
            bytes.push(1);
            bytes.extend((ids.len() as u64).to_le_bytes());
            for &id in ids {
                bytes.extend((id as u64).to_le_bytes());
            }
            *total += ids.len();
        }
    }
}

fn results_print(results: &[QueryResult]) -> Print {
    let (mut bytes, mut total) = (Vec::new(), 0);
    for r in results {
        bytes.push(r.kind() as u8);
        put_ids(&mut bytes, &mut total, r.ids());
    }
    (total, fnv1a64(&bytes))
}

fn material_print(results: &[ShardResult]) -> Print {
    let (mut bytes, mut total) = (Vec::new(), 0);
    for r in results {
        match r {
            ShardResult::Ids(ids) => {
                bytes.push(10);
                put_ids(&mut bytes, &mut total, Some(ids));
            }
            ShardResult::Kept(ids) => {
                bytes.push(11);
                put_ids(&mut bytes, &mut total, ids.as_deref());
            }
            ShardResult::Candidates(cands) => {
                bytes.push(12);
                bytes.extend((cands.len() as u64).to_le_bytes());
                for &(d, id) in cands {
                    bytes.extend(d.to_bits().to_le_bytes());
                    bytes.extend((id as u64).to_le_bytes());
                }
                total += cands.len();
            }
        }
    }
    (total, fnv1a64(&bytes))
}

fn lists_print(lists: &[Vec<usize>]) -> Print {
    let (mut bytes, mut total) = (Vec::new(), 0);
    for ids in lists {
        put_ids(&mut bytes, &mut total, Some(ids));
    }
    (total, fnv1a64(&bytes))
}

/// Everything recorded, asked of one executor. `kept` says which of the
/// two recordings (without / with a kept bitmap) the executor serves.
fn check(r: &Recorded, exec: &impl QueryExecutor, kept: bool, who: &str) {
    let store = (r.store)();
    let batch = mixed_batch(r, &store);
    let ctx = format!("{} on {who}, kept bitmap: {kept}", r.name);
    assert_eq!(exec.has_kept_bitmap(), kept, "{ctx}");
    let got = results_print(&exec.execute_batch(&batch));
    assert_eq!(
        got, r.execute_batch[kept as usize],
        "execute_batch {ctx}: {got:#x?}"
    );
    let got = material_print(&exec.shard_batch(&batch));
    assert_eq!(
        got, r.shard_batch[kept as usize],
        "shard_batch {ctx}: {got:#x?}"
    );
    let got = lists_print(&exec.range_simplified_batch(&every_nth(&store, 25), &cubes(r, &store)));
    assert_eq!(
        got, r.range_simplified_batch,
        "range_simplified_batch {ctx}: {got:#x?}"
    );
}

fn backends() -> [(&'static str, EngineConfig); 3] {
    [
        ("scan", EngineConfig::scan()),
        ("octree", EngineConfig::octree()),
        ("median-kd", EngineConfig::median_kd()),
    ]
}

fn tmp_path(r: &Recorded, tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "qdts_executor_fixtures_{}_{}_{tag}",
        std::process::id(),
        r.name
    ))
}

#[test]
fn query_engine_matches_the_parent_on_every_backend() {
    for r in &RECORDED {
        let store = (r.store)();
        let simp = every_nth(&store, 25);
        for (name, cfg) in backends() {
            let engine = QueryEngine::over_store(&store, cfg);
            check(r, &engine, false, name);

            let workload = engine.maintained_workload(cubes(r, &store), &simp);
            let diff = workload.diff().to_bits();
            assert_eq!(diff, r.diff, "diff {} on {name}: {diff:#x}", r.name);
            let diff_of = workload
                .diff_of(&engine, &Simplification::most_simplified_store(&store))
                .to_bits();
            assert_eq!(
                diff_of, r.diff_of,
                "diff_of {} on {name}: {diff_of:#x}",
                r.name
            );

            let engine = engine.with_kept_bitmap(simp.to_bitmap(&store));
            check(r, &engine, true, name);
        }
    }
}

/// The store written as a snapshot carrying `kept`, opened mapped.
fn open_with_kept(r: &Recorded, store: &PointStore, kept: &KeptBitmap) -> TrajDb {
    let path = tmp_path(r, "kept.snap");
    write_snapshot_with(store, Some(kept), &path).unwrap();
    let db = TrajDb::open(&path, DbOptions::new()).unwrap();
    std::fs::remove_file(&path).ok();
    db
}

/// The store cut into `parts` time ranges, one segment each; with
/// `kept`, each shard carries the every-25th-point bitmap of its own
/// store, which keeps the same points of a trajectory as the unsharded
/// one.
fn time_sharded(store: &PointStore, parts: usize, kept: bool) -> TrajDb {
    let shards = partition(store, &PartitionStrategy::Time { parts })
        .into_iter()
        .map(|sh| OpenShard {
            kept: kept.then(|| every_nth(&sh.store, 25).to_bitmap(&sh.store)),
            store: sh.store,
            global_ids: sh.global_ids,
        })
        .collect();
    TrajDb::from_shards(shards, DbOptions::new())
}

#[test]
fn single_and_sharded_traj_db_match_the_parent() {
    for r in &RECORDED {
        let store = (r.store)();
        let kept = every_nth(&store, 25).to_bitmap(&store);
        check(
            r,
            &TrajDb::from_store(store.clone(), DbOptions::new()),
            false,
            "single",
        );
        check(r, &open_with_kept(r, &store, &kept), true, "single");
        for parts in [3, 4] {
            let name = &format!("time-{parts}");
            check(r, &time_sharded(&store, parts, false), false, name);
            check(r, &time_sharded(&store, parts, true), true, name);
        }
    }
}

#[test]
fn generational_db_with_everything_folded_matches_the_parent() {
    for r in &RECORDED {
        let store = (r.store)();
        // Half the trajectories as generation 0, the rest ingested raw and
        // folded: ids are assigned in ingest order, so the database is the
        // store again.
        let half = store.len() / 2;
        let mut base = PointStore::new();
        for id in 0..half {
            base.push_view(store.view(id));
        }
        let rest: Vec<Trajectory> = (half..store.len())
            .map(|id| store.view(id).to_trajectory())
            .collect();
        let dir = tmp_path(r, "live");
        std::fs::remove_dir_all(&dir).ok();
        let db = GenerationalDb::create(
            &dir,
            &base,
            DbOptions::new(),
            Box::new(|| Box::new(KeepAll)),
        )
        .unwrap();
        let ack = db.ingest(&rest).unwrap();
        assert_eq!(ack.accepted as usize, rest.len());
        db.compact().unwrap();
        assert_eq!((db.len(), db.delta_trajs()), (store.len(), 0));
        check(r, &db, false, "generational");
        drop(db);
        std::fs::remove_dir_all(&dir).ok();
    }
}
