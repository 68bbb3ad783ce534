//! Property tests of the live-ingestion layer's core promise: a
//! `GenerationalDb` serving an immutable base generation merged with a
//! WAL-backed delta answers **byte-identical results** to a
//! from-scratch `QueryEngine` rebuilt over the same trajectories — for
//! range, kNN, similarity, simplified-database execution, and
//! heterogeneous batches, across every index backend (scan / octree /
//! median kd-tree) over the mapped base, and on both sides of a
//! compaction — plus crash-recovery: a torn WAL tail
//! and a crash on either side of a compaction's manifest commit
//! recover exactly the acknowledged writes.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use traj_query::knn::{Dissimilarity, KnnQuery};
use traj_query::{
    DbOptions, EngineConfig, GenerationalDb, QueryBatch, QueryEngine, QueryExecutor,
    SimilarityQuery,
};
use trajectory::snapshot::{fnv1a64, read_snapshot, write_snapshot_quantized};
use trajectory::{Cube, KeepAll, Point, PointStore, Simplification, Trajectory, TrajectoryDb};

fn keep_all() -> traj_query::SimpFactory {
    Box::new(|| Box::new(KeepAll))
}

/// Strategy: a Geolife/T-Drive-shaped database of 1..8 trajectories with
/// 2..24 points each (bounded coordinates, strictly increasing times).
fn arb_db() -> impl Strategy<Value = TrajectoryDb> {
    prop::collection::vec(
        prop::collection::vec((-1e4..1e4f64, -1e4..1e4f64, 0.1..60.0f64), 2..24),
        1..8,
    )
    .prop_map(|trajs| {
        trajs
            .into_iter()
            .map(|steps| {
                let mut t = 0.0;
                let pts = steps
                    .into_iter()
                    .map(|(x, y, dt)| {
                        t += dt;
                        Point::new(x, y, t)
                    })
                    .collect();
                Trajectory::new(pts).unwrap()
            })
            .collect()
    })
}

/// Strategy: a query cube positioned relative to the database's bounding
/// cube, ranging from empty corners to whole-space covers.
fn arb_query(db: &TrajectoryDb) -> impl Strategy<Value = Cube> {
    let bc = db.bounding_cube();
    (
        (0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64),
        (0.01..0.8f64, 0.01..0.8f64, 0.01..0.8f64),
    )
        .prop_map(move |((fx, fy, ft), (hx, hy, ht))| {
            let (ex, ey, et) = bc.extents();
            Cube::centered(
                bc.x_min + fx * ex,
                bc.y_min + fy * ey,
                bc.t_min + ft * et,
                (hx * ex).max(1e-6),
                (hy * ey).max(1e-6),
                (ht * et).max(1e-6),
            )
        })
}

fn engine_configs() -> [EngineConfig; 3] {
    [
        EngineConfig::scan(),
        EngineConfig::octree().tree_shape(6, 8),
        EngineConfig::median_kd().tree_shape(6, 8),
    ]
}

/// A unique temp dir per case so parallel test binaries never collide.
fn unique_dir() -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir()
        .join("qdts_generational_props")
        .join(format!(
            "case_{}_{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn store_of(trajs: &[Trajectory]) -> PointStore {
    let mut store = PointStore::new();
    for t in trajs {
        store.push_points(t.points()).unwrap();
    }
    store
}

/// A mixed workload over the database's extent: ranges, a kNN, a
/// similarity, and a simplified-range probe.
fn mixed_batch(db: &TrajectoryDb, queries: &[Cube], k: usize) -> QueryBatch {
    let (t0, t1) = db.time_span();
    let mut batch = QueryBatch::new();
    for q in queries {
        batch.push_range(*q);
        batch.push_range_kept(*q);
    }
    batch.push_knn(KnnQuery {
        query: db.get(0).clone(),
        ts: t0,
        te: t0 + 0.7 * (t1 - t0),
        k,
        measure: Dissimilarity::Edr { eps: 1_000.0 },
    });
    batch.push_similarity(SimilarityQuery {
        query: db.get(0).clone(),
        ts: t0,
        te: t1,
        delta: 2_000.0,
        step: 5.0,
    });
    batch
}

fn every_third(store: &PointStore) -> Simplification {
    let mut simp = Simplification::most_simplified_store(store);
    for (id, t) in store.iter() {
        for idx in (0..t.len() as u32).step_by(3) {
            simp.insert(id, idx);
        }
    }
    simp
}

/// Asserts the live database currently answers exactly like a
/// from-scratch engine over `full` (same trajectories, same order).
fn assert_equals_rebuild(
    live: &GenerationalDb,
    full: &PointStore,
    db: &TrajectoryDb,
    cfg: EngineConfig,
    queries: &[Cube],
    k: usize,
    label: &str,
) -> Result<(), TestCaseError> {
    let rebuild = QueryEngine::over_store(full, cfg);
    prop_assert_eq!(live.len(), QueryExecutor::len(&rebuild), "len: {}", label);
    prop_assert_eq!(
        QueryExecutor::total_points(live),
        QueryExecutor::total_points(&rebuild),
        "total_points: {}",
        label
    );
    for id in 0..live.len() {
        prop_assert_eq!(
            QueryExecutor::trajectory(live, id),
            rebuild.trajectory(id),
            "trajectory {}: {}",
            id,
            label
        );
    }

    let batch = mixed_batch(db, queries, k);
    prop_assert_eq!(
        live.execute_batch(&batch),
        rebuild.execute_batch(&batch),
        "execute_batch: {}",
        label
    );

    let (t0, t1) = db.time_span();
    let knn = KnnQuery {
        query: db.get(0).clone(),
        ts: t0 + 0.2 * (t1 - t0),
        te: t1,
        k,
        measure: Dissimilarity::Edr { eps: 1_000.0 },
    };
    prop_assert_eq!(live.knn(&knn), rebuild.knn(&knn), "knn: {}", label);
    prop_assert_eq!(
        live.knn_candidates(&knn),
        rebuild.knn_candidates(&knn),
        "knn_candidates: {}",
        label
    );

    let simp = every_third(full);
    for q in queries {
        prop_assert_eq!(
            live.range(q),
            QueryExecutor::range(&rebuild, q),
            "range: {}",
            label
        );
        prop_assert_eq!(
            live.range_simplified(&simp, q),
            rebuild.range_simplified(&simp, q),
            "range_simplified: {}",
            label
        );
    }
    let live_w = QueryExecutor::maintained_workload(live, queries.to_vec(), &simp);
    let rebuild_w = rebuild.maintained_workload(queries.to_vec(), &simp);
    prop_assert!(
        (live_w.diff() - rebuild_w.diff()).abs() < 1e-12,
        "maintained diff: {}",
        label
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole property: base-prefix + ingested-suffix serving,
    /// before and after compaction and across a reopen, equals a
    /// from-scratch rebuild — for every backend.
    #[test]
    fn merged_serving_equals_from_scratch_rebuild(
        (db, queries, split, k) in arb_db().prop_flat_map(|db| {
            let n = db.len();
            let q = prop::collection::vec(arb_query(&db), 2..4);
            (Just(db), q, 0..=n, 1usize..6)
        })
    ) {
        let trajs: Vec<Trajectory> = db.iter().map(|(_, t)| t.clone()).collect();
        let base = store_of(&trajs[..split]);
        let full = store_of(&trajs);
        let delta = &trajs[split..];

        for cfg in engine_configs() {
            let dir = unique_dir();
            let live = GenerationalDb::create(&dir, &base, cfg, keep_all()).unwrap();
            // Ingest the suffix in two batches to exercise batch seams.
            let mid = delta.len() / 2;
            for chunk in [&delta[..mid], &delta[mid..]] {
                if !chunk.is_empty() {
                    let ack = live.ingest(chunk).unwrap();
                    prop_assert_eq!(ack.accepted as usize, chunk.len());
                    prop_assert_eq!(ack.rejected, 0);
                }
            }
            assert_equals_rebuild(&live, &full, &db, cfg, &queries, k, "pre-compaction")?;

            let report = live.compact().unwrap();
            if split < trajs.len() {
                prop_assert_eq!(report.folded_trajs, trajs.len() - split);
                prop_assert_eq!(live.generation(), 1);
            }
            prop_assert_eq!(live.delta_points(), 0);
            assert_equals_rebuild(&live, &full, &db, cfg, &queries, k, "post-compaction")?;
            drop(live);

            let reopened = GenerationalDb::open(&dir, cfg, keep_all()).unwrap();
            assert_equals_rebuild(&reopened, &full, &db, cfg, &queries, k, "reopened")?;
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// The live × quantized crossing: generation 0 swapped for a
    /// *quantized* write of the same store. Opening decodes it, so the
    /// oracle is a rebuild over the decoded base plus the raw delta —
    /// in the delta and after a fold.
    #[test]
    fn quantized_base_serves_like_its_decoded_store(
        (db, queries, split, k) in arb_db().prop_flat_map(|db| {
            let n = db.len();
            let q = prop::collection::vec(arb_query(&db), 2..4);
            (Just(db), q, 1..=n, 1usize..6)
        })
    ) {
        let trajs: Vec<Trajectory> = db.iter().map(|(_, t)| t.clone()).collect();
        let base = store_of(&trajs[..split]);
        let cfg = EngineConfig::octree().tree_shape(6, 8);
        let dir = unique_dir();
        drop(GenerationalDb::create(&dir, &base, cfg, keep_all()).unwrap());
        let gen0 = dir.join("gen-000000.snap");
        write_snapshot_quantized(&base, None, 0.5, &gen0).unwrap();
        let mut full = read_snapshot(&gen0).unwrap().store;
        prop_assert_ne!(&full, &base, "the codec must actually have rounded something");
        for t in &trajs[split..] {
            full.push_points(t.points()).unwrap();
        }

        let live = GenerationalDb::open(&dir, cfg, keep_all()).unwrap();
        if split < trajs.len() {
            live.ingest(&trajs[split..]).unwrap();
        }
        assert_equals_rebuild(&live, &full, &db, cfg, &queries, k, "quantized base + delta")?;
        live.compact().unwrap();
        assert_equals_rebuild(&live, &full, &db, cfg, &queries, k, "quantized base, folded")?;
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Writes keep landing while generations roll: ingest → compact →
    /// ingest again → the merged view still equals the rebuild, and a
    /// second compaction folds only the new delta.
    #[test]
    fn ingestion_across_generations_stays_consistent(
        (db, queries, s0, s1) in arb_db().prop_flat_map(|db| {
            let n = db.len();
            let q = prop::collection::vec(arb_query(&db), 2..4);
            (Just(db), q, 0..=n, 0..=n)
        })
    ) {
        let (a, b) = if s0 <= s1 { (s0, s1) } else { (s1, s0) };
        let trajs: Vec<Trajectory> = db.iter().map(|(_, t)| t.clone()).collect();
        let full = store_of(&trajs);
        let cfg = EngineConfig::octree().tree_shape(6, 8);
        let dir = unique_dir();

        let live =
            GenerationalDb::create(&dir, &store_of(&trajs[..a]), cfg, keep_all())
                .unwrap();
        if a < b {
            live.ingest(&trajs[a..b]).unwrap();
        }
        live.compact().unwrap();
        if b < trajs.len() {
            live.ingest(&trajs[b..]).unwrap();
        }
        assert_equals_rebuild(&live, &full, &db, cfg, &queries, 3, "two generations")?;

        let second = live.compact().unwrap();
        prop_assert_eq!(second.folded_trajs, trajs.len() - b);
        assert_equals_rebuild(&live, &full, &db, cfg, &queries, 3, "after second fold")?;
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ---------------------------------------------------------------------
// Crash recovery.
// ---------------------------------------------------------------------

fn crash_case() -> (PathBuf, Vec<Trajectory>, TrajectoryDb) {
    let db: TrajectoryDb = vec![
        Trajectory::new(vec![
            Point::new(0.0, 0.0, 0.0),
            Point::new(1.0, 0.5, 10.0),
            Point::new(2.0, 1.0, 20.0),
        ])
        .unwrap(),
        Trajectory::new(vec![
            Point::new(10.0, 10.0, 5.0),
            Point::new(11.0, 11.0, 15.0),
        ])
        .unwrap(),
        Trajectory::new(vec![Point::new(-5.0, 3.0, 2.0), Point::new(-6.0, 4.0, 8.0)]).unwrap(),
    ]
    .into_iter()
    .collect();
    let trajs: Vec<Trajectory> = db.iter().map(|(_, t)| t.clone()).collect();
    (unique_dir(), trajs, db)
}

fn probe_queries() -> Vec<Cube> {
    vec![
        Cube::new(-10.0, 15.0, -10.0, 15.0, 0.0, 30.0),
        Cube::new(9.0, 12.0, 9.0, 12.0, 0.0, 30.0),
        Cube::new(-7.0, -4.0, 2.0, 5.0, 0.0, 30.0),
    ]
}

/// Kill mid-WAL: a torn tail (an un-terminated trajectory group and a
/// truncated record) appended after the last acked batch is discarded
/// on reopen — exactly the acked writes survive, and the store accepts
/// further appends.
#[test]
fn torn_wal_tail_recovers_exactly_the_acked_writes() {
    let (dir, trajs, db) = crash_case();
    let live =
        GenerationalDb::create(&dir, &store_of(&trajs[..1]), DbOptions::new(), keep_all()).unwrap();
    live.ingest(&trajs[1..2]).unwrap(); // acked
    drop(live);

    // Simulate a crash mid-append: a begin marker without its end, then
    // a half-written point record.
    let wal = dir.join("wal-000000.log");
    let mut bytes = std::fs::read(&wal).unwrap();
    let acked_len = bytes.len();
    let begin = {
        let mut rec = [0u8; 9];
        rec[0] = 0x01;
        rec[1..9].copy_from_slice(&fnv1a64(&[0x01]).to_le_bytes());
        rec
    };
    bytes.extend_from_slice(&begin);
    bytes.extend_from_slice(&[0x02, 1, 2, 3, 4, 5]); // truncated point record
    std::fs::write(&wal, &bytes).unwrap();

    let live = GenerationalDb::open(&dir, DbOptions::new(), keep_all()).unwrap();
    assert_eq!(live.len(), 2, "only the acked trajectories survive");
    assert_eq!(
        std::fs::metadata(&wal).unwrap().len(),
        acked_len as u64,
        "the torn tail is truncated away"
    );

    // The recovered store accepts further appends and serves correctly.
    live.ingest(&trajs[2..]).unwrap();
    let full = store_of(&trajs);
    let rebuild = QueryEngine::over_store(&full, EngineConfig::octree());
    for q in probe_queries() {
        assert_eq!(live.range(&q), QueryExecutor::range(&rebuild, &q));
    }
    assert_eq!(live.len(), db.len());
    std::fs::remove_dir_all(&dir).ok();
}

/// Kill mid-compaction, before the manifest commit: the next
/// generation's snapshot and the fresh WAL already exist, but the
/// manifest still names the old generation — reopen replays the WALs
/// and ignores the orphaned snapshot.
#[test]
fn crash_before_manifest_commit_replays_the_wals() {
    let (dir, trajs, db) = crash_case();
    let live =
        GenerationalDb::create(&dir, &store_of(&trajs[..1]), DbOptions::new(), keep_all()).unwrap();
    live.ingest(&trajs[1..]).unwrap();
    drop(live);

    // Replicate everything compaction does up to (not including) the
    // manifest rename: seal the WAL behind a fresh one, write the next
    // generation's snapshot.
    trajectory::DeltaStore::create(dir.join("wal-000001.log"), Box::new(KeepAll)).unwrap();
    trajectory::snapshot::write_snapshot(&store_of(&trajs), dir.join("gen-000001.snap")).unwrap();

    let live = GenerationalDb::open(&dir, DbOptions::new(), keep_all()).unwrap();
    assert_eq!(live.generation(), 0, "uncommitted generation is ignored");
    assert_eq!(live.len(), trajs.len());
    let full = store_of(&trajs);
    let rebuild = QueryEngine::over_store(&full, EngineConfig::octree());
    for q in probe_queries() {
        assert_eq!(live.range(&q), QueryExecutor::range(&rebuild, &q));
    }
    // The replayed WAL is served as a sealed segment: a mixed batch of
    // ranges, kNN and similarity answers as the rebuild does.
    for k in [1, 2, 5] {
        let batch = mixed_batch(&db, &probe_queries(), k);
        assert_eq!(live.execute_batch(&batch), rebuild.execute_batch(&batch));
    }
    // And the interrupted compaction can simply run again.
    assert_eq!(live.compact().unwrap().generation, 1);
    assert_eq!(live.len(), trajs.len());
    std::fs::remove_dir_all(&dir).ok();
}

/// Kill mid-compaction, after the manifest commit but before cleanup:
/// the manifest names the new generation while the folded WAL still
/// exists — reopen serves the new snapshot and ignores the stale WAL.
#[test]
fn crash_after_manifest_commit_serves_the_new_generation() {
    let (dir, trajs, _db) = crash_case();
    let live =
        GenerationalDb::create(&dir, &store_of(&trajs[..1]), DbOptions::new(), keep_all()).unwrap();
    live.ingest(&trajs[1..]).unwrap();
    drop(live);

    // Replicate a compaction whose process died right after the commit
    // point: snapshot written, manifest renamed, stale files not yet
    // deleted.
    trajectory::snapshot::write_snapshot(&store_of(&trajs), dir.join("gen-000001.snap")).unwrap();
    std::fs::write(
        dir.join("gens.manifest"),
        "QDTSGENS v1\ngeneration 1\nsnapshot gen-000001.snap\nwal_start 1\n",
    )
    .unwrap();
    assert!(
        dir.join("wal-000000.log").exists(),
        "stale WAL still present"
    );

    let live = GenerationalDb::open(&dir, DbOptions::new(), keep_all()).unwrap();
    assert_eq!(live.generation(), 1);
    assert_eq!(live.len(), trajs.len(), "stale WAL is not double-applied");
    let full = store_of(&trajs);
    let rebuild = QueryEngine::over_store(&full, EngineConfig::octree());
    for q in probe_queries() {
        assert_eq!(live.range(&q), QueryExecutor::range(&rebuild, &q));
    }
    std::fs::remove_dir_all(&dir).ok();
}
