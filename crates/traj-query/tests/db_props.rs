//! Property tests of the public façade's two core promises:
//!
//! 1. **Heterogeneous batches are just queries.** Executing a mixed
//!    range + kNN + similarity + range-kept [`QueryBatch`] in one
//!    data-parallel pass returns exactly the per-query results, across
//!    both executors (single-store and sharded), all three index
//!    backends, and owned as well as mmap-backed stores.
//! 2. **`TrajDb::open` erases the storage format.** The same database
//!    persisted as CSV, snapshot file, and shard-set directory opens
//!    through one call and answers every query identically, with kept
//!    bitmaps served wherever the format persists them.

use proptest::prelude::*;
use traj_query::knn::{Dissimilarity, KnnQuery};
use traj_query::{
    DbOptions, EngineConfig, Query, QueryBatch, QueryEngine, QueryExecutor, QueryResult,
    SimilarityQuery, TrajDb,
};
use traj_simp::{Simplifier, Uniform};
use trajectory::shard::{partition, OpenShard, PartitionStrategy, Shard, ShardSet};
use trajectory::snapshot::{read_snapshot, write_snapshot_with};
use trajectory::{Cube, KeptBitmap, Point, PointStore, Simplification, Trajectory, TrajectoryDb};

/// Strategy: a Geolife/T-Drive-shaped database of 1..8 trajectories with
/// 2..40 points each (bounded coordinates, strictly increasing times).
fn arb_db() -> impl Strategy<Value = TrajectoryDb> {
    prop::collection::vec(
        prop::collection::vec((-1e4..1e4f64, -1e4..1e4f64, 0.1..60.0f64), 2..40),
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

/// A unique temp path per case so parallel test binaries never collide.
fn unique_path(prefix: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join("qdts_db_props");
    std::fs::create_dir_all(&dir).ok();
    dir.join(format!(
        "{prefix}_{}_{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

/// A mixed batch touching every query kind, with two kNN windows (one
/// proper, one empty — the degenerate-scoring edge case) interleaved
/// between the range queries.
fn mixed_batch(db: &TrajectoryDb, cubes: &[Cube]) -> QueryBatch {
    let (t0, t1) = db.time_span();
    let mut batch = QueryBatch::new();
    for (i, c) in cubes.iter().enumerate() {
        batch.push_range(*c);
        batch.push_range_kept(*c);
        if i == 0 {
            batch.push_knn(KnnQuery {
                query: db.get(0).clone(),
                ts: t0,
                te: t0 + 0.7 * (t1 - t0),
                k: 3,
                measure: Dissimilarity::Edr { eps: 1_000.0 },
            });
            batch.push_knn(KnnQuery {
                query: db.get(0).clone(),
                ts: t1 + 5.0,
                te: t1 + 10.0, // empty window: degenerate scoring
                k: 2,
                measure: Dissimilarity::Edr { eps: 1_000.0 },
            });
            batch.push_similarity(SimilarityQuery {
                query: db.get(db.len() - 1).clone(),
                ts: t0,
                te: t1,
                delta: 2_500.0,
                step: 30.0,
            });
        }
    }
    batch
}

/// The kept bitmap of endpoints plus every third point of every
/// trajectory.
fn every_third(store: &PointStore) -> KeptBitmap {
    let mut simp = Simplification::most_simplified_store(store);
    for (id, v) in store.iter() {
        for idx in (0..v.len() as u32).step_by(3) {
            simp.insert(id, idx);
        }
    }
    simp.to_bitmap(store)
}

/// Asserts that `execute_batch` over `batch` equals one-at-a-time
/// `execute` on the same executor, and returns the batch results.
fn batch_equals_sequential<E: QueryExecutor + ?Sized>(
    exec: &E,
    batch: &QueryBatch,
    label: &str,
) -> Result<Vec<QueryResult>, TestCaseError> {
    let results = exec.execute_batch(batch);
    prop_assert_eq!(results.len(), batch.len(), "{}: shape", label);
    for (i, (q, r)) in batch.queries().iter().zip(&results).enumerate() {
        prop_assert_eq!(r.kind(), q.kind(), "{}: kind of #{}", label, i);
        let one = exec.execute(q);
        prop_assert_eq!(r, &one, "{}: batch vs one-shot #{}", label, i);
        // And against the typed direct calls.
        match q {
            Query::Range(c) => prop_assert_eq!(r.ids().unwrap(), exec.range(c)),
            Query::Knn(k) => prop_assert_eq!(r.ids().unwrap(), exec.knn(k)),
            Query::Similarity(s) => prop_assert_eq!(r.ids().unwrap(), exec.similarity(s)),
            Query::RangeKept(c) => {
                prop_assert_eq!(r, &QueryResult::RangeKept(exec.range_kept(c)))
            }
        }
    }
    Ok(results)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// The tentpole property: a heterogeneous batch equals sequential
    /// per-query execution on every executor × backend × storage
    /// combination, and all combinations agree with each other.
    #[test]
    fn heterogeneous_batch_equals_sequential_everywhere(
        (db, cubes) in arb_db().prop_flat_map(|db| {
            let qs = prop::collection::vec(arb_query(&db), 2..5);
            (Just(db), qs)
        })
    ) {
        let store = db.to_store();
        let batch = mixed_batch(&db, &cubes);

        // One simplified snapshot + one simplified shard set on disk:
        // the mmap-backed sources, both carrying kept bitmaps.
        let simp = Uniform.simplify_store(&store, store.total_points() / 2);
        let bitmap = simp.to_bitmap(&store);
        let snap = unique_path("batch").with_extension("snap");
        write_snapshot_with(&store, Some(&bitmap), &snap).unwrap();
        let shard_dir = unique_path("batch_shards");
        let shards = partition(&store, &PartitionStrategy::Time { parts: 3 });
        // Persist the *same* global simplification, split per shard, so
        // every storage format serves the identical D'.
        let kept_local: Vec<KeptBitmap> = shards
            .iter()
            .map(|sh: &Shard| {
                let kept = sh
                    .global_ids
                    .iter()
                    .map(|&g| simp.kept(g).to_vec())
                    .collect();
                Simplification::from_kept_store(&sh.store, kept).to_bitmap(&sh.store)
            })
            .collect();
        ShardSet::write_with(&shard_dir, &shards, &kept_local).unwrap();

        for cfg in engine_configs() {
            // Single-store executor, owned columns, bitmap attached.
            let owned_single =
                QueryEngine::over_store(&store, cfg).with_kept_bitmap(bitmap.clone());
            // Single-store executor over the mapped snapshot (bitmap
            // auto-attached), a sharded one over the mapped shard set —
            // both through the façade — and one over the owned shards.
            let mapped_single = TrajDb::open(&snap, cfg).unwrap();
            let mapped_sharded = TrajDb::open(&shard_dir, cfg).unwrap();
            let owned_sharded = TrajDb::from_shards(
                shards
                    .iter()
                    .zip(&kept_local)
                    .map(|(sh, kept)| OpenShard {
                        store: sh.store.clone(),
                        global_ids: sh.global_ids.clone(),
                        kept: Some(kept.clone()),
                    })
                    .collect(),
                cfg,
            );
            prop_assert!(!mapped_single.is_sharded());
            prop_assert!(owned_sharded.is_sharded() && mapped_sharded.is_sharded());

            let baseline =
                batch_equals_sequential(&owned_single, &batch, "owned single")?;
            for (label, results) in [
                ("mapped single", batch_equals_sequential(&mapped_single, &batch, "mapped single")?),
                ("owned sharded", batch_equals_sequential(&owned_sharded, &batch, "owned sharded")?),
                ("mapped sharded", batch_equals_sequential(&mapped_sharded, &batch, "mapped sharded")?),
            ] {
                prop_assert_eq!(
                    &results, &baseline,
                    "{} vs owned single, backend {:?}", label, cfg.backend
                );
            }
            // The kept bitmap round-tripped through every storage format.
            prop_assert!(mapped_single.has_kept_bitmap());
        }
        std::fs::remove_file(&snap).ok();
        std::fs::remove_dir_all(&shard_dir).ok();
    }

    /// `TrajDb::open` resolves the same database from all three on-disk
    /// formats, and every format answers identically.
    #[test]
    fn open_auto_detects_all_three_formats(
        (db, qf) in arb_db().prop_flat_map(|db| {
            let q = arb_query(&db);
            (Just(db), q)
        })
    ) {
        let store = db.to_store();
        let csv = unique_path("open").with_extension("csv");
        trajectory::io::write_csv_file(&db, &csv).unwrap();
        let snap = unique_path("open").with_extension("snap");
        trajectory::write_snapshot(&store, &snap).unwrap();
        let dir = unique_path("open_shards");
        let shards = partition(&store, &PartitionStrategy::Time { parts: 4 });
        trajectory::ShardSet::write(&dir, &shards).unwrap();

        let from_csv = TrajDb::open(&csv, DbOptions::new()).unwrap();
        let from_snap = TrajDb::open(&snap, DbOptions::new()).unwrap();
        let from_dir = TrajDb::open(&dir, DbOptions::new()).unwrap();
        prop_assert!(!from_csv.is_sharded());
        prop_assert!(!from_snap.is_sharded());
        prop_assert!(from_dir.is_sharded());

        let expected = from_csv.range(&qf);
        for (label, db) in [("snapshot", &from_snap), ("shard dir", &from_dir)] {
            prop_assert_eq!(db.len(), store.len(), "{}", label);
            prop_assert_eq!(db.total_points(), store.total_points(), "{}", label);
            prop_assert_eq!(db.range(&qf), expected.clone(), "{}", label);
        }
        std::fs::remove_file(&csv).ok();
        std::fs::remove_file(&snap).ok();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A sharded `D'` is each shard's own simplification: endpoints plus
    /// every third point keeps the same points of a trajectory whatever
    /// store holds it, so the shards' bitmaps serve `range_kept` exactly
    /// as the unsharded snapshot's bitmap does, at every part count.
    #[test]
    fn per_shard_kept_bitmaps_serve_the_same_d_prime(
        (db, qf) in arb_db().prop_flat_map(|db| {
            let q = arb_query(&db);
            (Just(db), q)
        })
    ) {
        let store = db.to_store();
        let snap = unique_path("split").with_extension("snap");
        write_snapshot_with(&store, Some(&every_third(&store)), &snap).unwrap();

        let single = TrajDb::open(&snap, DbOptions::new()).unwrap();
        let expected = single.range_kept(&qf).unwrap();
        for parts in [2, 3, 4] {
            let shards = partition(&store, &PartitionStrategy::Time { parts })
                .into_iter()
                .map(|sh| OpenShard {
                    kept: Some(every_third(&sh.store)),
                    store: sh.store,
                    global_ids: sh.global_ids,
                })
                .collect();
            let sharded = TrajDb::from_shards(shards, DbOptions::new());
            prop_assert!(sharded.has_kept_bitmap(), "{} parts", parts);
            prop_assert_eq!(
                sharded.range_kept(&qf).unwrap(),
                expected.clone(),
                "{} parts",
                parts
            );
        }
        std::fs::remove_file(&snap).ok();
    }
}

#[test]
fn open_rejects_missing_paths_with_io_errors() {
    let err = TrajDb::open(
        std::env::temp_dir().join("qdts_db_props_definitely_missing"),
        DbOptions::new(),
    )
    .unwrap_err();
    assert!(matches!(err, traj_query::TrajDbError::Io(_)), "{err}");
}

/// A snapshot written before the version-2 bump opens through the façade
/// and answers a mixed batch exactly as its version-2
/// rewrite does: the raw fixture with its kept bitmap, and the quantized
/// one, whose decoded columns are what both serve.
#[test]
fn version_1_snapshots_answer_as_their_version_2_rewrites() {
    let fixtures =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../trajectory/tests/fixtures");
    for (name, has_kept) in [("v1_plain_kept.snap", true), ("v1_quantized.snap", false)] {
        let v1 = fixtures.join(name);
        let snap = read_snapshot(&v1).unwrap();
        let v2 = unique_path("v2_rewrite");
        write_snapshot_with(&snap.store, snap.kept.as_ref(), &v2).unwrap();

        let cube = snap.store.bounding_cube();
        let (t0, t1) = snap.store.time_span();
        let half = Cube::new(
            cube.x_min,
            (cube.x_min + cube.x_max) / 2.0,
            cube.y_min,
            cube.y_max,
            cube.t_min,
            cube.t_max,
        );
        let mut batch = QueryBatch::new();
        batch.push_range(cube);
        batch.push_range(half);
        batch.push_range_kept(half);
        batch.push_knn(KnnQuery {
            query: snap.store.view(0).to_trajectory(),
            ts: t0,
            te: t0 + 0.7 * (t1 - t0),
            k: 3,
            measure: Dissimilarity::Edr { eps: 1_000.0 },
        });
        batch.push_similarity(SimilarityQuery {
            query: snap.store.view(1).to_trajectory(),
            ts: t0,
            te: t1,
            delta: 2_500.0,
            step: 30.0,
        });
        let old = TrajDb::open(&v1, DbOptions::new())
            .unwrap()
            .execute_batch(&batch);
        let new = TrajDb::open(&v2, DbOptions::new())
            .unwrap()
            .execute_batch(&batch);
        assert_eq!(old, new, "{name}");
        assert_eq!(old[0].ids().unwrap().len(), snap.store.len(), "{name}");
        assert_eq!(matches!(old[2], QueryResult::RangeKept(Some(_))), has_kept);
        std::fs::remove_file(&v2).ok();
    }
}
