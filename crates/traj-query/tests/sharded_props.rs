//! Property tests of the sharding layer's core promise: a `TrajDb` served
//! as one segment per shard returns **byte-identical results** to a
//! single-store `QueryEngine` over the unsharded database — for range,
//! kNN, similarity, and simplified-database execution, across time
//! partitions of several part counts and every index backend (scan /
//! octree / median kd-tree), including shards served off read-only
//! mappings — plus the shard-set persistence round-trip.

use proptest::prelude::*;
use traj_query::knn::{Dissimilarity, KnnQuery};
use traj_query::{
    range_query_store, DbOptions, EngineConfig, QueryEngine, QueryExecutor, SimilarityQuery, TrajDb,
};
use trajectory::shard::{partition, PartitionStrategy, ShardSet};
use trajectory::{Cube, Point, PointStore, Simplification, Trajectory, TrajectoryDb};

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

fn partition_strategies() -> [PartitionStrategy; 3] {
    [2, 3, 4].map(|parts| PartitionStrategy::Time { parts })
}

/// `store` cut by `strategy`, one segment per shard, each indexed by `cfg`.
fn sharded(store: &PointStore, strategy: PartitionStrategy, cfg: EngineConfig) -> TrajDb {
    let shards = partition(store, &strategy);
    TrajDb::from_shards(shards.into_iter().map(Into::into).collect(), cfg)
}

/// A unique temp dir per case so parallel test binaries never collide.
fn unique_shard_dir() -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir()
        .join("qdts_sharded_props")
        .join(format!(
            "case_{}_{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sharded_range_equals_single_store_everywhere(
        (db, qf) in arb_db().prop_flat_map(|db| {
            let q = arb_query(&db);
            (Just(db), q)
        })
    ) {
        let store = db.to_store();
        for cfg in engine_configs() {
            let single = QueryEngine::over_store(&store, cfg);
            let expected = single.range(&qf);
            prop_assert_eq!(&expected, &range_query_store(&store, &qf), "engine vs scan");
            for strategy in partition_strategies() {
                let sharded = sharded(&store, strategy, cfg);
                prop_assert_eq!(
                    sharded.range(&qf),
                    expected.clone(),
                    "range: {:?} over {:?}",
                    strategy,
                    cfg.backend
                );
                prop_assert_eq!(
                    sharded.range_batch(std::slice::from_ref(&qf)).remove(0),
                    expected.clone(),
                    "range_batch: {:?} over {:?}",
                    strategy,
                    cfg.backend
                );
            }
        }
    }

    #[test]
    fn sharded_knn_equals_single_store_everywhere(
        (db, k, f0, f1) in (arb_db(), 1usize..6, 0.0..1.2f64, 0.0..1.2f64)
    ) {
        // The window fractions deliberately overshoot past the database's
        // time span so degenerate (empty-window) queries are exercised.
        let store = db.to_store();
        let (t0, t1) = db.time_span();
        let (lo, hi) = if f0 <= f1 { (f0, f1) } else { (f1, f0) };
        let q = KnnQuery {
            query: db.get(0).clone(),
            ts: t0 + lo * (t1 - t0),
            te: t0 + hi * (t1 - t0),
            k,
            measure: Dissimilarity::Edr { eps: 1_000.0 },
        };
        for cfg in engine_configs() {
            let expected = QueryEngine::over_store(&store, cfg).knn(&q);
            for strategy in partition_strategies() {
                let sharded = sharded(&store, strategy, cfg);
                prop_assert_eq!(
                    sharded.knn(&q),
                    expected.clone(),
                    "knn: {:?} over {:?}",
                    strategy,
                    cfg.backend
                );
            }
        }
    }

    #[test]
    fn sharded_similarity_equals_single_store_everywhere(
        (db, delta, f0, f1) in (arb_db(), 10.0..5e3f64, 0.0..1.0f64, 0.0..1.0f64)
    ) {
        let store = db.to_store();
        let (t0, t1) = db.time_span();
        let (lo, hi) = if f0 <= f1 { (f0, f1) } else { (f1, f0) };
        let q = SimilarityQuery {
            query: db.get(0).clone(),
            ts: t0 + lo * (t1 - t0),
            te: t0 + hi * (t1 - t0),
            delta,
            step: 5.0,
        };
        let expected = QueryEngine::over_store(&store, EngineConfig::octree()).similarity(&q);
        for strategy in partition_strategies() {
            let sharded =
                sharded(&store, strategy, EngineConfig::octree());
            prop_assert_eq!(
                sharded.similarity(&q),
                expected.clone(),
                "similarity: {:?}",
                strategy
            );
        }
    }

    #[test]
    fn sharded_range_simplified_equals_single_store(
        (db, qf, keep_step) in arb_db().prop_flat_map(|db| {
            let q = arb_query(&db);
            (Just(db), q, 2usize..7)
        })
    ) {
        let store = db.to_store();
        let mut simp = Simplification::most_simplified_store(&store);
        for (id, t) in db.iter() {
            for idx in (0..t.len() as u32).step_by(keep_step) {
                simp.insert(id, idx);
            }
        }
        for cfg in engine_configs() {
            let expected = QueryEngine::over_store(&store, cfg).range_simplified(&simp, &qf);
            for strategy in partition_strategies() {
                let sharded = sharded(&store, strategy, cfg);
                prop_assert_eq!(
                    sharded.range_simplified(&simp, &qf),
                    expected.clone(),
                    "range_simplified: {:?} over {:?}",
                    strategy,
                    cfg.backend
                );
                prop_assert_eq!(
                    sharded.range_simplified_batch(&simp, std::slice::from_ref(&qf)).remove(0),
                    expected.clone(),
                    "range_simplified_batch: {:?} over {:?}",
                    strategy,
                    cfg.backend
                );
            }
        }
    }

    #[test]
    fn sharded_workload_diff_equals_single_store(
        db in arb_db()
    ) {
        let store = db.to_store();
        let bc = db.bounding_cube();
        let (cx, cy, ct) = bc.center();
        let (ex, ey, et) = bc.extents();
        let queries: Vec<Cube> = (1..5)
            .map(|i| {
                let f = i as f64 / 5.0;
                Cube::centered(cx, cy, ct, f * ex / 2.0 + 1e-6, f * ey / 2.0 + 1e-6, f * et / 2.0 + 1e-6)
            })
            .collect();
        let mut simp = Simplification::most_simplified_store(&store);
        for (id, t) in db.iter() {
            for idx in (0..t.len() as u32).step_by(3) {
                simp.insert(id, idx);
            }
        }
        let single = QueryEngine::over_store(&store, EngineConfig::octree());
        let single_w = single.maintained_workload(queries.clone(), &simp);
        for strategy in partition_strategies() {
            let sharded =
                sharded(&store, strategy, EngineConfig::octree());
            let sharded_w = sharded.maintained_workload(queries.clone(), &simp);
            prop_assert!((single_w.diff() - sharded_w.diff()).abs() < 1e-12, "{:?}", strategy);
            for i in 0..queries.len() {
                prop_assert_eq!(single_w.truth(i), sharded_w.truth(i));
                prop_assert_eq!(single_w.result(i), sharded_w.result(i));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn mmap_backed_shards_serve_identically_and_round_trip(
        (db, qf, k) in arb_db().prop_flat_map(|db| {
            let q = arb_query(&db);
            (Just(db), q, 1usize..5)
        })
    ) {
        // Persistence round-trip + serving parity: partition, write the
        // shard set, reopen owned AND mapped, and require byte-identical
        // results to the single-store engine from both.
        let store = db.to_store();
        let (t0, t1) = db.time_span();
        let knn = KnnQuery {
            query: db.get(0).clone(),
            ts: t0,
            te: t0 + 0.7 * (t1 - t0),
            k,
            measure: Dissimilarity::Edr { eps: 1_000.0 },
        };
        for strategy in partition_strategies() {
            let shards = partition(&store, &strategy);
            let dir = unique_shard_dir();
            let written = ShardSet::write(&dir, &shards).unwrap();
            let set = ShardSet::load(&dir).unwrap();
            prop_assert_eq!(&set, &written, "manifest round-trip");
            prop_assert_eq!(set.unify().unwrap(), store.clone(), "unify inverts partition");

            // Owned reopen matches the original shards exactly.
            let owned = set.open_owned().unwrap();
            for (open, shard) in owned.iter().zip(&shards) {
                prop_assert_eq!(&open.store, &shard.store);
                prop_assert_eq!(&open.global_ids, &shard.global_ids);
            }

            for cfg in engine_configs() {
                let single = QueryEngine::over_store(&store, cfg);
                let mapped = set.open_mapped().unwrap();
                let served = TrajDb::from_shards(mapped, cfg);
                prop_assert_eq!(
                    served.range(&qf),
                    single.range(&qf),
                    "mapped range: {:?} over {:?}",
                    strategy,
                    cfg.backend
                );
                prop_assert_eq!(
                    served.knn(&knn),
                    single.knn(&knn),
                    "mapped knn: {:?} over {:?}",
                    strategy,
                    cfg.backend
                );
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn persisted_kept_bitmaps_serve_simplified_results(
        (db, qf, keep_step) in arb_db().prop_flat_map(|db| {
            let q = arb_query(&db);
            (Just(db), q, 2usize..6)
        })
    ) {
        // A sharded simplified database (per-shard kept bitmaps) must
        // serve the same D' results as the single-store engine over the
        // equivalent global simplification.
        let store = db.to_store();
        let mut simp = Simplification::most_simplified_store(&store);
        for (id, t) in db.iter() {
            for idx in (0..t.len() as u32).step_by(keep_step) {
                simp.insert(id, idx);
            }
        }
        let single = QueryEngine::over_store(&store, EngineConfig::octree());
        let expected = single.range_simplified(&simp, &qf);
        for strategy in partition_strategies() {
            let shards = partition(&store, &strategy);
            // Per-shard local simplifications derived from the global one.
            let locals: Vec<Simplification> = shards
                .iter()
                .map(|sh| {
                    let kept: Vec<Vec<u32>> = sh
                        .global_ids
                        .iter()
                        .map(|&g| simp.kept(g).to_vec())
                        .collect();
                    Simplification::from_kept_store(&sh.store, kept)
                })
                .collect();
            let dir = unique_shard_dir();
            traj_simp::write_simplified_shard_set(&dir, &shards, &locals).unwrap();
            let mapped = ShardSet::load(&dir).unwrap().open_mapped().unwrap();
            let served = TrajDb::from_shards(mapped, DbOptions::new());
            prop_assert!(served.has_kept_bitmap());
            prop_assert_eq!(
                served.range_kept(&qf).unwrap(),
                expected.clone(),
                "kept serving: {:?}",
                strategy
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
