//! Property-based tests for the query engine.

use proptest::prelude::*;
use traj_query::knn::{Dissimilarity, KnnQuery};
use traj_query::{
    edr::edr_seq,
    f1_sets,
    metrics::F1Score,
    range_query_store,
    t2vec::T2vecEmbedder,
    traclus::segdist::{components, segment_distance, DistanceWeights, Segment},
    EngineConfig, QueryEngine, QueryExecutor,
};
use trajectory::snapshot::{write_snapshot_with, MappedStore};
use trajectory::{Cube, KeptBitmap, Point, Simplification, Trajectory, TrajectoryDb};

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
/// cube (fractional center + fractional half-extents), so queries range
/// from empty corners to whole-space covers.
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

/// Every engine backend, small tree shape so smoke-size databases still
/// split into multi-level structures.
fn engine_configs() -> [EngineConfig; 3] {
    [
        EngineConfig::scan(),
        EngineConfig::octree().tree_shape(6, 8),
        EngineConfig::median_kd().tree_shape(6, 8),
    ]
}

fn arb_points(max: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec((-1e3..1e3f64, -1e3..1e3f64), 0..max).prop_map(|coords| {
        coords
            .into_iter()
            .enumerate()
            .map(|(i, (x, y))| Point::new(x, y, i as f64))
            .collect()
    })
}

fn arb_segment() -> impl Strategy<Value = Segment> {
    (-1e3..1e3f64, -1e3..1e3f64, -1e3..1e3f64, -1e3..1e3f64).prop_map(|(ax, ay, bx, by)| Segment {
        a: Point::new(ax, ay, 0.0),
        b: Point::new(bx, by, 1.0),
        traj: 0,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn edr_is_a_bounded_symmetric_premetric(
        (a, b) in (arb_points(15), arb_points(15)),
        eps in 0.1..100.0f64,
    ) {
        let d_ab = edr_seq(&a[..], &b[..], eps);
        let d_ba = edr_seq(&b[..], &a[..], eps);
        prop_assert_eq!(d_ab, d_ba, "symmetry");
        prop_assert!(d_ab >= 0.0);
        prop_assert!(d_ab <= a.len().max(b.len()) as f64, "bounded by max length");
        prop_assert_eq!(edr_seq(&a[..], &a[..], eps), 0.0, "identity");
    }

    #[test]
    fn edr_length_difference_lower_bound(
        (a, b) in (arb_points(15), arb_points(15)),
    ) {
        // At least |len(a) - len(b)| unmatched elements must be edited.
        let d = edr_seq(&a[..], &b[..], 50.0);
        prop_assert!(d >= (a.len() as f64 - b.len() as f64).abs());
    }

    #[test]
    fn t2vec_embeddings_are_unit_or_zero(pts in arb_points(20)) {
        let e = T2vecEmbedder::default();
        let v = e.embed_points(&pts);
        let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        prop_assert!(norm < 1e-9 || (norm - 1.0).abs() < 1e-9, "norm {norm}");
    }

    #[test]
    fn t2vec_distance_symmetric_and_bounded(
        (a, b) in (arb_points(20), arb_points(20)),
    ) {
        let e = T2vecEmbedder::default();
        let va = e.embed_points(&a);
        let vb = e.embed_points(&b);
        let d = T2vecEmbedder::distance(&va, &vb);
        prop_assert!((d - T2vecEmbedder::distance(&vb, &va)).abs() < 1e-12);
        // Two unit vectors are at most 2 apart.
        prop_assert!(d <= 2.0 + 1e-9);
    }

    #[test]
    fn segment_distance_symmetric_nonnegative(
        (x, y) in (arb_segment(), arb_segment()),
    ) {
        let w = DistanceWeights::default();
        let d_xy = segment_distance(&x, &y, &w);
        let d_yx = segment_distance(&y, &x, &w);
        prop_assert!((d_xy - d_yx).abs() < 1e-6, "{d_xy} vs {d_yx}");
        prop_assert!(d_xy >= 0.0);
        let (p, l, a) = components(&x, &y);
        prop_assert!(p >= 0.0 && l >= 0.0 && a >= 0.0);
    }

    #[test]
    fn segment_self_distance_zero(x in arb_segment()) {
        prop_assert!(segment_distance(&x, &x, &DistanceWeights::default()) < 1e-9);
    }

    #[test]
    fn range_query_results_shrink_under_simplification(pts in arb_points(30)) {
        prop_assume!(pts.len() >= 3);
        let full = Trajectory::new(pts.clone()).unwrap();
        // Endpoint-only simplification of the same trajectory.
        let simp = Trajectory::new(vec![pts[0], pts[pts.len() - 1]]).unwrap();
        let db_full = TrajectoryDb::new(vec![full]);
        let db_simp = TrajectoryDb::new(vec![simp]);
        // Any cube: the simplified db can only lose matches, never gain.
        let c = db_full.bounding_cube();
        let (cx, cy, ct) = c.center();
        let (ex, ey, et) = c.extents();
        let q = Cube::centered(cx, cy, ct, ex / 4.0 + 1.0, ey / 4.0 + 1.0, et / 4.0 + 1.0);
        let r_full = range_query_store(&db_full.to_store(), &q);
        let r_simp = range_query_store(&db_simp.to_store(), &q);
        for id in &r_simp {
            prop_assert!(r_full.contains(id), "simplified matched but original did not");
        }
    }

    #[test]
    fn f1_is_bounded_and_consistent(
        (truth, result) in (
            prop::collection::btree_set(0usize..30, 0..10),
            prop::collection::btree_set(0usize..30, 0..10),
        )
    ) {
        let t: Vec<usize> = truth.into_iter().collect();
        let r: Vec<usize> = result.into_iter().collect();
        let s = f1_sets(&t, &r);
        prop_assert!(s.f1 >= 0.0 && s.f1 <= 1.0);
        prop_assert!(s.precision >= 0.0 && s.precision <= 1.0);
        prop_assert!(s.recall >= 0.0 && s.recall <= 1.0);
        // F1 is 1 iff sets are equal.
        if t == r {
            prop_assert_eq!(s.f1, 1.0);
        }
        if s.f1 == 1.0 {
            prop_assert_eq!(t, r);
        }
    }

    #[test]
    fn engine_range_equals_linear_scan_for_every_backend(
        (db, qf) in arb_db().prop_flat_map(|db| {
            let q = arb_query(&db);
            (Just(db), q)
        })
    ) {
        let expected = range_query_store(&db.to_store(), &qf);
        for cfg in engine_configs() {
            let engine = QueryEngine::over(&db, cfg);
            prop_assert_eq!(
                engine.range(&qf),
                expected.clone(),
                "backend {:?}",
                cfg.backend
            );
        }
    }

    #[test]
    fn engine_batch_equals_per_query_execution(db in arb_db()) {
        let bc = db.bounding_cube();
        let (cx, cy, ct) = bc.center();
        let (ex, ey, et) = bc.extents();
        let queries: Vec<Cube> = (0..6)
            .map(|i| {
                let f = (i + 1) as f64 / 7.0;
                Cube::centered(cx, cy, ct, f * ex / 2.0 + 1e-6, f * ey / 2.0 + 1e-6, f * et / 2.0 + 1e-6)
            })
            .collect();
        let store = db.to_store();
        let engine = QueryEngine::over_store(&store, EngineConfig::octree().tree_shape(6, 8));
        let batch = engine.range_batch(&queries);
        for (i, q) in queries.iter().enumerate() {
            prop_assert_eq!(&batch[i], &range_query_store(&store, q));
        }
    }

    #[test]
    fn engine_knn_equals_linear_scan_for_every_backend(
        (db, k, f0, f1) in (arb_db(), 1usize..6, 0.0..1.0f64, 0.0..1.0f64)
    ) {
        let (t0, t1) = db.time_span();
        let (lo, hi) = if f0 <= f1 { (f0, f1) } else { (f1, f0) };
        let q = KnnQuery {
            query: db.get(0).clone(),
            ts: t0 + lo * (t1 - t0),
            te: t0 + hi * (t1 - t0),
            k,
            measure: Dissimilarity::Edr { eps: 1_000.0 },
        };
        let expected = q.execute_store(&db.to_store());
        for cfg in engine_configs() {
            let engine = QueryEngine::over(&db, cfg);
            prop_assert_eq!(engine.knn(&q), expected.clone(), "backend {:?}", cfg.backend);
        }
    }

    #[test]
    fn engine_results_identical_on_aos_and_soa_backing(
        (db, qf, k) in arb_db().prop_flat_map(|db| {
            let q = arb_query(&db);
            (Just(db), q, 1usize..5)
        })
    ) {
        // The row-form forward (`over`, which converts the builder and owns
        // the columns) against an engine borrowing the converted store:
        // both must serve bit-identical range and kNN results on every
        // index backend.
        let store = db.to_store();
        let (t0, t1) = db.time_span();
        let knn = KnnQuery {
            query: db.get(0).clone(),
            ts: t0,
            te: t0 + 0.7 * (t1 - t0),
            k,
            measure: Dissimilarity::Edr { eps: 1_000.0 },
        };
        for cfg in engine_configs() {
            let via_db = QueryEngine::over(&db, cfg);
            let via_store = QueryEngine::over_store(&store, cfg);
            prop_assert_eq!(
                via_db.range(&qf),
                via_store.range(&qf),
                "range, backend {:?}",
                cfg.backend
            );
            prop_assert_eq!(
                via_db.knn(&knn),
                via_store.knn(&knn),
                "knn, backend {:?}",
                cfg.backend
            );
        }
    }

    #[test]
    fn engine_simplified_range_equals_materialized_scan(
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
        let expected = range_query_store(&simp.materialize_store(&store), &qf);
        for cfg in engine_configs() {
            let engine = QueryEngine::over(&db, cfg);
            prop_assert_eq!(
                engine.range_simplified(&simp, &qf),
                expected.clone(),
                "backend {:?}",
                cfg.backend
            );
        }
    }

    #[test]
    fn maintained_workload_diff_always_matches_scratch_diff(
        (db, inserts) in arb_db().prop_flat_map(|db| {
            let n = db.len();
            let ins = prop::collection::vec((0..n, 0.0..1.0f64), 0..40);
            (Just(db), ins)
        })
    ) {
        let bc = db.bounding_cube();
        let (cx, cy, ct) = bc.center();
        let (ex, ey, et) = bc.extents();
        let queries: Vec<Cube> = (1..5)
            .map(|i| {
                let f = i as f64 / 5.0;
                Cube::centered(cx, cy, ct, f * ex / 2.0 + 1e-6, f * ey / 2.0 + 1e-6, f * et / 2.0 + 1e-6)
            })
            .collect();
        let engine = QueryEngine::over(&db, EngineConfig::octree().tree_shape(6, 8));
        let mut simp = Simplification::most_simplified_store(engine.store());
        let mut maintained = engine.maintained_workload(queries, &simp);
        for (traj, frac) in inserts {
            let n = db.get(traj).len() as u32;
            if n <= 2 {
                continue;
            }
            let idx = 1 + ((frac * (n - 2) as f64) as u32).min(n - 3);
            if simp.insert(traj, idx) {
                maintained.insert(traj, db.get(traj).point(idx as usize));
            }
            prop_assert!(
                (maintained.diff() - maintained.diff_of(&engine, &simp)).abs() < 1e-12,
                "incremental diff diverged from scratch recomputation"
            );
        }
        for (i, q) in maintained.queries().to_vec().iter().enumerate() {
            prop_assert_eq!(maintained.result(i), engine.range_simplified(&simp, q));
        }
    }

    #[test]
    fn f1_from_counts_harmonic_mean(
        (i, extra_t, extra_r) in (0usize..20, 0usize..20, 0usize..20)
    ) {
        let s = F1Score::from_counts(i, i + extra_t, i + extra_r);
        if i + extra_t == 0 && i + extra_r == 0 {
            prop_assert_eq!(s.f1, 1.0);
        } else if i == 0 {
            prop_assert_eq!(s.f1, 0.0);
        } else {
            let expect = 2.0 * s.precision * s.recall / (s.precision + s.recall);
            prop_assert!((s.f1 - expect).abs() < 1e-12);
        }
    }
}

/// A unique temp path per case so parallel test binaries never collide.
fn unique_snapshot_path() -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join("qdts_query_props");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!(
        "engine_{}_{}.snap",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn engine_results_identical_on_owned_and_mapped_stores(
        (db, qf, k, keep_flags) in arb_db().prop_flat_map(|db| {
            let q = arb_query(&db);
            let n = db.total_points();
            (Just(db), q, 1usize..6, prop::collection::vec(any::<bool>(), n))
        })
    ) {
        // The acceptance bar of the persistence layer: a database written
        // with write_snapshot and served over a MappedStore must return
        // byte-identical query results to the owned store — for range,
        // kNN, and kept-bitmap (simplified) execution, on every index
        // backend.
        let store = db.to_store();
        let mut kept = KeptBitmap::zeros(store.total_points());
        for (gid, keep) in keep_flags.iter().enumerate() {
            if *keep {
                kept.insert(gid as u32);
            }
        }
        let path = unique_snapshot_path();
        write_snapshot_with(&store, Some(&kept), &path).unwrap();
        let mapped = MappedStore::open(&path).unwrap();
        let mapped_kept = mapped.kept_bitmap().unwrap();

        let (t0, t1) = db.time_span();
        let knn = KnnQuery {
            query: db.get(0).clone(),
            ts: t0,
            te: t0 + 0.6 * (t1 - t0),
            k,
            measure: Dissimilarity::Edr { eps: 1_000.0 },
        };
        for cfg in engine_configs() {
            let owned = QueryEngine::over_store(&store, cfg);
            let served = QueryEngine::over_mapped(&mapped, cfg);
            prop_assert_eq!(
                owned.range(&qf),
                served.range(&qf),
                "range, backend {:?}",
                cfg.backend
            );
            prop_assert_eq!(
                owned.knn(&knn),
                served.knn(&knn),
                "knn, backend {:?}",
                cfg.backend
            );
            // A mapped snapshot with a kept section auto-attaches its
            // bitmap, so the reconciled Option-returning surface serves
            // D' with no further plumbing: the same answer as an owned
            // engine the bitmap was attached to.
            prop_assert_eq!(&mapped_kept, &kept);
            let owned = owned.with_kept_bitmap(kept.clone());
            prop_assert_eq!(
                owned.range_kept(&qf),
                served.range_kept(&qf),
                "range_kept, backend {:?}",
                cfg.backend
            );
        }
        std::fs::remove_file(&path).ok();
    }
}
