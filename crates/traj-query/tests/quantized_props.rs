//! Property tests for the quantized column codec as seen through the
//! query layer: a quantized snapshot decodes every coordinate within
//! the stored error bound, shrinks the file, and — because both load
//! paths rehydrate to plain `f64` columns — answers queries identically
//! across all three index backends, owned and mapped columns, and the
//! single-store and sharded engines. The codec's query-accuracy
//! contract is pinned too: expanding a range cube by the error bound on
//! the quantized database recovers every raw-database hit.

use proptest::prelude::*;
use traj_query::{range_query_store, EngineConfig, QueryExecutor, TrajDb};
use trajectory::shard::{partition, PartitionStrategy, ShardSet};
use trajectory::snapshot::{read_snapshot, write_snapshot_quantized, write_snapshot_with};
use trajectory::{Cube, Point, PointStore, Trajectory, TrajectoryDb};

/// Strategy: a database large enough that quantized sections amortize
/// their metadata (4..8 trajectories, 24..60 points each), with bounded
/// coordinates and strictly increasing times.
fn arb_db() -> impl Strategy<Value = TrajectoryDb> {
    prop::collection::vec(
        prop::collection::vec((-1e4..1e4f64, -1e4..1e4f64, 0.1..60.0f64), 24..60),
        4..8,
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
/// cube.
fn arb_query(db: &TrajectoryDb) -> impl Strategy<Value = Cube> {
    let bc = db.bounding_cube();
    (
        (0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64),
        (0.05..0.8f64, 0.05..0.8f64, 0.05..0.8f64),
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

/// A unique temp path per case so parallel property cases never collide.
fn unique_path(prefix: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join("qdts_quantized_props");
    std::fs::create_dir_all(&dir).ok();
    dir.join(format!(
        "{prefix}_{}_{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Per-coordinate bound check between a raw and a decoded-quantized
/// store (same shape, every axis within `bound`).
fn assert_within_bound(raw: &PointStore, q: &PointStore, bound: f64) -> Result<(), TestCaseError> {
    prop_assert_eq!(raw.offsets(), q.offsets());
    for (axis, (a, b)) in [
        ("x", (raw.xs(), q.xs())),
        ("y", (raw.ys(), q.ys())),
        ("t", (raw.ts(), q.ts())),
    ] {
        for (i, (&r, &d)) in a.iter().zip(b).enumerate() {
            prop_assert!(
                (r - d).abs() <= bound,
                "{}[{}]: raw {} vs quantized {} exceeds bound {}",
                axis,
                i,
                r,
                d,
                bound
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Writing quantized shrinks the file, keeps every coordinate within
    /// the stored bound, and reports the bound through `QuantInfo` on
    /// the owned load path.
    #[test]
    fn quantized_snapshot_is_smaller_and_within_bound(
        (db, max_error) in (arb_db(), 0.05..5.0f64),
    ) {
        let store = db.to_store();
        let raw_path = unique_path("raw").with_extension("snap");
        let q_path = unique_path("quant").with_extension("snap");
        write_snapshot_with(&store, None, &raw_path).unwrap();
        write_snapshot_quantized(&store, None, max_error, &q_path).unwrap();

        let raw_len = std::fs::metadata(&raw_path).unwrap().len();
        let q_len = std::fs::metadata(&q_path).unwrap().len();
        prop_assert!(
            q_len < raw_len,
            "quantized {} >= raw {} bytes at bound {}",
            q_len,
            raw_len,
            max_error
        );

        let snap = read_snapshot(&q_path).unwrap();
        let info = snap.quant.expect("quantized file reports QuantInfo");
        prop_assert_eq!(info.max_error.to_bits(), max_error.to_bits());
        // The encoder honours a slightly tighter bound than it stores;
        // allow only float slack here.
        assert_within_bound(&store, &snap.store, max_error * (1.0 + 1e-9))?;
        std::fs::remove_file(&raw_path).ok();
        std::fs::remove_file(&q_path).ok();
    }

    /// Once decoded, quantized data is just data: every index backend,
    /// the decoded columns in memory, the mapped snapshot and the sharded
    /// engine answer identically on it,
    /// and all of them match the scalar reference scan over the decoded
    /// store.
    #[test]
    fn backends_and_storage_modes_agree_on_quantized_data(
        ((db, max_error), cubes) in (arb_db(), 0.05..2.0f64).prop_flat_map(|(db, e)| {
            let qs = prop::collection::vec(arb_query(&db), 2..5);
            (Just((db, e)), qs)
        }),
    ) {
        let store = db.to_store();
        let q_path = unique_path("agree").with_extension("snap");
        write_snapshot_quantized(&store, None, max_error, &q_path).unwrap();
        let decoded = read_snapshot(&q_path).unwrap().store;

        let shard_dir = unique_path("agree_shards");
        let shards = partition(&decoded, &PartitionStrategy::Time { parts: 3 });
        ShardSet::write_quantized(&shard_dir, &shards, None, max_error).unwrap();

        for cfg in engine_configs() {
            let owned = TrajDb::from_store(decoded.clone(), cfg);
            let mapped = TrajDb::open(&q_path, cfg).unwrap();
            let sharded = TrajDb::open(&shard_dir, cfg).unwrap();
            prop_assert!(sharded.is_sharded());
            for q in &cubes {
                let expected = range_query_store(&decoded, q);
                for (label, db) in
                    [("owned", &owned), ("mapped", &mapped), ("sharded", &sharded)]
                {
                    prop_assert_eq!(
                        db.range(q),
                        expected.clone(),
                        "{} diverges from reference scan, backend {:?}",
                        label,
                        cfg.backend
                    );
                }
            }
        }
        std::fs::remove_file(&q_path).ok();
        std::fs::remove_dir_all(&shard_dir).ok();
    }

    /// The PPQ-style accuracy contract: every raw-database range hit is
    /// recovered on the quantized database by expanding the query cube
    /// by the error bound (a point can move at most `max_error` per
    /// axis, so it cannot escape the expanded cube).
    #[test]
    fn expanding_by_the_bound_recovers_raw_hits(
        ((db, max_error), cube) in (arb_db(), 0.05..2.0f64).prop_flat_map(|(db, e)| {
            let q = arb_query(&db);
            (Just((db, e)), q)
        }),
    ) {
        let store = db.to_store();
        let q_path = unique_path("recall").with_extension("snap");
        write_snapshot_quantized(&store, None, max_error, &q_path).unwrap();
        let decoded = read_snapshot(&q_path).unwrap().store;

        let slack = max_error * (1.0 + 1e-9);
        let expanded = Cube {
            x_min: cube.x_min - slack,
            x_max: cube.x_max + slack,
            y_min: cube.y_min - slack,
            y_max: cube.y_max + slack,
            t_min: cube.t_min - slack,
            t_max: cube.t_max + slack,
        };
        let raw_hits = range_query_store(&store, &cube);
        let quant_hits = range_query_store(&decoded, &expanded);
        for id in &raw_hits {
            prop_assert!(
                quant_hits.contains(id),
                "raw hit {:?} missing from quantized expanded-cube results",
                id
            );
        }
        std::fs::remove_file(&q_path).ok();
    }
}

/// The codec's size claim on a realistic database, not just a few random
/// walks: at a 0.5-unit bound a quantized snapshot of 1 000 T-Drive-shaped
/// trajectories (~349 k points) is less than half the raw file. The ratio
/// reads ~3× at this seed, so the bound is not tight.
#[test]
fn a_quantized_tdrive_snapshot_is_under_half_the_raw_size() {
    use trajectory::gen::{generate, DatasetSpec, Scale};
    let store = generate(
        &DatasetSpec::tdrive(Scale::Small).with_trajectories(1000),
        7,
    )
    .to_store();
    let raw_path = unique_path("tdrive_raw").with_extension("snap");
    let q_path = unique_path("tdrive_quant").with_extension("snap");
    write_snapshot_with(&store, None, &raw_path).unwrap();
    write_snapshot_quantized(&store, None, 0.5, &q_path).unwrap();
    let raw_len = std::fs::metadata(&raw_path).unwrap().len();
    let q_len = std::fs::metadata(&q_path).unwrap().len();
    assert!(
        q_len * 2 < raw_len,
        "quantized {q_len} vs raw {raw_len} bytes over {} points",
        store.total_points()
    );
    std::fs::remove_file(&raw_path).ok();
    std::fs::remove_file(&q_path).ok();
}
