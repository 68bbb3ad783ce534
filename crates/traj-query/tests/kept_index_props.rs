//! Property tests of D′'s own index: `RangeKept` answers exactly what the
//! kept bitmap says — a trajectory hits iff one of the points its set
//! bits name lies inside the cube — on every backend (octree and median
//! kd-tree walk a tree built over the kept points alone; the scan
//! backend sweeps the masked kernel), at leaf capacities on both sides of
//! the 64-point chunk, over owned columns and mapped and quantized
//! snapshots, served whole and as time shards. The oracle reads the
//! bitmap and the columns and nothing else.

use proptest::prelude::*;
use traj_query::{BackendKind, EngineConfig, QueryEngine, QueryExecutor, TrajDb};
use trajectory::shard::{partition, OpenShard, PartitionStrategy, Shard};
use trajectory::snapshot::{read_snapshot, write_snapshot_quantized, write_snapshot_with};
use trajectory::{
    Cube, KeptBitmap, MappedStore, Point, PointId, PointStore, Trajectory, TrajectoryDb,
};

/// Strategy: 1..8 trajectories of 2..90 points each, so leaves of 64 and
/// 65 points split and trajectories cross 64-bit bitmap words.
fn arb_db() -> impl Strategy<Value = TrajectoryDb> {
    prop::collection::vec(
        prop::collection::vec((-1e4..1e4f64, -1e4..1e4f64, 0.1..60.0f64), 2..90),
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

/// Which kept bitmap a case serves.
#[derive(Debug, Clone, Copy)]
enum Keep {
    /// Per-trajectory: none, all, or the random bits; trajectory 0 keeps
    /// no point.
    Random,
    /// No point kept: every answer is empty.
    Zeros,
    /// Every point kept: D′ is D.
    Ones,
}

fn bitmap(store: &PointStore, keep: Keep, modes: &[u8], bits: &[bool]) -> KeptBitmap {
    let mut kept = KeptBitmap::zeros(store.total_points());
    for id in 0..store.len() {
        for g in store.global_range(id) {
            let set = match keep {
                Keep::Zeros => false,
                Keep::Ones => true,
                Keep::Random if id == 0 => false,
                Keep::Random => match modes[id % modes.len()] {
                    0 => false,
                    1 => true,
                    _ => bits[g],
                },
            };
            if set {
                kept.insert(g as PointId);
            }
        }
    }
    kept
}

/// The reference: trajectories with a set bit whose point lies in `q`.
fn oracle(store: &PointStore, kept: &KeptBitmap, q: &Cube) -> Vec<usize> {
    (0..store.len())
        .filter(|&id| {
            store.global_range(id).any(|g| {
                let g = g as PointId;
                kept.contains(g) && q.contains(&store.point(g))
            })
        })
        .collect()
}

/// Random cubes, the whole space, and cubes whose faces pass through
/// sampled points.
fn queries(store: &PointStore, fractions: &[(f64, f64, f64, f64)]) -> Vec<Cube> {
    let bc = store.bounding_cube();
    let (ex, ey, et) = bc.extents();
    let mut out: Vec<Cube> = fractions
        .iter()
        .map(|&(fx, fy, ft, h)| {
            Cube::centered(
                bc.x_min + fx * ex,
                bc.y_min + fy * ey,
                bc.t_min + ft * et,
                (h * ex).max(1e-6),
                (h * ey).max(1e-6),
                (h * et).max(1e-6),
            )
        })
        .collect();
    out.push(bc);
    let n = store.total_points();
    for g in (0..n).step_by(n / 5 + 1) {
        let (a, b) = (
            store.point(g as PointId),
            store.point(((g * 31 + 17) % n) as PointId),
        );
        out.push(Cube::new(
            a.x.min(b.x),
            a.x.max(b.x),
            a.y.min(b.y),
            a.y.max(b.y),
            a.t.min(b.t),
            a.t.max(b.t),
        ));
    }
    out
}

/// The shard's part of `kept`, a bitmap over `store`, renumbered to the
/// shard's own points: the bitmap a shard of the same `D'` persists.
fn shard_kept(store: &PointStore, kept: &KeptBitmap, shard: &Shard) -> KeptBitmap {
    let mut local = KeptBitmap::zeros(shard.store.total_points());
    let mut dst = 0;
    for &g in &shard.global_ids {
        let (src, len) = (store.offsets()[g], store.view(g).len() as PointId);
        for i in 0..len {
            if kept.contains(src + i) {
                local.insert(dst + i);
            }
        }
        dst += len;
    }
    local
}

fn configs() -> Vec<EngineConfig> {
    let mut out = Vec::new();
    for backend in [
        BackendKind::Scan,
        BackendKind::Octree,
        BackendKind::MedianKd,
    ] {
        for leaf_capacity in [1, 64, 65] {
            out.push(EngineConfig {
                backend,
                leaf_capacity,
                ..EngineConfig::default()
            });
        }
    }
    out
}

/// A unique temp path per case so parallel property cases never collide.
fn unique_path(prefix: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join("qdts_kept_index_props");
    std::fs::create_dir_all(&dir).ok();
    dir.join(format!(
        "{prefix}_{}_{}.snap",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

fn assert_oracle(
    exec: &dyn QueryExecutor,
    store: &PointStore,
    kept: &KeptBitmap,
    queries: &[Cube],
    label: &str,
) -> Result<(), TestCaseError> {
    prop_assert!(exec.has_kept_bitmap(), "{}", label);
    for q in queries {
        prop_assert_eq!(
            exec.range_kept(q),
            Some(oracle(store, kept, q)),
            "{} cube {:?}",
            label,
            q
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn range_kept_is_the_bitmap_oracle(
        (db, bits) in arb_db().prop_flat_map(|db| {
            let n = db.total_points();
            (Just(db), prop::collection::vec(any::<bool>(), n))
        }),
        modes in prop::collection::vec(0u8..3, 1..8),
        keep in 0usize..3,
        fractions in prop::collection::vec(
            (0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64, 0.01..0.6f64),
            4..8,
        ),
    ) {
        let keep = [Keep::Random, Keep::Zeros, Keep::Ones][keep];
        let store = db.to_store();
        let kept = bitmap(&store, keep, &modes, &bits);
        let queries = queries(&store, &fractions);
        let plain = unique_path("plain");
        write_snapshot_with(&store, Some(&kept), &plain).unwrap();
        let quantized = unique_path("quantized");
        write_snapshot_quantized(&store, Some(&kept), 0.5, &quantized).unwrap();
        // The quantized columns differ from the raw ones: its oracle reads
        // what the snapshot decodes to.
        let decoded = read_snapshot(&quantized).unwrap();
        prop_assert_eq!(decoded.kept.as_ref(), Some(&kept));
        let mapped = MappedStore::open(&plain).unwrap();

        for cfg in configs() {
            let label = format!("{:?} leaf {}", cfg.backend, cfg.leaf_capacity);
            let mut engine = QueryEngine::over_store(&store, cfg).with_kept_bitmap(kept.clone());
            assert_oracle(&engine, &store, &kept, &queries, &format!("engine, {label}"))?;
            let over_mapped = QueryEngine::over_mapped(&mapped, cfg);
            assert_oracle(&over_mapped, &store, &kept, &queries, &format!("over_mapped, {label}"))?;

            for (source, path, columns) in [
                ("mapped", &plain, &store),
                ("quantized", &quantized, &decoded.store),
            ] {
                let db = TrajDb::open(path, cfg).unwrap();
                prop_assert!(!db.is_sharded());
                assert_oracle(&db, columns, &kept, &queries, &format!("{source}, {label}"))?;
            }
            // The raw and the decoded columns cut into time shards, each
            // shard carrying its part of the bitmap.
            for (source, columns) in [("raw", &store), ("quantized", &decoded.store)] {
                let shards = partition(columns, &PartitionStrategy::Time { parts: 3 })
                    .into_iter()
                    .map(|sh| OpenShard {
                        kept: Some(shard_kept(columns, &kept, &sh)),
                        store: sh.store,
                        global_ids: sh.global_ids,
                    })
                    .collect();
                let db = TrajDb::from_shards(shards, cfg);
                prop_assert!(db.is_sharded());
                let what = format!("{source} time shards, {label}");
                assert_oracle(&db, columns, &kept, &queries, &what)?;
            }

            // Clearing the bitmap drops D′: no answer, not an empty one;
            // attaching it again serves it again.
            engine.set_kept_bitmap(None);
            prop_assert!(!engine.has_kept_bitmap() && engine.kept_bitmap().is_none());
            for q in &queries {
                prop_assert_eq!(engine.range_kept(q), None, "cleared, {}", label);
            }
            engine.set_kept_bitmap(Some(kept.clone()));
            assert_oracle(&engine, &store, &kept, &queries, &format!("re-attached, {label}"))?;
        }
        std::fs::remove_file(&plain).ok();
        std::fs::remove_file(&quantized).ok();
    }
}
