//! Property tests of the partitioning layer: every strategy must produce
//! a true partition (whole trajectories, each exactly once, columns
//! bit-identical), `unify` must invert it, and the shard-set manifest
//! must round-trip through disk for arbitrary databases.

use proptest::prelude::*;
use trajectory::shard::{partition, unify_shards, PartitionStrategy, ShardSet};
use trajectory::{Point, PointStore, Trajectory};

/// Strategy: a store of 1..10 trajectories with 1..30 points each.
fn arb_store() -> impl Strategy<Value = PointStore> {
    prop::collection::vec(
        prop::collection::vec((-1e5..1e5f64, -1e5..1e5f64, 0.1..500.0f64), 1..30),
        1..10,
    )
    .prop_map(|trajs| {
        trajs
            .into_iter()
            .map(|steps| {
                let mut t = 0.0;
                let pts: Vec<Point> = steps
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

/// Strategy: the time partitioner with 1..9 parts.
fn arb_strategy() -> impl Strategy<Value = PartitionStrategy> {
    (1usize..10).prop_map(|parts| PartitionStrategy::Time { parts })
}

fn unique_dir() -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join("qdts_shard_props").join(format!(
        "case_{}_{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn partition_is_a_partition((store, strategy) in (arb_store(), arb_strategy())) {
        let shards = partition(&store, &strategy);
        prop_assert!(!shards.is_empty());
        let mut seen = vec![false; store.len()];
        for shard in &shards {
            prop_assert!(!shard.store.is_empty(), "no empty shards");
            prop_assert_eq!(shard.store.len(), shard.global_ids.len());
            prop_assert!(shard.global_ids.windows(2).all(|w| w[0] < w[1]));
            for (local, &global) in shard.global_ids.iter().enumerate() {
                prop_assert!(!seen[global], "trajectory {} twice", global);
                seen[global] = true;
                let (a, b) = (shard.store.view(local), store.view(global));
                prop_assert_eq!(a.xs, b.xs);
                prop_assert_eq!(a.ys, b.ys);
                prop_assert_eq!(a.ts, b.ts);
            }
        }
        prop_assert!(seen.iter().all(|&s| s), "every trajectory assigned");
        // Point totals conserved.
        let total: usize = shards.iter().map(|s| s.store.total_points()).sum();
        prop_assert_eq!(total, store.total_points());
        // Shard bounds cover their points.
        for shard in &shards {
            let b = shard.bounds();
            for v in shard.store.views() {
                for i in 0..v.len() {
                    prop_assert!(b.contains_xyz(v.xs[i], v.ys[i], v.ts[i]));
                }
            }
        }
    }

    #[test]
    fn unify_inverts_any_partition((store, strategy) in (arb_store(), arb_strategy())) {
        let shards = partition(&store, &strategy);
        prop_assert_eq!(unify_shards(&shards), store);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn shard_set_persistence_round_trips((store, strategy) in (arb_store(), arb_strategy())) {
        let shards = partition(&store, &strategy);
        let dir = unique_dir();
        let written = ShardSet::write(&dir, &shards).unwrap();
        let loaded = ShardSet::load(&dir).unwrap();
        prop_assert_eq!(&loaded, &written);
        prop_assert_eq!(loaded.len(), shards.len());
        prop_assert_eq!(loaded.total_trajs(), store.len());

        let owned = loaded.open_owned().unwrap();
        for (open, shard) in owned.iter().zip(&shards) {
            prop_assert_eq!(&open.store, &shard.store);
            prop_assert_eq!(&open.global_ids, &shard.global_ids);
            prop_assert!(open.kept.is_none());
        }
        let mapped = loaded.open_mapped().unwrap();
        for (open, shard) in mapped.iter().zip(&shards) {
            prop_assert_eq!(open.store.xs(), shard.store.xs());
            prop_assert_eq!(open.store.ys(), shard.store.ys());
            prop_assert_eq!(open.store.ts(), shard.store.ts());
            prop_assert_eq!(open.store.offsets(), shard.store.offsets());
        }
        prop_assert_eq!(loaded.unify().unwrap(), store);
        std::fs::remove_dir_all(&dir).ok();
    }
}
