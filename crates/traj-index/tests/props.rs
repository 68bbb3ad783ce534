//! Property-based tests for the octree index.

use proptest::prelude::*;
use traj_index::{CubeIndex, Octree, OctreeConfig};
use trajectory::{Point, Trajectory, TrajectoryDb};

fn arb_db() -> impl Strategy<Value = TrajectoryDb> {
    prop::collection::vec(
        prop::collection::vec((-1e3..1e3f64, -1e3..1e3f64, 0.1..10.0f64), 2..30),
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_point_is_indexed_exactly_once(db in arb_db()) {
        let store = db.to_store();
        let tree = Octree::build(&store, OctreeConfig { max_depth: 6, leaf_capacity: 8 });
        let mut gids = tree.collect_points(tree.root());
        gids.sort_unstable();
        prop_assert_eq!(gids.len(), db.total_points());
        gids.dedup();
        prop_assert_eq!(gids.len(), db.total_points(), "duplicate point id");
    }

    #[test]
    fn subtree_counts_are_consistent(db in arb_db()) {
        let store = db.to_store();
        let tree = Octree::build(&store, OctreeConfig { max_depth: 5, leaf_capacity: 4 });
        for id in 0..tree.len() as u32 {
            let n = tree.node(id);
            prop_assert_eq!(tree.collect_points(id).len(), n.point_count as usize);
            let distinct: std::collections::BTreeSet<_> = tree
                .collect_points(id)
                .iter()
                .map(|&gid| store.traj_of(gid))
                .collect();
            prop_assert_eq!(distinct.len(), n.traj_count as usize);
        }
    }

    #[test]
    fn query_count_monotone_down_the_tree(db in arb_db()) {
        let mut tree = Octree::build(&db.to_store(), OctreeConfig { max_depth: 5, leaf_capacity: 4 });
        let bc = db.bounding_cube();
        let (cx, cy, ct) = bc.center();
        let (ex, ey, et) = bc.extents();
        let queries = vec![
            trajectory::Cube::centered(cx, cy, ct, ex * 0.25, ey * 0.25, et * 0.25),
            trajectory::Cube::centered(cx * 0.5, cy * 0.5, ct * 0.5, ex * 0.1, ey * 0.1, et * 0.1),
        ];
        tree.assign_queries(&queries);
        for id in 0..tree.len() as u32 {
            if let Some(children) = tree.node(id).children {
                for c in children {
                    // A query hitting a child must hit the parent.
                    prop_assert!(tree.node(c).query_count <= tree.node(id).query_count);
                }
            }
        }
    }

    #[test]
    fn points_by_trajectory_is_a_partition(db in arb_db()) {
        let store = db.to_store();
        let tree = Octree::build(&store, OctreeConfig { max_depth: 6, leaf_capacity: 8 });
        let mut ids = Vec::new();
        tree.sorted_point_ids(tree.root(), &mut ids);
        prop_assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids must ascend");
        let mut seen = std::collections::BTreeSet::new();
        for gid in ids {
            let (traj, idx) = store.locate(gid);
            prop_assert!(seen.insert((traj, idx)), "duplicate ({traj},{idx})");
            prop_assert!((idx as usize) < db.get(traj).len());
        }
        prop_assert_eq!(seen.len(), db.total_points());
    }
}
