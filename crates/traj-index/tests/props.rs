//! Property-based tests for the octree index, and for the subset builds
//! of both backends.

use proptest::prelude::*;
use traj_index::octree::SPLIT_MIN_POINTS;
use traj_index::{
    CubeIndex, MedianTree, MedianTreeConfig, NodeId, Octree, OctreeConfig, SpatioTemporalIndex,
};
use trajectory::{Cube, Point, PointId, PointStore, Trajectory, TrajectoryDb};

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

/// Both backends at one tree shape: `(octree, median kd)` built by
/// `build`, or by `build_subset` over `gids` when given.
fn both(
    store: &PointStore,
    gids: Option<Vec<PointId>>,
    max_depth: u32,
    leaf_capacity: usize,
) -> (Octree, MedianTree) {
    let oc = OctreeConfig {
        max_depth,
        leaf_capacity,
    };
    let kc = MedianTreeConfig {
        max_depth,
        leaf_capacity,
    };
    match gids {
        None => (Octree::build(store, oc), MedianTree::build(store, kc)),
        Some(gids) => (
            Octree::build_subset(store, gids.clone(), oc),
            MedianTree::build_subset(store, gids, kc),
        ),
    }
}

/// Node for node, the same tree: shape, cubes, statistics and packed
/// slabs all equal.
fn assert_same_tree<I: SpatioTemporalIndex + CubeIndex>(a: &I, b: &I, nodes: usize) {
    for id in 0..nodes as NodeId {
        assert_eq!(CubeIndex::cube(a, id), CubeIndex::cube(b, id), "node {id}");
        assert_eq!(a.tight_cube(id), b.tight_cube(id), "node {id}");
        assert_eq!(
            CubeIndex::children(a, id),
            CubeIndex::children(b, id),
            "node {id}"
        );
        assert_eq!(a.depth(id), b.depth(id), "node {id}");
        assert_eq!(a.traj_count(id), b.traj_count(id), "node {id}");
        assert_eq!(a.point_count(id), b.point_count(id), "node {id}");
        let (sa, sb) = (a.leaf_slab(id), b.leaf_slab(id));
        assert_eq!(sa.gids, sb.gids, "node {id}");
        assert_eq!(sa.owners, sb.owners, "node {id}");
        assert_eq!((sa.xs, sa.ys, sa.ts), (sb.xs, sb.ys, sb.ts), "node {id}");
        assert_eq!(
            CubeIndex::subtree_points(a, id),
            CubeIndex::subtree_points(b, id)
        );
    }
}

/// The tree holds exactly the points `gids`, each once, in a leaf whose
/// slab carries the store's own global id, coordinates and owner for it;
/// the root counts the subset's points and distinct trajectories.
fn assert_holds_exactly<I: SpatioTemporalIndex + CubeIndex>(
    tree: &I,
    nodes: usize,
    store: &PointStore,
    gids: &[PointId],
) {
    let mut seen = Vec::new();
    for id in 0..nodes as NodeId {
        let slab = tree.leaf_slab(id);
        for i in 0..slab.len() {
            let gid = slab.gids[i];
            assert_eq!(slab.owners[i] as usize, store.traj_of(gid), "gid {gid}");
            let p = store.point(gid);
            assert_eq!((slab.xs[i], slab.ys[i], slab.ts[i]), (p.x, p.y, p.t));
            seen.push(gid);
        }
    }
    seen.sort_unstable();
    assert_eq!(seen, gids);
    let root = SpatioTemporalIndex::root(tree);
    assert_eq!(tree.point_count(root) as usize, gids.len());
    let mut trajs: Vec<usize> = gids.iter().map(|&g| store.traj_of(g)).collect();
    trajs.dedup();
    assert_eq!(tree.traj_count(root) as usize, trajs.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn a_subset_build_over_every_point_is_the_build_tree(
        db in arb_db(),
        shape in 0usize..3,
    ) {
        let leaf_capacity = [1, 4, 64][shape];
        let store = db.to_store();
        let all: Vec<PointId> = (0..store.total_points() as PointId).collect();
        let (octree, kd) = both(&store, None, 6, leaf_capacity);
        let (sub_octree, sub_kd) = both(&store, Some(all), 6, leaf_capacity);
        prop_assert_eq!(octree.len(), sub_octree.len());
        prop_assert_eq!(kd.len(), sub_kd.len());
        assert_same_tree(&octree, &sub_octree, octree.len());
        assert_same_tree(&kd, &sub_kd, kd.len());
    }

    #[test]
    fn a_subset_tree_holds_exactly_the_subset(
        (db, keep) in arb_db().prop_flat_map(|db| {
            let n = db.total_points();
            (Just(db), prop::collection::vec(any::<bool>(), n))
        }),
        shape in 0usize..3,
    ) {
        let leaf_capacity = [1, 4, 64][shape];
        let store = db.to_store();
        let gids: Vec<PointId> = (0..store.total_points() as PointId)
            .filter(|&g| keep[g as usize])
            .collect();
        let (octree, kd) = both(&store, Some(gids.clone()), 6, leaf_capacity);
        assert_holds_exactly(&octree, octree.len(), &store, &gids);
        assert_holds_exactly(&kd, kd.len(), &store, &gids);
        // The octree's root cube is the subset's own bounds.
        let mut bounds = Cube::empty();
        gids.iter().for_each(|&g| bounds.extend(&store.point(g)));
        prop_assert_eq!(octree.tight_cube(octree.root()), bounds);
    }
}

#[test]
fn an_empty_subset_gives_an_empty_root() {
    let store = trajectory::gen::generate(
        &trajectory::gen::DatasetSpec::geolife(trajectory::gen::Scale::Smoke),
        5,
    )
    .to_store();
    let (octree, kd) = both(&store, Some(Vec::new()), 6, 8);
    assert!(octree.is_empty() && kd.is_empty());
    assert_eq!((octree.len(), kd.len()), (1, 1));
    assert!(octree.leaf_slab(0).is_empty() && kd.leaf_slab(0).is_empty());
    assert_eq!(
        (
            CubeIndex::traj_count(&octree, 0),
            CubeIndex::traj_count(&kd, 0)
        ),
        (0, 0)
    );
}

/// Above [`SPLIT_MIN_POINTS`] the root's octants are built by parallel
/// workers and stitched together; the result is the sequential build,
/// node for node — for `build` and for a `build_subset` over every point,
/// at the serving shape, a deep narrow one, and a root that must stay a
/// leaf.
#[test]
fn the_split_build_is_the_sequential_build_node_for_node() {
    let store = trajectory::gen::generate(
        &trajectory::gen::DatasetSpec::tdrive(trajectory::gen::Scale::Small).with_trajectories(250),
        9,
    )
    .to_store();
    assert!(
        store.total_points() >= SPLIT_MIN_POINTS,
        "input below the cut-off"
    );
    let all: Vec<PointId> = (0..store.total_points() as PointId).collect();
    for (max_depth, leaf_capacity) in [(12, 64), (8, 4), (1, 64)] {
        let config = OctreeConfig {
            max_depth,
            leaf_capacity,
        };
        let sequential = Octree::build_unsplit(&store, config);
        for split in [
            Octree::build(&store, config),
            Octree::build_subset(&store, all.clone(), config),
        ] {
            assert_eq!(split.len(), sequential.len(), "shape {config:?}");
            assert_same_tree(&split, &sequential, sequential.len());
            for id in 0..sequential.len() as NodeId {
                assert_eq!(split.subtree_owners(id), sequential.subtree_owners(id));
            }
        }
    }
}
