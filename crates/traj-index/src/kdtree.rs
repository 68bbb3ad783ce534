//! Median-split (kd-tree-style) alternative to the octree.
//!
//! The paper's octree halves each dimension geometrically, which leaves
//! nodes unbalanced on skewed data. This index instead performs three
//! successive *median* splits (x, then y, then t) per level — the kd-tree
//! construction rule — and bundles them into one 8-ary step so it is a
//! drop-in [`CubeIndex`] for Agent-Cube (whose action space is fixed at 8
//! children + stop). This realizes the "other indexes, e.g. kd-tree"
//! future-work direction of §I; the `index_ablation` experiment compares
//! the two.
//!
//! Like the octree, the tree is built over a columnar
//! [`trajectory::PointStore`] and its leaves hold bare global [`PointId`]s.

use crate::octree::{subset_cube, LeafSlab, NodeId, PackedPoints};
use crate::traits::CubeIndex;
use trajectory::{AsColumns, Cube, PageBuf, Point, PointId};

/// One node of the median tree.
#[derive(Debug, Clone, Copy)]
struct Node {
    cube: Cube,
    depth: u32,
    children: Option<[NodeId; 8]>,
    /// Start of the subtree's run in the packed arrays (leaves are packed
    /// in DFS order, so the `point_count` points under a node are
    /// contiguous) and the length of the node's own run (leaves only).
    points_start: u32,
    points_len: u32,
    traj_count: u32,
    point_count: u32,
    query_count: u32,
}

/// Build parameters (same knobs as the octree).
#[derive(Debug, Clone, Copy)]
pub struct MedianTreeConfig {
    /// Maximum depth (root = 1).
    pub max_depth: u32,
    /// Leaves with more points than this split (depth permitting).
    pub leaf_capacity: usize,
}

impl Default for MedianTreeConfig {
    fn default() -> Self {
        Self {
            max_depth: 12,
            leaf_capacity: 64,
        }
    }
}

/// The kd-tree-style median-split index.
#[derive(Debug, Clone)]
pub struct MedianTree {
    /// The node arena, in DFS order.
    nodes: PageBuf<Node>,
    /// Leaf-major packed coordinates/owners/ids (see [`LeafSlab`]).
    packed: PackedPoints,
}

impl MedianTree {
    /// Builds the tree over all points of a columnar `store`. Leaves are
    /// packed into contiguous coordinate runs as the recursion bottoms
    /// out (the recursion visits leaves in DFS order). Like
    /// [`crate::Octree::build`], the build is generic over [`AsColumns`],
    /// so owned and mmap-backed stores index identically.
    pub fn build<S: AsColumns + ?Sized>(store: &S, config: MedianTreeConfig) -> Self {
        let all = 0..store.total_points() as PointId;
        Self::build_over(store, all, store.bounding_cube(), config)
    }

    /// [`MedianTree::build`] over the points `gids` of `store` alone —
    /// any ascending subset of its global ids. As with
    /// [`crate::Octree::build_subset`], slabs carry the store's own global
    /// ids and owners, and the root cube is the subset's bounding cube.
    pub fn build_subset<S: AsColumns + ?Sized>(
        store: &S,
        gids: impl Into<PageBuf<PointId>>,
        config: MedianTreeConfig,
    ) -> Self {
        let gids = gids.into();
        debug_assert!(gids.windows(2).all(|w| w[0] < w[1]), "gids must ascend");
        let cube = subset_cube(store, &gids);
        Self::build_over(store, gids.iter().copied(), cube, config)
    }

    /// The build over `gids` (ascending) inside the root cube `cube`.
    fn build_over<S: AsColumns + ?Sized>(
        store: &S,
        gids: impl IntoIterator<Item = PointId>,
        mut cube: Cube,
        config: MedianTreeConfig,
    ) -> Self {
        if cube.is_empty() {
            cube = Cube::new(0.0, 1.0, 0.0, 1.0, 0.0, 1.0);
        }
        // Collect (gid, coords) once; recursion partitions index ranges.
        let mut entries: PageBuf<(PointId, Point)> = gids
            .into_iter()
            .map(|gid| (gid, store.point(gid)))
            .collect();
        let owners = store.owner_column();
        let mut tree = Self {
            nodes: PageBuf::new(),
            packed: PackedPoints::with_capacity(entries.len()),
        };
        tree.build_node(&mut entries[..], &owners, cube, 1, &config);
        tree
    }

    /// Recursively builds the subtree over `entries`, returning its id.
    fn build_node(
        &mut self,
        entries: &mut [(PointId, Point)],
        owners: &[u32],
        cube: Cube,
        depth: u32,
        config: &MedianTreeConfig,
    ) -> NodeId {
        let id = self.nodes.len() as NodeId;
        let mut distinct: Vec<u32> = entries
            .iter()
            .map(|(gid, _)| owners[*gid as usize])
            .collect();
        distinct.sort_unstable();
        distinct.dedup();
        self.nodes.push(Node {
            cube,
            depth,
            children: None,
            points_start: self.packed.gids.len() as u32,
            points_len: 0,
            traj_count: distinct.len() as u32,
            point_count: entries.len() as u32,
            query_count: 0,
        });

        let must_leaf = entries.len() <= config.leaf_capacity || depth >= config.max_depth;
        if must_leaf {
            for (gid, p) in entries.iter() {
                self.packed.push(*gid, p.x, p.y, p.t, owners[*gid as usize]);
            }
            self.nodes[id as usize].points_len = entries.len() as u32;
            return id;
        }

        // Three successive median splits: x, y, t — eight balanced parts.
        let by_x = split_median(entries, |p| p.x);
        let mut parts: Vec<&mut [(PointId, Point)]> = Vec::with_capacity(8);
        for half in by_x {
            let by_y = split_median(half, |p| p.y);
            for quarter in by_y {
                let by_t = split_median(quarter, |p| p.t);
                for eighth in by_t {
                    parts.push(eighth);
                }
            }
        }
        debug_assert_eq!(parts.len(), 8);
        let mut children = [0 as NodeId; 8];
        for (k, part) in parts.into_iter().enumerate() {
            let child_cube = bounding_cube_of(part, &cube);
            children[k] = self.build_node(part, owners, child_cube, depth + 1, config);
        }
        self.nodes[id as usize].children = Some(children);
        id
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the tree indexes no points.
    pub fn is_empty(&self) -> bool {
        self.nodes[0].point_count == 0
    }

    /// Maximum depth present.
    pub fn actual_depth(&self) -> u32 {
        self.nodes.iter().map(|n| n.depth).max().unwrap_or(1)
    }

    /// Point count of a node (subtree).
    #[must_use]
    pub fn point_count(&self, id: NodeId) -> u32 {
        self.nodes[id as usize].point_count
    }

    /// Global point ids stored directly at `id` (non-empty only for
    /// leaves).
    #[inline]
    #[must_use]
    pub fn leaf_points(&self, id: NodeId) -> &[PointId] {
        let node = &self.nodes[id as usize];
        let r = node.points_start as usize..(node.points_start + node.points_len) as usize;
        &self.packed.gids[r]
    }

    /// The leaf's packed coordinate/owner runs (empty for interior nodes).
    #[inline]
    #[must_use]
    pub fn leaf_slab(&self, id: NodeId) -> LeafSlab<'_> {
        let node = &self.nodes[id as usize];
        self.packed.slab(node.points_start, node.points_len)
    }

    /// The owning trajectory of every point in the subtree of `id` — one
    /// contiguous run, leaf after leaf in DFS order.
    #[inline]
    #[must_use]
    pub fn subtree_owners(&self, id: NodeId) -> &[u32] {
        let node = &self.nodes[id as usize];
        let r = node.points_start as usize..(node.points_start + node.point_count) as usize;
        &self.packed.owners[r]
    }

    fn count_query(&mut self, id: NodeId, q: &Cube) {
        if !self.nodes[id as usize].cube.intersects(q) {
            return;
        }
        self.nodes[id as usize].query_count += 1;
        if let Some(children) = self.nodes[id as usize].children {
            for c in children {
                self.count_query(c, q);
            }
        }
    }
}

/// Splits a slice at its median of `key` (lower half gets the extra
/// element), using `select_nth_unstable` for O(n).
fn split_median(
    entries: &mut [(PointId, Point)],
    key: impl Fn(&Point) -> f64,
) -> [&mut [(PointId, Point)]; 2] {
    let mid = entries.len() / 2;
    if entries.len() >= 2 {
        entries.select_nth_unstable_by(mid, |a, b| key(&a.1).total_cmp(&key(&b.1)));
    }
    let (lo, hi) = entries.split_at_mut(mid);
    [lo, hi]
}

/// Tight bounding cube of `entries`, falling back to `parent` when empty.
fn bounding_cube_of(entries: &[(PointId, Point)], parent: &Cube) -> Cube {
    if entries.is_empty() {
        // Keep a degenerate corner of the parent so geometry stays valid.
        return Cube::new(
            parent.x_min,
            parent.x_min,
            parent.y_min,
            parent.y_min,
            parent.t_min,
            parent.t_min,
        );
    }
    let mut c = Cube::empty();
    for (_, p) in entries {
        c.extend(p);
    }
    c
}

impl CubeIndex for MedianTree {
    fn root(&self) -> NodeId {
        0
    }

    fn depth(&self, id: NodeId) -> u32 {
        self.nodes[id as usize].depth
    }

    fn is_leaf(&self, id: NodeId) -> bool {
        self.nodes[id as usize].children.is_none()
    }

    fn cube(&self, id: NodeId) -> Cube {
        self.nodes[id as usize].cube
    }

    fn children(&self, id: NodeId) -> Option<[NodeId; 8]> {
        self.nodes[id as usize].children
    }

    fn child_stats(&self, id: NodeId) -> Option<[(u32, u32); 8]> {
        let children = self.nodes[id as usize].children?;
        Some(std::array::from_fn(|k| {
            let c = &self.nodes[children[k] as usize];
            (c.traj_count, c.query_count)
        }))
    }

    fn traj_count(&self, id: NodeId) -> u32 {
        self.nodes[id as usize].traj_count
    }

    fn query_count(&self, id: NodeId) -> u32 {
        self.nodes[id as usize].query_count
    }

    fn assign_queries(&mut self, queries: &[Cube]) {
        for n in self.nodes.iter_mut() {
            n.query_count = 0;
        }
        for q in queries {
            self.count_query(0, q);
        }
    }

    fn subtree_points(&self, id: NodeId) -> &[PointId] {
        let node = &self.nodes[id as usize];
        let r = node.points_start as usize..(node.points_start + node.point_count) as usize;
        &self.packed.gids[r]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use trajectory::gen::{generate, DatasetSpec, Scale};
    use trajectory::PointStore;

    fn store() -> PointStore {
        generate(&DatasetSpec::geolife(Scale::Smoke), 71).to_store()
    }

    #[test]
    fn indexes_every_point_exactly_once() {
        let store = store();
        let tree = MedianTree::build(
            &store,
            MedianTreeConfig {
                max_depth: 6,
                leaf_capacity: 32,
            },
        );
        assert_eq!(tree.point_count(0) as usize, store.total_points());
        let mut ids = Vec::new();
        tree.sorted_point_ids(0, &mut ids);
        let all: Vec<PointId> = (0..store.total_points() as PointId).collect();
        assert_eq!(ids, all);
    }

    #[test]
    fn children_are_balanced_in_point_count() {
        // The defining property vs. the octree: median splits balance the
        // children even on skewed data.
        let store = store();
        let tree = MedianTree::build(
            &store,
            MedianTreeConfig {
                max_depth: 4,
                leaf_capacity: 16,
            },
        );
        let children = CubeIndex::children(&tree, 0).expect("root splits");
        let counts: Vec<u32> = children.iter().map(|&c| tree.point_count(c)).collect();
        let min = *counts.iter().min().unwrap();
        let max = *counts.iter().max().unwrap();
        assert!(
            max <= min + min / 2 + 8,
            "median children should be near-balanced: {counts:?}"
        );
    }

    #[test]
    fn children_partition_counts() {
        let store = store();
        let tree = MedianTree::build(
            &store,
            MedianTreeConfig {
                max_depth: 5,
                leaf_capacity: 16,
            },
        );
        for id in 0..tree.len() as NodeId {
            if let Some(children) = CubeIndex::children(&tree, id) {
                let sum: u32 = children.iter().map(|&c| tree.point_count(c)).sum();
                assert_eq!(sum, tree.point_count(id));
            }
        }
    }

    #[test]
    fn respects_max_depth_and_leaf_capacity() {
        let store = store();
        let tree = MedianTree::build(
            &store,
            MedianTreeConfig {
                max_depth: 3,
                leaf_capacity: 8,
            },
        );
        assert!(tree.actual_depth() <= 3);
        let big = MedianTree::build(
            &store,
            MedianTreeConfig {
                max_depth: 10,
                leaf_capacity: 1_000_000,
            },
        );
        assert_eq!(big.len(), 1, "everything fits in the root leaf");
    }

    #[test]
    fn query_assignment_counts_intersections() {
        let store = store();
        let mut tree = MedianTree::build(&store, MedianTreeConfig::default());
        let whole = store.bounding_cube();
        CubeIndex::assign_queries(&mut tree, &[whole, whole]);
        assert_eq!(CubeIndex::query_count(&tree, 0), 2);
        let far = Cube::centered(1e12, 1e12, 1e12, 1.0, 1.0, 1.0);
        CubeIndex::assign_queries(&mut tree, &[far]);
        assert_eq!(CubeIndex::query_count(&tree, 0), 0);
    }

    #[test]
    fn sample_start_returns_populated_nodes() {
        let store = store();
        let tree = MedianTree::build(
            &store,
            MedianTreeConfig {
                max_depth: 5,
                leaf_capacity: 16,
            },
        );
        let mut rng = StdRng::seed_from_u64(9);
        for s in 1..5 {
            let id = tree.start_sampler(s, false).sample(&mut rng);
            assert!(CubeIndex::traj_count(&tree, id) > 0, "level {s}");
        }
    }

    #[test]
    fn empty_database_is_a_single_leaf() {
        let tree = MedianTree::build(&PointStore::new(), MedianTreeConfig::default());
        assert!(tree.is_empty());
        assert_eq!(tree.len(), 1);
    }

    #[test]
    fn child_cubes_contain_their_points() {
        let store = store();
        let tree = MedianTree::build(
            &store,
            MedianTreeConfig {
                max_depth: 4,
                leaf_capacity: 32,
            },
        );
        for id in 0..tree.len() as NodeId {
            let cube = CubeIndex::cube(&tree, id);
            for &gid in tree.subtree_points(id) {
                let p = store.point(gid);
                assert!(cube.contains(&p), "node {id}: point {p} outside cube");
            }
        }
    }
}
