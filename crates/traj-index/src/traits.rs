//! The index interface RL4QDTS's agents consume.
//!
//! The paper builds on an octree and "leaves other indexes, e.g. kd-tree,
//! for future exploration" (§I). This trait captures exactly what
//! Agent-Cube and Agent-Point need from an index — 8-way cube refinement
//! with data/query statistics — so alternative partitioning schemes
//! ([`crate::kdtree::MedianTree`]) can be swapped in and ablated.

use rand::rngs::StdRng;
use rand::Rng;
use trajectory::{Cube, PointId};

use crate::kdtree::MedianTree;
use crate::octree::{LeafSlab, NodeId, Octree};

/// The structural view query execution needs from a spatio-temporal index:
/// cube-pruned traversal down to per-leaf point lists.
///
/// [`CubeIndex`] is the *agents'* view (distribution statistics, weighted
/// start sampling); this trait is the *query engine's* view. Both octree
/// and median kd-tree implement both, so `traj-query`'s `QueryEngine` can
/// execute range / kNN / similarity queries against either partitioning
/// with the same pruning logic.
pub trait SpatioTemporalIndex {
    /// The root node.
    fn root(&self) -> NodeId;

    /// The node's bounding cube. Every point of the subtree lies inside.
    fn cube(&self, id: NodeId) -> Cube;

    /// The **tight** bounding cube of the points actually present under
    /// `id` — always a subset of [`cube`](Self::cube), and what range
    /// execution should prune and whole-accept against. Defaults to the
    /// structural cube for indexes whose cubes are already tight (the
    /// median kd-tree shrinks every node to its data during the build);
    /// the octree overrides it with the per-node min/max fold it
    /// precomputes while packing leaves.
    fn tight_cube(&self, id: NodeId) -> Cube {
        self.cube(id)
    }

    /// Child ids in a fixed 8-ary order, `None` for leaves.
    fn children(&self, id: NodeId) -> Option<[NodeId; 8]>;

    /// Global point ids stored directly at the node (non-empty only for
    /// leaves). Ids are column indices into the backing
    /// [`trajectory::PointStore`].
    fn leaf_points(&self, id: NodeId) -> &[PointId];

    /// The node's points as packed, leaf-contiguous coordinate/owner runs
    /// (empty for interior nodes) — the layout range execution scans.
    fn leaf_slab(&self, id: NodeId) -> LeafSlab<'_>;

    /// Number of points in the subtree of `id`.
    fn point_count(&self, id: NodeId) -> u32;

    /// The owning trajectory of every point in the subtree of `id`: one
    /// contiguous run of the packed owner column (leaves are packed in
    /// DFS order), so accepting a subtree whole is one walk of a slice,
    /// no descent.
    fn subtree_owners(&self, id: NodeId) -> &[u32];
}

impl SpatioTemporalIndex for Octree {
    fn root(&self) -> NodeId {
        Octree::root(self)
    }

    fn cube(&self, id: NodeId) -> Cube {
        self.node(id).cube
    }

    fn tight_cube(&self, id: NodeId) -> Cube {
        Octree::tight_cube(self, id)
    }

    fn children(&self, id: NodeId) -> Option<[NodeId; 8]> {
        self.node(id).children
    }

    fn leaf_points(&self, id: NodeId) -> &[PointId] {
        Octree::leaf_points(self, id)
    }

    fn leaf_slab(&self, id: NodeId) -> LeafSlab<'_> {
        Octree::leaf_slab(self, id)
    }

    fn point_count(&self, id: NodeId) -> u32 {
        self.node(id).point_count
    }

    fn subtree_owners(&self, id: NodeId) -> &[u32] {
        Octree::subtree_owners(self, id)
    }
}

impl SpatioTemporalIndex for MedianTree {
    fn root(&self) -> NodeId {
        0
    }

    fn cube(&self, id: NodeId) -> Cube {
        CubeIndex::cube(self, id)
    }

    fn children(&self, id: NodeId) -> Option<[NodeId; 8]> {
        CubeIndex::children(self, id)
    }

    fn leaf_points(&self, id: NodeId) -> &[PointId] {
        MedianTree::leaf_points(self, id)
    }

    fn leaf_slab(&self, id: NodeId) -> LeafSlab<'_> {
        MedianTree::leaf_slab(self, id)
    }

    fn point_count(&self, id: NodeId) -> u32 {
        MedianTree::point_count(self, id)
    }

    fn subtree_owners(&self, id: NodeId) -> &[u32] {
        MedianTree::subtree_owners(self, id)
    }
}

/// A spatio-temporal cube index usable by RL4QDTS.
pub trait CubeIndex {
    /// The root node.
    fn root(&self) -> NodeId;

    /// Depth of `id` (root = 1, the paper's `B¹₁` convention).
    fn depth(&self, id: NodeId) -> u32;

    /// True when `id` has no children.
    fn is_leaf(&self, id: NodeId) -> bool;

    /// The node's cube.
    fn cube(&self, id: NodeId) -> Cube;

    /// Child ids in a fixed 8-ary order, `None` for leaves.
    fn children(&self, id: NodeId) -> Option<[NodeId; 8]>;

    /// `(M, Q)` of each child — the Eq. 4 state ingredients.
    fn child_stats(&self, id: NodeId) -> Option<[(u32, u32); 8]>;

    /// `M_B` of the node itself.
    fn traj_count(&self, id: NodeId) -> u32;

    /// `Q_B` of the node itself.
    fn query_count(&self, id: NodeId) -> u32;

    /// Registers the query workload (recomputes every `Q_B`).
    fn assign_queries(&mut self, queries: &[Cube]);

    /// All global point ids in the subtree of `id`, as the index stores
    /// them (leaf after leaf; ascending within a leaf only).
    fn subtree_points(&self, id: NodeId) -> &[PointId];

    /// The global ids of the points in the subtree of `id`, ascending, left
    /// in the caller's `out` (cleared first, capacity kept). Global ids are
    /// trajectory-major, so this is the cube's points grouped by trajectory
    /// with each trajectory's indices ascending — the view Agent-Point's
    /// state construction (Eq. 6–8) walks.
    fn sorted_point_ids(&self, id: NodeId, out: &mut Vec<PointId>) {
        out.clear();
        out.extend_from_slice(self.subtree_points(id));
        out.sort_unstable();
    }

    /// Node ids at traversal level `s`: nodes at depth `s` plus leaves
    /// shallower than `s` (they cannot be descended further). Only nodes
    /// containing at least one trajectory are returned, matching the
    /// paper's action-space constraint.
    fn nodes_at_level(&self, s: u32) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack = vec![self.root()];
        while let Some(id) = stack.pop() {
            if self.traj_count(id) == 0 {
                continue;
            }
            let depth = self.depth(id);
            if depth == s || (self.is_leaf(id) && depth < s) {
                out.push(id);
            } else if depth < s {
                if let Some(children) = self.children(id) {
                    stack.extend(children);
                }
            }
        }
        out
    }

    /// The start-cube distribution at level `s` under the `Q_B` counts as
    /// they stand: candidates weighted by the query distribution (`Q_B`),
    /// or by the data distribution (`M_B`) when `by_data` is set — the
    /// paper's "w/o Agent-Cube" ablation — or when the workload misses
    /// every candidate. The tree and its counts do not change while an
    /// insertion loop runs, so a loop builds this once, after
    /// [`assign_queries`](Self::assign_queries).
    fn start_sampler(&self, s: u32, by_data: bool) -> StartSampler {
        let candidates = self.nodes_at_level(s);
        let cumulate = |by_data: bool| {
            running_sums(candidates.iter().map(|&id| match by_data {
                true => self.traj_count(id),
                false => self.query_count(id),
            }))
        };
        let mut cumulative = cumulate(by_data);
        if !by_data && cumulative.last().is_some_and(|&total| total <= 0.0) {
            cumulative = cumulate(true);
        }
        StartSampler {
            root: self.root(),
            candidates,
            cumulative,
        }
    }
}

/// The running sums of a start level's weights, in f64.
fn running_sums(weights: impl Iterator<Item = u32>) -> Vec<f64> {
    let mut sum = 0.0;
    let sums: Vec<f64> = weights
        .map(|w| {
            sum += w as f64;
            sum
        })
        .collect();
    // What makes them the sequential scan's boundaries exactly (see
    // `StartSampler::sample`): integer weights whose sum f64 holds without
    // rounding.
    debug_assert!(sums.iter().all(|c| c.fract() == 0.0));
    debug_assert!(sum <= (1u64 << 53) as f64);
    sums
}

/// A start-cube distribution ([`CubeIndex::start_sampler`]): the candidate
/// nodes of one level and the running sums of their weights (the last is
/// the total), computed once and drawn from once per insertion.
#[derive(Debug, Clone)]
pub struct StartSampler {
    root: NodeId,
    candidates: Vec<NodeId>,
    cumulative: Vec<f64>,
}

impl StartSampler {
    /// Draws a start node; the root (and nothing from `rng`) for an empty
    /// tree.
    ///
    /// The draw is part of what a seed means, so its rng consumption is
    /// fixed: one `gen_range(0.0..total)` (one `gen_range(0..len)` when
    /// every weight vanishes), then the first candidate whose running sum
    /// reaches the pick — a binary search. That is the node the scan it
    /// replaced chose, bit for bit (subtract each weight from the pick in
    /// turn, stop at the first result ≤ 0): the weights are `u32` counts,
    /// so the running sums are exact integers no larger than 2^53; while
    /// the pick stays positive each subtraction is exact (both operands
    /// are multiples of the pick's ulp, and the result is no larger than
    /// the pick), and the one that first reaches zero or below keeps its
    /// sign, because rounding is monotone.
    pub fn sample(&self, rng: &mut StdRng) -> NodeId {
        let Some(&total) = self.cumulative.last() else {
            return self.root;
        };
        if total <= 0.0 {
            return self.candidates[rng.gen_range(0..self.candidates.len())];
        }
        self.candidates[self.position(rng.gen_range(0.0..total))]
    }

    /// Index of the first candidate whose running sum is at least `pick`;
    /// the last candidate when none is (a pick drawn below the total
    /// always finds one).
    fn position(&self, pick: f64) -> usize {
        let k = self.cumulative.partition_point(|&c| c < pick);
        k.min(self.candidates.len() - 1)
    }
}

impl CubeIndex for Octree {
    fn root(&self) -> NodeId {
        Octree::root(self)
    }

    fn depth(&self, id: NodeId) -> u32 {
        self.node(id).depth
    }

    fn is_leaf(&self, id: NodeId) -> bool {
        self.node(id).is_leaf()
    }

    fn cube(&self, id: NodeId) -> Cube {
        self.node(id).cube
    }

    fn children(&self, id: NodeId) -> Option<[NodeId; 8]> {
        self.node(id).children
    }

    fn child_stats(&self, id: NodeId) -> Option<[(u32, u32); 8]> {
        Octree::child_stats(self, id)
    }

    fn traj_count(&self, id: NodeId) -> u32 {
        self.node(id).traj_count
    }

    fn query_count(&self, id: NodeId) -> u32 {
        self.node(id).query_count
    }

    fn assign_queries(&mut self, queries: &[Cube]) {
        Octree::assign_queries(self, queries)
    }

    fn subtree_points(&self, id: NodeId) -> &[PointId] {
        Octree::subtree_points(self, id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kdtree::MedianTreeConfig;
    use crate::octree::OctreeConfig;
    use proptest::prelude::*;
    use rand::{RngCore, SeedableRng};
    use trajectory::gen::{generate, DatasetSpec, Scale};
    use trajectory::{Point, PointStore, Trajectory, TrajectoryDb};

    /// The start-cube draw as it was written before [`StartSampler`]: the
    /// candidates re-collected and their weights re-summed on every draw
    /// (the `MedianTree` copy, which already read the counts through the
    /// trait; `Octree`'s differed only in reading its node fields). The
    /// reference the sampler's draws and rng consumption are held to.
    mod per_draw {
        use super::*;

        pub fn sample_start<I: CubeIndex + ?Sized>(tree: &I, s: u32, rng: &mut StdRng) -> NodeId {
            let candidates = tree.nodes_at_level(s);
            if candidates.is_empty() {
                return 0;
            }
            let by_query: Vec<f64> = candidates
                .iter()
                .map(|&id| CubeIndex::query_count(tree, id) as f64)
                .collect();
            let weights: Vec<f64> = if by_query.iter().sum::<f64>() > 0.0 {
                by_query
            } else {
                candidates
                    .iter()
                    .map(|&id| CubeIndex::traj_count(tree, id) as f64)
                    .collect()
            };
            pick_weighted_kd(&candidates, &weights, rng)
        }

        pub fn sample_start_by_data<I: CubeIndex + ?Sized>(
            tree: &I,
            s: u32,
            rng: &mut StdRng,
        ) -> NodeId {
            let candidates = tree.nodes_at_level(s);
            if candidates.is_empty() {
                return 0;
            }
            let weights: Vec<f64> = candidates
                .iter()
                .map(|&id| CubeIndex::traj_count(tree, id) as f64)
                .collect();
            pick_weighted_kd(&candidates, &weights, rng)
        }

        /// Weighted pick over candidates; uniform when all weights vanish.
        pub fn pick_weighted_kd(
            candidates: &[NodeId],
            weights: &[f64],
            rng: &mut StdRng,
        ) -> NodeId {
            let total: f64 = weights.iter().sum();
            if total <= 0.0 {
                return candidates[rng.gen_range(0..candidates.len())];
            }
            scan(candidates, weights, rng.gen_range(0.0..total))
        }

        /// The sequential subtraction scan [`StartSampler::sample`]'s
        /// binary search replaced.
        pub fn scan(candidates: &[NodeId], weights: &[f64], mut pick: f64) -> NodeId {
            for (id, w) in candidates.iter().zip(weights) {
                pick -= w;
                if pick <= 0.0 {
                    return *id;
                }
            }
            *candidates.last().expect("non-empty")
        }
    }

    /// Twelve draws from one sampler against twelve per-draw samplings,
    /// at every level and under both distributions, then the next word of
    /// each random stream: equal draws off equally advanced generators.
    fn assert_sampler_matches_per_draw<I: CubeIndex>(tree: &I, depth: u32, seed: u64) {
        for level in 1..=depth + 1 {
            for by_data in [false, true] {
                let sampler = tree.start_sampler(level, by_data);
                let mut new_rng = StdRng::seed_from_u64(seed);
                let mut old_rng = StdRng::seed_from_u64(seed);
                for draw in 0..12 {
                    let old = if by_data {
                        per_draw::sample_start_by_data(tree, level, &mut old_rng)
                    } else {
                        per_draw::sample_start(tree, level, &mut old_rng)
                    };
                    assert_eq!(
                        sampler.sample(&mut new_rng),
                        old,
                        "level {level}, by_data {by_data}, draw {draw}"
                    );
                }
                assert_eq!(
                    new_rng.next_u64(),
                    old_rng.next_u64(),
                    "level {level}, by_data {by_data}: the generators parted"
                );
            }
        }
    }

    /// The binary search against the sequential scan over `weights`
    /// (candidates named 100, 101, …): at every running sum and one ulp
    /// either side of it, at 0 and the smallest subnormal, then over 32
    /// seeded draws, after which both generators' next words agree.
    fn assert_search_is_the_scan(weights: &[u32], seed: u64) {
        let sampler = StartSampler {
            root: 0,
            candidates: (100..).take(weights.len()).collect(),
            cumulative: running_sums(weights.iter().copied()),
        };
        let candidates = &sampler.candidates;
        let as_f64: Vec<f64> = weights.iter().map(|&w| w as f64).collect();
        let mut picks = vec![0.0, f64::from_bits(1)];
        for &c in &sampler.cumulative {
            picks.extend([c.next_down(), c, c.next_up()]);
        }
        for pick in picks {
            assert_eq!(
                candidates[sampler.position(pick)],
                per_draw::scan(candidates, &as_f64, pick),
                "pick {pick:e} over {weights:?}"
            );
        }
        let mut new_rng = StdRng::seed_from_u64(seed);
        let mut old_rng = StdRng::seed_from_u64(seed);
        for draw in 0..32 {
            assert_eq!(
                sampler.sample(&mut new_rng),
                per_draw::pick_weighted_kd(candidates, &as_f64, &mut old_rng),
                "draw {draw} over {weights:?}"
            );
        }
        assert_eq!(new_rng.next_u64(), old_rng.next_u64(), "{weights:?}");
    }

    fn both_backends(store: &PointStore, queries: &[Cube], seed: u64) {
        let mut octree = Octree::build(
            store,
            OctreeConfig {
                max_depth: 5,
                leaf_capacity: 6,
            },
        );
        octree.assign_queries(queries);
        assert_sampler_matches_per_draw(&octree, octree.actual_depth(), seed);
        let mut kd = MedianTree::build(
            store,
            MedianTreeConfig {
                max_depth: 4,
                leaf_capacity: 6,
            },
        );
        kd.assign_queries(queries);
        assert_sampler_matches_per_draw(&kd, kd.actual_depth(), seed);
    }

    fn arb_store() -> impl Strategy<Value = PointStore> {
        prop::collection::vec(
            prop::collection::vec((-1e3..1e3f64, -1e3..1e3f64, 0.1..10.0f64), 2..30),
            1..8,
        )
        .prop_map(|trajs| {
            let trajs = trajs.into_iter().map(|steps| {
                let mut t = 0.0;
                let pts = steps.into_iter().map(|(x, y, dt)| {
                    t += dt;
                    Point::new(x, y, t)
                });
                Trajectory::new(pts.collect()).unwrap()
            });
            TrajectoryDb::new(trajs.collect()).to_store()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn start_sampler_draws_what_the_per_draw_sampling_drew(
            store in arb_store(),
            centers in prop::collection::vec((-1e3..1e3f64, -1e3..1e3f64, 0.0..200.0f64), 0..6),
            seed in 0u64..1_000,
            weights in prop::collection::vec(
                prop_oneof![Just(0u32), 1u32..16, any::<u32>()],
                1..64,
            ),
        ) {
            assert_search_is_the_scan(&weights, seed);
            let queries: Vec<Cube> = centers
                .iter()
                .map(|&(x, y, t)| Cube::centered(x, y, t, 300.0, 300.0, 40.0))
                .collect();
            both_backends(&store, &queries, seed);
            // A workload that hits nothing: the data-distribution fallback.
            both_backends(&store, &[Cube::centered(1e9, 1e9, 1e9, 1.0, 1.0, 1.0)], seed);
        }
    }

    #[test]
    fn binary_search_on_one_candidate_and_on_all_zero_weights() {
        for weights in [&[0][..], &[1], &[u32::MAX], &[0, 0, 0, 0, 0]] {
            assert_search_is_the_scan(weights, 3);
        }
        assert_search_is_the_scan(&[u32::MAX; 64], 4);
    }

    #[test]
    fn start_sampler_of_an_empty_tree_is_the_root_and_draws_nothing() {
        both_backends(&PointStore::new(), &[], 5);
        let tree = Octree::build(&PointStore::new(), OctreeConfig::default());
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(tree.start_sampler(3, false).sample(&mut rng), 0);
        assert_eq!(rng.next_u64(), StdRng::seed_from_u64(5).next_u64());
    }

    /// The trait view of the octree must agree with its inherent methods.
    #[test]
    fn octree_trait_impl_is_consistent() {
        let store = generate(&DatasetSpec::geolife(Scale::Smoke), 61).to_store();
        let tree = Octree::build(&store, OctreeConfig::default());
        let dyn_tree: &dyn CubeIndex = &tree;
        assert_eq!(dyn_tree.root(), 0);
        assert_eq!(dyn_tree.depth(0), 1);
        assert_eq!(dyn_tree.traj_count(0) as usize, store.len());
        assert_eq!(dyn_tree.subtree_points(0), tree.subtree_points(0));
        let mut rng = StdRng::seed_from_u64(1);
        let start = dyn_tree.start_sampler(2, false).sample(&mut rng);
        assert!(dyn_tree.traj_count(start) > 0);
    }

    /// A subtree's owner run names, point for point, the trajectories of
    /// its point run — on every node of both backends, interior nodes and
    /// empty ones included.
    #[test]
    fn subtree_owners_are_the_owners_of_the_subtree_points() {
        fn check<I: SpatioTemporalIndex + CubeIndex>(tree: &I, nodes: usize, store: &PointStore) {
            for id in 0..nodes as NodeId {
                let owners = tree.subtree_owners(id);
                let points = tree.subtree_points(id);
                assert_eq!(owners.len(), tree.point_count(id) as usize, "node {id}");
                assert_eq!(owners.len(), points.len(), "node {id}");
                for (&owner, &gid) in owners.iter().zip(points) {
                    assert_eq!(owner as usize, store.traj_of(gid), "node {id}");
                }
            }
        }
        let store = generate(&DatasetSpec::geolife(Scale::Smoke), 67).to_store();
        let octree = Octree::build(&store, OctreeConfig::default());
        check(&octree, octree.len(), &store);
        let kd = MedianTree::build(&store, MedianTreeConfig::default());
        check(&kd, kd.len(), &store);
        let empty = Octree::build(&PointStore::new(), OctreeConfig::default());
        assert!(empty.subtree_owners(0).is_empty());
    }
}
