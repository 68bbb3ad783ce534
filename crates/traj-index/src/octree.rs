//! The spatio-temporal octree (§IV of the paper).
//!
//! The octree recursively partitions the database's bounding cube in
//! (x, y, t) into 8 sub-cubes. Each node carries the two distribution
//! statistics Agent-Cube's state (Eq. 4) is built from: the number of
//! distinct trajectories with a point in the cube (`M_B`) and the number of
//! workload queries intersecting the cube (`Q_B`).
//!
//! The tree is built directly over a columnar [`trajectory::PointStore`] and finishes
//! with a *packing* pass: every leaf's points are laid out contiguously in
//! leaf-major coordinate/owner arrays ([`LeafSlab`]), so a range query
//! scans each intersecting leaf as straight `f64` runs — no per-point
//! pointer chase, no strided column gather. `M_B` is computed during
//! insertion with a per-node last-seen marker (points arrive in
//! trajectory-major global-id order), replacing the allocation-heavy
//! sorted-list merges of the AoS design.

use std::sync::Mutex;

use trajectory::parallel::par_map_indexed;
use trajectory::{AsColumns, Cube, PageBuf, PointId, TrajId};

/// Index of a node in the octree arena.
pub type NodeId = u32;

/// Reference to one original point: trajectory id + point index. This is
/// the agents' per-trajectory addressing; inside the index itself points
/// are bare [`PointId`] column indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PointRef {
    /// Trajectory id within the indexed database.
    pub traj: TrajId,
    /// Point index within that trajectory.
    pub idx: u32,
}

/// A leaf's points in packed struct-of-arrays form: parallel runs of
/// coordinates, owning trajectory ids, and global point ids, contiguous in
/// memory per leaf. This is the view query execution scans.
#[derive(Debug, Clone, Copy)]
pub struct LeafSlab<'a> {
    /// x coordinates.
    pub xs: &'a [f64],
    /// y coordinates.
    pub ys: &'a [f64],
    /// Timestamps.
    pub ts: &'a [f64],
    /// Owning trajectory per point.
    pub owners: &'a [u32],
    /// Global point ids (column indices into the backing store).
    pub gids: &'a [PointId],
}

impl LeafSlab<'_> {
    /// Number of points in the slab.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.gids.len()
    }

    /// True when the slab holds no points.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.gids.is_empty()
    }
}

/// Leaf-major packed point storage shared by both index backends. Each
/// column is a [`PageBuf`]: from 1 MiB on it is an anonymous mapping of
/// its own, so a dropped index hands its pages straight back.
#[derive(Debug, Clone, Default)]
pub(crate) struct PackedPoints {
    pub xs: PageBuf<f64>,
    pub ys: PageBuf<f64>,
    pub ts: PageBuf<f64>,
    pub owners: PageBuf<u32>,
    pub gids: PageBuf<PointId>,
}

impl PackedPoints {
    pub(crate) fn with_capacity(n: usize) -> Self {
        Self {
            xs: PageBuf::with_capacity(n),
            ys: PageBuf::with_capacity(n),
            ts: PageBuf::with_capacity(n),
            owners: PageBuf::with_capacity(n),
            gids: PageBuf::with_capacity(n),
        }
    }

    /// `n` zeroed entries, for a build that fills them in place.
    fn zeroed(n: usize) -> Self {
        Self {
            xs: PageBuf::zeroed(n),
            ys: PageBuf::zeroed(n),
            ts: PageBuf::zeroed(n),
            owners: PageBuf::zeroed(n),
            gids: PageBuf::zeroed(n),
        }
    }

    /// All of the arrays as one run, with `ids` as the ids' other
    /// ping-pong buffer.
    fn run<'a>(&'a mut self, ids: &'a mut [PointId]) -> Run<'a> {
        Run {
            base: 0,
            ids,
            xs: &mut self.xs,
            ys: &mut self.ys,
            ts: &mut self.ts,
            owners: &mut self.owners,
            gids: &mut self.gids,
        }
    }

    pub(crate) fn push(&mut self, gid: PointId, x: f64, y: f64, t: f64, owner: u32) {
        self.xs.push(x);
        self.ys.push(y);
        self.ts.push(t);
        self.owners.push(owner);
        self.gids.push(gid);
    }

    pub(crate) fn slab(&self, start: u32, len: u32) -> LeafSlab<'_> {
        let r = start as usize..(start + len) as usize;
        LeafSlab {
            xs: &self.xs[r.clone()],
            ys: &self.ys[r.clone()],
            ts: &self.ts[r.clone()],
            owners: &self.owners[r.clone()],
            gids: &self.gids[r],
        }
    }
}

/// One octree node.
#[derive(Debug, Clone, Copy)]
pub struct Node {
    /// The node's spatio-temporal cube.
    pub cube: Cube,
    /// The *tight* bounding cube of the points actually present — the
    /// min/max fold of the subtree's coordinates, usually much smaller
    /// than the octant `cube`. Range execution prunes and accepts
    /// against this, so sparse nodes stop costing point touches.
    /// `Cube::empty()` for point-free nodes.
    tight: Cube,
    /// Depth in the tree; the root is at depth 1, matching the paper's
    /// `B^1_1` notation where level 1 is the root.
    pub depth: u32,
    /// Child node ids (octant order of [`Cube::octants`]); `None` for leaves.
    pub children: Option<[NodeId; 8]>,
    /// Start of the subtree's run in the packed arrays: leaves are packed
    /// in DFS order, so the `point_count` points under any node are
    /// contiguous.
    points_start: u32,
    /// Length of the leaf's packed run (leaves only).
    points_len: u32,
    /// `M_B`: number of distinct trajectories with ≥1 point in the cube.
    pub traj_count: u32,
    /// `N_B`: number of points in the cube (all descendants).
    pub point_count: u32,
    /// `Q_B`: number of workload queries intersecting the cube.
    pub query_count: u32,
}

impl Node {
    fn new_leaf(cube: Cube, depth: u32) -> Self {
        Self {
            cube,
            tight: Cube::empty(),
            depth,
            children: None,
            points_start: 0,
            points_len: 0,
            traj_count: 0,
            point_count: 0,
            query_count: 0,
        }
    }

    /// True when the node has no children.
    pub fn is_leaf(&self) -> bool {
        self.children.is_none()
    }
}

/// Build parameters for [`Octree::build`].
#[derive(Debug, Clone, Copy)]
pub struct OctreeConfig {
    /// Maximum tree depth (the paper's `E`; root is depth 1).
    pub max_depth: u32,
    /// A leaf splits when it holds more than this many points (and is above
    /// `max_depth`).
    pub leaf_capacity: usize,
}

impl Default for OctreeConfig {
    fn default() -> Self {
        Self {
            max_depth: 12,
            leaf_capacity: 64,
        }
    }
}

/// The octree over a trajectory database.
#[derive(Debug, Clone)]
pub struct Octree {
    /// The node arena, in DFS order.
    nodes: PageBuf<Node>,
    config: OctreeConfig,
    /// Leaf-major packed coordinates/owners/ids (see [`LeafSlab`]).
    packed: PackedPoints,
    /// Copy of the store's offset table, so global ids translate to
    /// `(trajectory, local index)` without holding the store itself.
    starts: Vec<u32>,
}

impl Octree {
    /// Builds the octree over all points of a columnar `store` with a bulk
    /// top-down partition: every node's point set is a contiguous slice of
    /// one global-id array, split per level by a stable counting scatter
    /// between two ping-pong buffers (the second is the packed id array
    /// the leaves end in). Compared to point-at-a-time insertion this
    /// touches each point once per level with mostly sequential array
    /// traffic and allocates nothing inside the recursion; `M_B` falls
    /// out of the scatter as a run count — global ids are
    /// trajectory-major, so a node's ascending id list groups each
    /// trajectory into one consecutive run. From [`SPLIT_MIN_POINTS`]
    /// points on, the root's eight octant subtrees are built on parallel
    /// workers; the tree is the same node for node.
    ///
    /// The build is generic over [`AsColumns`], so it runs identically
    /// over an owned `PointStore`, a borrowed one, or an mmap-backed
    /// [`trajectory::MappedStore`] — the index never holds the store, only
    /// a copy of its offset table.
    pub fn build<S: AsColumns + ?Sized>(store: &S, config: OctreeConfig) -> Self {
        let all = (0..store.total_points() as PointId).collect();
        Self::build_over(store, all, store.bounding_cube(), config, SPLIT_MIN_POINTS)
    }

    /// [`Octree::build`] over the points `gids` of `store` alone — any
    /// ascending subset of its global ids, such as a simplified database's
    /// kept points. Slabs carry the store's own global ids and owners, so
    /// answers need no remap, and a trajectory none of whose points is
    /// listed has no entries. The root cube is the subset's bounding cube.
    pub fn build_subset<S: AsColumns + ?Sized>(
        store: &S,
        gids: impl Into<PageBuf<PointId>>,
        config: OctreeConfig,
    ) -> Self {
        let gids = gids.into();
        debug_assert!(gids.windows(2).all(|w| w[0] < w[1]), "gids must ascend");
        let cube = subset_cube(store, &gids);
        Self::build_over(store, gids, cube, config, SPLIT_MIN_POINTS)
    }

    /// [`Octree::build`] with every octant on the calling thread — the
    /// reference the split build is tested against node for node.
    #[doc(hidden)]
    pub fn build_unsplit<S: AsColumns + ?Sized>(store: &S, config: OctreeConfig) -> Self {
        let all = (0..store.total_points() as PointId).collect();
        Self::build_over(store, all, store.bounding_cube(), config, usize::MAX)
    }

    /// The build over `gids` (ascending) inside the root cube `cube`,
    /// splitting the root's octants across workers when at least
    /// `split_min` points are indexed. `gids` becomes the ids' second
    /// ping-pong buffer.
    fn build_over<S: AsColumns + ?Sized>(
        store: &S,
        mut gids: PageBuf<PointId>,
        mut cube: Cube,
        config: OctreeConfig,
        split_min: usize,
    ) -> Self {
        if cube.is_empty() {
            cube = Cube::new(0.0, 1.0, 0.0, 1.0, 0.0, 1.0);
        }
        let n = gids.len();
        // The packed arrays double as scratch: the id array is the ids'
        // other ping-pong buffer, and the owner array holds octant codes
        // until leaves fill it.
        let mut packed = PackedPoints::zeroed(n);
        let starts = store.offsets().to_vec();
        let owners = store.owner_column();
        let cols = Columns {
            xs: store.xs(),
            ys: store.ys(),
            ts: store.ts(),
            owners: &owners,
            config,
        };
        let root = Pending {
            start: 0,
            len: n,
            in_packed: false,
            cube,
            depth: 1,
            traj_count: count_runs(gids.iter().map(|&g| owners[g as usize])),
        };
        let mut run = packed.run(&mut gids);
        let mut nodes;
        if n >= split_min {
            nodes = PageBuf::with_capacity(node_bound(n, 1, config));
            build_octants(run, &cols, root, &mut nodes);
        } else {
            nodes = PageBuf::with_capacity(node_estimate(n, config));
            build_node(&mut nodes, &mut run, &cols, root);
        }
        Self {
            nodes,
            config,
            packed,
            starts,
        }
    }

    /// The root node id.
    pub fn root(&self) -> NodeId {
        0
    }

    /// Number of nodes in the tree.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the tree holds only an empty root.
    pub fn is_empty(&self) -> bool {
        self.nodes[0].point_count == 0
    }

    /// Access to a node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id as usize]
    }

    /// The tight bounding cube of the points actually under `id` — a
    /// subset of `node(id).cube`, precomputed during the build so range
    /// execution can reject or whole-accept a subtree without touching
    /// its points. [`Cube::empty`] for point-free nodes.
    #[inline]
    #[must_use]
    pub fn tight_cube(&self, id: NodeId) -> Cube {
        self.nodes[id as usize].tight
    }

    /// The build configuration.
    pub fn config(&self) -> OctreeConfig {
        self.config
    }

    /// The trajectory owning global point `gid` (binary search over the
    /// captured offset table).
    pub fn traj_of(&self, gid: PointId) -> TrajId {
        debug_assert!(
            gid < *self.starts.last().expect("sentinel"),
            "global id {gid} out of range"
        );
        self.starts.partition_point(|&o| o <= gid) - 1
    }

    /// `(M, Q)` statistics of each child of `id`, in octant order.
    /// `None` for leaves.
    pub fn child_stats(&self, id: NodeId) -> Option<[(u32, u32); 8]> {
        let children = self.node(id).children?;
        Some(std::array::from_fn(|k| {
            let c = self.node(children[k]);
            (c.traj_count, c.query_count)
        }))
    }

    /// Registers a query workload: `Q_B` of every node becomes the number of
    /// query cubes intersecting it. Resets previous counts.
    pub fn assign_queries(&mut self, queries: &[Cube]) {
        for n in self.nodes.iter_mut() {
            n.query_count = 0;
        }
        for q in queries {
            self.count_query(0, q);
        }
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

    /// All global point ids in the subtree rooted at `id`: one contiguous
    /// run of the packed arrays, leaf after leaf in DFS order (ascending
    /// within a leaf, not across leaves).
    #[inline]
    #[must_use]
    pub fn subtree_points(&self, id: NodeId) -> &[PointId] {
        let node = &self.nodes[id as usize];
        let r = node.points_start as usize..(node.points_start + node.point_count) as usize;
        &self.packed.gids[r]
    }

    /// The owners of [`Octree::subtree_points`], point for point.
    #[inline]
    #[must_use]
    pub fn subtree_owners(&self, id: NodeId) -> &[u32] {
        let node = &self.nodes[id as usize];
        let r = node.points_start as usize..(node.points_start + node.point_count) as usize;
        &self.packed.owners[r]
    }

    /// Owned copy of [`Octree::subtree_points`].
    pub fn collect_points(&self, id: NodeId) -> Vec<PointId> {
        self.subtree_points(id).to_vec()
    }

    /// Maximum depth of any node actually present.
    pub fn actual_depth(&self) -> u32 {
        self.nodes.iter().map(|n| n.depth).max().unwrap_or(1)
    }
}

/// Smallest cube covering the points `gids` of `store`
/// ([`Cube::empty`] for none).
pub(crate) fn subset_cube<S: AsColumns + ?Sized>(store: &S, gids: &[PointId]) -> Cube {
    let mut cube = Cube::empty();
    for &gid in gids {
        cube.extend(&store.point(gid));
    }
    cube
}

/// Number of runs of equal values — the distinct count for a
/// trajectory-major owner sequence.
fn count_runs(owners: impl IntoIterator<Item = u32>) -> u32 {
    let mut count = 0u32;
    let mut last = u32::MAX;
    for owner in owners {
        if owner != last {
            last = owner;
            count += 1;
        }
    }
    count
}

/// Inputs of at least this many points build the root's eight octant
/// subtrees on `par_map` workers; smaller ones stay on the calling
/// thread. Measured on a 2-vCPU Xeon (`available_parallelism` = 2): a
/// scoped spawn + join costs 27–37 µs, and a build costs 24 ns a point
/// at 2 k points, 31 ns at 8 k, 52 ns at 65 k and 79 ns at 338 k. The
/// split also runs the root's scatter on one thread, so on an idle core
/// it breaks even between 4 k and 8 k points (4 k: 20 % slower; 8.4 k:
/// 16 % faster) and saves 25–36 % from 16 k up. The cut-off sits at
/// 2^16, where the helper's cost is under 1 % of the build: RL4QDTS's
/// per-job trees (~8.5 k points, built while the other core runs
/// another job, where a helper only adds a context switch) stay
/// sequential, and every serving build (10^5–10^6 points) splits.
pub const SPLIT_MIN_POINTS: usize = 1 << 16;

/// The columns a build reads, borrowed once so the octant workers share
/// plain slices whatever the store type.
struct Columns<'a> {
    xs: &'a [f64],
    ys: &'a [f64],
    ts: &'a [f64],
    owners: &'a [u32],
    config: OctreeConfig,
}

/// The arrays one build — or one octant worker — writes, each over the
/// same run of points, which starts at packed offset `base`: the packed
/// leaf arrays, and `ids`, the ids' other ping-pong buffer (the packed
/// id array `gids` is the first, so a leaf's ids end there with at most
/// one copy). The packed owner array holds octant codes until the
/// leaves fill it.
#[derive(Default)]
struct Run<'a> {
    base: u32,
    ids: &'a mut [PointId],
    xs: &'a mut [f64],
    ys: &'a mut [f64],
    ts: &'a mut [f64],
    owners: &'a mut [u32],
    gids: &'a mut [PointId],
}

impl<'a> Run<'a> {
    /// The first `mid` points and the rest, as two runs.
    fn split_at(self, mid: usize) -> (Self, Self) {
        let (ids, rids) = self.ids.split_at_mut(mid);
        let (xs, rxs) = self.xs.split_at_mut(mid);
        let (ys, rys) = self.ys.split_at_mut(mid);
        let (ts, rts) = self.ts.split_at_mut(mid);
        let (owners, rowners) = self.owners.split_at_mut(mid);
        let (gids, rgids) = self.gids.split_at_mut(mid);
        let head = Run {
            base: self.base,
            ids,
            xs,
            ys,
            ts,
            owners,
            gids,
        };
        let tail = Run {
            base: self.base + mid as u32,
            ids: rids,
            xs: rxs,
            ys: rys,
            ts: rts,
            owners: rowners,
            gids: rgids,
        };
        (head, tail)
    }
}

/// A node still to build: its points are `start..start + len` of its
/// run, their ids ascending in the run's `gids` when `in_packed`, else in
/// its `ids`; cube, depth and `M_B` (computed by the parent's scatter)
/// are the node's.
#[derive(Clone, Copy)]
struct Pending {
    start: usize,
    len: usize,
    in_packed: bool,
    cube: Cube,
    depth: u32,
    traj_count: u32,
}

/// Builds `p`'s subtree into `nodes` in DFS order, returning the
/// subtree root's index in `nodes`.
fn build_node(
    nodes: &mut PageBuf<Node>,
    run: &mut Run<'_>,
    cols: &Columns<'_>,
    p: Pending,
) -> NodeId {
    let (node, children) = open_node(run, cols, p);
    let id = nodes.len() as NodeId;
    nodes.push(node);
    if let Some(children) = children {
        let ids = children.map(|child| build_node(nodes, run, cols, child));
        close_node(nodes, id, ids);
    }
    id
}

/// [`build_node`] for the root, its eight octant subtrees built by
/// `par_map` workers: the root's scatter has fixed each child's points
/// to one stretch of the run, so each worker gets its own disjoint run.
/// Each subtree is built as its own DFS node list and appended to
/// `nodes` in octant order with its ids offset by its position — the
/// sequential layout, node for node.
fn build_octants(mut run: Run<'_>, cols: &Columns<'_>, root: Pending, nodes: &mut PageBuf<Node>) {
    let (root, children) = open_node(&mut run, cols, root);
    nodes.push(root);
    let Some(children) = children else {
        return;
    };
    let mut rest = run;
    let jobs = children.map(|child| {
        let (part, tail) = std::mem::take(&mut rest).split_at(child.len);
        rest = tail;
        Mutex::new(Some((part, Pending { start: 0, ..child })))
    });
    let stitch = Mutex::new(Stitch {
        nodes: std::mem::take(nodes),
        ids: [0; 8],
        parked: Default::default(),
        next: 0,
    });
    par_map_indexed(&jobs, |k, job| {
        let (mut run, p) = job
            .lock()
            .unwrap()
            .take()
            .expect("each octant is built once");
        let mut subtree = PageBuf::with_capacity(node_bound(p.len, p.depth, cols.config));
        build_node(&mut subtree, &mut run, cols, p);
        stitch.lock().unwrap().add(k, subtree);
    });
    let Stitch {
        nodes: mut all,
        ids,
        ..
    } = stitch.into_inner().unwrap();
    close_node(&mut all, 0, ids);
    *nodes = all;
}

/// Octant subtrees on their way into the root's node list. A subtree is
/// appended as soon as every octant before it is in, and one that
/// finishes early waits in `parked`, so few subtree lists exist beside
/// the final one at any time.
struct Stitch {
    nodes: PageBuf<Node>,
    /// Each appended octant's root id.
    ids: [NodeId; 8],
    parked: [Option<PageBuf<Node>>; 8],
    /// The next octant to append.
    next: usize,
}

impl Stitch {
    /// Takes octant `k`'s subtree, then appends every subtree that is
    /// next in octant order.
    fn add(&mut self, k: usize, subtree: PageBuf<Node>) {
        self.parked[k] = Some(subtree);
        while let Some(subtree) = self.parked.get_mut(self.next).and_then(Option::take) {
            let offset = self.nodes.len() as NodeId;
            self.ids[self.next] = offset;
            self.nodes.extend(subtree.iter().map(|&(mut node)| {
                if let Some(children) = &mut node.children {
                    children.iter_mut().for_each(|c| *c += offset);
                }
                node
            }));
            self.next += 1;
        }
    }
}

/// Starting capacity of a sequential build's node list over `n` points:
/// 8 nodes per `leaf_capacity` points, at most one per point (trees over
/// trajectory data have ~5), so the list seldom grows by copying.
/// Capacity past the nodes built is never written.
fn node_estimate(n: usize, config: OctreeConfig) -> usize {
    (8 * n / config.leaf_capacity.max(1)).min(n) + 1
}

/// Node-list capacity of a split build's subtree over `n` points rooted
/// at `depth`: the most nodes it can have — the interior nodes of one
/// level hold disjoint sets of more than `leaf_capacity` points each,
/// there are interior nodes on at most `max_depth - depth` levels, and
/// each has eight children — clamped to 8 × [`node_estimate`], so a
/// deep tree reserves no more than ~1.3 KB of address space a point.
/// At serving sizes the list is a mapping whose pages past the nodes
/// built are never touched: they cost address space, not memory, and
/// the list does not grow.
fn node_bound(n: usize, depth: u32, config: OctreeConfig) -> usize {
    let levels = config.max_depth.saturating_sub(depth) as usize;
    let per_level = n / config.leaf_capacity.saturating_add(1);
    (1 + 8 * levels * per_level).min(8 * node_estimate(n, config))
}

/// Creates `p`'s node. A leaf packs its points into its stretch of the
/// run and has no children; an interior node scatters its ids into the
/// other ping-pong buffer and returns its eight children (octant order
/// of [`Cube::octants`]).
fn open_node(run: &mut Run<'_>, cols: &Columns<'_>, p: Pending) -> (Node, Option<[Pending; 8]>) {
    let r = p.start..p.start + p.len;
    let mut node = Node::new_leaf(p.cube, p.depth);
    node.point_count = p.len as u32;
    node.traj_count = p.traj_count;
    node.points_start = run.base + p.start as u32;

    let (xs, ys, ts, owners) = (cols.xs, cols.ys, cols.ts, cols.owners);
    let config = cols.config;
    if p.len <= config.leaf_capacity || p.depth >= config.max_depth {
        if !p.in_packed {
            run.gids[r.clone()].copy_from_slice(&run.ids[r.clone()]);
        }
        let (oxs, oys, ots) = (
            &mut run.xs[r.clone()],
            &mut run.ys[r.clone()],
            &mut run.ts[r.clone()],
        );
        for (i, &gid) in run.gids[r.clone()].iter().enumerate() {
            let g = gid as usize;
            oxs[i] = xs[g];
            oys[i] = ys[g];
            ots[i] = ts[g];
            run.owners[r.start + i] = owners[g];
        }
        node.points_len = p.len as u32;
        // Tight bounds: lane-wide min/max over the freshly packed,
        // leaf-contiguous runs.
        let (x_min, x_max) = trajectory::simd::min_max(oxs);
        let (y_min, y_max) = trajectory::simd::min_max(oys);
        let (t_min, t_max) = trajectory::simd::min_max(ots);
        node.tight = Cube {
            x_min,
            x_max,
            y_min,
            y_max,
            t_min,
            t_max,
        };
        return (node, None);
    }

    let (src, dst) = if p.in_packed {
        (&run.gids[r.clone()], &mut run.ids[r.clone()])
    } else {
        (&run.ids[r.clone()], &mut run.gids[r.clone()])
    };
    let codes = &mut run.owners[r];
    // Octant code + histogram, one coordinate pass.
    let mut counts = [0usize; 8];
    let (cx, cy, ct) = p.cube.center();
    for (code, &gid) in codes.iter_mut().zip(src) {
        let g = gid as usize;
        let k = usize::from(xs[g] >= cx)
            | (usize::from(ys[g] >= cy) << 1)
            | (usize::from(ts[g] >= ct) << 2);
        *code = k as u32;
        counts[k] += 1;
    }
    // Stable scatter into the other buffer (preserves ascending ids per
    // octant); children recurse with the buffer roles swapped
    // (ping-pong), so nothing is copied back. The children's `M_B`
    // falls out of the same pass: per-octant runs of the
    // (trajectory-major) owners.
    let mut cursors = [0usize; 8];
    let mut acc = 0;
    for k in 0..8 {
        cursors[k] = acc;
        acc += counts[k];
    }
    let starts = cursors;
    let mut child_trajs = [0u32; 8];
    let mut last_owner = [u32::MAX; 8];
    for (&code, &gid) in codes.iter().zip(src) {
        let k = code as usize;
        dst[cursors[k]] = gid;
        cursors[k] += 1;
        let owner = owners[gid as usize];
        if owner != last_owner[k] {
            last_owner[k] = owner;
            child_trajs[k] += 1;
        }
    }

    let octants = p.cube.octants();
    let children = std::array::from_fn(|k| Pending {
        start: p.start + starts[k],
        len: counts[k],
        in_packed: !p.in_packed,
        cube: octants[k],
        depth: p.depth + 1,
        traj_count: child_trajs[k],
    });
    (node, Some(children))
}

/// Records an interior node's children and its tight cube, the union of
/// theirs.
fn close_node(nodes: &mut [Node], id: NodeId, children: [NodeId; 8]) {
    let mut tight = Cube::empty();
    for &c in &children {
        tight.union_with(&nodes[c as usize].tight);
    }
    nodes[id as usize].tight = tight;
    nodes[id as usize].children = Some(children);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::CubeIndex;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use trajectory::gen::{generate, DatasetSpec, Scale};
    use trajectory::{Point, PointStore, Trajectory, TrajectoryDb};

    fn small_store() -> PointStore {
        generate(&DatasetSpec::geolife(Scale::Smoke), 7).to_store()
    }

    #[test]
    fn build_indexes_every_point() {
        let store = small_store();
        let tree = Octree::build(&store, OctreeConfig::default());
        assert_eq!(
            tree.node(tree.root()).point_count as usize,
            store.total_points()
        );
        assert_eq!(tree.collect_points(tree.root()).len(), store.total_points());
    }

    #[test]
    fn root_counts_cover_whole_database() {
        let store = small_store();
        let tree = Octree::build(&store, OctreeConfig::default());
        assert_eq!(tree.node(tree.root()).traj_count as usize, store.len());
    }

    #[test]
    fn traj_counts_are_exact_distinct_counts() {
        // The incremental last-seen counting must match a from-scratch
        // distinct count at every node, leaf and interior alike.
        let store = small_store();
        let tree = Octree::build(
            &store,
            OctreeConfig {
                max_depth: 6,
                leaf_capacity: 8,
            },
        );
        for id in 0..tree.len() as NodeId {
            let distinct: std::collections::BTreeSet<_> = tree
                .collect_points(id)
                .iter()
                .map(|&gid| store.traj_of(gid))
                .collect();
            assert_eq!(
                distinct.len(),
                tree.node(id).traj_count as usize,
                "node {id}"
            );
        }
    }

    #[test]
    fn children_partition_parent_points() {
        let store = small_store();
        let tree = Octree::build(
            &store,
            OctreeConfig {
                max_depth: 6,
                leaf_capacity: 32,
            },
        );
        for id in 0..tree.len() as NodeId {
            if let Some(children) = tree.node(id).children {
                let child_sum: u32 = children.iter().map(|&c| tree.node(c).point_count).sum();
                assert_eq!(child_sum, tree.node(id).point_count, "node {id}");
                // M is a distinct count: children can only over-count.
                let child_m: u32 = children.iter().map(|&c| tree.node(c).traj_count).sum();
                assert!(child_m >= tree.node(id).traj_count);
            }
        }
    }

    #[test]
    fn points_live_in_their_cubes() {
        let store = small_store();
        let tree = Octree::build(
            &store,
            OctreeConfig {
                max_depth: 8,
                leaf_capacity: 16,
            },
        );
        for id in 0..tree.len() as NodeId {
            let node = tree.node(id);
            if node.is_leaf() {
                let slab = tree.leaf_slab(id);
                for i in 0..slab.len() {
                    let p = Point::new(slab.xs[i], slab.ys[i], slab.ts[i]);
                    assert!(node.cube.contains(&p), "point {p} outside leaf cube");
                    assert_eq!(p, store.point(slab.gids[i]), "packed coords diverge");
                    assert_eq!(slab.owners[i] as usize, store.traj_of(slab.gids[i]));
                }
            } else {
                assert!(tree.leaf_slab(id).is_empty());
            }
        }
    }

    #[test]
    fn tight_cubes_are_exact_and_nested() {
        let store = small_store();
        let tree = Octree::build(
            &store,
            OctreeConfig {
                max_depth: 6,
                leaf_capacity: 16,
            },
        );
        for id in 0..tree.len() as NodeId {
            let node = tree.node(id);
            let tight = tree.tight_cube(id);
            if node.point_count == 0 {
                assert!(tight.is_empty(), "node {id}");
                continue;
            }
            // Tight bounds match a from-scratch fold over the subtree's
            // points and sit inside the structural octant cube.
            let mut expect = Cube::empty();
            for gid in tree.collect_points(id) {
                expect.extend(&store.point(gid));
            }
            assert_eq!(tight, expect, "node {id}");
            assert!(
                node.cube.x_min <= tight.x_min
                    && tight.x_max <= node.cube.x_max
                    && node.cube.y_min <= tight.y_min
                    && tight.y_max <= node.cube.y_max
                    && node.cube.t_min <= tight.t_min
                    && tight.t_max <= node.cube.t_max,
                "node {id}: tight cube escapes the octant cube"
            );
        }
    }

    #[test]
    fn max_depth_is_respected() {
        let store = small_store();
        let tree = Octree::build(
            &store,
            OctreeConfig {
                max_depth: 4,
                leaf_capacity: 1,
            },
        );
        assert!(tree.actual_depth() <= 4);
    }

    #[test]
    fn duplicate_points_do_not_loop_forever() {
        // 100 identical points: can never be separated, must stop at max_depth.
        let pts: Vec<Point> = (0..100).map(|i| Point::new(5.0, 5.0, i as f64)).collect();
        // All share (x, y) but differ in t, plus truly identical spatial dups.
        let t = Trajectory::new(pts).unwrap();
        let store = TrajectoryDb::new(vec![t]).to_store();
        let tree = Octree::build(
            &store,
            OctreeConfig {
                max_depth: 5,
                leaf_capacity: 2,
            },
        );
        assert_eq!(tree.node(0).point_count, 100);
        assert!(tree.actual_depth() <= 5);
    }

    #[test]
    fn query_counts_follow_intersection() {
        let store = small_store();
        let mut tree = Octree::build(&store, OctreeConfig::default());
        let whole = store.bounding_cube();
        tree.assign_queries(&[whole]);
        assert_eq!(tree.node(tree.root()).query_count, 1);
        // A query far outside touches nothing.
        let far = Cube::centered(1e9, 1e9, 1e9, 1.0, 1.0, 1.0);
        tree.assign_queries(&[far]);
        assert_eq!(tree.node(tree.root()).query_count, 0);
        // Re-assignment resets.
        tree.assign_queries(&[whole, whole]);
        assert_eq!(tree.node(tree.root()).query_count, 2);
    }

    #[test]
    fn nodes_at_level_only_returns_populated_nodes() {
        let store = small_store();
        let tree = Octree::build(
            &store,
            OctreeConfig {
                max_depth: 6,
                leaf_capacity: 32,
            },
        );
        for s in 1..=6 {
            for id in tree.nodes_at_level(s) {
                let n = tree.node(id);
                assert!(n.traj_count > 0);
                assert!(n.depth == s || (n.is_leaf() && n.depth < s));
            }
        }
        assert_eq!(tree.nodes_at_level(1), vec![0]);
    }

    #[test]
    fn sample_start_prefers_query_heavy_cubes() {
        let store = small_store();
        let mut tree = Octree::build(
            &store,
            OctreeConfig {
                max_depth: 5,
                leaf_capacity: 32,
            },
        );
        // Put all query mass in one level-2 child.
        let level2 = tree.nodes_at_level(2);
        assert!(!level2.is_empty());
        let target = level2[0];
        let cube = tree.node(target).cube;
        let (cx, cy, ct) = cube.center();
        tree.assign_queries(&[Cube::centered(cx, cy, ct, 1e-6, 1e-6, 1e-6)]);
        let mut rng = StdRng::seed_from_u64(1);
        let sampler = tree.start_sampler(2, false);
        let mut hits = 0;
        for _ in 0..50 {
            if sampler.sample(&mut rng) == target {
                hits += 1;
            }
        }
        assert_eq!(
            hits, 50,
            "all samples should land on the only query-hit node"
        );
    }

    #[test]
    fn sample_start_falls_back_to_data_distribution() {
        let store = small_store();
        let tree = Octree::build(&store, OctreeConfig::default());
        // No queries assigned at all: still returns a valid populated node.
        let mut rng = StdRng::seed_from_u64(2);
        let id = tree.start_sampler(3, false).sample(&mut rng);
        assert!(tree.node(id).traj_count > 0);
    }

    #[test]
    fn points_by_trajectory_groups_and_sorts() {
        let store = small_store();
        let tree = Octree::build(&store, OctreeConfig::default());
        let mut ids = vec![PointId::MAX; 3]; // stale content must not survive
        tree.sorted_point_ids(tree.root(), &mut ids);
        // Every point once, ascending: trajectory-major ids make that each
        // trajectory's full index run, in trajectory order.
        let all: Vec<PointId> = (0..store.total_points() as PointId).collect();
        assert_eq!(ids, all);
        for id in 0..tree.len() as NodeId {
            tree.sorted_point_ids(id, &mut ids);
            assert_eq!(ids.len(), tree.node(id).point_count as usize, "node {id}");
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "unsorted at node {id}");
        }
    }

    #[test]
    fn traj_of_matches_store_locate() {
        let store = small_store();
        let tree = Octree::build(&store, OctreeConfig::default());
        for gid in (0..store.total_points() as PointId).step_by(7) {
            assert_eq!(tree.traj_of(gid), store.traj_of(gid));
        }
    }

    #[test]
    fn child_stats_matches_nodes() {
        let store = small_store();
        let tree = Octree::build(
            &store,
            OctreeConfig {
                max_depth: 6,
                leaf_capacity: 32,
            },
        );
        let stats = tree.child_stats(tree.root()).expect("root has children");
        let children = tree.node(tree.root()).children.unwrap();
        for (k, &(m, q)) in stats.iter().enumerate() {
            assert_eq!(m, tree.node(children[k]).traj_count);
            assert_eq!(q, tree.node(children[k]).query_count);
        }
    }

    #[test]
    fn empty_database_builds_empty_tree() {
        let tree = Octree::build(&PointStore::new(), OctreeConfig::default());
        assert!(tree.is_empty());
        assert_eq!(tree.len(), 1);
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(tree.start_sampler(4, false).sample(&mut rng), tree.root());
    }
}
