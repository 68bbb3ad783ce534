//! The canonical query-execution path: an index-accelerated
//! [`QueryEngine`].
//!
//! Every query operator in this crate has a straightforward linear-scan
//! definition over columns ([`crate::range_query_store`],
//! [`KnnQuery::execute_store`], [`SimilarityQuery::execute_store`]); those
//! remain the semantic reference. The engine executes the *same* queries
//! against a spatio-temporal index (octree or median kd-tree from
//! `traj-index`) with cube pruning. It answers one query at a time, as
//! merge material ([`QueryEngine::material`]); the public query surface —
//! one-shot, batch, simplified-database — is [`QueryExecutor`], which an
//! engine gets like every other database: as a [`Segmented`] list, here
//! of one segment. Property tests assert result-set equality between the
//! engine and the scans for every backend.
//!
//! Beyond one-shot execution, the crate supports the access pattern at the
//! heart of RL4QDTS's training loop (Eq. 10): a fixed range-query workload
//! repeatedly evaluated against a *growing* simplification. A
//! [`MaintainedWorkload`] keeps every query's result set — and its F1
//! against the ground truth — incrementally up to date as points are
//! re-introduced, turning the per-window reward from a full O(W·N) rescan
//! into O(W) bookkeeping per insertion.

use std::collections::{BinaryHeap, HashMap};
use std::sync::OnceLock;

use traj_index::{
    CubeIndex, LeafSlab, MedianTree, MedianTreeConfig, NodeId, Octree, OctreeConfig,
    SpatioTemporalIndex,
};
use trajectory::{
    AsColumns, Cube, KeptBitmap, MappedStore, PageBuf, Point, PointId, PointStore, Simplification,
    StoreRef, TrajId, TrajectoryDb,
};

use crate::db::{Query, QueryExecutor};
use crate::knn::{Dissimilarity, KnnQuery};
use crate::metrics::{f1_sets, F1Score};
use crate::parallel::par_map;
use crate::range::view_matches;
use crate::refine::{edr_bounded, lower_bound, Extent};
use crate::segment::{IdMap, Segment, Segmented, ShardResult};
use crate::similarity::SimilarityQuery;

/// Reusable per-worker scratch for query execution, allocated once per
/// worker thread and recycled across the queries — and the segments — it
/// processes: the hit-flag buffer every marking pass needs (instead of
/// one fresh `vec![false; M]` per query per segment) and what a kNN
/// refines in — its candidate list, the heap of its best `k` so far and
/// the two rows of the bounded EDR program. Over a warmed scratch a query
/// allocates its answer and nothing else.
#[derive(Debug, Default)]
pub struct QueryScratch {
    hit: Vec<bool>,
    candidates: Vec<KnnCandidate>,
    best: BinaryHeap<(u32, TrajId)>,
    rows: [Vec<u32>; 2],
}

/// One kNN candidate: a trajectory with its sample range `lo..hi` inside
/// the query's time window and a lower bound on its distance. Ordered by
/// `(lb, id)` — ids are unique within a list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct KnnCandidate {
    lb: u32,
    id: u32,
    lo: u32,
    hi: u32,
}

impl QueryScratch {
    /// An empty scratch; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The hit-flag buffer, cleared and sized to `len` trajectories.
    fn hit(&mut self, len: usize) -> &mut [bool] {
        self.hit.clear();
        self.hit.resize(len, false);
        &mut self.hit
    }
}

/// Which index structure backs a [`QueryEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// No index: every query is a linear scan (the reference behaviour,
    /// and the fallback for workloads too small to amortize an index).
    Scan,
    /// Spatio-temporal octree (the paper's index).
    #[default]
    Octree,
    /// Median-split kd-tree bundled 8-ary.
    MedianKd,
}

impl BackendKind {
    /// Display label for tables and benchmark ids.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::Scan => "scan",
            BackendKind::Octree => "octree",
            BackendKind::MedianKd => "median-kd",
        }
    }
}

/// Build parameters for a [`QueryEngine`].
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// The index backend.
    pub backend: BackendKind,
    /// Maximum index depth (root = 1).
    pub max_depth: u32,
    /// Leaf split threshold.
    pub leaf_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            backend: BackendKind::Octree,
            max_depth: 12,
            leaf_capacity: 64,
        }
    }
}

impl EngineConfig {
    /// The default configuration: octree backend, default tree shape.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An octree-backed configuration with default tree shape.
    #[must_use]
    pub fn octree() -> Self {
        Self::default()
    }

    /// A scan (no-index) configuration.
    #[must_use]
    pub fn scan() -> Self {
        Self {
            backend: BackendKind::Scan,
            ..Self::default()
        }
    }

    /// A median kd-tree configuration with default tree shape.
    #[must_use]
    pub fn median_kd() -> Self {
        Self {
            backend: BackendKind::MedianKd,
            ..Self::default()
        }
    }

    /// Overrides the backend.
    #[must_use]
    pub fn backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// Overrides the tree shape.
    #[must_use]
    pub fn tree_shape(mut self, max_depth: u32, leaf_capacity: usize) -> Self {
        self.max_depth = max_depth;
        self.leaf_capacity = leaf_capacity;
        self
    }
}

/// The constructed index.
pub(crate) enum IndexBackend {
    Scan,
    Octree(Octree),
    MedianKd(MedianTree),
}

/// Owns (or borrows) a columnar store — heap-backed [`PointStore`] or
/// mmap-backed [`MappedStore`], behind a [`StoreRef`] — plus an index over
/// it, and answers every query kind through one pruned path.
///
/// Construction is the only O(N log N) step; afterwards each range query
/// touches only the index nodes intersecting its cube, and every point
/// test is three contiguous column loads. Because every access goes
/// through [`AsColumns`], a snapshot file opened with
/// [`MappedStore::open`] serves queries with zero deserialization
/// ([`QueryEngine::over_mapped`]).
///
/// What the engine itself holds is construction, the store / index /
/// kept-bitmap accessors, and the per-query unit
/// [`QueryEngine::material`]. Queries are asked through
/// [`QueryExecutor`]: an engine is the one-segment [`Segmented`] list
/// `[all of it]`, so it answers through the same fan-out and merge as a
/// sharded or a live database.
pub struct QueryEngine<'a> {
    store: StoreRef<'a>,
    config: EngineConfig,
    /// The engine's own simplified database D′, when it serves one: the
    /// kept bitmap (from a mapped snapshot's kept-bitmap section, or
    /// attached with [`QueryEngine::set_kept_bitmap`]) and the configured
    /// backend built over its set points alone. This is what
    /// [`Query::RangeKept`] queries.
    kept: Option<(KeptBitmap, IndexBackend)>,
    backend: IndexBackend,
    /// Bounding cube of the store, learnt on first use: an engine that is
    /// asked no query (a simplification job's) or only ever serves as a
    /// segment of a database that tracks bounds itself never pays the pass.
    bounds: OnceLock<Cube>,
    /// `(first t, last t)` per trajectory, learnt on first use like
    /// `bounds`: what kNN and similarity enumerate their candidates from
    /// without touching a trajectory.
    spans: OnceLock<Vec<(f64, f64)>>,
}

impl QueryEngine<'static> {
    /// Row-form forward of [`QueryEngine::from_store`] for callers that
    /// hold a [`TrajectoryDb`] builder (the engine owns the converted
    /// columns, so it does not borrow `db`).
    #[must_use]
    pub fn over(db: &TrajectoryDb, config: EngineConfig) -> Self {
        Self::from_store(db.to_store(), config)
    }

    /// Builds an engine owning `store` — the canonical, copy-free
    /// constructor.
    #[must_use]
    pub fn from_store(store: PointStore, config: EngineConfig) -> Self {
        let backend = build_backend(&store, config, None);
        Self::from_backend(StoreRef::Owned(store), config, backend, None)
    }
}

impl<'a> QueryEngine<'a> {
    /// Builds an engine borrowing `store` (zero copy; same execution
    /// paths).
    #[must_use]
    pub fn over_store(store: &'a PointStore, config: EngineConfig) -> Self {
        let backend = build_backend(store, config, None);
        Self::from_backend(StoreRef::Borrowed(store), config, backend, None)
    }

    /// Builds an engine borrowing an mmap-backed store (zero copy; same
    /// execution paths as [`QueryEngine::over_store`]). A kept bitmap in
    /// the snapshot is retained for [`Query::RangeKept`].
    #[must_use]
    pub fn over_mapped(store: &'a MappedStore, config: EngineConfig) -> Self {
        let backend = build_backend(store, config, None);
        let mut engine = Self::from_backend(StoreRef::MappedRef(store), config, backend, None);
        engine.set_kept_bitmap(store.kept_bitmap());
        engine
    }

    /// Assembles an engine from a store handle, the index already built
    /// over it with `config` (by [`build_backend`]) and, when it serves
    /// D′, the kept bitmap with D′'s index — the seam that lets a database
    /// run all its segments' index builds in parallel first and attach the
    /// stores afterwards. The caller guarantees both indexes were built
    /// over exactly these columns.
    pub(crate) fn from_backend(
        store: StoreRef<'a>,
        config: EngineConfig,
        backend: IndexBackend,
        kept: Option<(KeptBitmap, IndexBackend)>,
    ) -> Self {
        Self {
            store,
            config,
            kept,
            backend,
            bounds: OnceLock::new(),
            spans: OnceLock::new(),
        }
    }

    /// Attaches (or clears) the kept bitmap [`Query::RangeKept`] is
    /// answered from, building (or dropping) the configured index over its
    /// set points. Callers that computed a [`Simplification`] attach its
    /// bitmap (`simp.to_bitmap(engine.store())`) to serve `D'` through
    /// the same engine that serves `D`.
    ///
    /// # Panics
    /// Panics when the bitmap's point count differs from the store's —
    /// a bitmap built for a different store would otherwise surface as
    /// an index-out-of-bounds (or silently wrong results) deep inside
    /// query execution.
    pub fn set_kept_bitmap(&mut self, kept: Option<KeptBitmap>) {
        self.kept = kept.map(|kept| {
            assert_eq!(
                kept.len(),
                self.store.total_points(),
                "kept bitmap covers a different point count than the store"
            );
            let index = build_backend(&self.store, self.config, Some(&kept));
            (kept, index)
        });
    }

    /// Builder form of [`QueryEngine::set_kept_bitmap`] (same length
    /// validation).
    #[must_use]
    pub fn with_kept_bitmap(mut self, kept: KeptBitmap) -> Self {
        self.set_kept_bitmap(Some(kept));
        self
    }

    /// The kept bitmap this engine answers [`Query::RangeKept`] from, if
    /// any.
    #[must_use]
    pub fn kept_bitmap(&self) -> Option<&KeptBitmap> {
        self.kept.as_ref().map(|(bitmap, _)| bitmap)
    }

    /// The underlying columnar storage (owned, borrowed, or mapped). All
    /// read access goes through [`AsColumns`]; call
    /// [`StoreRef::as_point_store`] when a heap-backed store specifically
    /// is required.
    #[inline]
    #[must_use]
    pub fn store(&self) -> &StoreRef<'a> {
        &self.store
    }

    /// The backend actually in use.
    #[must_use]
    pub fn backend_kind(&self) -> BackendKind {
        match self.backend {
            IndexBackend::Scan => BackendKind::Scan,
            IndexBackend::Octree(_) => BackendKind::Octree,
            IndexBackend::MedianKd(_) => BackendKind::MedianKd,
        }
    }

    /// The agents' statistical view of the index ([`CubeIndex`]), `None`
    /// for the scan backend. This lets `rl4qdts` share one index build
    /// between query execution and Agent-Cube's traversal.
    #[must_use]
    pub fn cube_index(&self) -> Option<&dyn CubeIndex> {
        match &self.backend {
            IndexBackend::Scan => None,
            IndexBackend::Octree(t) => Some(t),
            IndexBackend::MedianKd(t) => Some(t),
        }
    }

    /// Registers a query workload on the index's per-node `Q_B` statistics
    /// (no-op for the scan backend). Required before Agent-Cube sampling.
    pub fn assign_queries(&mut self, queries: &[Cube]) {
        match &mut self.backend {
            IndexBackend::Scan => {}
            IndexBackend::Octree(t) => t.assign_queries(queries),
            IndexBackend::MedianKd(t) => CubeIndex::assign_queries(t, queries),
        }
    }

    /// Smallest cube covering every point of the store, computed on first
    /// use and remembered.
    #[must_use]
    pub fn bounding_cube(&self) -> Cube {
        *self.bounds.get_or_init(|| self.store.bounding_cube())
    }

    /// Every trajectory's time span, computed on first use and remembered
    /// (one sequential pass, 16 bytes a trajectory).
    fn spans(&self) -> &[(f64, f64)] {
        self.spans
            .get_or_init(|| self.store.iter().map(|(_, v)| v.time_span()).collect())
    }

    // ------------------------------------------------------------------
    // Query execution: one unit, one arm per kind.
    // ------------------------------------------------------------------

    /// **The** per-query unit: this engine's merge material for `q`, in
    /// its local ids — what [`Segment::answer`] returns once the bounds
    /// prune passed, and what [`merge`](crate::merge) turns into a
    /// [`QueryResult`](crate::QueryResult). `parallel` lets a t2vec kNN
    /// score its candidates side by side (a one-shot query owning the
    /// machine); batch workers pass `false` and their own `scratch`.
    /// Every other arm — ranges, EDR kNN, similarity — runs on the
    /// calling thread either way: a refined query costs less than
    /// spawning workers for it. The material is identical either way.
    #[must_use]
    pub fn material(&self, q: &Query, parallel: bool, scratch: &mut QueryScratch) -> ShardResult {
        match q {
            Query::Range(c) => ShardResult::Ids(self.range_hits(&self.backend, None, c, scratch)),
            Query::Knn(k) => ShardResult::Candidates(self.knn_best(k, parallel, scratch)),
            Query::Similarity(s) => ShardResult::Ids(self.similarity_hits(s)),
            Query::RangeKept(c) => ShardResult::Kept(
                self.kept
                    .as_ref()
                    .map(|(bitmap, index)| self.range_hits(index, Some(bitmap), c, scratch)),
            ),
        }
    }

    /// Trajectories with a sampled point inside `q`, ascending, over
    /// `index`: the engine's own for [`Query::Range`], identical results
    /// to [`crate::range::range_query_store`]; D′'s for
    /// [`Query::RangeKept`], with `kept` its bitmap, where a trajectory
    /// hits when one of its kept points lies inside `q`. A tree holds only
    /// the points it was built over, so both walk it the same way. The
    /// scan backend has no tree: it tests every trajectory with the
    /// lane-wide containment kernel or, for D′, sweeps each trajectory's
    /// column run through the bitmap-masked kernel
    /// ([`trajectory::simd::any_masked_in_cube`]), skipping fully-dropped
    /// 64-point words without touching a coordinate.
    fn range_hits(
        &self,
        index: &IndexBackend,
        kept: Option<&KeptBitmap>,
        q: &Cube,
        scratch: &mut QueryScratch,
    ) -> Vec<TrajId> {
        let hit = scratch.hit(self.store.len());
        // Dispatch on the concrete index type so the per-node traversal
        // (cube tests, slab scans) monomorphizes and inlines.
        match (index, kept) {
            (IndexBackend::Octree(t), _) => range_mark(t, SpatioTemporalIndex::root(t), q, hit),
            (IndexBackend::MedianKd(t), _) => range_mark(t, SpatioTemporalIndex::root(t), q, hit),
            (IndexBackend::Scan, None) => {
                for (id, v) in self.store.iter() {
                    hit[id] = view_matches(v, q);
                }
            }
            (IndexBackend::Scan, Some(kept)) => {
                let (xs, ys, ts) = (self.store.xs(), self.store.ys(), self.store.ts());
                for (id, h) in hit.iter_mut().enumerate() {
                    let r = self.store.global_range(id);
                    *h = trajectory::simd::any_masked_in_cube(
                        &xs[r.clone()],
                        &ys[r.clone()],
                        &ts[r.clone()],
                        kept.words(),
                        r.start,
                        q,
                    );
                }
            }
        }
        collect_hits(hit)
    }

    /// Range query against a *simplification* of the engine's database
    /// without materializing it: a trajectory matches when one of its
    /// kept points lies inside `q`. The simplification is in *global*
    /// trajectory ids, read through a segment's id map; hits come back in
    /// this engine's local ids. Identical results to
    /// `rl4qdts::range_query_simplified`. Kept membership is tested per
    /// leaf point — no O(N) bitmap is built.
    pub(crate) fn range_simplified_view(
        &self,
        kept: KeptView<'_>,
        q: &Cube,
        scratch: &mut QueryScratch,
    ) -> Vec<TrajId> {
        let offsets = self.store.offsets();
        match &self.backend {
            // Kept-list scan: output-sensitive in the number of *kept*
            // points.
            IndexBackend::Scan => self
                .store
                .iter()
                .filter(|(id, v)| {
                    kept.kept(*id).iter().any(|&idx| {
                        let i = idx as usize;
                        q.contains_xyz(v.xs[i], v.ys[i], v.ts[i])
                    })
                })
                .map(|(id, _)| id)
                .collect(),
            IndexBackend::Octree(t) => {
                let hit = scratch.hit(self.store.len());
                range_mark_simplified(t, kept, offsets, SpatioTemporalIndex::root(t), q, hit);
                collect_hits(hit)
            }
            IndexBackend::MedianKd(t) => {
                let hit = scratch.hit(self.store.len());
                range_mark_simplified(t, kept, offsets, SpatioTemporalIndex::root(t), q, hit);
                collect_hits(hit)
            }
        }
    }

    /// This store's contribution to a kNN: its best `k` finite-distance
    /// candidates as `(distance, id)`, ascending by `(distance, id)`, with
    /// `-0.0` distances normalized to `+0.0` so the merge's `total_cmp`
    /// agrees with the `partial_cmp` order used here. Only a store's best
    /// `k` can reach a global top `k`; the merge's infinite-fill is
    /// unaffected (it only triggers when the global finite count is below
    /// `k`, in which case every finite candidate is listed).
    /// [`merge_knn_candidates`](crate::merge_knn_candidates) and
    /// [`knn_take_fill`](crate::knn_take_fill) over these lists reproduce
    /// [`KnnQuery::execute_store`] byte-for-byte.
    ///
    /// Filter, then refine — exactly. The candidates are the trajectories
    /// that score finite: those with a sample in `[ts, te]`, found from
    /// the span column and one window search each (with an empty query
    /// window every trajectory scores finite, and all are candidates).
    /// Under EDR each gets the box lower bound of
    /// [`edr_lower_bound`](crate::refine::edr_lower_bound), they are
    /// visited in `(bound, id)` order, and once `k` distances are known
    /// the worst of them is a threshold τ: the visit stops at the first
    /// bound above τ — strictly, since a tie on distance can still win on
    /// id — and each survivor runs [`edr_bounded`] under τ. A t2vec kNN
    /// has no bound and scores every candidate.
    fn knn_best(
        &self,
        q: &KnnQuery,
        parallel: bool,
        scratch: &mut QueryScratch,
    ) -> Vec<(f64, TrajId)> {
        if q.k == 0 {
            return Vec::new();
        }
        let q_window = q.query_window();
        self.knn_windows(q, q_window.is_empty(), &mut scratch.candidates);
        match q.measure {
            Dissimilarity::Edr { eps } => self.knn_refine_edr(q_window, eps, q.k, scratch),
            Dissimilarity::T2vec(_) => {
                let score = |c: &KnnCandidate| {
                    let id = c.id as usize;
                    // `+ 0.0` normalizes -0.0 so total_cmp == partial_cmp.
                    (
                        q.windowed_distance_view(q_window, self.store.view(id)) + 0.0,
                        id,
                    )
                };
                let mut scored: Vec<(f64, TrajId)> = if parallel {
                    par_map(&scratch.candidates, score)
                } else {
                    scratch.candidates.iter().map(score).collect()
                };
                scored.retain(|(d, _)| d.is_finite());
                scored.sort_by(|a, b| {
                    a.0.partial_cmp(&b.0)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.1.cmp(&b.1))
                });
                scored.truncate(q.k);
                scored
            }
        }
    }

    /// **The** kNN candidate enumeration, for both measures: every
    /// trajectory that scores finite, ascending, with its sample range
    /// inside `[ts, te]` and no bound yet. A trajectory whose span misses
    /// the window has no sample in it; the window search decides the rest
    /// exactly. Both windows empty is distance 0 — a candidate with an
    /// empty range; only the trajectory's empty is ∞ — not a candidate.
    fn knn_windows(&self, q: &KnnQuery, empty_query: bool, out: &mut Vec<KnnCandidate>) {
        out.clear();
        for (id, &(t0, t1)) in self.spans().iter().enumerate() {
            let window = if t1 < q.ts || t0 > q.te {
                None
            } else {
                self.store.view(id).window_indices(q.ts, q.te)
            };
            let (lo, hi) = match window {
                Some((lo, hi)) => (lo as u32, hi as u32 + 1),
                None if empty_query => (0, 0),
                None => continue,
            };
            out.push(KnnCandidate {
                lb: 0,
                id: id as u32,
                lo,
                hi,
            });
        }
    }

    /// The best `k` of the scratch's candidates under EDR, each DP run
    /// only while it can still enter them.
    fn knn_refine_edr(
        &self,
        q_window: &[Point],
        eps: f64,
        k: usize,
        scratch: &mut QueryScratch,
    ) -> Vec<(f64, TrajId)> {
        let QueryScratch {
            candidates,
            best,
            rows,
            ..
        } = scratch;
        let window = |c: &KnnCandidate| {
            let view = self.store.view(c.id as usize);
            view.slice(c.lo as usize, c.hi as usize)
        };
        let extent = Extent::of_points(q_window);
        for c in candidates.iter_mut() {
            c.lb = lower_bound(q_window, &extent, window(c), eps);
        }
        candidates.sort_unstable();
        best.clear();
        for c in candidates.iter() {
            let w = window(c);
            // Until `k` distances are known every candidate is scored:
            // no EDR exceeds the longer side.
            let tau = match best.peek() {
                Some(&(worst, _)) if best.len() == k => worst,
                _ => q_window.len().max(w.len()) as u32,
            };
            if c.lb > tau {
                break;
            }
            let Some(d) = edr_bounded(q_window, &w, eps, tau, rows) else {
                continue;
            };
            let entry = (d, c.id as usize);
            if best.len() < k {
                best.push(entry);
            } else if let Some(mut worst) = best.peek_mut() {
                if entry < *worst {
                    *worst = entry;
                }
            }
        }
        let mut out = Vec::with_capacity(best.len());
        while let Some((d, id)) = best.pop() {
            out.push((f64::from(d), id));
        }
        out.reverse();
        out
    }

    /// Trajectories within δ of the query at every instant, ascending.
    /// Identical results to [`SimilarityQuery::execute_store`]: the same
    /// matcher, asked only of the trajectories whose span — read from the
    /// span column, not from the trajectory — overlaps the query's clipped
    /// window. That is the test the matcher itself makes first
    /// ([`SimilarityQuery::matches_seq`]), so skipping the others cannot
    /// change the answer. Nothing spatial
    /// prunes: the *index* is unsound here, since a trajectory with no
    /// sampled point near the window can still match through
    /// interpolation.
    fn similarity_hits(&self, q: &SimilarityQuery) -> Vec<TrajId> {
        let Some(check) = q.check() else {
            return Vec::new();
        };
        let spans = self.spans().iter().enumerate();
        spans
            .filter(|&(id, &span)| check.overlaps(span) && check.stays_within(&self.store.view(id)))
            .map(|(id, _)| id)
            .collect()
    }
}

/// An engine is the one-segment list `[all of it]`: the whole
/// [`QueryExecutor`] surface follows from the shared fan-out, which for a
/// single segment is [`QueryEngine::material`] plus the merge's
/// finishing step (the kNN infinite-fill, the `RangeKept` option).
impl Segmented for QueryEngine<'_> {
    fn with_segments<R>(&self, f: impl FnOnce(&[Segment<'_>]) -> R) -> R {
        f(&[Segment {
            engine: self,
            ids: IdMap::Offset {
                first: 0,
                len: self.store.len(),
            },
            bounds: self.bounding_cube(),
        }])
    }
}

/// Builds the configured index over the columns of `store` (any
/// [`AsColumns`] backend): over every point, or over the points set in
/// `kept` alone — D′'s own index. `pub(crate)` so a database can run its
/// segments' builds, D's and D′'s alike, in parallel before assembling
/// their [`QueryEngine`]s.
pub(crate) fn build_backend<S: AsColumns + ?Sized>(
    store: &S,
    config: EngineConfig,
    kept: Option<&KeptBitmap>,
) -> IndexBackend {
    let (max_depth, leaf_capacity) = (config.max_depth, config.leaf_capacity);
    match config.backend {
        BackendKind::Scan => IndexBackend::Scan,
        BackendKind::Octree => {
            let config = OctreeConfig {
                max_depth,
                leaf_capacity,
            };
            IndexBackend::Octree(match kept {
                None => Octree::build(store, config),
                Some(kept) => Octree::build_subset(store, kept_ids(kept), config),
            })
        }
        BackendKind::MedianKd => {
            let config = MedianTreeConfig {
                max_depth,
                leaf_capacity,
            };
            IndexBackend::MedianKd(match kept {
                None => MedianTree::build(store, config),
                Some(kept) => MedianTree::build_subset(store, kept_ids(kept), config),
            })
        }
    }
}

/// The kept points' global ids, ascending, in a buffer sized once.
fn kept_ids(kept: &KeptBitmap) -> PageBuf<PointId> {
    let mut ids = PageBuf::with_capacity(kept.count());
    ids.extend(kept.ones());
    ids
}

/// Ascending ids of the set `hit` flags.
fn collect_hits(hit: &[bool]) -> Vec<TrajId> {
    hit.iter()
        .enumerate()
        .filter_map(|(id, &h)| h.then_some(id))
        .collect()
}

/// True when `inner` lies entirely inside `outer`.
fn covers(outer: &Cube, inner: &Cube) -> bool {
    outer.x_min <= inner.x_min
        && inner.x_max <= outer.x_max
        && outer.y_min <= inner.y_min
        && inner.y_max <= outer.y_max
        && outer.t_min <= inner.t_min
        && inner.t_max <= outer.t_max
}

/// Marks every trajectory with a point inside `q` in the subtree of `id`.
///
/// Pruning and whole-acceptance both test the node's *tight* cube
/// ([`SpatioTemporalIndex::tight_cube`]): a subtree whose tight bounds
/// miss `q` is skipped, and one fully covered by `q` is accepted by
/// marking owners alone — neither touches a coordinate. Leaves that
/// straddle the boundary are scanned as packed coordinate/owner runs
/// ([`LeafSlab`]): one containment mask per ≤ 64 points
/// ([`for_each_inside`]), whoever owns them, then the owners of its set
/// bits are marked.
fn range_mark<I: SpatioTemporalIndex + ?Sized>(index: &I, id: NodeId, q: &Cube, hit: &mut [bool]) {
    if index.point_count(id) == 0 {
        return;
    }
    let tight = index.tight_cube(id);
    if !tight.intersects(q) {
        return;
    }
    if covers(q, &tight) {
        mark_all_owners(index, id, hit);
        return;
    }
    match index.children(id) {
        Some(children) => {
            for c in children {
                range_mark(index, c, q, hit);
            }
        }
        None => {
            let slab = index.leaf_slab(id);
            for_each_inside(&slab, q, false, |i| hit[slab.owners[i] as usize] = true);
        }
    }
}

/// Marks every owner in the subtree of `id` without touching coordinates
/// — the whole-accept arm of [`range_mark`] once a node's tight cube is
/// covered by the query. The subtree's owners lie in one contiguous run
/// ([`SpatioTemporalIndex::subtree_owners`]): no descent.
fn mark_all_owners<I: SpatioTemporalIndex + ?Sized>(index: &I, id: NodeId, hit: &mut [bool]) {
    for &owner in index.subtree_owners(id) {
        hit[owner as usize] = true;
    }
}

/// Calls `f(i)` for every slab point inside `q`, ascending: one
/// [`trajectory::simd::in_cube_mask`] per chunk of at most 64 points,
/// then a walk of its set bits. `contained` says the leaf's tight cube
/// lies inside `q`, so every point does and no coordinate is read.
fn for_each_inside(slab: &LeafSlab<'_>, q: &Cube, contained: bool, mut f: impl FnMut(usize)) {
    if contained {
        (0..slab.len()).for_each(f);
        return;
    }
    for lo in (0..slab.len()).step_by(64) {
        let hi = (lo + 64).min(slab.len());
        let mut inside =
            trajectory::simd::in_cube_mask(&slab.xs[lo..hi], &slab.ys[lo..hi], &slab.ts[lo..hi], q);
        while inside != 0 {
            f(lo + inside.trailing_zeros() as usize);
            inside &= inside - 1;
        }
    }
}

/// [`range_mark`] over only the *kept* points of a simplification,
/// resolving kept membership per contained leaf point (owner from the
/// slab, local index from the offset table; a binary search, so it runs
/// after containment, not before) — the bitmap-free single-query path.
fn range_mark_simplified<I: SpatioTemporalIndex + ?Sized>(
    index: &I,
    kept: KeptView<'_>,
    offsets: &[u32],
    id: NodeId,
    q: &Cube,
    hit: &mut [bool],
) {
    let tight = index.tight_cube(id);
    if index.point_count(id) == 0 || !tight.intersects(q) {
        return;
    }
    match index.children(id) {
        Some(children) => {
            for c in children {
                range_mark_simplified(index, kept, offsets, c, q, hit);
            }
        }
        None => {
            let slab = index.leaf_slab(id);
            for_each_inside(&slab, q, covers(q, &tight), |i| {
                let traj = slab.owners[i] as usize;
                if !hit[traj] && kept.contains(traj, slab.gids[i] - offsets[traj]) {
                    hit[traj] = true;
                }
            });
        }
    }
}

/// A [`Simplification`] in *global* trajectory ids, read through the
/// [`IdMap`] of the segment whose columns are being scanned — no
/// per-segment copy of the kept lists. A trajectory the simplification
/// does not cover (ingested after it was computed) keeps nothing.
#[derive(Clone, Copy)]
pub(crate) struct KeptView<'a> {
    simp: &'a Simplification,
    ids: IdMap<'a>,
}

impl<'a> KeptView<'a> {
    pub(crate) fn new(simp: &'a Simplification, ids: IdMap<'a>) -> Self {
        Self { simp, ids }
    }

    /// Global id of the segment's trajectory `local`.
    pub(crate) fn global(&self, local: TrajId) -> TrajId {
        self.ids.global(local).expect("local id within the segment")
    }

    /// Kept point indices of the segment's trajectory `local`.
    fn kept(&self, local: TrajId) -> &'a [u32] {
        let global = self.global(local);
        if global < self.simp.len() {
            self.simp.kept(global)
        } else {
            &[]
        }
    }

    /// True when point `idx` of the segment's trajectory `local` is kept.
    fn contains(&self, local: TrajId, idx: u32) -> bool {
        self.kept(local).binary_search(&idx).is_ok()
    }
}

/// **The** kept-point counting routine: adds to `counts`, keyed by
/// global id, how many kept points of each trajectory of `store` lie
/// inside `q` (trajectories with none get no entry) — the initial state
/// of a [`MaintainedWorkload`], over one store or one segment of many.
pub(crate) fn count_kept_hits<S: AsColumns + ?Sized>(
    store: &S,
    kept: KeptView<'_>,
    q: &Cube,
    counts: &mut HashMap<TrajId, u32>,
) {
    for (local, v) in store.iter() {
        let n = kept
            .kept(local)
            .iter()
            .filter(|&&idx| {
                let i = idx as usize;
                q.contains_xyz(v.xs[i], v.ys[i], v.ts[i])
            })
            .count() as u32;
        if n > 0 {
            counts.insert(kept.global(local), n);
        }
    }
}

/// A range-query workload whose results over a growing [`Simplification`]
/// are maintained incrementally.
///
/// For each query `q` the structure tracks how many kept points of each
/// trajectory lie inside `q`, the resulting result-set size, and its
/// intersection with the ground truth `Q(D)`. [`MaintainedWorkload::insert`]
/// updates all three in O(queries containing the point); the aggregate
/// `diff` (Eq. 10's `1 − mean F1`) is then O(W) with no database access at
/// all.
#[derive(Debug, Clone)]
pub struct MaintainedWorkload {
    queries: Vec<Cube>,
    /// Ground-truth result ids, sorted, per query.
    truth: Vec<Vec<TrajId>>,
    /// Kept-point hit counts per query, per matching trajectory.
    counts: Vec<HashMap<TrajId, u32>>,
    /// `|Rs|` per query.
    result_len: Vec<usize>,
    /// `|Ro ∩ Rs|` per query.
    inter_len: Vec<usize>,
}

impl MaintainedWorkload {
    /// Assembles the workload state from already-computed ground truth and
    /// kept-point hit counts, both in global ids — what
    /// [`QueryExecutor::maintained_workload`] computes over its segment
    /// list; the `|Rs|` / `|Ro ∩ Rs|` bookkeeping is derived here.
    pub(crate) fn from_parts(
        queries: Vec<Cube>,
        truth: Vec<Vec<TrajId>>,
        counts: Vec<HashMap<TrajId, u32>>,
    ) -> Self {
        let result_len: Vec<usize> = counts.iter().map(HashMap::len).collect();
        let inter_len: Vec<usize> = counts
            .iter()
            .zip(&truth)
            .map(|(counts, truth)| {
                counts
                    .keys()
                    .filter(|id| truth.binary_search(id).is_ok())
                    .count()
            })
            .collect();
        Self {
            queries,
            truth,
            counts,
            result_len,
            inter_len,
        }
    }

    /// Number of workload queries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// True when the workload holds no queries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// The workload's query cubes.
    #[must_use]
    pub fn queries(&self) -> &[Cube] {
        &self.queries
    }

    /// The ground-truth result of query `i`.
    #[must_use]
    pub fn truth(&self, i: usize) -> &[TrajId] {
        &self.truth[i]
    }

    /// Records that point `idx` of trajectory `traj` (located at `p`) was
    /// inserted into the simplification. O(W) cube tests, O(1) updates.
    pub fn insert(&mut self, traj: TrajId, p: &Point) {
        for (i, q) in self.queries.iter().enumerate() {
            if !q.contains(p) {
                continue;
            }
            let count = self.counts[i].entry(traj).or_insert(0);
            *count += 1;
            if *count == 1 {
                self.result_len[i] += 1;
                if self.truth[i].binary_search(&traj).is_ok() {
                    self.inter_len[i] += 1;
                }
            }
        }
    }

    /// Records that a kept point was *removed* from the simplification.
    pub fn remove(&mut self, traj: TrajId, p: &Point) {
        for (i, q) in self.queries.iter().enumerate() {
            if !q.contains(p) {
                continue;
            }
            let Some(count) = self.counts[i].get_mut(&traj) else {
                continue;
            };
            *count -= 1;
            if *count == 0 {
                self.counts[i].remove(&traj);
                self.result_len[i] -= 1;
                if self.truth[i].binary_search(&traj).is_ok() {
                    self.inter_len[i] -= 1;
                }
            }
        }
    }

    /// Current result of query `i`, sorted ascending (materialized from
    /// the maintained counts; intended for verification and serving).
    #[must_use]
    pub fn result(&self, i: usize) -> Vec<TrajId> {
        let mut ids: Vec<TrajId> = self.counts[i].keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Per-query F1 of the maintained results against the ground truth.
    #[must_use]
    pub fn f1_scores(&self) -> Vec<F1Score> {
        (0..self.queries.len())
            .map(|i| {
                F1Score::from_counts(self.inter_len[i], self.truth[i].len(), self.result_len[i])
            })
            .collect()
    }

    /// `diff(Q(D), Q(D'))` = `1 − mean F1` over the workload, from the
    /// maintained counters alone.
    #[must_use]
    pub fn diff(&self) -> f64 {
        crate::metrics::query_diff(&self.f1_scores())
    }

    /// From-scratch recomputation of [`MaintainedWorkload::diff`] for
    /// `simp` via `executor` (any layout over the same trajectories) — the
    /// O(W·N) path the incremental bookkeeping replaces; kept for
    /// verification and for scoring unrelated simplifications.
    #[must_use]
    pub fn diff_of(&self, executor: &(impl QueryExecutor + ?Sized), simp: &Simplification) -> f64 {
        if self.queries.is_empty() {
            return 0.0;
        }
        let results = executor.range_simplified_batch(simp, &self.queries);
        let scores: Vec<F1Score> = results
            .iter()
            .zip(&self.truth)
            .map(|(result, truth)| f1_sets(truth, result))
            .collect();
        crate::metrics::query_diff(&scores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::Dissimilarity;
    use crate::range::range_query_store;
    use crate::workload::{range_workload_store, QueryDistribution, RangeWorkloadSpec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use trajectory::gen::{generate, DatasetSpec, Scale};

    fn small_store() -> PointStore {
        generate(&DatasetSpec::geolife(Scale::Smoke), 4242).to_store()
    }

    fn workload(store: &PointStore, n: usize, seed: u64) -> Vec<Cube> {
        let spec = RangeWorkloadSpec {
            count: n,
            spatial_extent: 2_000.0,
            temporal_extent: 86_400.0,
            dist: QueryDistribution::Data,
        };
        range_workload_store(store, &spec, &mut StdRng::seed_from_u64(seed))
    }

    fn all_backends() -> [EngineConfig; 3] {
        [
            EngineConfig::scan(),
            EngineConfig::octree(),
            EngineConfig::median_kd(),
        ]
    }

    #[test]
    fn range_matches_linear_scan_for_every_backend() {
        let store = small_store();
        let queries = workload(&store, 25, 1);
        for cfg in all_backends() {
            let engine = QueryEngine::over_store(&store, cfg);
            for q in &queries {
                assert_eq!(
                    engine.range(q),
                    range_query_store(&store, q),
                    "backend {:?}",
                    cfg.backend
                );
            }
        }
    }

    #[test]
    fn range_batch_matches_single_queries() {
        let store = small_store();
        let queries = workload(&store, 40, 2);
        let engine = QueryEngine::over_store(&store, EngineConfig::octree());
        let batch = engine.range_batch(&queries);
        for (i, q) in queries.iter().enumerate() {
            assert_eq!(batch[i], engine.range(q));
        }
    }

    #[test]
    fn whole_space_query_returns_everything() {
        let store = small_store();
        for cfg in all_backends() {
            let engine = QueryEngine::over_store(&store, cfg);
            let all = engine.range(&store.bounding_cube());
            assert_eq!(
                all,
                (0..store.len()).collect::<Vec<_>>(),
                "{:?}",
                cfg.backend
            );
        }
    }

    #[test]
    fn empty_database_serves_empty_results() {
        let store = PointStore::new();
        for cfg in all_backends() {
            let engine = QueryEngine::over_store(&store, cfg);
            assert!(engine
                .range(&Cube::new(0.0, 1.0, 0.0, 1.0, 0.0, 1.0))
                .is_empty());
        }
    }

    #[test]
    fn knn_matches_linear_scan_for_every_backend() {
        let store = small_store();
        let (t0, t1) = store.time_span();
        for cfg in all_backends() {
            let engine = QueryEngine::over_store(&store, cfg);
            for (k, ts, te) in [(3, t0, t1), (1, t0, (t0 + t1) / 2.0), (100, t1, t1 + 10.0)] {
                let q = KnnQuery {
                    query: store.view(0).to_trajectory(),
                    ts,
                    te,
                    k,
                    measure: Dissimilarity::Edr { eps: 1_000.0 },
                };
                assert_eq!(
                    engine.knn(&q),
                    q.execute_store(&store),
                    "backend {:?}",
                    cfg.backend
                );
            }
        }
    }

    /// An answer of `k` ids owns `k` ids' worth of memory however many
    /// candidates were scored: whoever holds many answers (a cache, a
    /// serving oracle) must not hold every query's candidate buffer too.
    #[test]
    fn a_knn_answer_does_not_keep_its_candidate_buffer() {
        let spec = DatasetSpec::geolife(Scale::Smoke).with_trajectories(40);
        let store = generate(&spec, 4242).to_store();
        let (t0, t1) = store.time_span();
        let knn = |k: usize| KnnQuery {
            query: store.view(0).to_trajectory(),
            ts: t0,
            te: t1,
            k,
            measure: Dissimilarity::Edr { eps: 1_000.0 },
        };
        let k = 2;
        for cfg in all_backends() {
            let engine = QueryEngine::over_store(&store, cfg);
            assert!(engine.knn_candidates(&knn(store.len())).len() >= 10 * k);
            let batch = crate::QueryBatch::from_queries(vec![Query::Knn(knn(k))]);
            for ids in [
                engine.knn(&knn(k)),
                engine.execute_one(&Query::Knn(knn(k))).into_ids().unwrap(),
                engine.execute_batch(&batch).remove(0).into_ids().unwrap(),
            ] {
                assert_eq!(ids.len(), k);
                assert!(ids.capacity() <= 2 * k, "{} ids", ids.capacity());
            }
        }
    }

    /// Over a warmed scratch a kNN or similarity query allocates its
    /// answer and nothing else: what the first pass over a set of queries
    /// grew the scratch's buffers to, a hundred more queries leave as it
    /// is.
    #[test]
    fn a_warmed_scratch_does_not_grow() {
        let store = small_store();
        let (t0, t1) = store.time_span();
        let queries: Vec<Query> = (0..store.len())
            .flat_map(|id| {
                let query = store.view(id).to_trajectory();
                let (ts, te) = if id % 2 == 0 {
                    (t0, t1)
                } else {
                    store.view(id).time_span()
                };
                [
                    Query::Knn(KnnQuery {
                        query: query.clone(),
                        ts,
                        te,
                        k: 1 + id % 4,
                        measure: Dissimilarity::Edr { eps: 1_000.0 },
                    }),
                    Query::Similarity(SimilarityQuery {
                        query,
                        ts,
                        te,
                        delta: 2_500.0,
                        step: 300.0,
                    }),
                ]
            })
            .collect();
        let capacities = |s: &QueryScratch| {
            let rows = s.rows.each_ref().map(Vec::capacity);
            (s.candidates.capacity(), s.best.capacity(), rows)
        };
        for cfg in all_backends() {
            let engine = QueryEngine::over_store(&store, cfg);
            let mut scratch = QueryScratch::new();
            for q in &queries {
                let _ = engine.material(q, false, &mut scratch);
            }
            let warmed = capacities(&scratch);
            assert!(warmed.0 > 0 && warmed.1 > 0 && warmed.2[0] > 0);
            for q in queries.iter().cycle().take(100) {
                let _ = engine.material(q, false, &mut scratch);
                assert_eq!(capacities(&scratch), warmed, "{:?}", cfg.backend);
            }
        }
    }

    #[test]
    fn similarity_matches_linear_scan() {
        let store = small_store();
        let (t0, t1) = store.view(0).time_span();
        let q = SimilarityQuery {
            query: store.view(0).to_trajectory(),
            ts: t0,
            te: t1,
            delta: 2_500.0,
            step: 300.0,
        };
        for cfg in all_backends() {
            let engine = QueryEngine::over_store(&store, cfg);
            assert_eq!(
                engine.similarity(&q),
                q.execute_store(&store),
                "{:?}",
                cfg.backend
            );
        }
    }

    #[test]
    fn range_simplified_matches_materialized_database() {
        let store = small_store();
        let mut simp = Simplification::most_simplified_store(&store);
        for (id, t) in store.iter() {
            for idx in (0..t.len() as u32).step_by(5) {
                simp.insert(id, idx);
            }
        }
        let materialized = simp.materialize_store(&store);
        let queries = workload(&store, 20, 3);
        for cfg in all_backends() {
            let engine = QueryEngine::over_store(&store, cfg);
            for q in &queries {
                assert_eq!(
                    engine.range_simplified(&simp, q),
                    range_query_store(&materialized, q),
                    "backend {:?}",
                    cfg.backend
                );
            }
        }
    }

    /// The range walks — D's tree, the simplified walk and D′'s own tree —
    /// against the scan backend, which shares neither the tree walk nor
    /// the mask kernel, at leaf sizes on both sides of the 64-point chunk:
    /// one point a leaf, exactly 64, 65, a few chunks, and the whole store
    /// in the root leaf. The cubes include ones whose faces pass through
    /// sampled points and one that covers everything (the whole-accept
    /// arm).
    #[test]
    fn range_walkers_match_the_scan_backend_at_every_leaf_size() {
        let store = small_store();
        let mut simp = Simplification::most_simplified_store(&store);
        let mut bitmap = KeptBitmap::zeros(store.total_points());
        for (id, t) in store.iter() {
            for idx in (0..t.len() as u32).step_by(3) {
                simp.insert(id, idx);
            }
        }
        for gid in (0..store.total_points() as u32).filter(|g| g % 7 < 2) {
            bitmap.insert(gid);
        }
        let mut queries = workload(&store, 30, 9);
        queries.push(store.bounding_cube());
        let (xs, ys, ts) = (store.xs(), store.ys(), store.ts());
        for g in (0..store.total_points()).step_by(store.total_points() / 12 + 1) {
            // Point `g` on the low corner, another point's coordinates on
            // the high faces.
            let h = (g * 31 + 17) % store.total_points();
            queries.push(Cube::new(
                xs[g].min(xs[h]),
                xs[g].max(xs[h]),
                ys[g].min(ys[h]),
                ys[g].max(ys[h]),
                ts[g].min(ts[h]),
                ts[g].max(ts[h]),
            ));
        }
        let scan =
            QueryEngine::over_store(&store, EngineConfig::scan()).with_kept_bitmap(bitmap.clone());
        for leaf_capacity in [1, 64, 65, 200, usize::MAX] {
            for backend in [BackendKind::Octree, BackendKind::MedianKd] {
                let cfg = EngineConfig {
                    backend,
                    leaf_capacity,
                    ..EngineConfig::default()
                };
                let engine = QueryEngine::over_store(&store, cfg).with_kept_bitmap(bitmap.clone());
                for q in &queries {
                    let label = format!("{backend:?} leaf {leaf_capacity} cube {q:?}");
                    assert_eq!(engine.range(q), scan.range(q), "{label}");
                    assert_eq!(
                        engine.range_simplified(&simp, q),
                        scan.range_simplified(&simp, q),
                        "simplified, {label}"
                    );
                    assert_eq!(
                        engine.range_kept(q),
                        scan.range_kept(q),
                        "kept bitmap, {label}"
                    );
                }
            }
        }
    }

    #[test]
    fn maintained_workload_tracks_insertions_exactly() {
        let store = small_store();
        let queries = workload(&store, 30, 4);
        let engine = QueryEngine::over_store(&store, EngineConfig::octree());
        let mut simp = Simplification::most_simplified_store(&store);
        let mut maintained = engine.maintained_workload(queries.clone(), &simp);
        assert!((maintained.diff() - maintained.diff_of(&engine, &simp)).abs() < 1e-12);

        // Insert a scattering of points, checking the invariant as we go.
        let mut rng = StdRng::seed_from_u64(9);
        use rand::Rng;
        for _ in 0..200 {
            let traj = rng.gen_range(0..store.len());
            let n = store.view(traj).len() as u32;
            if n <= 2 {
                continue;
            }
            let idx = rng.gen_range(1..n - 1);
            if simp.insert(traj, idx) {
                maintained.insert(traj, &store.view(traj).point(idx as usize));
            }
        }
        assert!(
            (maintained.diff() - maintained.diff_of(&engine, &simp)).abs() < 1e-12,
            "incremental diff must equal from-scratch diff"
        );
        for (i, q) in queries.iter().enumerate() {
            assert_eq!(maintained.result(i), engine.range_simplified(&simp, q));
        }
    }

    #[test]
    fn maintained_workload_supports_removal() {
        let store = small_store();
        let queries = workload(&store, 10, 5);
        let engine = QueryEngine::over_store(&store, EngineConfig::octree());
        let mut simp = Simplification::most_simplified_store(&store);
        let mut maintained = engine.maintained_workload(queries, &simp);
        let traj = 0;
        let idx = 1u32;
        if store.view(traj).len() > 2 && simp.insert(traj, idx) {
            maintained.insert(traj, &store.view(traj).point(idx as usize));
            assert!((maintained.diff() - maintained.diff_of(&engine, &simp)).abs() < 1e-12);
            simp.remove(traj, idx);
            maintained.remove(traj, &store.view(traj).point(idx as usize));
            assert!((maintained.diff() - maintained.diff_of(&engine, &simp)).abs() < 1e-12);
        }
    }

    #[test]
    fn full_simplification_has_zero_diff() {
        let store = small_store();
        let queries = workload(&store, 15, 6);
        let engine = QueryEngine::over_store(&store, EngineConfig::octree());
        let full = Simplification::full_store(&store);
        let maintained = engine.maintained_workload(queries, &full);
        assert!(
            maintained.diff().abs() < 1e-12,
            "identity simplification must have diff 0"
        );
    }

    #[test]
    #[should_panic(expected = "different point count")]
    fn attaching_a_mismatched_kept_bitmap_fails_fast() {
        let store = small_store();
        let mut engine = QueryEngine::over_store(&store, EngineConfig::octree());
        engine.set_kept_bitmap(Some(KeptBitmap::zeros(store.total_points() + 1)));
    }

    #[test]
    fn cube_index_is_shared_for_indexed_backends() {
        let store = small_store();
        let mut engine = QueryEngine::over_store(&store, EngineConfig::octree());
        assert!(engine.cube_index().is_some());
        let queries = workload(&store, 5, 7);
        engine.assign_queries(&queries);
        let idx = engine.cube_index().unwrap();
        assert!(
            idx.query_count(idx.root()) > 0,
            "assigned workload must reach the index"
        );
        assert!(QueryEngine::over_store(&store, EngineConfig::scan())
            .cube_index()
            .is_none());
    }
}
