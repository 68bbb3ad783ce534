//! The public database façade: one typed query surface over every
//! physical layout.
//!
//! Everything below this module — single-store vs. sharded engines,
//! heap-owned vs. mmap-backed columns, CSV vs. snapshot vs. shard-set
//! files — is an *execution detail*. The paper's contract (§III-B) is a
//! database `D` answering a workload of range / kNN / similarity queries,
//! and a simplified database `D'` answering the same workload almost as
//! well. This module states that contract once:
//!
//! - [`QueryExecutor`] is the full query surface (one-shot, batch,
//!   simplified-database variants, and workload maintenance), implemented
//!   by both [`QueryEngine`] and [`ShardedQueryEngine`] with identical
//!   signatures — including the previously diverging `range_kept`, which
//!   now serves the executor's *own* persisted simplification behind the
//!   same `Option` on both sides.
//! - [`Query`] / [`QueryResult`] are the typed request/response pair, and
//!   a [`QueryBatch`] is a *heterogeneous* plan: a mixed
//!   range+kNN+similarity workload (the shape of the paper's Eq. 10
//!   evaluation) executes in **one** [`par_map`] pass instead of three
//!   serial per-kind batches — each worker runs its query with sequential
//!   inner loops, so the pass uses `cores` threads, not `cores²`.
//! - [`TrajDb`] is the façade over storage: [`TrajDb::open`] auto-detects
//!   the three on-disk formats (CSV file, snapshot file, shard-set
//!   directory), honours a builder-style [`DbOptions`] (index backend and
//!   tree shape, owned vs. mmap opening, optional re-partitioning into an
//!   in-memory sharded engine), and serves the whole [`QueryExecutor`]
//!   surface — including `D'` through a persisted kept bitmap.
//!
//! This is also the seam the ROADMAP's sharding follow-ups (backend
//! mixing, remote shards, rebalancing) plug into: a [`Query`] is
//! serializable in spirit — plain data, no lifetimes — so the same plan
//! that fans out across local shards can cross a network boundary
//! unchanged.
//!
//! Batch-vs-sequential equality is property-tested in
//! `tests/db_props.rs` across both executors, all three index backends,
//! and owned as well as mmap-backed stores.

use std::fmt;
use std::path::Path;

use rand::rngs::StdRng;
use trajectory::io::ReadError;
use trajectory::shard::{partition, OpenShard, PartitionStrategy, Shard, ShardSet, ShardSetError};
use trajectory::snapshot::{is_snapshot_file, read_snapshot, MappedStore, SnapshotError};
use trajectory::{AsColumns, Cube, KeptBitmap, PointStore, Simplification, TrajId, TrajectoryDb};

use crate::engine::{BackendKind, EngineConfig, MaintainedWorkload, QueryEngine, QueryScratch};
use crate::knn::KnnQuery;
use crate::parallel::{par_map, par_map_with};
use crate::segment::ShardResult;
use crate::sharded::ShardedQueryEngine;
use crate::similarity::SimilarityQuery;
use crate::workload::{range_workload_store, RangeWorkloadSpec};

// ---------------------------------------------------------------------
// Typed queries.
// ---------------------------------------------------------------------

/// One typed query against a trajectory database: the request half of the
/// public API. Plain data (no lifetimes, no store references), so a query
/// built once can be executed against any [`QueryExecutor`] — or, later,
/// shipped across a network boundary to a remote shard.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// Range query: which trajectories have a sampled point inside the
    /// cube? (§III-B1.)
    Range(Cube),
    /// k-nearest-neighbours by windowed dissimilarity (§III-B2).
    Knn(KnnQuery),
    /// "Within δ at every instant" similarity (§III-B3).
    Similarity(SimilarityQuery),
    /// Range query against the executor's *persisted simplified database*
    /// `D'` (its kept bitmap). Answers [`QueryResult::RangeKept`]`(None)`
    /// on executors serving only the full database.
    RangeKept(Cube),
}

impl Query {
    /// The query's kind (for plan grouping and reporting).
    #[must_use]
    pub fn kind(&self) -> QueryKind {
        match self {
            Query::Range(_) => QueryKind::Range,
            Query::Knn(_) => QueryKind::Knn,
            Query::Similarity(_) => QueryKind::Similarity,
            Query::RangeKept(_) => QueryKind::RangeKept,
        }
    }
}

/// The kind of a [`Query`] / [`QueryResult`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryKind {
    /// [`Query::Range`].
    Range,
    /// [`Query::Knn`].
    Knn,
    /// [`Query::Similarity`].
    Similarity,
    /// [`Query::RangeKept`].
    RangeKept,
}

impl QueryKind {
    /// All kinds, in declaration order.
    pub const ALL: [QueryKind; 4] = [
        QueryKind::Range,
        QueryKind::Knn,
        QueryKind::Similarity,
        QueryKind::RangeKept,
    ];

    /// Display label for reports and benchmark ids.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            QueryKind::Range => "range",
            QueryKind::Knn => "knn",
            QueryKind::Similarity => "similarity",
            QueryKind::RangeKept => "range-kept",
        }
    }
}

/// The typed answer to a [`Query`], mirroring its kind. Every operator
/// returns trajectory ids ascending; [`QueryResult::RangeKept`] keeps the
/// `Option` of the reconciled `range_kept` surface (`None` when the
/// executor serves no simplified database).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryResult {
    /// Answer to [`Query::Range`].
    Range(Vec<TrajId>),
    /// Answer to [`Query::Knn`].
    Knn(Vec<TrajId>),
    /// Answer to [`Query::Similarity`].
    Similarity(Vec<TrajId>),
    /// Answer to [`Query::RangeKept`] — `None` when the executor carries
    /// no kept bitmap.
    RangeKept(Option<Vec<TrajId>>),
}

impl QueryResult {
    /// The result's kind.
    #[must_use]
    pub fn kind(&self) -> QueryKind {
        match self {
            QueryResult::Range(_) => QueryKind::Range,
            QueryResult::Knn(_) => QueryKind::Knn,
            QueryResult::Similarity(_) => QueryKind::Similarity,
            QueryResult::RangeKept(_) => QueryKind::RangeKept,
        }
    }

    /// The result ids, `None` only for [`QueryResult::RangeKept`]`(None)`.
    #[must_use]
    pub fn ids(&self) -> Option<&[TrajId]> {
        match self {
            QueryResult::Range(ids) | QueryResult::Knn(ids) | QueryResult::Similarity(ids) => {
                Some(ids)
            }
            QueryResult::RangeKept(ids) => ids.as_deref(),
        }
    }

    /// Consumes the result into its ids (see [`QueryResult::ids`]).
    #[must_use]
    pub fn into_ids(self) -> Option<Vec<TrajId>> {
        match self {
            QueryResult::Range(ids) | QueryResult::Knn(ids) | QueryResult::Similarity(ids) => {
                Some(ids)
            }
            QueryResult::RangeKept(ids) => ids,
        }
    }
}

/// A heterogeneous batch plan: any mix of query kinds, executed by
/// [`QueryExecutor::execute_batch`] in **one** data-parallel pass.
///
/// The homogeneous `*_batch` methods already parallelize within one kind;
/// what they cannot do is overlap *across* kinds — a workload of 100
/// ranges, 20 kNNs, and 20 similarities would run as three serial
/// batches, each ending with a synchronization barrier. A `QueryBatch`
/// erases the kind boundary: all 140 queries enter one [`par_map`] whose
/// work-stealing counter balances the (wildly uneven) per-kind costs
/// automatically. Results come back in submission order, each tagged as a
/// typed [`QueryResult`] — property-tested equal to executing every query
/// one at a time.
#[derive(Debug, Clone, Default)]
pub struct QueryBatch {
    queries: Vec<Query>,
}

impl QueryBatch {
    /// An empty batch.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A batch over pre-assembled queries.
    #[must_use]
    pub fn from_queries(queries: Vec<Query>) -> Self {
        Self { queries }
    }

    /// Appends one query, returning `self` for chaining.
    #[must_use]
    pub fn with(mut self, q: Query) -> Self {
        self.queries.push(q);
        self
    }

    /// Appends one query.
    pub fn push(&mut self, q: Query) {
        self.queries.push(q);
    }

    /// Appends a range query.
    pub fn push_range(&mut self, q: Cube) {
        self.queries.push(Query::Range(q));
    }

    /// Appends a kNN query.
    pub fn push_knn(&mut self, q: KnnQuery) {
        self.queries.push(Query::Knn(q));
    }

    /// Appends a similarity query.
    pub fn push_similarity(&mut self, q: SimilarityQuery) {
        self.queries.push(Query::Similarity(q));
    }

    /// Appends a simplified-database range query.
    pub fn push_range_kept(&mut self, q: Cube) {
        self.queries.push(Query::RangeKept(q));
    }

    /// The planned queries, in submission order.
    #[must_use]
    pub fn queries(&self) -> &[Query] {
        &self.queries
    }

    /// Consumes the batch into its queries, in submission order (the
    /// admission layer moves queries between batches without cloning).
    #[must_use]
    pub fn into_queries(self) -> Vec<Query> {
        self.queries
    }

    /// Number of planned queries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// True when the batch holds no queries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Per-kind query counts, indexed like [`QueryKind::ALL`] (the plan
    /// summary reports print).
    #[must_use]
    pub fn kind_counts(&self) -> [usize; 4] {
        let mut counts = [0usize; 4];
        for q in &self.queries {
            counts[q.kind() as usize] += 1;
        }
        counts
    }
}

impl FromIterator<Query> for QueryBatch {
    fn from_iter<I: IntoIterator<Item = Query>>(iter: I) -> Self {
        Self {
            queries: iter.into_iter().collect(),
        }
    }
}

impl<'a> IntoIterator for &'a QueryBatch {
    type Item = &'a Query;
    type IntoIter = std::slice::Iter<'a, Query>;

    fn into_iter(self) -> Self::IntoIter {
        self.queries.iter()
    }
}

impl Extend<Query> for QueryBatch {
    fn extend<I: IntoIterator<Item = Query>>(&mut self, iter: I) {
        self.queries.extend(iter);
    }
}

// ---------------------------------------------------------------------
// The executor trait.
// ---------------------------------------------------------------------

/// The full query surface of a trajectory database, implemented by both
/// the single-store [`QueryEngine`] and the fan-out
/// [`ShardedQueryEngine`] (whose results are property-tested identical).
///
/// Code written against this trait — the evaluation tasks, the serving
/// pipeline, benchmarks — runs unchanged over every physical layout.
/// `Sync` is a supertrait so batch execution can share `&self` across
/// worker threads.
pub trait QueryExecutor: Sync {
    /// Number of trajectories served.
    fn len(&self) -> usize;

    /// True when the executor serves no trajectories.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total points served.
    fn total_points(&self) -> usize;

    /// Materializes trajectory `id` as an owned
    /// [`Trajectory`](trajectory::Trajectory) — for operators that
    /// consume whole trajectories (e.g. TRACLUS clustering).
    fn trajectory(&self, id: TrajId) -> trajectory::Trajectory;

    /// Executes a range query (ids ascending).
    fn range(&self, q: &Cube) -> Vec<TrajId>;

    /// Executes a batch of range queries, parallel across queries.
    fn range_batch(&self, queries: &[Cube]) -> Vec<Vec<TrajId>>;

    /// Executes a kNN query (ids ascending).
    fn knn(&self, q: &KnnQuery) -> Vec<TrajId>;

    /// Executes a batch of kNN queries.
    fn knn_batch(&self, queries: &[KnnQuery]) -> Vec<Vec<TrajId>>;

    /// Executes a similarity query (ids ascending).
    fn similarity(&self, q: &SimilarityQuery) -> Vec<TrajId>;

    /// Executes a batch of similarity queries, parallel across queries.
    fn similarity_batch(&self, queries: &[SimilarityQuery]) -> Vec<Vec<TrajId>>;

    /// True when the executor carries a persisted kept bitmap — i.e.
    /// [`QueryExecutor::range_kept`] serves a simplified database.
    fn has_kept_bitmap(&self) -> bool;

    /// Executes a range query against the executor's persisted simplified
    /// database (`None` when it carries none). The signature both engines
    /// now share — the reconciliation of the former
    /// `range_kept(&KeptBitmap, &Cube)` vs `range_kept(&Cube)` split.
    fn range_kept(&self, q: &Cube) -> Option<Vec<TrajId>>;

    /// Executes a range query against an in-memory [`Simplification`]
    /// (global trajectory ids) without materializing `D'`.
    fn range_simplified(&self, simp: &Simplification, q: &Cube) -> Vec<TrajId>;

    /// Batch variant of [`QueryExecutor::range_simplified`], parallel
    /// across queries (per-batch setup such as bitmap construction or
    /// per-shard splitting happens once).
    fn range_simplified_batch(&self, simp: &Simplification, queries: &[Cube]) -> Vec<Vec<TrajId>>;

    /// Builds a [`MaintainedWorkload`] over `queries`: ground truth from
    /// this executor, running result sets from `simp` (global ids).
    fn maintained_workload(&self, queries: Vec<Cube>, simp: &Simplification) -> MaintainedWorkload;

    /// This executor's contribution to a *distributed* kNN: its finite
    /// candidates sorted by `(distance, id)`, truncated to `q.k`,
    /// `-0.0`-normalized. Merging these lists across executors with
    /// [`merge_knn_candidates`](crate::merge_knn_candidates) and
    /// [`knn_take_fill`](crate::knn_take_fill) reproduces
    /// [`QueryExecutor::knn`] over the union byte-for-byte.
    fn knn_candidates(&self, q: &KnnQuery) -> Vec<(f64, TrajId)>;

    /// Smallest cube covering every served point, as the executor
    /// decodes them (for quantized snapshots: the decoded coordinates).
    /// A serving process reports this in its placement handshake so a
    /// distributed coordinator can route with
    /// [`query_touches_bounds`](crate::query_touches_bounds).
    fn bounding_cube(&self) -> Cube;

    /// Answers `q` as one *segment* of a larger database: raw merge
    /// material in this executor's own ids — no kNN infinite-fill — for
    /// [`merge`](crate::merge) to combine with other segments'. The
    /// one-query form, with the executor's full internal parallelism;
    /// frames of queries go through [`QueryExecutor::shard_batch`].
    fn shard_result(&self, q: &Query) -> ShardResult {
        match q {
            Query::Range(c) => ShardResult::Ids(self.range(c)),
            Query::Knn(k) => ShardResult::Candidates(self.knn_candidates(k)),
            Query::Similarity(s) => ShardResult::Ids(self.similarity(s)),
            Query::RangeKept(c) => ShardResult::Kept(self.range_kept(c)),
        }
    }

    /// Answers a whole frame of queries as one *segment* of a larger
    /// database — the material twin of
    /// [`QueryExecutor::execute_batch`], and what a shard server runs
    /// for a coordinator's frame: **one** data-parallel pass over the
    /// queries, each with sequential inner loops (`cores` threads, not
    /// a spawn-and-join per query), over one consistent view of the
    /// data. Element `i` equals [`QueryExecutor::shard_result`] of
    /// query `i`.
    fn shard_batch(&self, batch: &QueryBatch) -> Vec<ShardResult>;

    /// Executes one typed query **in the calling thread**, with
    /// sequential inner loops — the unit of work
    /// [`QueryExecutor::execute_batch`] parallelizes over. Identical
    /// results to [`QueryExecutor::execute`].
    fn execute_one(&self, q: &Query) -> QueryResult;

    /// Executes one typed query with the executor's full internal
    /// parallelism (candidate scoring, shard fan-out).
    fn execute(&self, q: &Query) -> QueryResult {
        match q {
            Query::Range(c) => QueryResult::Range(self.range(c)),
            Query::Knn(k) => QueryResult::Knn(self.knn(k)),
            Query::Similarity(s) => QueryResult::Similarity(self.similarity(s)),
            Query::RangeKept(c) => QueryResult::RangeKept(self.range_kept(c)),
        }
    }

    /// Executes a heterogeneous [`QueryBatch`] in one data-parallel pass:
    /// every query — whatever its kind — is a work item of a single
    /// [`par_map`], so mixed workloads get the same core saturation
    /// homogeneous `*_batch` calls already enjoy. Results come back in
    /// submission order.
    fn execute_batch(&self, batch: &QueryBatch) -> Vec<QueryResult> {
        par_map(batch.queries(), |q| self.execute_one(q))
    }
}

impl QueryExecutor for QueryEngine<'_> {
    fn len(&self) -> usize {
        self.store().len()
    }

    fn total_points(&self) -> usize {
        self.store().total_points()
    }

    fn trajectory(&self, id: TrajId) -> trajectory::Trajectory {
        QueryEngine::trajectory(self, id)
    }

    fn range(&self, q: &Cube) -> Vec<TrajId> {
        QueryEngine::range(self, q)
    }

    fn range_batch(&self, queries: &[Cube]) -> Vec<Vec<TrajId>> {
        QueryEngine::range_batch(self, queries)
    }

    fn knn(&self, q: &KnnQuery) -> Vec<TrajId> {
        QueryEngine::knn(self, q)
    }

    fn knn_batch(&self, queries: &[KnnQuery]) -> Vec<Vec<TrajId>> {
        QueryEngine::knn_batch(self, queries)
    }

    fn similarity(&self, q: &SimilarityQuery) -> Vec<TrajId> {
        QueryEngine::similarity(self, q)
    }

    fn similarity_batch(&self, queries: &[SimilarityQuery]) -> Vec<Vec<TrajId>> {
        QueryEngine::similarity_batch(self, queries)
    }

    fn has_kept_bitmap(&self) -> bool {
        QueryEngine::has_kept_bitmap(self)
    }

    fn range_kept(&self, q: &Cube) -> Option<Vec<TrajId>> {
        QueryEngine::range_kept(self, q)
    }

    fn range_simplified(&self, simp: &Simplification, q: &Cube) -> Vec<TrajId> {
        QueryEngine::range_simplified(self, simp, q)
    }

    fn range_simplified_batch(&self, simp: &Simplification, queries: &[Cube]) -> Vec<Vec<TrajId>> {
        QueryEngine::range_simplified_batch(self, simp, queries)
    }

    fn maintained_workload(&self, queries: Vec<Cube>, simp: &Simplification) -> MaintainedWorkload {
        QueryEngine::maintained_workload(self, queries, simp)
    }

    fn knn_candidates(&self, q: &KnnQuery) -> Vec<(f64, TrajId)> {
        QueryEngine::knn_candidates(self, q)
    }

    fn bounding_cube(&self) -> Cube {
        self.store().bounding_cube()
    }

    fn execute_one(&self, q: &Query) -> QueryResult {
        match q {
            Query::Range(c) => QueryResult::Range(self.range(c)),
            Query::Knn(k) => QueryResult::Knn(self.knn_seq(k)),
            Query::Similarity(s) => QueryResult::Similarity(self.similarity_seq(s)),
            Query::RangeKept(c) => QueryResult::RangeKept(QueryEngine::range_kept(self, c)),
        }
    }

    /// One data-parallel pass with **per-worker scratch reuse**: the
    /// hit-flag buffer range-style queries need is allocated once per
    /// worker thread and recycled across every query that worker pulls,
    /// instead of once per query (identical results to the default).
    fn execute_batch(&self, batch: &QueryBatch) -> Vec<QueryResult> {
        par_map_with(batch.queries(), QueryScratch::new, |scratch, q| match q {
            Query::Range(c) => QueryResult::Range(self.range_scratch(c, scratch)),
            Query::Knn(k) => QueryResult::Knn(self.knn_seq(k)),
            Query::Similarity(s) => QueryResult::Similarity(self.similarity_seq(s)),
            Query::RangeKept(c) => QueryResult::RangeKept(self.range_kept_scratch(c, scratch)),
        })
    }

    /// The same pass as [`QueryExecutor::execute_batch`] — per-worker
    /// scratch, sequential inner loops — producing merge material.
    fn shard_batch(&self, batch: &QueryBatch) -> Vec<ShardResult> {
        par_map_with(batch.queries(), QueryScratch::new, |scratch, q| {
            self.material_scratch(q, false, scratch)
        })
    }
}

// ---------------------------------------------------------------------
// Open options.
// ---------------------------------------------------------------------

/// How [`TrajDb::open`] materializes the columns of a snapshot source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OpenMode {
    /// Snapshot sources are mmap-ed (zero-copy serving); CSV sources —
    /// which have no zero-copy representation — parse into owned columns.
    #[default]
    Auto,
    /// Force heap-owned columns for every source.
    Owned,
    /// Equivalent to [`OpenMode::Auto`]: mmap whenever the format allows.
    Mapped,
}

/// Builder-style options for [`TrajDb::open`] and the in-memory
/// constructors: the index configuration (subsuming [`EngineConfig`]),
/// the open mode, and an optional partitioning choice.
///
/// ```
/// use traj_query::{BackendKind, DbOptions};
/// use trajectory::PartitionStrategy;
///
/// let opts = DbOptions::new()
///     .backend(BackendKind::Octree)
///     .tree_shape(10, 32)
///     .partition(PartitionStrategy::Hash { parts: 4 })
///     .owned();
/// assert_eq!(opts.engine_config().max_depth, 10);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct DbOptions {
    engine: EngineConfig,
    mode: OpenMode,
    partition: Option<PartitionStrategy>,
}

impl DbOptions {
    /// Default options: octree backend, [`OpenMode::Auto`], no
    /// re-partitioning.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the whole engine configuration.
    #[must_use]
    pub fn engine(mut self, config: EngineConfig) -> Self {
        self.engine = config;
        self
    }

    /// Overrides the index backend.
    #[must_use]
    pub fn backend(mut self, backend: BackendKind) -> Self {
        self.engine = self.engine.with_backend(backend);
        self
    }

    /// Overrides the index tree shape.
    #[must_use]
    pub fn tree_shape(mut self, max_depth: u32, leaf_capacity: usize) -> Self {
        self.engine = self.engine.with_tree_shape(max_depth, leaf_capacity);
        self
    }

    /// Re-partitions a *single-store* source (CSV or snapshot) with
    /// `strategy` and serves it through a fan-out [`ShardedQueryEngine`].
    /// Ignored for shard-set directories, whose on-disk partition is
    /// authoritative.
    #[must_use]
    pub fn partition(mut self, strategy: PartitionStrategy) -> Self {
        self.partition = Some(strategy);
        self
    }

    /// Forces heap-owned columns ([`OpenMode::Owned`]).
    #[must_use]
    pub fn owned(mut self) -> Self {
        self.mode = OpenMode::Owned;
        self
    }

    /// Requests mmap-backed columns where the format allows
    /// ([`OpenMode::Mapped`]).
    #[must_use]
    pub fn mapped(mut self) -> Self {
        self.mode = OpenMode::Mapped;
        self
    }

    /// The engine configuration these options resolve to.
    #[must_use]
    pub fn engine_config(&self) -> EngineConfig {
        self.engine
    }

    /// The open mode.
    #[must_use]
    pub fn open_mode(&self) -> OpenMode {
        self.mode
    }

    /// The re-partitioning choice, if any.
    #[must_use]
    pub fn partition_strategy(&self) -> Option<PartitionStrategy> {
        self.partition
    }
}

/// What [`TrajDb::open`] can fail with: one typed wrapper per source
/// format, plus raw I/O from the format sniff.
#[derive(Debug)]
pub enum TrajDbError {
    /// Reading the path (existence check, format sniff) failed.
    Io(std::io::Error),
    /// The path looked like a snapshot but failed validation.
    Snapshot(SnapshotError),
    /// The path was a directory but not a valid shard set.
    Shards(ShardSetError),
    /// The path was parsed as CSV and a line was malformed.
    Csv(ReadError),
}

impl fmt::Display for TrajDbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrajDbError::Io(e) => write!(f, "i/o error: {e}"),
            TrajDbError::Snapshot(e) => write!(f, "snapshot error: {e}"),
            TrajDbError::Shards(e) => write!(f, "shard-set error: {e}"),
            TrajDbError::Csv(e) => write!(f, "csv error: {e}"),
        }
    }
}

impl std::error::Error for TrajDbError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TrajDbError::Io(e) => Some(e),
            TrajDbError::Snapshot(e) => Some(e),
            TrajDbError::Shards(e) => Some(e),
            TrajDbError::Csv(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for TrajDbError {
    fn from(e: std::io::Error) -> Self {
        TrajDbError::Io(e)
    }
}

impl From<SnapshotError> for TrajDbError {
    fn from(e: SnapshotError) -> Self {
        TrajDbError::Snapshot(e)
    }
}

impl From<ShardSetError> for TrajDbError {
    fn from(e: ShardSetError) -> Self {
        TrajDbError::Shards(e)
    }
}

impl From<ReadError> for TrajDbError {
    fn from(e: ReadError) -> Self {
        TrajDbError::Csv(e)
    }
}

// ---------------------------------------------------------------------
// The façade.
// ---------------------------------------------------------------------

/// The layout the opened database resolved to.
enum Inner {
    Single(Box<QueryEngine<'static>>),
    Sharded(ShardedQueryEngine<'static>),
}

/// The public trajectory-database façade: open any supported on-disk
/// format (or adopt an in-memory store), get back one object serving the
/// whole [`QueryExecutor`] surface.
///
/// [`TrajDb::open`] auto-detects the format:
///
/// | on disk | detection | served by |
/// |---|---|---|
/// | shard-set directory | `path.is_dir()` | [`ShardedQueryEngine`] (per-shard kept bitmaps retained) |
/// | snapshot file | leading [`trajectory::snapshot::MAGIC`] | [`QueryEngine`] over mmap (or owned), kept bitmap retained |
/// | CSV file | fallback | [`QueryEngine`] over parsed owned columns |
///
/// A [`DbOptions::partition`] choice turns a single-store source into an
/// in-memory sharded engine (splitting a snapshot's kept bitmap across
/// the shards); shard-set directories keep their persisted partition.
pub struct TrajDb {
    inner: Inner,
}

impl TrajDb {
    /// Opens a trajectory database at `path`, auto-detecting CSV,
    /// snapshot, or shard-set directory (see the type docs for the
    /// detection table).
    pub fn open(path: impl AsRef<Path>, opts: DbOptions) -> Result<TrajDb, TrajDbError> {
        let path = path.as_ref();
        if path.is_dir() {
            let set = ShardSet::load(path)?;
            let engine = match opts.mode {
                OpenMode::Auto | OpenMode::Mapped => {
                    ShardedQueryEngine::from_mapped_shards(set.open_mapped()?, opts.engine)
                }
                OpenMode::Owned => {
                    ShardedQueryEngine::from_open_shards(set.open_owned()?, opts.engine)
                }
            };
            return Ok(TrajDb {
                inner: Inner::Sharded(engine),
            });
        }
        if is_snapshot_file(path)? {
            return match (opts.mode, opts.partition) {
                (OpenMode::Auto | OpenMode::Mapped, None) => {
                    let mapped = MappedStore::open(path)?;
                    Ok(TrajDb {
                        inner: Inner::Single(Box::new(QueryEngine::from_mapped(
                            mapped,
                            opts.engine,
                        ))),
                    })
                }
                // Partitioning rearranges the columns, so the mapping
                // cannot be served in place: decode into owned shards.
                _ => {
                    let snap = read_snapshot(path)?;
                    Ok(Self::from_store_with_kept(snap.store, snap.kept, opts))
                }
            };
        }
        let store = trajectory::io::read_csv_store(std::fs::File::open(path)?)?;
        Ok(Self::from_store(store, opts))
    }

    /// Adopts an in-memory columnar store (honouring
    /// [`DbOptions::partition`]; the open mode is irrelevant in memory).
    #[must_use]
    pub fn from_store(store: PointStore, opts: DbOptions) -> TrajDb {
        Self::from_store_with_kept(store, None, opts)
    }

    /// Row-form forward of [`TrajDb::from_store`] for callers that hold a
    /// [`TrajectoryDb`] builder.
    #[must_use]
    pub fn from_db(db: &TrajectoryDb, opts: DbOptions) -> TrajDb {
        Self::from_store(db.to_store(), opts)
    }

    /// The shared in-memory constructor core: partitions when requested,
    /// carrying an optional kept bitmap through (split per shard when
    /// partitioning).
    fn from_store_with_kept(
        store: PointStore,
        kept: Option<KeptBitmap>,
        opts: DbOptions,
    ) -> TrajDb {
        match opts.partition {
            None => {
                let mut engine = QueryEngine::from_store(store, opts.engine);
                engine.set_kept_bitmap(kept);
                TrajDb {
                    inner: Inner::Single(Box::new(engine)),
                }
            }
            Some(strategy) => {
                let shards = partition(&store, &strategy);
                let kept_per_shard = match kept {
                    Some(bitmap) => split_kept_bitmap(&bitmap, store.offsets(), &shards)
                        .into_iter()
                        .map(Some)
                        .collect(),
                    None => vec![None; shards.len()],
                };
                let open: Vec<OpenShard<PointStore>> = shards
                    .into_iter()
                    .zip(kept_per_shard)
                    .map(|(sh, kept)| OpenShard {
                        store: sh.store,
                        global_ids: sh.global_ids,
                        kept,
                    })
                    .collect();
                TrajDb {
                    inner: Inner::Sharded(ShardedQueryEngine::from_open_shards(open, opts.engine)),
                }
            }
        }
    }

    /// True when the database is served by a fan-out sharded engine.
    #[must_use]
    pub fn is_sharded(&self) -> bool {
        matches!(self.inner, Inner::Sharded(_))
    }

    /// Number of shards (1 for a single-store database).
    #[must_use]
    pub fn shard_count(&self) -> usize {
        match &self.inner {
            Inner::Single(_) => 1,
            Inner::Sharded(e) => e.shard_count(),
        }
    }

    /// The engine configuration in use.
    #[must_use]
    pub fn config(&self) -> EngineConfig {
        match &self.inner {
            Inner::Single(e) => e.config(),
            Inner::Sharded(e) => e.config(),
        }
    }

    /// The single-store engine behind the façade, when the database is
    /// unsharded — the escape hatch for layout-specific features
    /// ([`QueryEngine::cube_index`], `assign_queries`).
    #[must_use]
    pub fn as_single(&self) -> Option<&QueryEngine<'static>> {
        match &self.inner {
            Inner::Single(e) => Some(e.as_ref()),
            Inner::Sharded(_) => None,
        }
    }

    /// The sharded engine behind the façade, when the database is
    /// sharded.
    #[must_use]
    pub fn as_sharded(&self) -> Option<&ShardedQueryEngine<'static>> {
        match &self.inner {
            Inner::Single(_) => None,
            Inner::Sharded(e) => Some(e),
        }
    }

    /// Generates a range-query workload over the served database with
    /// `spec` — data-centered anchors come from the actual columns, and a
    /// sharded database contributes anchors per shard proportional to its
    /// share of the points (so the workload's spatial distribution
    /// matches the data regardless of layout).
    #[must_use]
    pub fn range_workload(&self, spec: &RangeWorkloadSpec, rng: &mut StdRng) -> Vec<Cube> {
        match &self.inner {
            Inner::Single(e) => range_workload_store(e.store(), spec, rng),
            Inner::Sharded(e) => {
                let total: usize = e.total_points();
                let shares: Vec<&trajectory::StoreRef<'static>> = e.shard_stores().collect();
                let mut queries = Vec::with_capacity(spec.count);
                for (i, store) in shares.iter().enumerate() {
                    let share = if total == 0 {
                        0
                    } else if i + 1 == shares.len() {
                        spec.count - queries.len()
                    } else {
                        spec.count * store.total_points() / total
                    };
                    let shard_spec = RangeWorkloadSpec {
                        count: share,
                        ..*spec
                    };
                    queries.extend(range_workload_store(*store, &shard_spec, rng));
                }
                queries
            }
        }
    }
}

impl fmt::Debug for TrajDb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TrajDb")
            .field("sharded", &self.is_sharded())
            .field("shards", &self.shard_count())
            .field("trajectories", &QueryExecutor::len(self))
            .field("points", &QueryExecutor::total_points(self))
            .finish_non_exhaustive()
    }
}

impl QueryExecutor for TrajDb {
    fn len(&self) -> usize {
        match &self.inner {
            Inner::Single(e) => QueryExecutor::len(e.as_ref()),
            Inner::Sharded(e) => QueryExecutor::len(e),
        }
    }

    fn total_points(&self) -> usize {
        match &self.inner {
            Inner::Single(e) => QueryExecutor::total_points(e.as_ref()),
            Inner::Sharded(e) => QueryExecutor::total_points(e),
        }
    }

    fn trajectory(&self, id: TrajId) -> trajectory::Trajectory {
        match &self.inner {
            Inner::Single(e) => e.trajectory(id),
            Inner::Sharded(e) => e.trajectory(id),
        }
    }

    fn range(&self, q: &Cube) -> Vec<TrajId> {
        match &self.inner {
            Inner::Single(e) => e.range(q),
            Inner::Sharded(e) => e.range(q),
        }
    }

    fn range_batch(&self, queries: &[Cube]) -> Vec<Vec<TrajId>> {
        match &self.inner {
            Inner::Single(e) => e.range_batch(queries),
            Inner::Sharded(e) => e.range_batch(queries),
        }
    }

    fn knn(&self, q: &KnnQuery) -> Vec<TrajId> {
        match &self.inner {
            Inner::Single(e) => e.knn(q),
            Inner::Sharded(e) => e.knn(q),
        }
    }

    fn knn_batch(&self, queries: &[KnnQuery]) -> Vec<Vec<TrajId>> {
        match &self.inner {
            Inner::Single(e) => e.knn_batch(queries),
            Inner::Sharded(e) => e.knn_batch(queries),
        }
    }

    fn similarity(&self, q: &SimilarityQuery) -> Vec<TrajId> {
        match &self.inner {
            Inner::Single(e) => e.similarity(q),
            Inner::Sharded(e) => e.similarity(q),
        }
    }

    fn similarity_batch(&self, queries: &[SimilarityQuery]) -> Vec<Vec<TrajId>> {
        match &self.inner {
            Inner::Single(e) => e.similarity_batch(queries),
            Inner::Sharded(e) => e.similarity_batch(queries),
        }
    }

    fn has_kept_bitmap(&self) -> bool {
        match &self.inner {
            Inner::Single(e) => e.has_kept_bitmap(),
            Inner::Sharded(e) => e.has_kept_bitmap(),
        }
    }

    fn range_kept(&self, q: &Cube) -> Option<Vec<TrajId>> {
        match &self.inner {
            Inner::Single(e) => e.range_kept(q),
            Inner::Sharded(e) => e.range_kept(q),
        }
    }

    fn range_simplified(&self, simp: &Simplification, q: &Cube) -> Vec<TrajId> {
        match &self.inner {
            Inner::Single(e) => QueryExecutor::range_simplified(e.as_ref(), simp, q),
            Inner::Sharded(e) => QueryExecutor::range_simplified(e, simp, q),
        }
    }

    fn range_simplified_batch(&self, simp: &Simplification, queries: &[Cube]) -> Vec<Vec<TrajId>> {
        match &self.inner {
            Inner::Single(e) => QueryExecutor::range_simplified_batch(e.as_ref(), simp, queries),
            Inner::Sharded(e) => QueryExecutor::range_simplified_batch(e, simp, queries),
        }
    }

    fn maintained_workload(&self, queries: Vec<Cube>, simp: &Simplification) -> MaintainedWorkload {
        match &self.inner {
            Inner::Single(e) => e.maintained_workload(queries, simp),
            Inner::Sharded(e) => e.maintained_workload(queries, simp),
        }
    }

    fn knn_candidates(&self, q: &KnnQuery) -> Vec<(f64, TrajId)> {
        match &self.inner {
            Inner::Single(e) => e.knn_candidates(q),
            Inner::Sharded(e) => e.knn_candidates(q),
        }
    }

    fn bounding_cube(&self) -> Cube {
        match &self.inner {
            Inner::Single(e) => e.store().bounding_cube(),
            Inner::Sharded(e) => e.bounding_cube(),
        }
    }

    fn execute_one(&self, q: &Query) -> QueryResult {
        match &self.inner {
            Inner::Single(e) => e.execute_one(q),
            Inner::Sharded(e) => e.execute_one(q),
        }
    }

    fn execute_batch(&self, batch: &QueryBatch) -> Vec<QueryResult> {
        match &self.inner {
            Inner::Single(e) => e.as_ref().execute_batch(batch),
            Inner::Sharded(e) => e.execute_batch(batch),
        }
    }

    fn shard_batch(&self, batch: &QueryBatch) -> Vec<ShardResult> {
        match &self.inner {
            Inner::Single(e) => e.shard_batch(batch),
            Inner::Sharded(e) => e.shard_batch(batch),
        }
    }
}

/// Splits a whole-database kept bitmap (indexed by the original store's
/// global point ids) into per-shard bitmaps (indexed by each shard's own
/// point numbering). `orig_offsets` is the original store's offset table;
/// shards reference it through their `global_ids`.
fn split_kept_bitmap(
    bitmap: &KeptBitmap,
    orig_offsets: &[u32],
    shards: &[Shard],
) -> Vec<KeptBitmap> {
    shards
        .iter()
        .map(|sh| {
            let mut local = KeptBitmap::zeros(sh.store.total_points());
            let shard_offsets = sh.store.offsets();
            for (local_id, &global_id) in sh.global_ids.iter().enumerate() {
                let src = orig_offsets[global_id];
                let dst = shard_offsets[local_id];
                let len = orig_offsets[global_id + 1] - src;
                for i in 0..len {
                    if bitmap.contains(src + i) {
                        local.insert(dst + i);
                    }
                }
            }
            local
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::Dissimilarity;
    use crate::workload::QueryDistribution;
    use rand::SeedableRng;
    use trajectory::gen::{generate, DatasetSpec, Scale};

    fn sample_store() -> PointStore {
        generate(&DatasetSpec::geolife(Scale::Smoke), 4242).to_store()
    }

    fn mixed_batch(store: &PointStore, n_range: usize) -> QueryBatch {
        let spec = RangeWorkloadSpec {
            count: n_range,
            spatial_extent: 2_000.0,
            temporal_extent: 86_400.0,
            dist: QueryDistribution::Data,
        };
        let mut rng = StdRng::seed_from_u64(7);
        let cubes = range_workload_store(store, &spec, &mut rng);
        let (t0, t1) = store.time_span();
        let mut batch = QueryBatch::new();
        for (i, c) in cubes.into_iter().enumerate() {
            if i % 2 == 0 {
                batch.push_range(c);
            } else {
                batch.push_range_kept(c);
            }
        }
        batch.push_knn(KnnQuery {
            query: store.view(0).to_trajectory(),
            ts: t0,
            te: t1,
            k: 3,
            measure: Dissimilarity::Edr { eps: 1_000.0 },
        });
        batch.push_similarity(SimilarityQuery {
            query: store.view(1).to_trajectory(),
            ts: t0,
            te: t1,
            delta: 2_500.0,
            step: 300.0,
        });
        batch
    }

    #[test]
    fn batch_matches_one_shot_execution_on_both_executors() {
        let store = sample_store();
        let batch = mixed_batch(&store, 10);
        let single = TrajDb::from_store(store.clone(), DbOptions::new());
        let sharded = TrajDb::from_store(
            store,
            DbOptions::new().partition(PartitionStrategy::Hash { parts: 3 }),
        );
        assert!(!single.is_sharded());
        assert!(sharded.is_sharded());
        for db in [&single, &sharded] {
            let results = db.execute_batch(&batch);
            assert_eq!(results.len(), batch.len());
            for (q, r) in batch.queries().iter().zip(&results) {
                assert_eq!(r.kind(), q.kind());
                assert_eq!(*r, db.execute(q), "{:?}", q.kind());
            }
        }
        // And the two layouts agree with each other.
        assert_eq!(single.execute_batch(&batch), sharded.execute_batch(&batch));
    }

    #[test]
    fn kind_counts_reflect_the_plan() {
        let store = sample_store();
        let batch = mixed_batch(&store, 10);
        let counts = batch.kind_counts();
        assert_eq!(counts[QueryKind::Range as usize], 5);
        assert_eq!(counts[QueryKind::RangeKept as usize], 5);
        assert_eq!(counts[QueryKind::Knn as usize], 1);
        assert_eq!(counts[QueryKind::Similarity as usize], 1);
        assert_eq!(batch.len(), 12);
    }

    #[test]
    fn range_kept_is_none_without_a_bitmap_on_every_layout() {
        let store = sample_store();
        let q = Cube::new(0.0, 1.0, 0.0, 1.0, 0.0, 1.0);
        for opts in [
            DbOptions::new(),
            DbOptions::new().partition(PartitionStrategy::Time { parts: 2 }),
        ] {
            let db = TrajDb::from_store(store.clone(), opts);
            assert!(!db.has_kept_bitmap());
            assert!(db.range_kept(&q).is_none());
            assert_eq!(
                db.execute(&Query::RangeKept(q)),
                QueryResult::RangeKept(None)
            );
        }
    }

    #[test]
    fn executors_work_as_trait_objects() {
        let store = sample_store();
        let engine = QueryEngine::over_store(&store, EngineConfig::octree());
        let dyn_exec: &dyn QueryExecutor = &engine;
        let q = store.bounding_cube();
        assert_eq!(dyn_exec.range(&q), engine.range(&q));
        assert_eq!(dyn_exec.len(), store.len());
    }

    #[test]
    fn workload_generation_covers_both_layouts() {
        let store = sample_store();
        let spec = RangeWorkloadSpec {
            count: 12,
            spatial_extent: 1_000.0,
            temporal_extent: 86_400.0,
            dist: QueryDistribution::Data,
        };
        let single = TrajDb::from_store(store.clone(), DbOptions::new());
        let sharded = TrajDb::from_store(
            store,
            DbOptions::new().partition(PartitionStrategy::Hash { parts: 4 }),
        );
        for db in [&single, &sharded] {
            let w = db.range_workload(&spec, &mut StdRng::seed_from_u64(3));
            assert_eq!(w.len(), 12);
            // Data-centered queries must actually hit data.
            assert!(w.iter().all(|q| !db.range(q).is_empty()));
        }
    }
}
