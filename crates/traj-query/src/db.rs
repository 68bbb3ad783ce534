//! The public database façade: one typed query surface over every
//! physical layout.
//!
//! Everything below this module — one segment or many, heap-owned vs.
//! mmap-backed columns, CSV vs. snapshot vs. shard-set files — is an
//! *execution detail*. The paper's contract (§III-B) is a database `D`
//! answering a workload of range / kNN / similarity queries, and a
//! simplified database `D'` answering the same workload almost as well.
//! This module states that contract once:
//!
//! - [`QueryExecutor`] is the full query surface (one-shot, batch,
//!   simplified-database variants, and workload maintenance). It has
//!   **one implementation**: the blanket impl in
//!   [`segment`](crate::segment) over anything that can hand out its
//!   database as an ordered list of [`Segment`]s. A [`QueryEngine`]
//!   supplies the one-segment list, [`TrajDb`] the list of segments it
//!   stores (one per snapshot, one per shard), a
//!   [`GenerationalDb`](crate::GenerationalDb)
//!   `[base, sealed deltas…, active delta]`.
//! - [`Query`] / [`QueryResult`] are the typed request/response pair, and
//!   a [`QueryBatch`] is a *heterogeneous* plan: a mixed
//!   range+kNN+similarity workload (the shape of the paper's Eq. 10
//!   evaluation) executes in **one** data-parallel pass instead of three
//!   serial per-kind batches — each worker runs its query with sequential
//!   inner loops, so the pass uses `cores` threads, not `cores²`.
//! - [`TrajDb`] is the façade over storage: [`TrajDb::open`] auto-detects
//!   the three on-disk formats (CSV file, snapshot file, shard-set
//!   directory), maps snapshot columns in place, builds every segment's
//!   index once and in parallel with the [`DbOptions`] (index backend and
//!   tree shape), and serves the whole [`QueryExecutor`] surface —
//!   including `D'` through a persisted kept bitmap.
//!
//! A [`Query`] is plain data, no lifetimes, so the plan that fans out
//! across local segments crosses the wire to a shard process unchanged
//! (`traj-serve`).
//!
//! Every executor is checked against the linear-scan operators in
//! `tests/segment_props.rs` and `tests/db_props.rs` (all three index
//! backends, owned as well as mmap-backed stores), and against answers
//! recorded before the implementations were merged in the workspace's
//! `tests/executor_fixtures.rs`.

use std::fmt;
use std::path::Path;

use rand::rngs::StdRng;
use trajectory::io::ReadError;
use trajectory::shard::{OpenShard, ShardSet, ShardSetError};
use trajectory::snapshot::{is_snapshot_file, MappedStore, SnapshotError};
use trajectory::{AsColumns, Cube, PointStore, Simplification, StoreRef, TrajId, TrajectoryDb};

use crate::engine::{EngineConfig, MaintainedWorkload, QueryEngine};
use crate::knn::KnnQuery;
use crate::segment::{Ids, Part, Segment, Segmented, ShardResult, StoredSegment};
use crate::similarity::SimilarityQuery;
use crate::workload::{range_workload_store, RangeWorkloadSpec};

// ---------------------------------------------------------------------
// Typed queries.
// ---------------------------------------------------------------------

/// One typed query against a trajectory database: the request half of the
/// public API. Plain data (no lifetimes, no store references), so a query
/// built once can be executed against any [`QueryExecutor`] — or shipped
/// across the wire to a remote shard.
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
/// returns trajectory ids ascending; [`QueryResult::RangeKept`] is `None`
/// when the executor serves no simplified database.
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
/// erases the kind boundary: all 140 queries enter one pass whose
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

/// The full query surface of a trajectory database.
///
/// There is one implementation — the blanket impl over
/// [`Segmented`] in [`segment`](crate::segment) — and
/// every database gets it by supplying its segment list: [`QueryEngine`],
/// [`TrajDb`] and [`GenerationalDb`](crate::GenerationalDb). Code written
/// against this trait — the evaluation tasks, the serving pipeline,
/// benchmarks — runs unchanged over every physical layout, and every
/// layout answers byte-identically to the linear-scan operators over the
/// same trajectories. `Sync` is a supertrait so batch execution can
/// share `&self` across worker threads.
pub trait QueryExecutor: Sync {
    /// Number of trajectories served.
    fn len(&self) -> usize;

    /// True when the executor serves no trajectories.
    fn is_empty(&self) -> bool;

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

    /// Executes a batch of kNN queries, parallel across queries.
    fn knn_batch(&self, queries: &[KnnQuery]) -> Vec<Vec<TrajId>>;

    /// Executes a similarity query (ids ascending).
    fn similarity(&self, q: &SimilarityQuery) -> Vec<TrajId>;

    /// Executes a batch of similarity queries, parallel across queries.
    fn similarity_batch(&self, queries: &[SimilarityQuery]) -> Vec<Vec<TrajId>>;

    /// True when the executor carries a persisted kept bitmap — i.e.
    /// [`QueryExecutor::range_kept`] serves a simplified database.
    fn has_kept_bitmap(&self) -> bool;

    /// Executes a range query against the executor's persisted simplified
    /// database (`None` when it carries none).
    fn range_kept(&self, q: &Cube) -> Option<Vec<TrajId>>;

    /// Executes a range query against an in-memory [`Simplification`]
    /// (global trajectory ids) without materializing `D'`.
    fn range_simplified(&self, simp: &Simplification, q: &Cube) -> Vec<TrajId>;

    /// Batch variant of [`QueryExecutor::range_simplified`], parallel
    /// across queries.
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
    fn shard_result(&self, q: &Query) -> ShardResult;

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
    /// parallelism (candidate scoring, segments side by side).
    fn execute(&self, q: &Query) -> QueryResult;

    /// Executes a heterogeneous [`QueryBatch`] in one data-parallel pass:
    /// every query — whatever its kind — is a work item of a single
    /// work-stealing loop, each worker reusing one scratch buffer across
    /// the queries it pulls, so mixed workloads get the same core
    /// saturation homogeneous `*_batch` calls enjoy. Results come back in
    /// submission order.
    fn execute_batch(&self, batch: &QueryBatch) -> Vec<QueryResult>;
}

// ---------------------------------------------------------------------
// Open options.
// ---------------------------------------------------------------------

/// The options of [`TrajDb::open`] and the in-memory constructors: the
/// index configuration every segment is built with. Snapshot and
/// shard-set sources are always served mapped; CSV sources parse into
/// owned columns.
///
/// ```
/// use traj_query::{BackendKind, DbOptions};
///
/// let opts = DbOptions::new().backend(BackendKind::MedianKd).tree_shape(10, 32);
/// assert_eq!((opts.backend, opts.max_depth), (BackendKind::MedianKd, 10));
/// ```
pub type DbOptions = EngineConfig;

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

/// The public trajectory-database façade: open any supported on-disk
/// format (or adopt an in-memory store), get back one object serving the
/// whole [`QueryExecutor`] surface.
///
/// A `TrajDb` is an ordered list of segments, each built once: an engine
/// over its columns (the configured backend, and the kept bitmap with an
/// index over its kept points when one was persisted), its place in the
/// global id space and its bounding cube.
/// [`TrajDb::open`] auto-detects the format:
///
/// | on disk | detection | segments |
/// |---|---|---|
/// | shard-set directory | `path.is_dir()` | one per shard, kept bitmaps retained |
/// | snapshot file | leading [`trajectory::snapshot::MAGIC`] | one, over mmap, kept bitmap retained |
/// | CSV file | fallback | one, over parsed owned columns |
///
/// An in-memory sharded database is [`trajectory::partition`] followed
/// by [`TrajDb::from_shards`]. Every segment's index, and every kept
/// bitmap's, is built in parallel with the others.
pub struct TrajDb {
    segments: Vec<StoredSegment>,
}

impl TrajDb {
    /// Opens a trajectory database at `path`, auto-detecting CSV,
    /// snapshot, or shard-set directory (see the type docs for the
    /// detection table).
    pub fn open(path: impl AsRef<Path>, opts: DbOptions) -> Result<TrajDb, TrajDbError> {
        let path = path.as_ref();
        if path.is_dir() {
            let set = ShardSet::load(path)?;
            return Ok(Self::from_shards(set.open_mapped()?, opts));
        }
        if is_snapshot_file(path)? {
            return Ok(Self::build(vec![snapshot_part(path)?], opts));
        }
        let store = trajectory::io::read_csv_store(std::fs::File::open(path)?)?;
        Ok(Self::from_store(store, opts))
    }

    /// Adopts an in-memory columnar store as one segment.
    #[must_use]
    pub fn from_store(store: PointStore, opts: DbOptions) -> TrajDb {
        Self::build(vec![(store.into(), Ids::From(0), None)], opts)
    }

    /// Row-form forward of [`TrajDb::from_store`] for callers that hold a
    /// [`TrajectoryDb`] builder.
    #[must_use]
    pub fn from_db(db: &TrajectoryDb, opts: DbOptions) -> TrajDb {
        Self::from_store(db.to_store(), opts)
    }

    /// Serves already-partitioned shards, owned ([`PointStore`]) or
    /// mmap-backed ([`MappedStore`]), one segment each, as
    /// [`TrajDb::open`] serves a shard-set directory. Their global ids
    /// must partition `0..total`; their kept bitmaps are retained.
    #[must_use]
    pub fn from_shards<S: Into<StoreRef<'static>>>(
        shards: Vec<OpenShard<S>>,
        opts: DbOptions,
    ) -> TrajDb {
        debug_assert!(
            {
                let mut ids: Vec<TrajId> =
                    shards.iter().flat_map(|sh| sh.global_ids.clone()).collect();
                ids.sort_unstable();
                ids.iter().copied().eq(0..ids.len())
            },
            "shard global ids must partition 0..total"
        );
        let parts = shards
            .into_iter()
            .map(|sh| (sh.store.into(), Ids::Table(sh.global_ids), sh.kept))
            .collect();
        Self::build(parts, opts)
    }

    /// Every constructor ends here: the segments' indexes are built in
    /// parallel, once.
    fn build(parts: Vec<Part>, config: EngineConfig) -> TrajDb {
        TrajDb {
            segments: StoredSegment::build_all(parts, config),
        }
    }

    /// True when the database is served as shards: anything but one
    /// unpartitioned store.
    #[must_use]
    pub fn is_sharded(&self) -> bool {
        self.as_single().is_none()
    }

    /// Number of segments: the shards, or 1 for a single store.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.segments.len()
    }

    /// The engine of an unsharded database — the escape hatch for
    /// layout-specific features ([`QueryEngine::cube_index`],
    /// `assign_queries`).
    #[must_use]
    pub fn as_single(&self) -> Option<&QueryEngine<'static>> {
        match self.segments.as_slice() {
            [only] if matches!(only.ids, Ids::From(_)) => Some(&only.engine),
            _ => None,
        }
    }

    /// Generates a range-query workload over the served database with
    /// `spec` — data-centered anchors come from the actual columns, each
    /// segment contributing anchors in proportion to its share of the
    /// points (so the workload's spatial distribution matches the data
    /// regardless of layout).
    #[must_use]
    pub fn range_workload(&self, spec: &RangeWorkloadSpec, rng: &mut StdRng) -> Vec<Cube> {
        let total = self.total_points();
        let mut queries = Vec::with_capacity(spec.count);
        for (i, seg) in self.segments.iter().enumerate() {
            let store = seg.engine.store();
            let count = if total == 0 {
                0
            } else if i + 1 == self.segments.len() {
                spec.count - queries.len()
            } else {
                spec.count * store.total_points() / total
            };
            let share = RangeWorkloadSpec { count, ..*spec };
            queries.extend(range_workload_store(store, &share, rng));
        }
        queries
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

/// The stored segments, in order; the whole [`QueryExecutor`] surface
/// follows from the shared fan-out. Segments whose bounds cannot
/// contribute are pruned without touching their index.
impl Segmented for TrajDb {
    fn with_segments<R>(&self, f: impl FnOnce(&[Segment<'_>]) -> R) -> R {
        let segments: Vec<Segment<'_>> = self.segments.iter().map(StoredSegment::segment).collect();
        f(&segments)
    }
}

/// A mapped snapshot file as the one part of a database from id 0; a
/// persisted kept bitmap comes along.
pub(crate) fn snapshot_part(path: &Path) -> Result<Part, SnapshotError> {
    let mapped = MappedStore::open(path)?;
    let kept = mapped.kept_bitmap();
    Ok((mapped.into(), Ids::From(0), kept))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::Dissimilarity;
    use crate::workload::QueryDistribution;
    use rand::SeedableRng;
    use trajectory::gen::{generate, DatasetSpec, Scale};
    use trajectory::{partition, PartitionStrategy};

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
        let sharded = sharded(&store, 3);
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
        for db in [
            TrajDb::from_store(store.clone(), DbOptions::new()),
            sharded(&store, 2),
        ] {
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
        let sharded = sharded(&store, 4);
        for db in [&single, &sharded] {
            let w = db.range_workload(&spec, &mut StdRng::seed_from_u64(3));
            assert_eq!(w.len(), 12);
            // Data-centered queries must actually hit data.
            assert!(w.iter().all(|q| !db.range(q).is_empty()));
        }
    }

    /// `store` cut into `parts` time ranges, one segment each.
    fn sharded(store: &PointStore, parts: usize) -> TrajDb {
        let shards = partition(store, &PartitionStrategy::Time { parts });
        TrajDb::from_shards(
            shards.into_iter().map(Into::into).collect(),
            DbOptions::new(),
        )
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

    #[test]
    fn sharded_range_matches_single_store() {
        let store = sample_store();
        let queries = workload(&store, 25, 1);
        let single = QueryEngine::over_store(&store, EngineConfig::octree());
        for parts in [2, 3, 4] {
            let sharded = sharded(&store, parts);
            assert!(sharded.shard_count() >= 1);
            assert_eq!(sharded.len(), store.len());
            assert_eq!(sharded.total_points(), store.total_points());
            for q in &queries {
                assert_eq!(sharded.range(q), single.range(q), "{parts} parts");
            }
            assert_eq!(sharded.range_batch(&queries), single.range_batch(&queries));
        }
    }

    #[test]
    fn sharded_knn_matches_single_store() {
        let store = sample_store();
        let (t0, t1) = store.time_span();
        let single = QueryEngine::over_store(&store, EngineConfig::octree());
        let sharded = sharded(&store, 3);
        for (k, ts, te) in [
            (3, t0, t1),
            (1, t0, (t0 + t1) / 2.0),
            (100, t1 + 1.0, t1 + 10.0), // empty window: degenerate scoring
        ] {
            let q = KnnQuery {
                query: store.view(0).to_trajectory(),
                ts,
                te,
                k,
                measure: Dissimilarity::Edr { eps: 1_000.0 },
            };
            assert_eq!(sharded.knn(&q), single.knn(&q), "k={k} ts={ts} te={te}");
        }
    }

    #[test]
    fn sharded_similarity_matches_single_store() {
        let store = sample_store();
        let (t0, t1) = store.view(0).time_span();
        let q = SimilarityQuery {
            query: store.view(0).to_trajectory(),
            ts: t0,
            te: t1,
            delta: 2_500.0,
            step: 300.0,
        };
        let single = QueryEngine::over_store(&store, EngineConfig::octree());
        let sharded = sharded(&store, 4);
        assert_eq!(sharded.similarity(&q), single.similarity(&q));
        assert_eq!(
            sharded.similarity_batch(std::slice::from_ref(&q)),
            single.similarity_batch(std::slice::from_ref(&q))
        );
    }

    #[test]
    fn sharded_simplified_and_workload_match_single_store() {
        let store = sample_store();
        let mut simp = Simplification::most_simplified_store(&store);
        for (id, t) in store.iter() {
            for idx in (0..t.len() as u32).step_by(4) {
                simp.insert(id, idx);
            }
        }
        let queries = workload(&store, 15, 9);
        let single = QueryEngine::over_store(&store, EngineConfig::octree());
        let sharded = sharded(&store, 4);
        for q in &queries {
            assert_eq!(
                sharded.range_simplified(&simp, q),
                single.range_simplified(&simp, q)
            );
        }
        assert_eq!(
            sharded.range_simplified_batch(&simp, &queries),
            single.range_simplified_batch(&simp, &queries)
        );

        let mut single_w = single.maintained_workload(queries.clone(), &simp);
        let mut sharded_w = sharded.maintained_workload(queries.clone(), &simp);
        assert!((single_w.diff() - sharded_w.diff()).abs() < 1e-12);
        for i in 0..queries.len() {
            assert_eq!(single_w.truth(i), sharded_w.truth(i));
            assert_eq!(single_w.result(i), sharded_w.result(i));
        }
        // The maintained state evolves identically under insertions.
        for id in 0..store.len().min(8) {
            let v = store.view(id);
            if v.len() > 2 && simp.insert(id, 1) {
                single_w.insert(id, &v.point(1));
                sharded_w.insert(id, &v.point(1));
            }
        }
        assert!((single_w.diff() - sharded_w.diff()).abs() < 1e-12);
    }

    #[test]
    fn empty_database_serves_empty_results() {
        let sharded = sharded(&PointStore::new(), 4);
        assert_eq!(sharded.shard_count(), 0);
        assert!(sharded.is_empty());
        assert!(sharded
            .range(&Cube::new(0.0, 1.0, 0.0, 1.0, 0.0, 1.0))
            .is_empty());
        assert!(!sharded.has_kept_bitmap());
        assert!(sharded
            .range_kept(&Cube::new(0.0, 1.0, 0.0, 1.0, 0.0, 1.0))
            .is_none());
    }
}
