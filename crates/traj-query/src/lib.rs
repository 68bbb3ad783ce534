//! Trajectory query engine for the RL4QDTS reproduction.
//!
//! Implements the four query operators of §III-B — [`range`] queries,
//! [`knn`] queries (with [`edr`] and a [`t2vec`]-like embedding as the
//! dissimilarity Θ), [`similarity`] queries, and [`traclus`](mod@traclus) clustering —
//! plus the query [`workload`] generators used for training and evaluation
//! and the F1 quality [`metrics`] (Eq. 3) that compare results on the
//! original and simplified databases.
//!
//! # The canonical execution path
//!
//! Every operator is written once, over columns: a database is anything
//! [`trajectory::AsColumns`] (a heap-owned [`trajectory::PointStore`] or
//! an mmap-backed [`trajectory::MappedStore`]) and one trajectory is a
//! [`trajectory::PointSeq`]. The per-operator functions
//! ([`range_query_store`], [`KnnQuery::execute_store`],
//! [`SimilarityQuery::execute_store`]) are O(N) linear scans and the
//! semantic reference: plain scalar code that shares no kernel — no
//! index, no SIMD — with the executors checked against it. Production
//! consumers should construct a [`QueryEngine`] instead: it owns (or
//! borrows) the columns together with a spatio-temporal index backend
//! ([`BackendKind`]: octree, median kd-tree, or the naive scan) and
//! prunes query execution through the index — and, for the two kinds an
//! index cannot answer, filters kNN and similarity candidates on exact
//! bounds and refines only the survivors (the kernels are in [`refine`]);
//! a [`MaintainedWorkload`] keeps a workload's results over a growing
//! simplification incrementally up to date instead of rescanning. Property tests
//! guarantee engine results equal the scan reference for every backend,
//! owned or mapped — see [`QueryEngine::over_mapped`] and
//! `docs/ARCHITECTURE.md`.
//!
//! The row-form [`trajectory::TrajectoryDb`] is a builder, not a query
//! input. Three entry points still accept one, each a one-line forward
//! through `to_store()` kept because the frozen benchmark calls it:
//! [`range_workload`], [`QueryEngine::over`] and [`TrajDb::from_db`].
//!
//! # One query surface, one implementation
//!
//! Queries are asked through the [`QueryExecutor`] trait (one-shot,
//! batch, simplified-database and workload-maintenance methods; typed
//! [`Query`]/[`QueryResult`] pairs with heterogeneous [`QueryBatch`]
//! plans executed in a single data-parallel pass). The trait is
//! implemented **once**, in [`segment`], for anything that hands out its
//! database as an ordered list of [`Segment`]s ([`Segmented`]): every
//! query is the one fan-out ([`Segment::answer`] per segment) and the one
//! [`merge`]. Who supplies a list:
//!
//! - a [`QueryEngine`] — one segment, all of it;
//! - [`TrajDb`] — the façade in [`db`], and the one type that stores a
//!   segment list: [`TrajDb::open`] auto-detects CSV vs snapshot vs shard
//!   directory and builds one segment per snapshot or shard, every index
//!   once and in parallel ([`TrajDb::from_shards`] serves an in-memory
//!   partition the same way);
//! - a live [`GenerationalDb`] — `[base, sealed deltas…, active delta]`,
//!   the base and the sealed deltas stored as `TrajDb`'s segments are,
//!   the active delta's view assembled per call (see [`generational`]);
//! - and, over the wire, the coordinator in `traj-serve`, whose segments
//!   are shard processes answering with the same merge material.
//!
//! # Example: build once, serve ranges, kNN, and similarity
//!
//! ```
//! use traj_query::{
//!     range_workload_store, EngineConfig, QueryDistribution, QueryEngine, QueryExecutor,
//!     RangeWorkloadSpec,
//! };
//! use trajectory::gen::{generate, DatasetSpec, Scale};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let store = generate(&DatasetSpec::geolife(Scale::Smoke), 9).to_store();
//! let engine = QueryEngine::over_store(&store, EngineConfig::octree());
//!
//! let spec = RangeWorkloadSpec::paper_default(10, QueryDistribution::Data);
//! let queries = range_workload_store(&store, &spec, &mut StdRng::seed_from_u64(1));
//! let results = engine.range_batch(&queries);
//! assert_eq!(results.len(), 10);
//! // Data-centered queries always contain the point they were centered on.
//! assert!(results.iter().all(|ids| !ids.is_empty()));
//! ```

#![warn(missing_docs)]

pub mod db;
pub mod edr;
pub mod engine;
pub mod generational;
pub mod join;
pub mod knn;
pub mod metrics;
pub mod range;
pub mod refine;
pub mod segment;
pub mod similarity;
pub mod t2vec;
pub mod traclus;
pub mod workload;

pub use db::{
    DbOptions, Query, QueryBatch, QueryExecutor, QueryKind, QueryResult, TrajDb, TrajDbError,
};
pub use engine::{BackendKind, EngineConfig, MaintainedWorkload, QueryEngine, QueryScratch};
pub use generational::{
    spawn_compactor, CompactionReport, CompactorHandle, GenError, GenerationalDb, IngestReport,
    SimpFactory,
};
pub use join::{similarity_join, JoinParams};
pub use knn::{Dissimilarity, KnnQuery};
pub use metrics::{f1_pairs, f1_sets, mean_f1, query_diff, F1Score};
pub use range::{range_query_batch, range_query_store};
pub use segment::{
    fan_out, knn_take_fill, merge, merge_knn_candidates, query_touches_bounds, Answer, IdMap,
    MergeError, Segment, Segmented, ShardResult,
};
pub use similarity::SimilarityQuery;
pub use t2vec::T2vecEmbedder;
pub use traclus::{traclus, TraclusParams, TraclusResult};
/// The shared scoped-thread parallel map (re-exported from the data
/// substrate so existing `traj_query::parallel` users keep working).
pub use trajectory::parallel;
pub use workload::{
    range_workload, range_workload_store, traj_query_workload, QueryDistribution,
    RangeWorkloadSpec, TrajQuerySpec,
};
