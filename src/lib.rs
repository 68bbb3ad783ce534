//! Umbrella crate for the RL4QDTS reproduction.
//!
//! Re-exports the whole stack so downstream users can depend on a single
//! crate:
//!
//! - [`trajectory`]: data model, geometry, error measures, generators, I/O;
//! - [`index`]: the spatio-temporal octree and median kd-tree;
//! - [`query`]: range / kNN / similarity / clustering operators, F1
//!   metrics, and the canonical execution path — the index-accelerated,
//!   parallel [`QueryEngine`] with incremental workload maintenance;
//! - [`simp`]: the EDTS baselines (Top-Down, Bottom-Up, Span-Search, RLTS+);
//! - [`rl`]: the from-scratch NN/DQN toolkit;
//! - [`rl4qdts`]: the paper's contribution — query-accuracy-driven
//!   collective simplification.
//!
//! Query execution should go through the public façade: [`TrajDb::open`]
//! resolves any supported on-disk layout (CSV, zero-copy snapshot,
//! sharded directory) into one object serving the typed
//! [`QueryExecutor`] surface, with mixed workloads planned as
//! heterogeneous [`QueryBatch`]es. A [`TrajDb`] is a list of stored
//! segments — one per snapshot or shard — and the underlying
//! [`QueryEngine`] stays available for layout-specific work;
//! the per-operator scan functions over columns in [`query`] remain the
//! semantic reference. Everything below the constructor runs over one
//! layout — columns; [`TrajectoryDb`] is the row-form builder whose exit
//! is `to_store()`.
//!
//! See `examples/quickstart.rs` for the 60-second tour,
//! `docs/ARCHITECTURE.md` (the [`architecture`] module) for the crate
//! map and system invariants, and `docs/SNAPSHOT_FORMAT.md` for the
//! on-disk snapshot specification — both books are doc-tested against
//! the implementation.

/// The architecture book (`docs/ARCHITECTURE.md`), included here so its
/// end-to-end pipeline example compiles and runs under `cargo test`.
#[doc = include_str!("../docs/ARCHITECTURE.md")]
pub mod architecture {}

pub use tiny_rl as rl;
pub use traj_index as index;
pub use traj_query as query;
pub use traj_serve as serve;
pub use traj_simp as simp;
pub use trajectory;

pub use rl4qdts;

pub use rl4qdts::{PolicyVariant, Rl4Qdts, Rl4QdtsConfig, TrainerConfig};
pub use traj_query::{
    BackendKind, DbOptions, EngineConfig, MaintainedWorkload, Query, QueryBatch, QueryEngine,
    QueryExecutor, QueryResult, TrajDb,
};
pub use traj_serve::{
    Client, Coordinator, CoordinatorOptions, CoordinatorStats, DistributedResponse, FailurePolicy,
    Placement, ResponseStatus, ServeOptions, Server, SharedCoordinator,
};
pub use traj_simp::Simplifier;
pub use trajectory::{Point, Simplification, Trajectory, TrajectoryDb};
