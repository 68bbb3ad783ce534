//! RL4QDTS: multi-agent reinforcement learning for query-accuracy-driven
//! collective trajectory database simplification.
//!
//! Reproduction of Wang, Long, Cong & Jensen, *"Collectively Simplifying
//! Trajectories in a Database: A Query Accuracy Driven Approach"* (ICDE
//! 2024). Given a trajectory database and a storage budget, RL4QDTS
//! produces a simplified database whose query results (range, kNN,
//! similarity, clustering) stay as close as possible to the original's.
//!
//! The method starts from the most-simplified database (endpoints only)
//! and re-introduces points one at a time: [`cube_agent`] walks a
//! spatio-temporal octree to pick a cube, [`point_agent`] picks a point
//! inside it, and both are trained as DQNs sharing a delayed [`reward`] —
//! the improvement in range-query F1 every Δ insertions (Eq. 10), which
//! telescopes to the QDTS objective (Eq. 11).
//!
//! Typical use:
//!
//! ```
//! use rl4qdts::{train_store, Rl4QdtsConfig, TrainerConfig};
//! use trajectory::gen::{generate, DatasetSpec, Scale};
//! use traj_query::{range_workload_store, QueryDistribution, RangeWorkloadSpec};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let pool = generate(&DatasetSpec::geolife(Scale::Smoke), 1).to_store();
//! let config = Rl4QdtsConfig::scaled_to_points(pool.total_points()).with_delta(20);
//! let workload = RangeWorkloadSpec {
//!     count: 10, spatial_extent: 2_000.0, temporal_extent: 86_400.0,
//!     dist: QueryDistribution::Data,
//! };
//! let mut trainer = TrainerConfig::small(workload);
//! trainer.num_dbs = 1;
//! trainer.episodes_per_db = 1;
//! let (model, _stats) = train_store(&pool, config, &trainer, 7);
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let queries = range_workload_store(&pool, &workload, &mut rng);
//! let simplified = model.simplify_store(&pool, pool.total_points() / 10, &queries, 1);
//! assert!(simplified.total_points() <= pool.total_points() / 10);
//! ```
//!
//! Everything runs over columns ([`trajectory::PointStore`]). Four entry
//! points still accept the row-form [`trajectory::TrajectoryDb`] builder,
//! each a one-line forward kept because the frozen benchmark calls it:
//! [`train`], [`Rl4Qdts::simplify`], [`Rl4QdtsConfig::scaled_to`] and —
//! in `traj-query` — `QueryEngine::over`.

#![warn(missing_docs)]

pub mod algorithm;
pub mod config;
pub mod cube_agent;
pub mod model_io;
pub mod point_agent;
pub mod reward;
pub mod trainer;

pub use algorithm::Rl4Qdts;
pub use config::{IndexKind, PolicyVariant, Rl4QdtsConfig};
pub use reward::{range_query_simplified, RewardTracker};
pub use trainer::{train, train_store, TrainStats, TrainerConfig};
