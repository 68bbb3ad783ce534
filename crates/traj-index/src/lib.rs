//! Spatio-temporal indexes for trajectory databases.
//!
//! RL4QDTS chooses points to re-introduce into the simplified database by
//! first choosing a *cube* (an index node) and then a point inside it. The
//! paper uses an [`octree`]; the [`CubeIndex`] trait captures exactly what
//! the agents need from an index, and [`kdtree::MedianTree`] provides the
//! kd-tree-style median-split alternative the paper names as future work.
//! Both carry per-node trajectory counts (`M_B`), point counts, and
//! query-workload counts (`Q_B`) — the statistics Agent-Cube's MDP state
//! (Eq. 4) is built from.

#![warn(missing_docs)]

pub mod kdtree;
pub mod octree;
pub mod traits;

pub use kdtree::{MedianTree, MedianTreeConfig};
pub use octree::{LeafSlab, Node, NodeId, Octree, OctreeConfig, PointRef};
pub use traits::{CubeIndex, SpatioTemporalIndex, StartSampler};
