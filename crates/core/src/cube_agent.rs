//! Agent-Cube: the MDP for choosing an octree cube (§IV-A).
//!
//! The agent walks the octree top-down from a sampled start node. At each
//! node it observes the data/query distribution of the 8 children (Eq. 4)
//! and either descends into one of them (actions 0–7) or stops and hands
//! the current cube to Agent-Point (action 8, the paper's `a = 9`).

use crate::config::Rl4QdtsConfig;
use traj_index::{CubeIndex, NodeId};

/// Index of the "stop here" action.
pub const STOP_ACTION: usize = 8;

/// The Eq. 4 state at `node`: for each of the 8 children, its share of the
/// parent's trajectories (`M_child / M_B`) and of the parent's queries
/// (`Q_child / Q_B`), interleaved as `[m1, q1, m2, q2, …]`.
/// Returns `None` for leaves (no children to observe — traversal must stop).
pub fn cube_state<I: CubeIndex + ?Sized>(
    tree: &I,
    node: NodeId,
) -> Option<[f64; Rl4QdtsConfig::CUBE_STATE_DIM]> {
    let stats = tree.child_stats(node)?;
    let m_total = tree.traj_count(node).max(1) as f64;
    let q_total = tree.query_count(node).max(1) as f64;
    let mut s = [0.0; Rl4QdtsConfig::CUBE_STATE_DIM];
    for (pair, (m, q)) in s.chunks_exact_mut(2).zip(stats) {
        pair[0] = m as f64 / m_total;
        pair[1] = q as f64 / q_total;
    }
    Some(s)
}

/// Valid actions at `node`: descending into child `k` is allowed only when
/// that child contains at least one trajectory (the paper's action-space
/// constraint); stopping is always allowed.
pub fn cube_mask<I: CubeIndex + ?Sized>(tree: &I, node: NodeId) -> [bool; 9] {
    let mut mask = [false; 9];
    mask[STOP_ACTION] = true;
    if let Some(stats) = tree.child_stats(node) {
        for (k, (m, _)) in stats.iter().enumerate() {
            mask[k] = *m > 0;
        }
    }
    mask
}

/// True when the traversal must stop at `node` regardless of the policy:
/// the node is a leaf, or the depth cap `E` is reached (§IV-D,
/// enhancement 1).
pub fn forced_stop<I: CubeIndex + ?Sized>(tree: &I, node: NodeId, max_depth: u32) -> bool {
    tree.is_leaf(node) || tree.depth(node) >= max_depth
}

#[cfg(test)]
mod tests {
    use super::*;
    use traj_index::{Octree, OctreeConfig};
    use trajectory::gen::{generate, DatasetSpec, Scale};
    use trajectory::Cube;

    fn tree() -> Octree {
        let store = generate(&DatasetSpec::geolife(Scale::Smoke), 3).to_store();
        let mut t = Octree::build(
            &store,
            OctreeConfig {
                max_depth: 6,
                leaf_capacity: 32,
            },
        );
        let bc = store.bounding_cube();
        let (cx, cy, ct) = bc.center();
        t.assign_queries(&[Cube::centered(cx, cy, ct, 1000.0, 1000.0, 10_000.0)]);
        t
    }

    #[test]
    fn state_has_16_normalized_features() {
        let t = tree();
        let s = cube_state(&t, t.root()).expect("root has children");
        assert_eq!(s.len(), 16);
        assert!(s.iter().all(|&v| (0.0..=8.0).contains(&v)), "{s:?}");
        // Trajectory shares sum to ≥ 1 (children double-count crossers)
        // but each individual share is ≤ 1 plus rounding.
        let m_sum: f64 = s.iter().step_by(2).sum();
        assert!(m_sum >= 0.99, "m shares sum {m_sum}");
    }

    #[test]
    fn leaf_state_is_none() {
        let t = tree();
        // Find any leaf.
        let leaf = (0..t.len() as NodeId)
            .find(|&id| t.node(id).is_leaf())
            .unwrap();
        assert!(cube_state(&t, leaf).is_none());
        assert!(forced_stop(&t, leaf, 99));
    }

    #[test]
    fn mask_allows_stop_and_populated_children_only() {
        let t = tree();
        let mask = cube_mask(&t, t.root());
        assert!(mask[STOP_ACTION]);
        let stats = t.child_stats(t.root()).unwrap();
        for k in 0..8 {
            assert_eq!(mask[k], stats[k].0 > 0, "child {k}");
        }
    }

    #[test]
    fn depth_cap_forces_stop() {
        let t = tree();
        assert!(forced_stop(&t, t.root(), 1));
        assert!(!forced_stop(&t, t.root(), 6));
    }
}
