//! RL4QDTS hyperparameters.

use tiny_rl::DqnConfig;
use trajectory::TrajectoryDb;

/// Which components act with learned policies — the knobs of the paper's
/// ablation study (Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyVariant {
    /// When false, Agent-Cube degenerates to returning the randomly sampled
    /// start cube directly ("w/o Agent-Cube" in Table II).
    pub use_cube_agent: bool,
    /// When false, Agent-Point degenerates to always inserting the
    /// maximum-`v_s` candidate ("w/o Agent-Point").
    pub use_point_agent: bool,
}

impl PolicyVariant {
    /// The full method.
    pub const FULL: Self = Self {
        use_cube_agent: true,
        use_point_agent: true,
    };
    /// Table II row "w/o Agent-Cube".
    pub const NO_CUBE: Self = Self {
        use_cube_agent: false,
        use_point_agent: true,
    };
    /// Table II row "w/o Agent-Point".
    pub const NO_POINT: Self = Self {
        use_cube_agent: true,
        use_point_agent: false,
    };
    /// Table II row "w/o Agent-Cube and Agent-Point".
    pub const NEITHER: Self = Self {
        use_cube_agent: false,
        use_point_agent: false,
    };

    /// Display label matching Table II.
    pub fn label(&self) -> &'static str {
        match (self.use_cube_agent, self.use_point_agent) {
            (true, true) => "RL4QDTS",
            (false, true) => "w/o Agent-Cube",
            (true, false) => "w/o Agent-Point",
            (false, false) => "w/o Agent-Cube and Agent-Point",
        }
    }
}

/// Which spatio-temporal index backs the cube hierarchy.
///
/// The paper adopts the octree "for its simplicity" and leaves other
/// indexes (kd-tree) as future work (§I); both are implemented and the
/// `index_ablation` experiment compares them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndexKind {
    /// Geometric halving per dimension (the paper's choice).
    #[default]
    Octree,
    /// kd-tree-style median splits bundled 8-ary (balanced on skew).
    MedianKdTree,
}

impl IndexKind {
    /// Display label for experiment tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            IndexKind::Octree => "octree",
            IndexKind::MedianKdTree => "median-kd",
        }
    }

    /// The query-engine backend corresponding to this index kind. RL4QDTS
    /// always runs indexed (the agents need a cube hierarchy), so there is
    /// no mapping to [`traj_query::BackendKind::Scan`].
    #[must_use]
    pub fn backend(self) -> traj_query::BackendKind {
        match self {
            IndexKind::Octree => traj_query::BackendKind::Octree,
            IndexKind::MedianKdTree => traj_query::BackendKind::MedianKd,
        }
    }
}

/// Hyperparameters of RL4QDTS (§IV-D and §V-A).
#[derive(Debug, Clone, Copy)]
pub struct Rl4QdtsConfig {
    /// Start level `S`: Agent-Cube begins from a cube sampled at this
    /// octree level following the query distribution (paper: 9).
    pub start_level: u32,
    /// Maximum traversal depth `E` (paper: 12).
    pub max_depth: u32,
    /// `K`: number of candidate points Agent-Point chooses among (paper: 2).
    pub k: usize,
    /// `Δ`: rewards are computed every `delta` insertions (paper: 50).
    pub delta: usize,
    /// Octree leaf capacity (split threshold).
    pub leaf_capacity: usize,
    /// DQN hyperparameters shared by both agents.
    pub dqn: DqnConfig,
    /// The index structure backing the cube hierarchy.
    pub index: IndexKind,
}

impl Rl4QdtsConfig {
    /// The paper's configuration (server-scale data: millions of points).
    pub fn paper() -> Self {
        Self {
            start_level: 9,
            max_depth: 12,
            k: 2,
            delta: 50,
            leaf_capacity: 64,
            dqn: DqnConfig::default(),
            index: IndexKind::Octree,
        }
    }

    /// Row-form forward of [`Rl4QdtsConfig::scaled_to_points`] for callers
    /// that hold a [`TrajectoryDb`] builder (only its point count is read).
    pub fn scaled_to(db: &TrajectoryDb) -> Self {
        Self::scaled_to_points(db.total_points())
    }

    /// A configuration scaled to a database of `total_points` points:
    /// `E ≈ log₈(N)` so leaves stay usefully small, and `S = E − 1`. The
    /// paper's S=9/E=12 gap of 3 suits databases of millions of points; at
    /// laptop scale a gap of 1 keeps the cube agent's decision space
    /// learnable with the few thousand transitions a quick training run
    /// produces (the param_study binary sweeps both).
    pub fn scaled_to_points(total_points: usize) -> Self {
        let n = total_points.max(1) as f64;
        let depth = (n.log2() / 3.0).ceil() as u32 + 1; // log8(N) + 1
        let max_depth = depth.clamp(3, 12);
        let start_level = max_depth.saturating_sub(1).max(1);
        Self {
            start_level,
            max_depth,
            k: 2,
            delta: 50,
            leaf_capacity: 64,
            dqn: DqnConfig::default(),
            index: IndexKind::Octree,
        }
    }

    /// Overrides the index structure.
    pub fn with_index(mut self, index: IndexKind) -> Self {
        self.index = index;
        self
    }

    /// Overrides the start level `S`.
    pub fn with_start_level(mut self, s: u32) -> Self {
        self.start_level = s;
        self
    }

    /// Overrides the maximum depth `E`.
    pub fn with_max_depth(mut self, e: u32) -> Self {
        self.max_depth = e;
        self
    }

    /// Overrides `K`.
    pub fn with_k(mut self, k: usize) -> Self {
        assert!(k >= 1);
        self.k = k;
        self
    }

    /// Overrides `Δ`.
    pub fn with_delta(mut self, delta: usize) -> Self {
        assert!(delta >= 1);
        self.delta = delta;
        self
    }

    /// The [`traj_query::QueryEngine`] configuration matching this config:
    /// same index kind, same tree shape. Using one engine for both query
    /// execution and Agent-Cube's traversal shares a single index build.
    #[must_use]
    pub fn engine_config(&self) -> traj_query::EngineConfig {
        traj_query::EngineConfig {
            backend: self.index.backend(),
            max_depth: self.max_depth,
            leaf_capacity: self.leaf_capacity,
        }
    }

    /// Agent-Cube's state dimension: 8 children × 2 features (Eq. 4).
    pub const CUBE_STATE_DIM: usize = 16;
    /// Agent-Cube's action dimension: 8 children + stop (Eq. 5).
    pub const CUBE_ACTION_DIM: usize = 9;

    /// Agent-Point's state dimension: `K` pairs `(v_s, v_t)` (Eq. 8).
    pub fn point_state_dim(&self) -> usize {
        2 * self.k
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trajectory::gen::{generate, DatasetSpec, Scale};

    #[test]
    fn paper_config_matches_section_5() {
        let c = Rl4QdtsConfig::paper();
        assert_eq!(c.start_level, 9);
        assert_eq!(c.max_depth, 12);
        assert_eq!(c.k, 2);
        assert_eq!(c.delta, 50);
        assert_eq!(c.dqn.gamma, 0.99);
        assert_eq!(c.dqn.lr, 0.01);
        assert_eq!(c.dqn.replay_capacity, 2000);
        assert_eq!(c.dqn.epsilon_min, 0.1);
    }

    #[test]
    fn scaled_config_shrinks_with_data() {
        let small = generate(&DatasetSpec::geolife(Scale::Smoke), 1);
        let c = Rl4QdtsConfig::scaled_to(&small);
        assert!(c.max_depth < 12);
        assert!(c.start_level >= 1);
        assert!(c.start_level < c.max_depth);
    }

    #[test]
    fn builders_override_fields() {
        let c = Rl4QdtsConfig::paper()
            .with_k(4)
            .with_delta(10)
            .with_start_level(2)
            .with_max_depth(5);
        assert_eq!(c.k, 4);
        assert_eq!(c.delta, 10);
        assert_eq!(c.start_level, 2);
        assert_eq!(c.max_depth, 5);
        assert_eq!(c.point_state_dim(), 8);
    }

    #[test]
    fn variant_labels_match_table_2() {
        assert_eq!(PolicyVariant::FULL.label(), "RL4QDTS");
        assert_eq!(PolicyVariant::NO_CUBE.label(), "w/o Agent-Cube");
        assert_eq!(PolicyVariant::NO_POINT.label(), "w/o Agent-Point");
        assert_eq!(
            PolicyVariant::NEITHER.label(),
            "w/o Agent-Cube and Agent-Point"
        );
    }
}
