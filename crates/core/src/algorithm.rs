//! The RL4QDTS algorithm (Algorithm 1–3): collective, query-aware
//! simplification of a trajectory database with two cooperating agents.

use crate::config::{PolicyVariant, Rl4QdtsConfig};
use crate::cube_agent::{cube_mask, cube_state, forced_stop, STOP_ACTION};
use crate::point_agent::{point_state, PointScratch};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tiny_rl::{Dqn, ForwardRows};
use traj_index::{CubeIndex, NodeId};
use traj_query::QueryEngine;
use trajectory::{AsColumns, Cube, PointStore, Simplification, TrajectoryDb};

/// The RL4QDTS simplifier: a trained Agent-Cube and Agent-Point pair plus
/// their hyperparameters. Produced by [`crate::trainer::train_store`] (or
/// [`Rl4Qdts::untrained`] for testing) and applied with
/// [`Rl4Qdts::simplify_store`].
#[derive(Debug, Clone)]
pub struct Rl4Qdts {
    /// Hyperparameters (must match between training and inference).
    pub config: Rl4QdtsConfig,
    pub(crate) cube_agent: Dqn,
    pub(crate) point_agent: Dqn,
}

impl Rl4Qdts {
    /// An untrained instance (random policies). Useful for tests and as the
    /// starting point of training.
    pub fn untrained(config: Rl4QdtsConfig, seed: u64) -> Self {
        let cube_agent = Dqn::new(
            &[
                Rl4QdtsConfig::CUBE_STATE_DIM,
                25,
                Rl4QdtsConfig::CUBE_ACTION_DIM,
            ],
            config.dqn,
            seed,
        );
        let point_agent = Dqn::new(
            &[config.point_state_dim(), 25, config.k],
            config.dqn,
            seed ^ 0x9e3779b97f4a7c15,
        );
        Self {
            config,
            cube_agent,
            point_agent,
        }
    }

    /// Rebuilds from deserialized agents (see [`crate::model_io`]).
    pub fn from_agents(config: Rl4QdtsConfig, cube_agent: Dqn, point_agent: Dqn) -> Self {
        assert_eq!(cube_agent.state_dim(), Rl4QdtsConfig::CUBE_STATE_DIM);
        assert_eq!(point_agent.state_dim(), config.point_state_dim());
        Self {
            config,
            cube_agent,
            point_agent,
        }
    }

    /// Access to the trained agents (serialization).
    pub fn agents(&self) -> (&Dqn, &Dqn) {
        (&self.cube_agent, &self.point_agent)
    }

    /// Row-form forward of [`Rl4Qdts::simplify_store`] for callers that
    /// hold a [`TrajectoryDb`] builder.
    pub fn simplify(
        &self,
        db: &TrajectoryDb,
        budget: usize,
        state_queries: &[Cube],
        seed: u64,
    ) -> Simplification {
        self.simplify_store(&db.to_store(), budget, state_queries, seed)
    }

    /// Algorithm 1 with the full method. `state_queries` is the synthetic
    /// range-query workload that defines the octree's `Q_B` statistics and
    /// the start-cube sampling distribution — the same role it plays during
    /// training. `seed` drives the (paper-noted) random start-cube
    /// sampling; the experiments average over several seeds.
    pub fn simplify_store(
        &self,
        store: &PointStore,
        budget: usize,
        state_queries: &[Cube],
        seed: u64,
    ) -> Simplification {
        self.simplify_variant(store, budget, state_queries, seed, PolicyVariant::FULL)
    }

    /// Algorithm 1 parameterized by the ablation variant (Table II).
    /// Builds a [`QueryEngine`] over the borrowed columns with the
    /// configured index backend ([`crate::config::IndexKind`]) and runs
    /// the insertion loop against its shared cube hierarchy.
    pub fn simplify_variant(
        &self,
        store: &PointStore,
        budget: usize,
        state_queries: &[Cube],
        seed: u64,
        variant: PolicyVariant,
    ) -> Simplification {
        let mut engine = QueryEngine::over_store(store, self.config.engine_config());
        engine.assign_queries(state_queries);
        let tree = engine
            .cube_index()
            .expect("rl4qdts engines are always indexed");
        self.simplify_with_index(engine.store(), budget, tree, seed, variant)
    }

    /// Algorithm 1 against an already-built, query-assigned index over the
    /// columnar `store` (owned or mapped — anything [`AsColumns`]).
    pub fn simplify_with_index<S: AsColumns + ?Sized, I: CubeIndex + ?Sized>(
        &self,
        store: &S,
        budget: usize,
        tree: &I,
        seed: u64,
        variant: PolicyVariant,
    ) -> Simplification {
        let mut rng = StdRng::seed_from_u64(seed);

        let mut simp = Simplification::most_simplified_store(store);
        let total_points = store.total_points();
        let budget = budget.clamp(simp.total_points(), total_points);

        // What no insertion changes is computed here, once: the tree and
        // its `Q_B` counts are borrowed for the whole loop, so the start
        // distribution is too. The full method samples the start cube by
        // the *query* distribution and refines with Agent-Cube; the "w/o
        // Agent-Cube" ablation replaces the whole cube stage with
        // *data*-distribution sampling (§V-B(3)).
        let sampler = tree.start_sampler(self.config.start_level, !variant.use_cube_agent);
        let mut point = PointScratch::default();
        let mut rows = ForwardRows::default();

        let mut consecutive_misses = 0usize;
        const MAX_MISSES: usize = 64;

        while simp.total_points() < budget {
            let mut node = sampler.sample(&mut rng);
            if variant.use_cube_agent {
                node = self.descend(tree, node, &mut rows);
            }
            let inserted = point_state(store, &simp, tree, node, &self.config, &mut point) && {
                let action = if variant.use_point_agent {
                    self.point_agent
                        .greedy_action_raw(&mut point.state, &point.mask, &mut rows)
                } else {
                    0 // maximum-v_s candidate
                };
                let c = point.candidates[action.min(point.candidates.len() - 1)];
                simp.insert(c.point.traj, c.point.idx)
            };
            if inserted {
                consecutive_misses = 0;
            } else {
                consecutive_misses += 1;
                if consecutive_misses >= MAX_MISSES {
                    // The sampled region is exhausted; fill the remaining
                    // budget deterministically so the contract (exactly
                    // `budget` points when available) holds.
                    fill_remaining(store, &mut simp, budget);
                    break;
                }
            }
        }
        simp
    }

    /// Algorithm 2: Agent-Cube's greedy top-down traversal from `node`.
    fn descend<I: CubeIndex + ?Sized>(
        &self,
        tree: &I,
        mut node: NodeId,
        rows: &mut ForwardRows,
    ) -> NodeId {
        loop {
            if forced_stop(tree, node, self.config.max_depth) {
                return node;
            }
            let Some(mut state) = cube_state(tree, node) else {
                return node;
            };
            let mask = cube_mask(tree, node);
            let action = self.cube_agent.greedy_action_raw(&mut state, &mask, rows);
            if action == STOP_ACTION {
                return node;
            }
            let children = tree.children(node).expect("non-leaf");
            node = children[action];
        }
    }
}

/// Deterministically inserts not-yet-kept points until `budget` is
/// reached: every remaining interior point of the database ranked by its
/// `v_s` against the simplification as it stands, highest first (a stable
/// sort, so equal values keep store order), not round-robin over
/// trajectories. Only used as the exhaustion fallback; normal operation
/// inserts via the agents.
fn fill_remaining<S: AsColumns + ?Sized>(store: &S, simp: &mut Simplification, budget: usize) {
    use crate::point_agent::point_value;
    use traj_index::PointRef;
    if simp.total_points() >= budget {
        return;
    }
    // One O(N log N) pass: rank all remaining points by their current
    // v_s and insert the best until the budget is met. Rankings are not
    // refreshed as anchors change — acceptable for the rare exhaustion
    // fallback, and it keeps the worst case out of O(N·W).
    let mut candidates: Vec<(f64, PointRef)> = Vec::new();
    for (traj, v) in store.iter() {
        for idx in 1..v.len().saturating_sub(1) as u32 {
            let r = PointRef { traj, idx };
            if let Some((vs, _)) = point_value(store, simp, r) {
                candidates.push((vs, r));
            }
        }
    }
    candidates.sort_by(|a, b| b.0.total_cmp(&a.0));
    for (_, r) in candidates {
        if simp.total_points() >= budget {
            break;
        }
        simp.insert(r.traj, r.idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IndexKind;
    use traj_query::{range_workload_store, QueryDistribution, RangeWorkloadSpec};
    use trajectory::gen::{generate, DatasetSpec, Scale};

    fn setup() -> (PointStore, Vec<Cube>, Rl4QdtsConfig) {
        let db = generate(&DatasetSpec::geolife(Scale::Smoke), 17).to_store();
        let cfg = Rl4QdtsConfig::scaled_to_points(db.total_points()).with_delta(20);
        let spec = RangeWorkloadSpec {
            count: 20,
            spatial_extent: 3_000.0,
            temporal_extent: 86_400.0,
            dist: QueryDistribution::Data,
        };
        let mut rng = StdRng::seed_from_u64(5);
        let queries = range_workload_store(&db, &spec, &mut rng);
        (db, queries, cfg)
    }

    #[test]
    fn untrained_model_meets_budget_exactly() {
        let (db, queries, cfg) = setup();
        let model = Rl4Qdts::untrained(cfg, 1);
        let budget = db.total_points() / 20;
        let simp = model.simplify_store(&db, budget, &queries, 7);
        assert_eq!(simp.total_points(), budget.max(2 * db.len()));
    }

    #[test]
    fn endpoints_always_present() {
        let (db, queries, cfg) = setup();
        let model = Rl4Qdts::untrained(cfg, 2);
        let simp = model.simplify_store(&db, db.total_points() / 30, &queries, 3);
        for (id, t) in db.iter() {
            assert!(simp.contains(id, 0));
            assert!(simp.contains(id, t.len() as u32 - 1));
        }
    }

    #[test]
    fn same_seed_is_deterministic() {
        let (db, queries, cfg) = setup();
        let model = Rl4Qdts::untrained(cfg, 3);
        let budget = db.total_points() / 25;
        let a = model.simplify_store(&db, budget, &queries, 11);
        let b = model.simplify_store(&db, budget, &queries, 11);
        assert_eq!(a, b);
    }

    #[test]
    fn budget_above_total_keeps_everything() {
        let (db, queries, cfg) = setup();
        let model = Rl4Qdts::untrained(cfg, 4);
        let simp = model.simplify_store(&db, usize::MAX, &queries, 1);
        assert_eq!(simp.total_points(), db.total_points());
    }

    #[test]
    fn all_ablation_variants_run() {
        let (db, queries, cfg) = setup();
        let model = Rl4Qdts::untrained(cfg, 5);
        let budget = db.total_points() / 20;
        for v in [
            PolicyVariant::FULL,
            PolicyVariant::NO_CUBE,
            PolicyVariant::NO_POINT,
            PolicyVariant::NEITHER,
        ] {
            let simp = model.simplify_variant(&db, budget, &queries, 9, v);
            assert_eq!(
                simp.total_points(),
                budget.max(2 * db.len()),
                "{}",
                v.label()
            );
        }
    }

    #[test]
    fn fill_remaining_completes_budgets() {
        let (store, _, _) = setup();
        let mut simp = Simplification::most_simplified_store(&store);
        let budget = simp.total_points() + 17;
        fill_remaining(&store, &mut simp, budget);
        assert_eq!(simp.total_points(), budget);
    }

    /// Trajectory 0 has two points farther off its anchor segment than
    /// any point of trajectory 1: the global ranking inserts both before
    /// trajectory 1's best, where a per-trajectory round-robin would take
    /// one from each.
    #[test]
    fn fill_remaining_ranks_points_across_trajectories() {
        use trajectory::{Point, Trajectory};
        let traj = |ys: [f64; 4]| {
            let pts = ys.iter().enumerate();
            Trajectory::new(
                pts.map(|(i, &y)| Point::new(i as f64, y, i as f64))
                    .collect(),
            )
            .unwrap()
        };
        let db = TrajectoryDb::new(vec![
            traj([0.0, 100.0, 90.0, 0.0]),
            traj([0.0, 2.0, 1.0, 0.0]),
        ]);
        let store = db.to_store();
        let order = [(0, 1), (0, 2), (1, 1), (1, 2)];
        for n in 1..=order.len() {
            let mut simp = Simplification::most_simplified_store(&store);
            let budget = simp.total_points() + n;
            fill_remaining(&store, &mut simp, budget);
            for (i, &(traj, idx)) in order.iter().enumerate() {
                assert_eq!(
                    simp.contains(traj, idx),
                    i < n,
                    "budget +{n}: ({traj}, {idx})"
                );
            }
        }
    }

    #[test]
    fn median_kdtree_index_works_end_to_end() {
        let (db, queries, cfg) = setup();
        let cfg = cfg.with_index(IndexKind::MedianKdTree);
        let model = Rl4Qdts::untrained(cfg, 7);
        let budget = db.total_points() / 20;
        let simp = model.simplify_store(&db, budget, &queries, 3);
        assert_eq!(simp.total_points(), budget.max(2 * db.len()));
        // Determinism holds for the alternative index too.
        assert_eq!(simp, model.simplify_store(&db, budget, &queries, 3));
    }

    #[test]
    fn octree_and_kdtree_make_different_choices() {
        let (db, queries, cfg) = setup();
        let model_oct = Rl4Qdts::untrained(cfg, 7);
        let model_kd = Rl4Qdts::untrained(cfg.with_index(IndexKind::MedianKdTree), 7);
        let budget = db.total_points() / 20;
        let a = model_oct.simplify_store(&db, budget, &queries, 3);
        let b = model_kd.simplify_store(&db, budget, &queries, 3);
        assert_eq!(a.total_points(), b.total_points());
        assert_ne!(
            a, b,
            "different partitionings should select different points"
        );
    }

    #[test]
    fn empty_workload_still_works() {
        let (db, _, cfg) = setup();
        let model = Rl4Qdts::untrained(cfg, 6);
        let budget = db.total_points() / 25;
        let simp = model.simplify_store(&db, budget, &[], 2);
        assert_eq!(simp.total_points(), budget.max(2 * db.len()));
    }
}
