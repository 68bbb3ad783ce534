//! Training loop for RL4QDTS (§IV-C, §V-A "Model Training").
//!
//! The paper prepares several training databases sampled from a training
//! trajectory pool, runs a few episodes over each, and rewards both agents
//! every `Δ` insertions with the improvement in range-query accuracy
//! (Eq. 10), sharing each window's reward across *all* transitions both
//! agents produced inside that window.

use crate::algorithm::Rl4Qdts;
use crate::config::Rl4QdtsConfig;
use crate::cube_agent::{cube_mask, cube_state, forced_stop, STOP_ACTION};
use crate::point_agent::{point_state, PointScratch};
use crate::reward::RewardTracker;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use tiny_rl::{Dqn, Transition};
use traj_query::{range_workload_store, QueryEngine, RangeWorkloadSpec};
use trajectory::{AsColumns, PointStore, Simplification, TrajectoryDb};

/// Training-loop configuration.
#[derive(Debug, Clone, Copy)]
pub struct TrainerConfig {
    /// Number of training databases sampled from the pool (paper: 12).
    pub num_dbs: usize,
    /// Trajectories per training database (paper: 500 / 4000).
    pub trajs_per_db: usize,
    /// Episodes per database (paper: 5).
    pub episodes_per_db: usize,
    /// Budget ratio used during training episodes.
    pub ratio: f64,
    /// Range-query workload spec for states and rewards (paper: 100
    /// queries of 2 km × 2 km × 7 days per window).
    pub workload: RangeWorkloadSpec,
}

impl TrainerConfig {
    /// A laptop-scale default: smaller pool, same structure.
    pub fn small(workload: RangeWorkloadSpec) -> Self {
        Self {
            num_dbs: 4,
            trajs_per_db: 40,
            episodes_per_db: 2,
            ratio: 0.02,
            workload,
        }
    }
}

/// Summary statistics of one training run (consumed by the training-time
/// experiment).
#[derive(Debug, Clone, Default)]
pub struct TrainStats {
    /// Episodes completed.
    pub episodes: usize,
    /// Total insertion steps taken.
    pub insertions: usize,
    /// Total transitions stored across both agents.
    pub transitions: usize,
    /// Mean reward per closed window.
    pub mean_window_reward: f64,
    /// Wall-clock training time in seconds.
    pub wall_seconds: f64,
}

/// Buffers an agent's decisions until their window's shared reward is
/// known (§IV-B: "the reward R is shared by all transitions ... involved
/// when traversing from s_i to s_{i+Δ}").
///
/// Every decision is stored as a *terminal* transition carrying the
/// window's reward. Chaining decisions through Bellman targets would
/// systematically inflate long cube traversals: with a shared positive
/// reward R, a chained target gives `Q(descend) ≈ R + γ·Q(child)` — the
/// same R counted once per level — so "descend" would dominate "stop"
/// regardless of the data. The terminal treatment regresses
/// `Q(s, a) → E[R | s, a]`, which ranks actions by the accuracy
/// improvement they actually participate in, and keeps the Eq. 11
/// telescoping objective: each window's reward is exactly the diff
/// reduction it produced.
struct WindowBuffer {
    /// Decisions of the current window, awaiting its reward.
    window: Vec<(Vec<f64>, usize)>,
}

impl WindowBuffer {
    fn new() -> Self {
        Self { window: Vec::new() }
    }

    /// Registers a decision of the current window.
    fn on_decision(&mut self, state: Vec<f64>, action: usize) {
        self.window.push((state, action));
    }

    /// Closes a window: every parked decision becomes a terminal
    /// transition with the shared `reward`.
    fn close_window(&mut self, agent: &mut Dqn, reward: f64) {
        for (s, a) in self.window.drain(..) {
            agent.remember(Transition {
                state: s,
                action: a,
                reward,
                next_state: None,
                next_mask: vec![],
            });
        }
    }

    /// Ends the episode: flush the final (possibly partial) window.
    fn finish(&mut self, agent: &mut Dqn, reward: f64) {
        self.close_window(agent, reward);
    }
}

/// Row-form forward of [`train_store`] for callers that hold a
/// [`TrajectoryDb`] builder.
pub fn train(
    pool: &TrajectoryDb,
    config: Rl4QdtsConfig,
    trainer: &TrainerConfig,
    seed: u64,
) -> (Rl4Qdts, TrainStats) {
    train_store(&pool.to_store(), config, trainer, seed)
}

/// Trains RL4QDTS on databases sampled from `pool`. Returns the trained
/// model and training statistics. Deterministic for a given seed.
pub fn train_store(
    pool: &PointStore,
    config: Rl4QdtsConfig,
    trainer: &TrainerConfig,
    seed: u64,
) -> (Rl4Qdts, TrainStats) {
    let started = std::time::Instant::now();
    let mut model = Rl4Qdts::untrained(config, seed);
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x2545f4914f6cdd1d).wrapping_add(1));
    let mut stats = TrainStats::default();
    let mut reward_sum = 0.0;
    let mut windows = 0usize;

    // Per-round training databases are gathers over the pool's columns.
    for db_round in 0..trainer.num_dbs {
        let db = sample_db(pool, trainer.trajs_per_db, &mut rng);
        if db.is_empty() || db.total_points() < 8 {
            continue;
        }
        // One engine per training database: the index is built once and
        // shared between query execution (rewards) and Agent-Cube's
        // traversal across all of the database's episodes.
        let mut engine = QueryEngine::from_store(db, config.engine_config());
        for episode in 0..trainer.episodes_per_db {
            let ep_seed = seed
                .wrapping_add(db_round as u64 * 7919)
                .wrapping_add(episode as u64 * 104_729);
            let mut wl_rng = StdRng::seed_from_u64(ep_seed);
            let queries = range_workload_store(engine.store(), &trainer.workload, &mut wl_rng);
            engine.assign_queries(&queries);
            let (r, w, ins, trans) = run_episode(&mut model, &engine, trainer, queries, &mut rng);
            reward_sum += r;
            windows += w;
            stats.insertions += ins;
            stats.transitions += trans;
            stats.episodes += 1;
        }
    }
    stats.mean_window_reward = if windows > 0 {
        reward_sum / windows as f64
    } else {
        0.0
    };
    stats.wall_seconds = started.elapsed().as_secs_f64();
    model.cube_agent.freeze();
    model.point_agent.freeze();
    (model, stats)
}

/// Samples a training database of `m` trajectories without replacement —
/// a columnar gather over the pool store (the points are copied once into
/// fresh columns; no per-trajectory allocations).
fn sample_db(pool: &PointStore, m: usize, rng: &mut StdRng) -> PointStore {
    let mut ids: Vec<usize> = (0..pool.len()).collect();
    ids.shuffle(rng);
    ids.truncate(m.max(1));
    pool.gather_trajs(&ids)
}

/// One training episode against a built, query-assigned engine. Returns
/// `(window_reward_sum, windows, insertions, transitions)`.
fn run_episode(
    model: &mut Rl4Qdts,
    engine: &QueryEngine<'_>,
    trainer: &TrainerConfig,
    queries: Vec<trajectory::Cube>,
    rng: &mut StdRng,
) -> (f64, usize, usize, usize) {
    let config = model.config;
    let store = engine.store();
    let tree = engine
        .cube_index()
        .expect("rl4qdts engines are always indexed");

    let mut simp = Simplification::most_simplified_store(store);
    let floor = simp.total_points();
    let budget = ((store.total_points() as f64 * trainer.ratio) as usize)
        .max(floor + 2 * config.delta)
        .min(store.total_points());
    let mut tracker = RewardTracker::new(engine, queries, &simp);
    // The same once-per-loop start distribution and Agent-Point buffers as
    // inference (`Rl4Qdts::simplify_with_index`).
    let sampler = tree.start_sampler(config.start_level, false);
    let mut point = PointScratch::default();

    let mut cube_buf = WindowBuffer::new();
    let mut point_buf = WindowBuffer::new();
    let mut since_window = 0usize;
    let mut reward_sum = 0.0;
    let mut windows = 0usize;
    let mut insertions = 0usize;
    let mut transitions = 0usize;
    let mut misses = 0usize;

    while simp.total_points() < budget {
        // --- Agent-Cube: ε-greedy traversal (Algorithm 2). ---
        let mut node = sampler.sample(rng);
        loop {
            if forced_stop(tree, node, config.max_depth) {
                break;
            }
            let Some(raw) = cube_state(tree, node) else {
                break;
            };
            let mut state = raw.to_vec();
            model.cube_agent.observe_whiten(&mut state);
            let mask = cube_mask(tree, node);
            let action = model.cube_agent.select_action(&state, &mask);
            cube_buf.on_decision(state, action);
            transitions += 1;
            if action == STOP_ACTION {
                break;
            }
            node = tree.children(node).expect("non-leaf")[action];
        }

        // --- Agent-Point: choose and insert a point (Algorithm 3). ---
        if point_state(store, &simp, tree, node, &config, &mut point) {
            let mut state = point.state.clone();
            model.point_agent.observe_whiten(&mut state);
            let action = model.point_agent.select_action(&state, &point.mask);
            point_buf.on_decision(state, action);
            transitions += 1;
            let c = point.candidates[action.min(point.candidates.len() - 1)];
            if simp.insert(c.point.traj, c.point.idx) {
                let p = store.view(c.point.traj).point(c.point.idx as usize);
                tracker.on_insert(c.point.traj, &p);
                insertions += 1;
                since_window += 1;
                misses = 0;
            }
        } else {
            misses += 1;
            if misses >= 64 {
                break; // region exhausted; end the episode
            }
        }

        // --- Window close: shared reward + a burst of training. ---
        if since_window >= config.delta {
            let r = tracker.window_reward();
            reward_sum += r;
            windows += 1;
            since_window = 0;
            cube_buf.close_window(&mut model.cube_agent, r);
            point_buf.close_window(&mut model.point_agent, r);
            for _ in 0..8 {
                model.cube_agent.train_step();
                model.point_agent.train_step();
            }
        }
    }

    // Final (possibly partial) window.
    let r = tracker.window_reward();
    if since_window > 0 {
        reward_sum += r;
        windows += 1;
    }
    cube_buf.finish(&mut model.cube_agent, r);
    point_buf.finish(&mut model.point_agent, r);
    for _ in 0..8 {
        model.cube_agent.train_step();
        model.point_agent.train_step();
    }
    (reward_sum, windows, insertions, transitions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use traj_query::QueryDistribution;
    use trajectory::gen::{generate, DatasetSpec, Scale};

    fn pool(seed: u64) -> PointStore {
        generate(&DatasetSpec::geolife(Scale::Smoke), seed).to_store()
    }

    fn quick_trainer() -> TrainerConfig {
        TrainerConfig {
            num_dbs: 2,
            trajs_per_db: 10,
            episodes_per_db: 1,
            ratio: 0.05,
            workload: RangeWorkloadSpec {
                count: 15,
                spatial_extent: 3_000.0,
                temporal_extent: 2.0 * 86_400.0,
                dist: QueryDistribution::Data,
            },
        }
    }

    #[test]
    fn training_runs_and_produces_a_usable_model() {
        let pool = pool(23);
        let config = Rl4QdtsConfig::scaled_to_points(pool.total_points()).with_delta(15);
        let (model, stats) = train_store(&pool, config, &quick_trainer(), 99);
        assert_eq!(stats.episodes, 2);
        assert!(stats.insertions > 0);
        assert!(stats.transitions > 0);
        assert!(stats.wall_seconds > 0.0);
        // The trained model must still honor budgets.
        let mut rng = StdRng::seed_from_u64(1);
        let spec = quick_trainer().workload;
        let queries = range_workload_store(&pool, &spec, &mut rng);
        let budget = pool.total_points() / 20;
        let simp = model.simplify_store(&pool, budget, &queries, 4);
        assert_eq!(simp.total_points(), budget.max(2 * pool.len()));
    }

    #[test]
    fn training_is_deterministic_per_seed() {
        let pool = pool(29);
        let config = Rl4QdtsConfig::scaled_to_points(pool.total_points()).with_delta(10);
        let (m1, s1) = train_store(&pool, config, &quick_trainer(), 7);
        let (m2, s2) = train_store(&pool, config, &quick_trainer(), 7);
        assert_eq!(s1.insertions, s2.insertions);
        assert_eq!(s1.transitions, s2.transitions);
        // Identical training ⇒ identical behaviour.
        let mut rng = StdRng::seed_from_u64(3);
        let queries = range_workload_store(&pool, &quick_trainer().workload, &mut rng);
        let budget = pool.total_points() / 30;
        assert_eq!(
            m1.simplify_store(&pool, budget, &queries, 5),
            m2.simplify_store(&pool, budget, &queries, 5)
        );
    }

    #[test]
    fn rewards_flow_into_replay() {
        let pool = pool(31);
        let config = Rl4QdtsConfig::scaled_to_points(pool.total_points()).with_delta(10);
        let (model, _) = train_store(&pool, config, &quick_trainer(), 13);
        let (cube, point) = model.agents();
        assert!(cube.replay_len() > 0, "cube agent stored no transitions");
        assert!(point.replay_len() > 0, "point agent stored no transitions");
    }

    #[test]
    fn window_buffer_reward_assignment() {
        // Decisions park until their window's reward is known, then flush
        // as terminal transitions sharing that reward.
        let mut agent = Dqn::new(&[2, 4, 2], tiny_rl::DqnConfig::default(), 1);
        let mut buf = WindowBuffer::new();
        buf.on_decision(vec![0.0, 0.0], 0);
        buf.on_decision(vec![0.1, 0.1], 1);
        assert_eq!(agent.replay_len(), 0, "parked until the window closes");
        buf.close_window(&mut agent, 0.5);
        assert_eq!(agent.replay_len(), 2, "both decisions flushed with R=0.5");
        buf.on_decision(vec![0.2, 0.2], 0);
        buf.finish(&mut agent, -1.0);
        assert_eq!(agent.replay_len(), 3, "final partial window flushed too");
    }
}
