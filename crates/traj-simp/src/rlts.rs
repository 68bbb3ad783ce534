//! RLTS+ (Wang, Long, Cong — ICDE 2021): reinforcement-learning
//! trajectory simplification. Adopts the Bottom-Up strategy but lets a
//! learned DQN policy choose which of the `K` cheapest candidate points to
//! drop, instead of always dropping the cheapest.
//!
//! MDP (following the published design): the state holds the drop costs of
//! the `K` current cheapest candidates (ascending, whitened); the action
//! picks one of them; the reward is the negative increase of the running
//! maximum error, which telescopes to the negative final trajectory error —
//! the EDTS objective. Training is per-trajectory (RLTS+ is a
//! trajectory-level technique); the E/W adaptations only change how the
//! trained policy is *applied* to a database.

use crate::adapt::{simplify_each, Adaptation};
use crate::bottomup::drop_cost_seq;
use crate::heap::LazyHeap;
use crate::Simplifier;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tiny_rl::{Dqn, DqnConfig, Transition};
use trajectory::{AsColumns, ErrorMeasure, PointStore, Simplification, TrajId, TrajView};

/// The RLTS+ baseline.
#[derive(Debug, Clone)]
pub struct RltsPlus {
    /// Error measure the policy was trained to minimize.
    pub measure: ErrorMeasure,
    /// Database adaptation ("E" or "W").
    pub adaptation: Adaptation,
    /// Number of cheapest candidates the policy chooses among.
    pub k: usize,
    agent: Dqn,
}

/// Training options for RLTS+.
#[derive(Debug, Clone, Copy)]
pub struct RltsTrainConfig {
    /// Number of training episodes (one trajectory each).
    pub episodes: usize,
    /// Compression ratio used during training episodes.
    pub ratio: f64,
    /// DQN hyperparameters.
    pub dqn: DqnConfig,
}

impl Default for RltsTrainConfig {
    fn default() -> Self {
        Self {
            episodes: 60,
            ratio: 0.1,
            dqn: DqnConfig::default(),
        }
    }
}

impl RltsPlus {
    /// Trains an RLTS+ policy on trajectories sampled from `train_db`
    /// (owned or mapped columns; training only reads them).
    pub fn train<S: AsColumns + ?Sized>(
        measure: ErrorMeasure,
        adaptation: Adaptation,
        k: usize,
        train_db: &S,
        config: &RltsTrainConfig,
        seed: u64,
    ) -> Self {
        assert!(k >= 1);
        let mut agent = Dqn::new(&[k, 25, k], config.dqn, seed);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(1));
        for _ in 0..config.episodes {
            if train_db.is_empty() {
                break;
            }
            let traj = train_db.view(rng.gen_range(0..train_db.len()));
            if traj.len() < 4 {
                continue;
            }
            let budget = ((traj.len() as f64 * config.ratio) as usize).max(2);
            policy_drop_one(traj, budget, measure, k, Policy::Learn(&mut agent));
        }
        agent.freeze();
        Self {
            measure,
            adaptation,
            k,
            agent,
        }
    }

    /// Re-targets the trained policy at the other adaptation without
    /// retraining (the policy itself is trajectory-level).
    pub fn with_adaptation(&self, adaptation: Adaptation) -> Self {
        let mut c = self.clone();
        c.adaptation = adaptation;
        c
    }
}

impl Simplifier for RltsPlus {
    fn name(&self) -> String {
        format!("RLTS+({},{})", self.adaptation, self.measure)
    }

    fn simplify_store(&self, store: &PointStore, budget: usize) -> Simplification {
        // Greedy inference reads the trained agent and changes nothing in
        // it, so repeated calls are independent and deterministic.
        let policy = || Policy::Act(&self.agent);
        match self.adaptation {
            Adaptation::Each => simplify_each(store, budget, |v, b| {
                let budget = b.clamp(2, v.len());
                policy_drop_one(v, budget, self.measure, self.k, policy())
            }),
            Adaptation::Whole => {
                let mut simp = Simplification::full_store(store);
                let budget = budget.max(crate::min_points_store(store));
                run_policy_drop(store, &mut simp, budget, self.measure, self.k, policy());
                simp
            }
        }
    }
}

/// How the drop loop uses its agent: training explores ε-greedily, stores
/// transitions and takes gradient steps, so it owns the agent for the
/// loop; inference acts greedily on a borrowed one.
enum Policy<'a> {
    Learn(&'a mut Dqn),
    Act(&'a Dqn),
}

/// The policy loop over one trajectory, run as a single-trajectory store
/// of its own (the trajectory's points are copied once). Returns its kept
/// indices.
fn policy_drop_one(
    traj: TrajView<'_>,
    budget: usize,
    measure: ErrorMeasure,
    k: usize,
    policy: Policy<'_>,
) -> Vec<u32> {
    let mut single = PointStore::with_capacity(1, traj.len());
    let _ = single.push_view(traj);
    let mut simp = Simplification::full_store(&single);
    run_policy_drop(&single, &mut simp, budget, measure, k, policy);
    simp.kept(0).to_vec()
}

/// The shared Bottom-Up-with-a-policy loop (see [`Policy`]).
fn run_policy_drop<S: AsColumns + ?Sized>(
    store: &S,
    simp: &mut Simplification,
    budget: usize,
    measure: ErrorMeasure,
    k: usize,
    mut policy: Policy<'_>,
) {
    let mut versions: Vec<Vec<u64>> = store.views().map(|v| vec![0u64; v.len()]).collect();
    let mut heap: LazyHeap<(TrajId, u32)> = LazyHeap::new();
    for (id, v) in store.iter() {
        for idx in 1..v.len().saturating_sub(1) as u32 {
            if let Some(c) = drop_cost_seq(&v, simp, id, idx, measure) {
                heap.push(-c, 0, (id, idx));
            }
        }
    }

    let mut total = simp.total_points();
    let mut running_err = 0.0f64;
    // Pending (state, action) waiting for the next state to complete a
    // transition.
    let mut pending: Option<(Vec<f64>, usize, f64)> = None;

    while total > budget {
        // Pop up to K currently-valid cheapest candidates.
        let mut candidates: Vec<(f64, (TrajId, u32))> = Vec::with_capacity(k);
        while candidates.len() < k {
            let popped = heap.pop_current(|&(id, idx), v| {
                versions[id][idx as usize] == v && simp.contains(id, idx)
            });
            match popped {
                Some((neg_cost, payload)) => candidates.push((-neg_cost, payload)),
                None => break,
            }
        }
        if candidates.is_empty() {
            break;
        }
        // State: the K costs ascending, padded with the worst cost.
        let pad = candidates.last().expect("non-empty").0;
        let mut state: Vec<f64> = candidates.iter().map(|(c, _)| *c).collect();
        state.resize(k, pad);
        match &mut policy {
            Policy::Learn(agent) => agent.observe_whiten(&mut state),
            Policy::Act(agent) => agent.whiten(&mut state),
        }
        let mut mask = vec![false; k];
        for m in mask.iter_mut().take(candidates.len()) {
            *m = true;
        }

        // Close the pending transition now that its successor is known.
        if let Policy::Learn(agent) = &mut policy {
            if let Some((ps, pa, pr)) = pending.take() {
                agent.remember(Transition {
                    state: ps,
                    action: pa,
                    reward: pr,
                    next_state: Some(state.clone()),
                    next_mask: mask.clone(),
                });
                agent.train_step();
            }
        }

        let action = match &mut policy {
            Policy::Learn(agent) => agent.select_action(&state, &mask),
            Policy::Act(agent) => agent.greedy_action(&state, &mask),
        };
        let (cost, (id, idx)) = candidates[action.min(candidates.len() - 1)];

        // Push back the unchosen candidates (still valid, same versions).
        for (i, &(c, payload)) in candidates.iter().enumerate() {
            if i != action.min(candidates.len() - 1) {
                heap.push(-c, versions[payload.0][payload.1 as usize], payload);
            }
        }

        let (l, r) = simp.kept_neighbors(id, idx).expect("candidate is current");
        let removed = simp.remove(id, idx);
        debug_assert!(removed);
        total -= 1;
        for nb in [l, r] {
            if simp.kept_neighbors(id, nb).is_some() {
                versions[id][nb as usize] += 1;
                if let Some(c) = drop_cost_seq(&store.view(id), simp, id, nb, measure) {
                    heap.push(-c, versions[id][nb as usize], (id, nb));
                }
            }
        }

        if matches!(policy, Policy::Learn(_)) {
            // Reward: negative increase of the running max error.
            let new_err = running_err.max(cost);
            let reward = running_err - new_err;
            running_err = new_err;
            pending = Some((state, action, reward));
        }
    }

    // Terminal transition.
    if let Policy::Learn(agent) = &mut policy {
        if let Some((ps, pa, pr)) = pending.take() {
            agent.remember(Transition {
                state: ps,
                action: pa,
                reward: pr,
                next_state: None,
                next_mask: vec![],
            });
            agent.train_step();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trajectory::gen::{generate, DatasetSpec, Scale};
    use trajectory::{Point, Trajectory, TrajectoryDb};

    fn train_db() -> PointStore {
        generate(&DatasetSpec::geolife(Scale::Smoke), 11).to_store()
    }

    fn trained() -> RltsPlus {
        let cfg = RltsTrainConfig {
            episodes: 10,
            ..RltsTrainConfig::default()
        };
        RltsPlus::train(
            ErrorMeasure::Sed,
            Adaptation::Each,
            3,
            &train_db(),
            &cfg,
            42,
        )
    }

    #[test]
    fn respects_budget_each() {
        let rlts = trained();
        let db = train_db();
        let budget = db.total_points() / 10;
        let simp = rlts.simplify_store(&db, budget);
        assert!(simp.total_points() <= budget.max(crate::min_points_store(&db)));
        for (id, t) in db.iter() {
            assert_eq!(simp.kept(id)[0], 0);
            assert_eq!(*simp.kept(id).last().unwrap(), t.len() as u32 - 1);
        }
    }

    #[test]
    fn respects_budget_whole() {
        let rlts = trained().with_adaptation(Adaptation::Whole);
        let db = train_db();
        let budget = db.total_points() / 8;
        let simp = rlts.simplify_store(&db, budget);
        assert!(simp.total_points() <= budget.max(crate::min_points_store(&db)));
    }

    #[test]
    fn inference_is_deterministic() {
        let rlts = trained();
        let db = train_db();
        let a = rlts.simplify_store(&db, db.total_points() / 10);
        let b = rlts.simplify_store(&db, db.total_points() / 10);
        assert_eq!(a, b);
    }

    #[test]
    fn error_is_in_bottomup_ballpark() {
        // The learned policy chooses among the K cheapest drops, so its
        // error can't be catastrophically worse than plain Bottom-Up.
        let rlts = trained();
        let t = Trajectory::new(
            (0..100)
                .map(|i| {
                    let y = if i % 7 == 0 { 50.0 } else { (i % 3) as f64 };
                    Point::new(i as f64 * 10.0, y, i as f64)
                })
                .collect(),
        )
        .unwrap();
        let db = TrajectoryDb::new(vec![t.clone()]).to_store();
        let simp = rlts.simplify_store(&db, 20);
        let e_rl = ErrorMeasure::Sed.trajectory_error(&t, simp.kept(0));
        let bu = crate::bottomup::bottomup_one_seq(&t, 20, ErrorMeasure::Sed);
        let e_bu = ErrorMeasure::Sed.trajectory_error(&t, &bu);
        assert!(e_rl <= 5.0 * e_bu + 1.0, "rlts {e_rl} vs bottom-up {e_bu}");
    }

    #[test]
    fn name_matches_paper_convention() {
        assert_eq!(trained().name(), "RLTS+(E,SED)");
        assert_eq!(
            trained().with_adaptation(Adaptation::Whole).name(),
            "RLTS+(W,SED)"
        );
    }
}
