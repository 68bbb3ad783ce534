//! Deep Q-Network with replay memory and ε-greedy exploration
//! (Mnih et al., 2013), parameterized exactly as the paper trains both
//! agents: γ = 0.99, Adam lr 0.01, replay capacity 2000, ε floor 0.1 with
//! multiplicative decay 0.99.

use crate::nn::{Adam, ForwardRows, Mlp, Whitener};
use crate::replay::{ReplayMemory, Transition};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// DQN hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct DqnConfig {
    /// Discount rate γ (paper: 0.99).
    pub gamma: f64,
    /// Adam learning rate (paper: 0.01).
    pub lr: f64,
    /// Initial exploration rate.
    pub epsilon_start: f64,
    /// Exploration floor (paper: 0.1).
    pub epsilon_min: f64,
    /// Multiplicative ε decay applied per training step (paper: 0.99).
    pub epsilon_decay: f64,
    /// Replay memory capacity (paper: 2000).
    pub replay_capacity: usize,
    /// Minibatch size per training step.
    pub batch_size: usize,
    /// Copy online → target network every this many training steps.
    pub target_sync_every: u64,
    /// Use Double DQN targets (van Hasselt et al., 2016): the online
    /// network selects the argmax action, the target network evaluates it.
    /// Reduces the maximization bias of vanilla DQN; off by default to
    /// match the paper's setup.
    pub double_dqn: bool,
}

impl Default for DqnConfig {
    fn default() -> Self {
        Self {
            gamma: 0.99,
            lr: 0.01,
            epsilon_start: 1.0,
            epsilon_min: 0.1,
            epsilon_decay: 0.99,
            replay_capacity: 2000,
            batch_size: 32,
            target_sync_every: 50,
            double_dqn: false,
        }
    }
}

/// A DQN agent: online + target Q-networks, replay memory, ε-greedy policy,
/// and an input whitener (the paper's batch-norm stand-in: running
/// per-feature statistics scale the states as batch norm would, but
/// deterministically, without noisy tiny-batch estimates).
#[derive(Debug, Clone)]
pub struct Dqn {
    online: Mlp,
    target: Mlp,
    optimizer: Adam,
    replay: ReplayMemory,
    whitener: Whitener,
    config: DqnConfig,
    epsilon: f64,
    train_steps: u64,
    rng: StdRng,
}

impl Dqn {
    /// Builds an agent with the given network shape (e.g. `[16, 25, 9]`).
    pub fn new(sizes: &[usize], config: DqnConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let online = Mlp::new(sizes, &mut rng);
        let target = online.clone();
        let optimizer = Adam::new(&online, config.lr);
        Self {
            whitener: Whitener::new(sizes[0]),
            replay: ReplayMemory::new(config.replay_capacity),
            online,
            target,
            optimizer,
            config,
            epsilon: config.epsilon_start,
            train_steps: 0,
            rng,
        }
    }

    /// Rebuilds an agent around a deserialized network (inference).
    pub fn from_parts(online: Mlp, whitener: Whitener, config: DqnConfig, seed: u64) -> Self {
        let optimizer = Adam::new(&online, config.lr);
        Self {
            target: online.clone(),
            replay: ReplayMemory::new(config.replay_capacity),
            whitener,
            online,
            optimizer,
            config,
            epsilon: config.epsilon_min,
            train_steps: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Number of actions.
    pub fn action_dim(&self) -> usize {
        self.online.output_dim()
    }

    /// State dimension.
    pub fn state_dim(&self) -> usize {
        self.online.input_dim()
    }

    /// Current exploration rate.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The online network (serialization).
    pub fn online(&self) -> &Mlp {
        &self.online
    }

    /// The input whitener (serialization).
    pub fn whitener(&self) -> &Whitener {
        &self.whitener
    }

    /// Training steps taken.
    pub fn train_steps(&self) -> u64 {
        self.train_steps
    }

    /// Transitions currently stored.
    pub fn replay_len(&self) -> usize {
        self.replay.len()
    }

    /// Whitens a raw state in place with the statistics as they stand —
    /// the inference form, on a borrowed agent.
    pub fn whiten(&self, state: &mut [f64]) {
        self.whitener.transform(state);
    }

    /// Folds a raw state into the whitening statistics, then whitens it in
    /// place — the training form.
    pub fn observe_whiten(&mut self, state: &mut [f64]) {
        self.whitener.observe_transform(state);
    }

    /// Q-values of a (whitened) state.
    pub fn q_values(&self, state: &[f64]) -> Vec<f64> {
        self.online.forward(state)
    }

    /// ε-greedy action over the valid actions flagged by `mask`.
    /// Falls back to action 0 when the mask is all-false.
    pub fn select_action(&mut self, state: &[f64], mask: &[bool]) -> usize {
        debug_assert_eq!(mask.len(), self.action_dim());
        let valid = mask.iter().filter(|&&ok| ok).count();
        if valid == 0 {
            return 0;
        }
        if self.rng.gen_range(0.0..1.0) < self.epsilon {
            let n = self.rng.gen_range(0..valid);
            return (0..mask.len())
                .filter(|&a| mask[a])
                .nth(n)
                .expect("n < valid");
        }
        self.greedy_action(state, mask)
    }

    /// Greedy (argmax-Q) action over valid actions.
    pub fn greedy_action(&self, state: &[f64], mask: &[bool]) -> usize {
        self.greedy_action_with(state, mask, &mut ForwardRows::default())
    }

    /// [`Dqn::greedy_action`] with the forward pass run over the caller's
    /// rows (an inference loop's per-decision allocations go). A mask that
    /// admits at most one action decides without a forward pass: the one
    /// valid action whatever its Q-value, or 0 when none is valid.
    pub fn greedy_action_with(
        &self,
        state: &[f64],
        mask: &[bool],
        rows: &mut ForwardRows,
    ) -> usize {
        self.forced_action(mask)
            .unwrap_or_else(|| self.argmax(state, mask, rows))
    }

    /// [`Dqn::greedy_action_with`] on a raw state: whitens it in place with
    /// the statistics as they stand, then decides — unless the mask forces
    /// the action, when nothing reads the state and it is left raw.
    pub fn greedy_action_raw(
        &self,
        state: &mut [f64],
        mask: &[bool],
        rows: &mut ForwardRows,
    ) -> usize {
        self.forced_action(mask).unwrap_or_else(|| {
            self.whiten(state);
            self.argmax(state, mask, rows)
        })
    }

    /// The action a mask admitting at most one leaves no choice about.
    fn forced_action(&self, mask: &[bool]) -> Option<usize> {
        let mut valid = (0..self.action_dim().min(mask.len())).filter(|&a| mask[a]);
        match (valid.next(), valid.next()) {
            (first, None) => Some(first.unwrap_or(0)),
            _ => None,
        }
    }

    /// The valid action of highest Q, the first of equals (0 when none is
    /// valid).
    fn argmax(&self, state: &[f64], mask: &[bool], rows: &mut ForwardRows) -> usize {
        let q = self.online.forward_rows(state, rows);
        let mut best = None::<(usize, f64)>;
        for (a, (&qa, &ok)) in q.iter().zip(mask).enumerate() {
            if !ok {
                continue;
            }
            if best.is_none_or(|(_, bq)| qa > bq) {
                best = Some((a, qa));
            }
        }
        best.map_or(0, |(a, _)| a)
    }

    /// Stores a transition.
    pub fn remember(&mut self, t: Transition) {
        self.replay.push(t);
    }

    /// One DQN training step: sample a minibatch, regress the chosen
    /// action's Q-value toward `r + γ·max_valid Q_target(s′)`, Adam-update,
    /// decay ε, and periodically sync the target network.
    ///
    /// Returns the minibatch MSE, or `None` when the replay memory has
    /// fewer than `batch_size` transitions.
    pub fn train_step(&mut self) -> Option<f64> {
        if self.replay.len() < self.config.batch_size {
            return None;
        }
        let batch: Vec<Transition> = self
            .replay
            .sample(self.config.batch_size, &mut self.rng)
            .into_iter()
            .cloned()
            .collect();

        let mut grad = self.online.zero_grad();
        let mut loss = 0.0;
        let scale = 1.0 / batch.len() as f64;
        for t in &batch {
            let target = match &t.next_state {
                None => t.reward,
                Some(ns) => {
                    let q_target = self.target.forward(ns);
                    let best = if self.config.double_dqn {
                        // Double DQN: online net picks, target net scores.
                        let q_online = self.online.forward(ns);
                        let mut pick = None::<(usize, f64)>;
                        for (a, (&qa, &ok)) in q_online.iter().zip(&t.next_mask).enumerate() {
                            if ok && pick.is_none_or(|(_, bq)| qa > bq) {
                                pick = Some((a, qa));
                            }
                        }
                        pick.map_or(f64::NEG_INFINITY, |(a, _)| q_target[a])
                    } else {
                        q_target
                            .iter()
                            .zip(&t.next_mask)
                            .filter(|(_, &ok)| ok)
                            .map(|(&q, _)| q)
                            .fold(f64::NEG_INFINITY, f64::max)
                    };
                    if best.is_finite() {
                        t.reward + self.config.gamma * best
                    } else {
                        // No valid successor action: treat as terminal.
                        t.reward
                    }
                }
            };
            let acts = self.online.forward_trace(&t.state);
            let q = acts.last().expect("trace non-empty");
            let td = q[t.action] - target;
            loss += td * td * scale;
            let mut d_out = vec![0.0; q.len()];
            d_out[t.action] = 2.0 * td * scale;
            self.online.backward(&acts, &d_out, &mut grad);
        }
        self.optimizer.step(&mut self.online, &grad);

        self.train_steps += 1;
        self.epsilon = (self.epsilon * self.config.epsilon_decay).max(self.config.epsilon_min);
        if self
            .train_steps
            .is_multiple_of(self.config.target_sync_every)
        {
            self.sync_target();
        }
        Some(loss)
    }

    /// Copies the online network into the target network.
    pub fn sync_target(&mut self) {
        self.target = self.online.clone();
    }

    /// Freezes exploration (inference mode).
    pub fn freeze(&mut self) {
        self.epsilon = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 5-state corridor: start at 0, actions {0: left, 1: right},
    /// reward 1 for reaching state 4 (terminal), 0 otherwise.
    struct Corridor {
        pos: usize,
    }

    impl Corridor {
        fn state(&self) -> Vec<f64> {
            let mut s = vec![0.0; 5];
            s[self.pos] = 1.0;
            s
        }

        fn step(&mut self, action: usize) -> (f64, bool) {
            if action == 1 {
                self.pos += 1;
            } else {
                self.pos = self.pos.saturating_sub(1);
            }
            if self.pos == 4 {
                (1.0, true)
            } else {
                (0.0, false)
            }
        }
    }

    #[test]
    fn dqn_learns_the_corridor() {
        let config = DqnConfig {
            batch_size: 16,
            replay_capacity: 500,
            epsilon_decay: 0.995,
            ..DqnConfig::default()
        };
        let mut agent = Dqn::new(&[5, 16, 2], config, 42);
        let mask = [true, true];
        for _ in 0..300 {
            let mut env = Corridor { pos: 0 };
            for _ in 0..20 {
                let s = env.state();
                let a = agent.select_action(&s, &mask);
                let (r, done) = env.step(a);
                let next = if done { None } else { Some(env.state()) };
                agent.remember(Transition {
                    state: s,
                    action: a,
                    reward: r,
                    next_state: next,
                    next_mask: mask.to_vec(),
                });
                agent.train_step();
                if done {
                    break;
                }
            }
        }
        agent.freeze();
        // The greedy policy must walk right from every state.
        for pos in 0..4 {
            let env = Corridor { pos };
            assert_eq!(
                agent.greedy_action(&env.state(), &mask),
                1,
                "state {pos} should go right"
            );
        }
    }

    #[test]
    fn double_dqn_also_learns_the_corridor() {
        let config = DqnConfig {
            batch_size: 16,
            replay_capacity: 500,
            epsilon_decay: 0.995,
            double_dqn: true,
            ..DqnConfig::default()
        };
        let mut agent = Dqn::new(&[5, 16, 2], config, 43);
        let mask = [true, true];
        for _ in 0..300 {
            let mut env = Corridor { pos: 0 };
            for _ in 0..20 {
                let s = env.state();
                let a = agent.select_action(&s, &mask);
                let (r, done) = env.step(a);
                let next = if done { None } else { Some(env.state()) };
                agent.remember(Transition {
                    state: s,
                    action: a,
                    reward: r,
                    next_state: next,
                    next_mask: mask.to_vec(),
                });
                agent.train_step();
                if done {
                    break;
                }
            }
        }
        agent.freeze();
        for pos in 0..4 {
            let env = Corridor { pos };
            assert_eq!(agent.greedy_action(&env.state(), &mask), 1, "state {pos}");
        }
    }

    #[test]
    fn masked_actions_are_never_selected() {
        let mut agent = Dqn::new(&[2, 8, 3], DqnConfig::default(), 7);
        let mask = [false, true, false];
        for _ in 0..200 {
            let a = agent.select_action(&[0.0, 1.0], &mask);
            assert_eq!(a, 1);
        }
        assert_eq!(agent.greedy_action(&[0.0, 1.0], &mask), 1);
    }

    /// The ε-greedy draw as it was written with the valid actions
    /// collected into a `Vec` per call.
    fn collected_select_action(agent: &mut Dqn, state: &[f64], mask: &[bool]) -> usize {
        let valid: Vec<usize> = (0..mask.len()).filter(|&a| mask[a]).collect();
        if valid.is_empty() {
            return 0;
        }
        if agent.rng.gen_range(0.0..1.0) < agent.epsilon {
            return valid[agent.rng.gen_range(0..valid.len())];
        }
        agent.greedy_action(state, mask)
    }

    #[test]
    fn select_action_draws_what_the_collected_form_drew() {
        use rand::RngCore;
        let mut masks = StdRng::seed_from_u64(14);
        for epsilon in [1.0, 0.5, 0.0] {
            let mut agent = Dqn::new(&[3, 8, 6], DqnConfig::default(), 13);
            agent.epsilon = epsilon;
            let mut reference = agent.clone();
            for step in 0..500 {
                let mask: Vec<bool> = (0..6).map(|_| masks.gen_range(0..3) == 0).collect();
                let state = [step as f64 * 0.01, -1.0, 0.5];
                assert_eq!(
                    agent.select_action(&state, &mask),
                    collected_select_action(&mut reference, &state, &mask),
                    "ε {epsilon}, step {step}, mask {mask:?}"
                );
            }
            assert_eq!(
                agent.rng.next_u64(),
                reference.rng.next_u64(),
                "ε {epsilon}"
            );
        }
    }

    #[test]
    fn all_false_mask_falls_back_to_zero() {
        let mut agent = Dqn::new(&[1, 4, 2], DqnConfig::default(), 8);
        assert_eq!(agent.select_action(&[0.0], &[false, false]), 0);
    }

    #[test]
    fn train_step_requires_a_full_batch() {
        let mut agent = Dqn::new(&[1, 4, 2], DqnConfig::default(), 9);
        assert!(agent.train_step().is_none());
        for _ in 0..DqnConfig::default().batch_size {
            agent.remember(Transition {
                state: vec![0.0],
                action: 0,
                reward: 1.0,
                next_state: None,
                next_mask: vec![],
            });
        }
        assert!(agent.train_step().is_some());
    }

    #[test]
    fn epsilon_decays_to_floor() {
        let config = DqnConfig {
            epsilon_decay: 0.5,
            batch_size: 1,
            ..DqnConfig::default()
        };
        let mut agent = Dqn::new(&[1, 4, 2], config, 10);
        agent.remember(Transition {
            state: vec![0.0],
            action: 0,
            reward: 0.0,
            next_state: None,
            next_mask: vec![],
        });
        for _ in 0..20 {
            agent.train_step();
        }
        assert_eq!(agent.epsilon(), config.epsilon_min);
    }

    #[test]
    fn terminal_targets_equal_reward() {
        // With a single terminal transition repeated, Q(s, a) must converge
        // to exactly the reward.
        let config = DqnConfig {
            batch_size: 4,
            lr: 0.05,
            ..DqnConfig::default()
        };
        let mut agent = Dqn::new(&[1, 8, 2], config, 11);
        for _ in 0..8 {
            agent.remember(Transition {
                state: vec![1.0],
                action: 1,
                reward: 3.0,
                next_state: None,
                next_mask: vec![],
            });
        }
        for _ in 0..500 {
            agent.train_step();
        }
        let q = agent.q_values(&[1.0]);
        assert!((q[1] - 3.0).abs() < 0.1, "Q = {q:?}");
    }

    #[test]
    fn whiten_learn_vs_inference() {
        let mut agent = Dqn::new(&[2, 4, 2], DqnConfig::default(), 12);
        for i in 0..100 {
            agent.observe_whiten(&mut [i as f64, 1000.0 * i as f64]);
        }
        let mut w = [50.0, 50_000.0];
        agent.whiten(&mut w);
        assert!(w.iter().all(|v| v.abs() < 3.0), "whitened: {w:?}");
    }
}
