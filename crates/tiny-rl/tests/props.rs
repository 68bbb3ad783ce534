//! Property-based tests for the neural-network substrate.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tiny_rl::nn::serialize::{mlp_from_str, mlp_to_string, whitener_from_str, whitener_to_string};
use tiny_rl::{Dqn, DqnConfig, ForwardRows, Mlp, ReplayMemory, Transition, Whitener};

fn arb_input(dim: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-10.0..10.0f64, dim)
}

/// The greedy decision with a forward pass whatever the mask: the first
/// valid action of highest Q, 0 when none is valid.
fn full_forward_greedy(agent: &Dqn, state: &[f64], mask: &[bool]) -> usize {
    let q = agent.q_values(state);
    let mut best = None::<(usize, f64)>;
    for (a, (&qa, &ok)) in q.iter().zip(mask).enumerate() {
        if ok && best.is_none_or(|(_, bq)| qa > bq) {
            best = Some((a, qa));
        }
    }
    best.map_or(0, |(a, _)| a)
}

/// Masks over 5 actions: one-hot, all-false, or anything.
fn arb_mask() -> impl Strategy<Value = Vec<bool>> {
    prop_oneof![
        (0usize..5).prop_map(|hot| (0..5).map(|a| a == hot).collect()),
        Just(vec![false; 5]),
        prop::collection::vec(any::<bool>(), 5),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn forced_actions_decide_as_the_full_forward_pass(
        (seed, x, mask, seen) in (
            0u64..500,
            arb_input(4),
            arb_mask(),
            prop::collection::vec(arb_input(4), 0..8),
        )
    ) {
        let mut agent = Dqn::new(&[4, 8, 5], DqnConfig::default(), seed);
        for s in &seen {
            agent.observe_whiten(&mut s.clone());
        }
        let mut whitened = x.clone();
        agent.whiten(&mut whitened);
        let expected = full_forward_greedy(&agent, &whitened, &mask);
        let mut rows = ForwardRows::default();
        prop_assert_eq!(agent.greedy_action(&whitened, &mask), expected);
        prop_assert_eq!(agent.greedy_action_with(&whitened, &mask, &mut rows), expected);
        let mut raw = x.clone();
        prop_assert_eq!(agent.greedy_action_raw(&mut raw, &mask, &mut rows), expected);
        // The raw form whitens exactly when a forward pass reads the state.
        let forced = mask.iter().filter(|&&ok| ok).count() <= 1;
        prop_assert_eq!(raw, if forced { x } else { whitened });
    }

    #[test]
    fn mlp_forward_is_deterministic_and_finite(
        (seed, x) in (0u64..1000, arb_input(6))
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = Mlp::new(&[6, 12, 4], &mut rng);
        let a = net.forward(&x);
        let b = net.forward(&x);
        prop_assert_eq!(a.clone(), b);
        prop_assert!(a.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn mlp_serialization_round_trips_exactly(
        (seed, x) in (0u64..1000, arb_input(5))
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = Mlp::new(&[5, 7, 3], &mut rng);
        let back = mlp_from_str(&mlp_to_string(&net)).unwrap();
        prop_assert_eq!(net.forward(&x), back.forward(&x));
    }

    #[test]
    fn whitener_output_is_standardized(
        samples in prop::collection::vec(arb_input(3), 10..100)
    ) {
        let mut w = Whitener::new(3);
        for s in &samples {
            w.observe(s);
        }
        let back = whitener_from_str(&whitener_to_string(&w)).unwrap();
        // Whitening the observed mean lands on ~0 for both copies.
        let (mean, _, _) = w.raw();
        let mut x = mean.to_vec();
        let mut y = mean.to_vec();
        w.transform(&mut x);
        back.transform(&mut y);
        for (a, b) in x.iter().zip(&y) {
            prop_assert!((a - b).abs() < 1e-12);
            prop_assert!(a.abs() < 1e-9, "whitened mean should be ~0, got {a}");
        }
    }

    #[test]
    fn greedy_action_always_respects_mask(
        (seed, x, mask) in (
            0u64..500,
            arb_input(4),
            prop::collection::vec(any::<bool>(), 3),
        )
    ) {
        let agent = Dqn::new(&[4, 8, 3], DqnConfig::default(), seed);
        let a = agent.greedy_action(&x, &mask);
        if mask.iter().any(|&m| m) {
            prop_assert!(mask[a], "picked masked action {a}");
        } else {
            prop_assert_eq!(a, 0);
        }
    }

    #[test]
    fn replay_never_exceeds_capacity(
        (cap, n) in (1usize..50, 0usize..200)
    ) {
        let mut m = ReplayMemory::new(cap);
        for i in 0..n {
            m.push(Transition {
                state: vec![i as f64],
                action: 0,
                reward: 0.0,
                next_state: None,
                next_mask: vec![],
            });
        }
        prop_assert_eq!(m.len(), n.min(cap));
    }

    #[test]
    fn train_step_keeps_parameters_finite(
        seed in 0u64..200
    ) {
        let mut agent = Dqn::new(&[3, 8, 2], DqnConfig { batch_size: 8, ..DqnConfig::default() }, seed);
        for i in 0..32 {
            agent.remember(Transition {
                state: vec![i as f64 % 3.0, 1.0, -1.0],
                action: i % 2,
                reward: (i % 5) as f64 - 2.0,
                next_state: if i % 4 == 0 { None } else { Some(vec![0.0, 0.5, 0.5]) },
                next_mask: vec![true, true],
            });
        }
        for _ in 0..20 {
            if let Some(loss) = agent.train_step() {
                prop_assert!(loss.is_finite());
            }
        }
        let q = agent.q_values(&[0.1, 0.2, 0.3]);
        prop_assert!(q.iter().all(|v| v.is_finite()));
    }
}
