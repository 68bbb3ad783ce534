//! DQN benchmarks: per-decision and per-training-step costs of the
//! paper-shaped networks (16→25→9 cube agent; 4→25→2 point agent).

use criterion::{criterion_group, criterion_main, Criterion};
use tiny_rl::{Dqn, DqnConfig, ForwardRows, Transition};

fn bench_dqn(c: &mut Criterion) {
    let mut agent = Dqn::new(&[16, 25, 9], DqnConfig::default(), 1);
    let state: Vec<f64> = (0..16).map(|i| i as f64 / 16.0).collect();
    let mask = vec![true; 9];

    c.bench_function("dqn_q_values_16x25x9", |b| {
        b.iter(|| agent.q_values(std::hint::black_box(&state)))
    });

    c.bench_function("dqn_greedy_action", |b| {
        b.iter(|| agent.greedy_action(std::hint::black_box(&state), &mask))
    });

    c.bench_function("dqn_greedy_action_reused_rows", |b| {
        let mut rows = ForwardRows::default();
        b.iter(|| agent.greedy_action_with(std::hint::black_box(&state), &mask, &mut rows))
    });

    // Fill the replay so train_step actually trains.
    for i in 0..64 {
        agent.remember(Transition {
            state: state.clone(),
            action: i % 9,
            reward: (i % 3) as f64 * 0.1,
            next_state: Some(state.clone()),
            next_mask: mask.clone(),
        });
    }
    let mut group = c.benchmark_group("dqn_train");
    group.sample_size(20);
    group.bench_function("train_step_batch32", |b| b.iter(|| agent.train_step()));
    group.finish();

    c.bench_function("dqn_whiten", |b| {
        let mut whitened = state.clone();
        b.iter(|| {
            whitened.copy_from_slice(std::hint::black_box(&state));
            agent.whiten(&mut whitened);
        })
    });
}

criterion_group!(benches, bench_dqn);
criterion_main!(benches);
