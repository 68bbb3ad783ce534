//! A minimal, dependency-light reinforcement-learning toolkit.
//!
//! The paper trains its two agents with Deep Q-Networks: two-layer
//! feedforward networks (25 tanh hidden units, linear head) optimized with
//! Adam (lr 0.01), ε-greedy exploration (floor 0.1, decay 0.99), replay
//! memory of 2000 transitions, and discount 0.99. No deep-learning crate is
//! available offline, so this crate implements exactly that stack from
//! scratch: [`nn`] (dense layers, MLPs, Adam, feature whitening, text
//! checkpoints), [`replay`] (experience replay), and [`dqn`] (the agent).
//!
//! Both the RLTS+ baseline (`traj-simp`) and RL4QDTS itself (`rl4qdts`)
//! build on this crate.

#![warn(missing_docs)]

pub mod dqn;
pub mod nn;
pub mod replay;

pub use dqn::{Dqn, DqnConfig};
pub use nn::{Adam, Dense, ForwardRows, Mlp, Whitener};
pub use replay::{ReplayMemory, Transition};
