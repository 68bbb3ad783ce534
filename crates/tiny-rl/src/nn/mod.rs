//! Minimal neural-network building blocks: dense layers, tanh MLPs, Adam,
//! online feature whitening, and text serialization. Everything is written
//! from scratch on `Vec<f64>` — the networks here are tiny (tens of units),
//! so clarity and determinism beat BLAS.

pub mod adam;
pub mod dense;
pub mod mlp;
pub mod norm;
pub mod serialize;

pub use adam::Adam;
pub use dense::{Dense, DenseGrad};
pub use mlp::{ForwardRows, Mlp, MlpGrad};
pub use norm::Whitener;
