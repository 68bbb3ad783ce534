//! Experiment harness reproducing every table and figure of the RL4QDTS
//! paper's evaluation (§V).
//!
//! Structure:
//! - [`tasks`]: the five query tasks and the F1 scoring pipeline;
//! - [`suite`]: the 25 EDTS baselines plus RL4QDTS behind one interface;
//! - [`skyline`]: Pareto skyline selection (Fig. 3's methodology);
//! - [`experiments`]: one module per table/figure;
//! - [`serving`]: the `snapshot` / `serve` persistence pipeline (CSV →
//!   snapshot once, then query from the mapping);
//! - [`args`], [`table`]: CLI parsing and plain-text table rendering.
//!
//! Each experiment is exposed both as a library function (tested at smoke
//! scale) and as a binary (`cargo run -p qdts-eval --release --bin
//! fig4_geolife -- --scale small`), named after the table or figure it
//! reproduces. No measured results are committed yet: ROADMAP.md item 2
//! ("the paper's tables from one command") is where they will come from.

#![warn(missing_docs)]

pub mod args;
pub mod experiments;
pub mod heatmap;
pub mod serving;
pub mod skyline;
pub mod suite;
pub mod table;
pub mod tasks;

pub use args::ExpArgs;
pub use table::Table;
