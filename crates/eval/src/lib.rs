//! Experiment harness reproducing every table and figure of the RL4QDTS
//! paper's evaluation (§V).
//!
//! Structure:
//! - [`tasks`]: the five query tasks and the one `Truth` per workload
//!   that every F1 is scored against;
//! - [`suite`]: the 25 EDTS baselines plus RL4QDTS behind one interface;
//! - [`skyline`]: Pareto skyline selection (Fig. 3's methodology);
//! - [`experiments`]: one module per table/figure;
//! - [`repro`]: one printer per table/figure and their registry;
//! - [`args`], [`table`]: CLI parsing and plain-text table rendering.
//!
//! Each experiment is a library function (tested at smoke scale); the
//! one `repro` binary prints them all in paper order, or one of them
//! (`cargo run -p qdts-eval --release --bin repro -- --only fig4 --scale
//! small`). No measured results are committed yet: ROADMAP.md item 2
//! ("the paper's tables from one command") is where they will come from.

#![warn(missing_docs)]

pub mod args;
pub mod experiments;
pub mod heatmap;
pub mod repro;
pub mod skyline;
pub mod suite;
pub mod table;
pub mod tasks;

pub use args::ExpArgs;
pub use table::Table;
