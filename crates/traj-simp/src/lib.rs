//! Error-driven trajectory simplification (EDTS) baselines.
//!
//! The paper compares RL4QDTS against every practical EDTS algorithm,
//! adapted to databases in two ways (§V-A): **E** (simplify each trajectory
//! with a proportional budget) and **W** (treat the database as one global
//! candidate pool). This crate implements all of them:
//!
//! - [`topdown`]: Top-Down — Douglas–Peucker driven by a priority queue
//!   (Hershberger & Snoeyink);
//! - [`bottomup`]: Bottom-Up — iteratively drop the cheapest point
//!   (Marteau & Ménier);
//! - [`spansearch`]: Span-Search — direction-preserving simplification via
//!   binary search over the angular tolerance (Long et al., DAD only);
//! - [`rlts`]: RLTS+ — reinforcement-learning Bottom-Up (Wang et al.),
//!   reimplemented on `tiny-rl`;
//! - [`uniform`]: uniform every-k-th-point sampling (a sanity baseline,
//!   not part of the paper's 25).
//!
//! Each algorithm is generic over the four error measures where the
//! original supports them, yielding the paper's 25 baselines
//! (3 algorithms × 4 measures × 2 adaptations + Span-Search).
//!
//! Every algorithm is written once, over columns: a database is a
//! [`PointStore`], one trajectory a zero-copy [`trajectory::TrajView`].
//! Top-Down's kernel, `topdown_one`, takes the view itself, because its
//! worst-point scan is a batched pass over the view's columns
//! ([`trajectory::ErrorMeasure::worst_point`]). The other per-trajectory
//! kernels — `bottomup_one_seq`, `spansearch_one`, `bounded_one` — are
//! generic over [`trajectory::PointSeq`] and accept a view, an owned
//! [`trajectory::Trajectory`] or a point slice alike. The "E" adaptation
//! all of them share lives in [`adapt::simplify_each`].

#![warn(missing_docs)]

pub mod adapt;
pub mod bottomup;
pub mod bounded;
pub mod heap;
pub mod onepass;
pub mod persist;
pub mod rlts;
pub mod spansearch;
pub mod topdown;
pub mod uniform;

pub use adapt::{per_trajectory_budgets_store, Adaptation};
pub use bottomup::BottomUp;
pub use bounded::{bounded_db, bounded_one, min_eps_for_budget};
pub use onepass::OnePassSed;
pub use persist::{
    per_shard_budgets, simplify_shards, simplify_to_shard_set, simplify_to_snapshot,
    write_simplified_shard_set, write_simplified_snapshot, write_simplified_snapshot_quantized,
};
pub use rlts::RltsPlus;
pub use spansearch::SpanSearch;
pub use topdown::TopDown;
pub use uniform::Uniform;

use trajectory::{AsColumns, PointStore, Simplification, TrajectoryDb};

/// A database simplification algorithm: reduce a database to at most
/// `budget` total points (every trajectory always keeps its endpoints, so
/// the effective floor is `Σ min(|T|, 2)`).
///
/// `Send + Sync` is required so experiment harnesses can evaluate many
/// methods in parallel; all implementations are plain data + trained
/// (frozen) models.
pub trait Simplifier: Send + Sync {
    /// Display name as used in the paper's figures, e.g.
    /// `"Top-Down(E,PED)"`.
    fn name(&self) -> String;

    /// Produces the simplification of a columnar store — the one method an
    /// algorithm implements. The kept-index sets line up with the store's
    /// per-trajectory views, so `simp.materialize_store(store)` (a column
    /// gather) yields `D'` and `simp.to_bitmap(store)` its serving form.
    fn simplify_store(&self, store: &PointStore, budget: usize) -> Simplification;

    /// Row-form forward of [`Simplifier::simplify_store`] for callers that
    /// hold a [`TrajectoryDb`] builder. Provided; no implementor overrides
    /// it.
    fn simplify(&self, db: &TrajectoryDb, budget: usize) -> Simplification {
        self.simplify_store(&db.to_store(), budget)
    }
}

/// Effective lower bound on the number of points any simplification keeps.
pub fn min_points_store<S: AsColumns + ?Sized>(store: &S) -> usize {
    store.views().map(|v| v.len().min(2)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use trajectory::{Point, Trajectory};

    #[test]
    fn min_points_counts_endpoints() {
        let store = TrajectoryDb::new(vec![
            Trajectory::new(vec![Point::new(0.0, 0.0, 0.0)]).unwrap(),
            Trajectory::new(
                (0..5)
                    .map(|i| Point::new(i as f64, 0.0, i as f64))
                    .collect(),
            )
            .unwrap(),
        ])
        .to_store();
        assert_eq!(min_points_store(&store), 3);
    }
}
