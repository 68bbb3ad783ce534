//! The method suite: all 25 baselines of §V-A plus RL4QDTS wrapped behind
//! the common [`Simplifier`] interface.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rl4qdts::{PolicyVariant, Rl4Qdts, Rl4QdtsConfig, TrainerConfig};
use traj_query::workload::{range_workload, QueryDistribution, RangeWorkloadSpec};
use traj_simp::rlts::{RltsPlus, RltsTrainConfig};
use traj_simp::{Adaptation, BottomUp, Simplifier, SpanSearch, TopDown};
use trajectory::{Cube, ErrorMeasure, PointStore, Simplification, TrajectoryDb};

/// Builds the paper's 25 baselines: {Top-Down, Bottom-Up, RLTS+} × {SED,
/// PED, DAD, SAD} × {E, W} + Span-Search. RLTS+ policies are trained on
/// `train_db` (one policy per error measure, re-targeted for W).
pub fn baseline_suite(train_db: &TrajectoryDb, seed: u64) -> Vec<Box<dyn Simplifier>> {
    let mut suite: Vec<Box<dyn Simplifier>> = Vec::with_capacity(25);
    for m in ErrorMeasure::ALL {
        for a in [Adaptation::Each, Adaptation::Whole] {
            suite.push(Box::new(TopDown::new(m, a)));
        }
    }
    for m in ErrorMeasure::ALL {
        for a in [Adaptation::Each, Adaptation::Whole] {
            suite.push(Box::new(BottomUp::new(m, a)));
        }
    }
    let rlts_cfg = RltsTrainConfig {
        episodes: 20,
        ..RltsTrainConfig::default()
    };
    let train_store = train_db.to_store();
    for m in ErrorMeasure::ALL {
        let trained = RltsPlus::train(m, Adaptation::Each, 3, &train_store, &rlts_cfg, seed);
        suite.push(Box::new(trained.with_adaptation(Adaptation::Whole)));
        suite.push(Box::new(trained));
    }
    suite.push(Box::new(SpanSearch));
    suite
}

/// The subset of baselines the paper's Figures 4–6 plot (the union of the
/// per-distribution skylines reported in §V-B(1)), built by name.
pub fn paper_skyline_names(dist: QueryDistribution) -> Vec<&'static str> {
    match dist {
        QueryDistribution::Data => vec![
            "Top-Down(E,PED)",
            "Top-Down(W,PED)",
            "Bottom-Up(W,PED)",
            "Bottom-Up(E,DAD)",
            "Bottom-Up(E,SED)",
        ],
        QueryDistribution::Gaussian { .. } => vec![
            "Bottom-Up(E,SED)",
            "RLTS+(E,SED)",
            "Bottom-Up(E,PED)",
            "Top-Down(E,PED)",
        ],
        _ => vec!["Top-Down(W,PED)", "Top-Down(E,SAD)"],
    }
}

/// Selects suite members by their display names.
pub fn select_by_name<'a>(
    suite: &'a [Box<dyn Simplifier>],
    names: &[&str],
) -> Vec<&'a dyn Simplifier> {
    names
        .iter()
        .filter_map(|n| suite.iter().find(|s| s.name() == *n).map(|b| b.as_ref()))
        .collect()
}

/// RL4QDTS behind the [`Simplifier`] interface: carries the trained model,
/// the state-workload used for octree statistics, the run seed, and the
/// ablation variant.
pub struct Rl4QdtsSimplifier {
    /// The trained model.
    pub model: Rl4Qdts,
    /// The synthetic range workload defining octree `Q_B` statistics.
    pub state_queries: Vec<Cube>,
    /// Seed of the start-cube sampling (varied across repeated runs).
    pub seed: u64,
    /// Ablation variant (Table II); `FULL` for the main method.
    pub variant: PolicyVariant,
}

impl Simplifier for Rl4QdtsSimplifier {
    fn name(&self) -> String {
        self.variant.label().to_string()
    }

    fn simplify_store(&self, store: &PointStore, budget: usize) -> Simplification {
        self.model
            .simplify_variant(store, budget, &self.state_queries, self.seed, self.variant)
    }
}

/// Trains an RL4QDTS model for a dataset/distribution pair with
/// scale-appropriate settings. Returns the model; wrap it in
/// [`Rl4QdtsSimplifier`] per run.
pub fn train_rl4qdts(
    train_db: &TrajectoryDb,
    dist: QueryDistribution,
    num_queries: usize,
    seed: u64,
) -> Rl4Qdts {
    let config = Rl4QdtsConfig::scaled_to(train_db).with_delta(15);
    let workload = RangeWorkloadSpec {
        // Training rewards need enough queries to produce a dense signal
        // (the paper uses 100); evaluation counts are scaled separately.
        count: num_queries.max(60),
        spatial_extent: 1_000.0,
        temporal_extent: 2.0 * 86_400.0,
        dist,
    };
    let trainer = TrainerConfig {
        num_dbs: 6,
        trajs_per_db: (train_db.len() / 2).clamp(4, 60),
        episodes_per_db: 6,
        ratio: 0.03,
        workload,
    };
    let (model, _) = rl4qdts::train(train_db, config, &trainer, seed);
    model
}

/// Generates the state workload an [`Rl4QdtsSimplifier`] needs for a test
/// database.
pub fn state_workload(
    db: &TrajectoryDb,
    dist: QueryDistribution,
    count: usize,
    seed: u64,
) -> Vec<Cube> {
    // Same query shape as training (train_rl4qdts) so the inference-time
    // Q_B statistics match what the policies saw.
    let spec = RangeWorkloadSpec {
        count,
        spatial_extent: 1_000.0,
        temporal_extent: 2.0 * 86_400.0,
        dist,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    range_workload(db, &spec, &mut rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use trajectory::gen::{generate, DatasetSpec, Scale};

    #[test]
    fn suite_has_25_uniquely_named_members() {
        let db = generate(&DatasetSpec::geolife(Scale::Smoke), 3);
        let suite = baseline_suite(&db, 1);
        assert_eq!(suite.len(), 25);
        let mut names: Vec<String> = suite.iter().map(|s| s.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 25, "duplicate baseline names");
        assert!(names.iter().any(|n| n == "Span-Search"));
        assert!(names.iter().any(|n| n == "RLTS+(W,SAD)"));
    }

    #[test]
    fn paper_skylines_resolve_to_suite_members() {
        let db = generate(&DatasetSpec::geolife(Scale::Smoke), 5);
        let suite = baseline_suite(&db, 2);
        for dist in [
            QueryDistribution::Data,
            QueryDistribution::Gaussian {
                mu: 0.5,
                sigma: 0.25,
            },
            QueryDistribution::Real,
        ] {
            let names = paper_skyline_names(dist);
            let picked = select_by_name(&suite, &names);
            assert_eq!(picked.len(), names.len(), "{dist}: missing members");
        }
    }

    #[test]
    fn every_baseline_respects_budgets() {
        let db = generate(&DatasetSpec::geolife(Scale::Smoke), 7);
        let suite = baseline_suite(&db, 3);
        let budget = db.total_points() / 10;
        let floor = traj_simp::min_points_store(&db.to_store());
        for s in &suite {
            let simp = s.simplify(&db, budget);
            assert!(
                simp.total_points() <= budget.max(floor),
                "{} overshot: {} > {}",
                s.name(),
                simp.total_points(),
                budget.max(floor)
            );
        }
    }
}
