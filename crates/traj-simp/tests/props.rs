//! Property-based tests for the simplification baselines: budget
//! contracts, endpoint preservation, and index validity for every
//! algorithm × measure × adaptation combination.

use std::sync::OnceLock;

use proptest::prelude::*;
use traj_simp::rlts::RltsTrainConfig;
use traj_simp::{
    min_points_store, per_trajectory_budgets_store, Adaptation, BottomUp, RltsPlus, Simplifier,
    SpanSearch, TopDown, Uniform,
};
use trajectory::gen::{generate, DatasetSpec, Scale};
use trajectory::{ErrorMeasure, Point, PointStore, Trajectory, TrajectoryDb};

fn arb_db() -> impl Strategy<Value = PointStore> {
    arb_db_of(1..6)
}

fn arb_db_of(trajectories: std::ops::Range<usize>) -> impl Strategy<Value = PointStore> {
    prop::collection::vec(
        prop::collection::vec((-500.0..500.0f64, -500.0..500.0f64, 0.1..10.0f64), 2..40),
        trajectories,
    )
    .prop_map(|trajs| {
        trajs
            .into_iter()
            .map(|steps| {
                let mut t = 0.0;
                Trajectory::new(
                    steps
                        .into_iter()
                        .map(|(x, y, dt)| {
                            t += dt;
                            Point::new(x, y, t)
                        })
                        .collect(),
                )
                .unwrap()
            })
            .collect::<TrajectoryDb>()
            .to_store()
    })
}

fn check_simplification(
    db: &PointStore,
    s: &dyn Simplifier,
    budget: usize,
) -> Result<(), TestCaseError> {
    let simp = s.simplify_store(db, budget);
    let floor = min_points_store(db);
    prop_assert!(
        simp.total_points() <= budget.max(floor),
        "{} overshot budget: {} > {}",
        s.name(),
        simp.total_points(),
        budget.max(floor)
    );
    for (id, t) in db.iter() {
        let kept = simp.kept(id);
        prop_assert!(!kept.is_empty());
        prop_assert_eq!(kept[0], 0, "{}: first point lost", s.name());
        prop_assert_eq!(
            *kept.last().unwrap(),
            (t.len() - 1) as u32,
            "{}: last point lost",
            s.name()
        );
        prop_assert!(
            kept.windows(2).all(|w| w[0] < w[1]),
            "{}: unsorted",
            s.name()
        );
        prop_assert!(
            *kept.last().unwrap() < t.len() as u32,
            "{}: out of range",
            s.name()
        );
    }
    Ok(())
}

/// A larger budget's kept set contains every smaller budget's.
fn check_nested(db: &PointStore, s: &dyn Simplifier) -> Result<(), TestCaseError> {
    let floor = min_points_store(db);
    let n = db.total_points();
    if n <= floor + 4 {
        return Ok(());
    }
    let small = floor + (n - floor) / 4;
    let large = floor + (n - floor) / 2;
    let s_small = s.simplify_store(db, small);
    let s_large = s.simplify_store(db, large);
    for (id, _) in db.iter() {
        for idx in s_small.kept(id) {
            prop_assert!(
                s_large.contains(id, *idx),
                "{}: traj {id} point {idx} kept at budget {small} but dropped at {large}",
                s.name()
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn topdown_contract((db, frac) in (arb_db(), 0.05..1.0f64)) {
        let budget = ((db.total_points() as f64 * frac) as usize).max(1);
        for m in ErrorMeasure::ALL {
            for a in [Adaptation::Each, Adaptation::Whole] {
                check_simplification(&db, &TopDown::new(m, a), budget)?;
            }
        }
    }

    #[test]
    fn bottomup_contract((db, frac) in (arb_db(), 0.05..1.0f64)) {
        let budget = ((db.total_points() as f64 * frac) as usize).max(1);
        for m in ErrorMeasure::ALL {
            for a in [Adaptation::Each, Adaptation::Whole] {
                check_simplification(&db, &BottomUp::new(m, a), budget)?;
            }
        }
    }

    #[test]
    fn spansearch_and_uniform_contract((db, frac) in (arb_db(), 0.05..1.0f64)) {
        let budget = ((db.total_points() as f64 * frac) as usize).max(1);
        check_simplification(&db, &SpanSearch, budget)?;
        check_simplification(&db, &Uniform, budget)?;
    }

    #[test]
    fn bottomup_exactly_meets_feasible_budgets(db in arb_db()) {
        // Bottom-Up drops one point at a time, so it can hit any budget
        // between the floor and N exactly.
        let floor = min_points_store(&db);
        let n = db.total_points();
        let budget = (floor + n) / 2;
        let simp = BottomUp::new(ErrorMeasure::Sed, Adaptation::Whole).simplify_store(&db, budget);
        prop_assert_eq!(simp.total_points(), budget);
    }

    #[test]
    fn budgets_partition_within_caps((db, frac) in (arb_db(), 0.0..1.2f64)) {
        let budget = (db.total_points() as f64 * frac) as usize;
        let budgets = per_trajectory_budgets_store(&db, budget);
        prop_assert_eq!(budgets.len(), db.len());
        for (id, t) in db.iter() {
            prop_assert!(budgets[id] <= t.len());
            prop_assert!(budgets[id] >= t.len().min(2));
        }
        let floor: usize = db.views().map(|t| t.len().min(2)).sum();
        prop_assert!(budgets.iter().sum::<usize>() <= budget.max(floor));
    }

    #[test]
    fn bottomup_kept_sets_are_nested_across_budgets((db, _x) in (arb_db(), 0..1)) {
        // Bottom-Up's drop order is a fixed deterministic sequence; a
        // larger budget just truncates it earlier, so its kept set is a
        // superset of any smaller budget's. (Note the max *error* is NOT
        // monotone in the budget — refinement non-monotonicity — so that
        // is deliberately not asserted.)
        for m in ErrorMeasure::ALL {
            check_nested(&db, &BottomUp::new(m, Adaptation::Whole))?;
        }
    }

    #[test]
    fn topdown_kept_sets_are_nested_across_budgets((db, _x) in (arb_db(), 0..1)) {
        // The mirror image: "W" Top-Down inserts along one global
        // best-first order, and the budget only decides where it stops.
        for m in ErrorMeasure::ALL {
            check_nested(&db, &TopDown::new(m, Adaptation::Whole))?;
        }
    }
}

/// A trained RLTS+ policy, trained once for every case.
fn rlts() -> &'static RltsPlus {
    static POLICY: OnceLock<RltsPlus> = OnceLock::new();
    POLICY.get_or_init(|| {
        let train = generate(&DatasetSpec::geolife(Scale::Smoke), 3).to_store();
        let cfg = RltsTrainConfig {
            episodes: 4,
            ..RltsTrainConfig::default()
        };
        RltsPlus::train(ErrorMeasure::Sed, Adaptation::Each, 3, &train, &cfg, 5)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// "E" simplifies trajectories on parallel workers; the kept sets are
    /// those of a sequential map that simplifies each trajectory alone,
    /// as a one-trajectory store (which runs on the calling thread), on
    /// its share of the budget.
    #[test]
    fn each_adaptation_equals_a_sequential_map(
        (db, frac) in (arb_db_of(2..24), 0.05..1.0f64)
    ) {
        let budget = ((db.total_points() as f64 * frac) as usize).max(1);
        let budgets = per_trajectory_budgets_store(&db, budget);
        let mut simplifiers: Vec<Box<dyn Simplifier>> = Vec::new();
        for m in ErrorMeasure::ALL {
            simplifiers.push(Box::new(TopDown::new(m, Adaptation::Each)));
            simplifiers.push(Box::new(BottomUp::new(m, Adaptation::Each)));
        }
        simplifiers.push(Box::new(rlts().clone()));
        simplifiers.push(Box::new(SpanSearch));
        simplifiers.push(Box::new(Uniform));
        for s in &simplifiers {
            let simp = s.simplify_store(&db, budget);
            for (id, v) in db.iter() {
                let mut alone = PointStore::new();
                alone.push_view(v);
                prop_assert_eq!(per_trajectory_budgets_store(&alone, budgets[id]), vec![budgets[id]]);
                let expected = s.simplify_store(&alone, budgets[id]);
                prop_assert_eq!(simp.kept(id), expected.kept(0), "{} on trajectory {}", s.name(), id);
            }
        }
    }
}
