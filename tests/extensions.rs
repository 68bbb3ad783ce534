//! Integration tests for the extension surfaces: error-bounded mode,
//! one-pass online simplification, trajectory joins, the kd-tree index, and the
//! resampling utilities — exercised together the way a downstream user
//! would combine them.

use qdts::query::join::{similarity_join, JoinParams};
use qdts::simp::Adaptation;
use qdts::simp::{bounded_db, min_eps_for_budget, BottomUp, OnePassSed, Simplifier};
use qdts::trajectory::gen::{generate, DatasetSpec, Scale};
use qdts::trajectory::resample::{mean_sync_distance, resample_uniform};
use qdts::trajectory::{ErrorMeasure, Trajectory, TrajectoryDb};
use rl4qdts::IndexKind;

/// The min-size (error-bounded) and min-error (budgeted) formulations must
/// agree: simplifying to the ε that `min_eps_for_budget` finds never beats
/// the budget, and its error never exceeds ε.
#[test]
fn bounded_and_budgeted_formulations_are_consistent() {
    let db = generate(&DatasetSpec::geolife(Scale::Smoke), 3001).to_store();
    let budget = db.total_points() / 8;
    let (eps, simp) = min_eps_for_budget(&db, ErrorMeasure::Sed, budget);
    assert!(simp.total_points() <= budget);
    assert!(ErrorMeasure::Sed.db_error(&db, &simp) <= eps + 1e-9);
    // The direct bounded call at the same ε reproduces the same result.
    let again = bounded_db(&db, ErrorMeasure::Sed, eps);
    assert_eq!(simp.total_points(), again.total_points());
}

/// A streamed trajectory (online, one pass, SED-bounded) must be a valid
/// time-ordered subset usable by every downstream query operator.
#[test]
fn streamed_trajectories_feed_the_query_engine() {
    let db = generate(&DatasetSpec::tdrive(Scale::Smoke), 3002);
    let streamed: TrajectoryDb = db
        .trajectories()
        .iter()
        .map(|t| Trajectory::new(OnePassSed::new(50.0).simplify(t.points())).unwrap())
        .collect();
    assert_eq!(streamed.len(), db.len());
    assert!(streamed.total_points() < db.total_points());
    // Range queries over the streamed database still work and return a
    // subset-consistent result.
    let q = db.bounding_cube();
    assert_eq!(
        qdts::query::range_query_store(&streamed.to_store(), &q).len(),
        streamed.len(),
        "whole-space query returns everything"
    );
}

/// Joins shrink (or hold) under simplification — never invent pairs when
/// the simplification moves trajectories apart, and companions that stay
/// together keep joining.
#[test]
fn joins_behave_under_simplification() {
    // Build a db with two deliberate companions + background traffic.
    let mut trajs = generate(&DatasetSpec::chengdu(Scale::Smoke), 3003)
        .trajectories()
        .to_vec();
    let base: Vec<_> = (0..60)
        .map(|i| qdts::trajectory::Point::new(i as f64 * 50.0, 0.0, i as f64 * 30.0))
        .collect();
    let buddy: Vec<_> = base
        .iter()
        .map(|p| qdts::trajectory::Point::new(p.x, p.y + 120.0, p.t))
        .collect();
    let a = trajs.len();
    trajs.push(Trajectory::new(base).unwrap());
    let b = trajs.len();
    trajs.push(Trajectory::new(buddy).unwrap());
    let db = TrajectoryDb::new(trajs).to_store();

    let params = JoinParams {
        delta: 500.0,
        min_overlap: 600.0,
        step: 60.0,
    };
    let pairs = similarity_join(&db, &params);
    assert!(pairs.contains(&(a, b)), "companions must join: {pairs:?}");

    // Simplify mildly: the straight-line companions survive simplification
    // (their paths are linear, so endpoints reproduce them exactly).
    let simp = BottomUp::new(ErrorMeasure::Sed, Adaptation::Each)
        .simplify_store(&db, db.total_points() / 4)
        .materialize_store(&db);
    let pairs_simp = similarity_join(&simp, &params);
    assert!(
        pairs_simp.contains(&(a, b)),
        "linear companions must still join"
    );
}

/// The kd-tree index slots into the full train→simplify pipeline.
#[test]
fn kdtree_index_trains_end_to_end() {
    use qdts::query::{range_workload, QueryDistribution, RangeWorkloadSpec};
    use qdts::rl4qdts::{train, Rl4QdtsConfig, TrainerConfig};
    use rand::SeedableRng;

    let pool = generate(&DatasetSpec::geolife(Scale::Smoke), 3004);
    let workload = RangeWorkloadSpec {
        count: 15,
        spatial_extent: 1_000.0,
        temporal_extent: 6_000.0,
        dist: QueryDistribution::Data,
    };
    let config = Rl4QdtsConfig::scaled_to(&pool)
        .with_delta(20)
        .with_index(IndexKind::MedianKdTree);
    let (model, stats) = train(&pool, config, &TrainerConfig::small(workload), 11);
    assert!(stats.insertions > 0);
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let queries = range_workload(&pool, &workload, &mut rng);
    let budget = pool.total_points() / 12;
    let simp = model.simplify(&pool, budget, &queries, 5);
    assert_eq!(simp.total_points(), budget.max(2 * pool.len()));
}

/// Resampling + synchronized distance quantify simplification loss the
/// same way the SED error measure does, up to sampling resolution.
#[test]
fn resampled_sync_distance_tracks_sed() {
    let db = generate(&DatasetSpec::geolife(Scale::Smoke), 3005);
    let t = db.get(0);
    let uniform = resample_uniform(t, t.mean_sampling_interval().max(1.0));
    // Resampling at roughly the native rate deviates by far less than one
    // average step (pure interpolation error between irregular fixes).
    let mean_step = t.path_length() / (t.len() - 1) as f64;
    let d = mean_sync_distance(t, &uniform, 5.0).unwrap();
    assert!(
        d < mean_step,
        "resampling moved the trajectory {d} (step {mean_step})"
    );

    // Endpoint-only simplification has sync distance comparable to its SED.
    let endpoints = Trajectory::new(vec![*t.first(), *t.last()]).unwrap();
    let d_endpoints = mean_sync_distance(t, &endpoints, 5.0).unwrap();
    let kept: Vec<u32> = vec![0, t.len() as u32 - 1];
    let sed = ErrorMeasure::Sed.trajectory_error(t, &kept);
    assert!(
        d_endpoints <= sed + 1e-9,
        "mean ≤ max: {d_endpoints} vs {sed}"
    );
    assert!(d_endpoints > 0.0);
}
