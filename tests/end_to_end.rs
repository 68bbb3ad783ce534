//! Cross-crate integration tests: the full pipeline from synthetic data
//! through training, simplification, and all five query tasks.

use qdts::query::{
    range_workload, EngineConfig, QueryDistribution, QueryEngine, QueryExecutor, RangeWorkloadSpec,
};
use qdts::rl4qdts::{train, RewardTracker, Rl4QdtsConfig, TrainerConfig};
use qdts::simp::{Adaptation, BottomUp, Simplifier, TopDown, Uniform};
use qdts::trajectory::gen::{generate, DatasetSpec, Scale};
use qdts::trajectory::{ErrorMeasure, Simplification};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn workload() -> RangeWorkloadSpec {
    RangeWorkloadSpec {
        count: 20,
        spatial_extent: 1_500.0,
        temporal_extent: 6_000.0,
        dist: QueryDistribution::Data,
    }
}

/// The complete pipeline runs end-to-end and produces a valid simplified
/// database within budget.
#[test]
fn full_pipeline_produces_valid_simplification() {
    let pool = generate(&DatasetSpec::geolife(Scale::Smoke), 1001);
    let (train_pool, db) = pool.split_at(6);
    let config = Rl4QdtsConfig::scaled_to(&train_pool).with_delta(20);
    let (model, stats) = train(&train_pool, config, &TrainerConfig::small(workload()), 5);
    assert!(stats.episodes > 0);

    let mut rng = StdRng::seed_from_u64(2);
    let queries = range_workload(&db, &workload(), &mut rng);
    let budget = db.total_points() / 15;
    let simp = model.simplify(&db, budget, &queries, 3);

    assert_eq!(simp.total_points(), budget.max(2 * db.len()));
    for (id, t) in db.iter() {
        let kept = simp.kept(id);
        assert_eq!(kept[0], 0);
        assert_eq!(*kept.last().unwrap(), (t.len() - 1) as u32);
        assert!(kept.windows(2).all(|w| w[0] < w[1]));
    }
    // Materialization produces a queryable database.
    let m = simp.materialize(&db);
    assert_eq!(m.len(), db.len());
    assert_eq!(m.total_points(), simp.total_points());
}

/// Every simplifier family (error-driven E/W + RL4QDTS) yields results that
/// the query engine can consume, and query accuracy orders sanely with
/// budget for all of them.
#[test]
fn all_simplifier_families_integrate_with_query_engine() {
    let db = generate(&DatasetSpec::geolife(Scale::Smoke), 1002);
    let mut rng = StdRng::seed_from_u64(7);
    let eval_queries = range_workload(&db, &workload(), &mut rng);
    let base = Simplification::most_simplified_store(&db.to_store());
    let engine = QueryEngine::over(&db, EngineConfig::octree());
    let tracker = RewardTracker::new(&engine, eval_queries, &base);

    let methods: Vec<Box<dyn Simplifier>> = vec![
        Box::new(Uniform),
        Box::new(TopDown::new(ErrorMeasure::Sed, Adaptation::Each)),
        Box::new(TopDown::new(ErrorMeasure::Ped, Adaptation::Whole)),
        Box::new(BottomUp::new(ErrorMeasure::Dad, Adaptation::Each)),
        Box::new(BottomUp::new(ErrorMeasure::Sad, Adaptation::Whole)),
    ];
    for m in &methods {
        let small = m.simplify(&db, db.total_points() / 20);
        let large = m.simplify(&db, db.total_points() / 2);
        let d_small = tracker.diff_of(&engine, &small);
        let d_large = tracker.diff_of(&engine, &large);
        assert!(
            d_large <= d_small + 1e-9,
            "{}: more budget must not hurt ({d_small:.3} -> {d_large:.3})",
            m.name()
        );
    }
}

/// The octree, query engine, and simplification layers agree on what a
/// range query returns: querying the materialized database equals querying
/// the kept points in place — through the linear scan and through the
/// index-accelerated engine alike.
#[test]
fn materialized_and_in_place_range_queries_agree() {
    let db = generate(&DatasetSpec::chengdu(Scale::Smoke), 1003);
    let store = db.to_store();
    let mut simp = Simplification::most_simplified_store(&store);
    // Insert an arbitrary scattering of points.
    let mut rng = StdRng::seed_from_u64(11);
    let queries = range_workload(&db, &workload(), &mut rng);
    for (id, t) in db.iter() {
        for idx in (1..t.len() as u32 - 1).step_by(7) {
            simp.insert(id, idx);
        }
    }
    let materialized = simp.materialize_store(&store);
    let engine = QueryEngine::over_store(&store, EngineConfig::octree());
    let served = QueryEngine::over_store(&materialized, EngineConfig::octree());
    for q in &queries {
        let in_place = qdts::rl4qdts::range_query_simplified(&store, &simp, q);
        let on_materialized = qdts::query::range_query_store(&materialized, q);
        assert_eq!(in_place, on_materialized, "query {q:?}");
        assert_eq!(
            engine.range_simplified(&simp, q),
            in_place,
            "engine in-place {q:?}"
        );
        assert_eq!(
            served.range(q),
            on_materialized,
            "engine materialized {q:?}"
        );
    }
}

/// Checkpoint round trip across crate boundaries (model_io ↔ tiny-rl ↔
/// algorithm).
#[test]
fn checkpointed_model_is_equivalent() {
    let pool = generate(&DatasetSpec::tdrive(Scale::Smoke), 1004);
    let config = Rl4QdtsConfig::scaled_to(&pool).with_delta(20);
    let (model, _) = train(&pool, config, &TrainerConfig::small(workload()), 5);

    let dir = std::env::temp_dir().join("qdts_e2e_ckpt");
    qdts::rl4qdts::model_io::save(&model, &dir).unwrap();
    let loaded = qdts::rl4qdts::model_io::load(config, &dir).unwrap();
    std::fs::remove_dir_all(&dir).ok();

    let mut rng = StdRng::seed_from_u64(13);
    let queries = range_workload(&pool, &workload(), &mut rng);
    let budget = pool.total_points() / 10;
    assert_eq!(
        model.simplify(&pool, budget, &queries, 17),
        loaded.simplify(&pool, budget, &queries, 17)
    );
}

/// CSV export/import of a simplified database keeps query results stable
/// (the storage story end to end).
#[test]
fn simplified_database_survives_csv_round_trip() {
    let db = generate(&DatasetSpec::geolife(Scale::Smoke), 1005);
    let simp = Uniform.simplify(&db, db.total_points() / 5);
    let materialized = simp.materialize(&db);

    let mut buf = Vec::new();
    qdts::trajectory::io::write_csv(&materialized, &mut buf).unwrap();
    let back = qdts::trajectory::io::read_csv(&buf[..]).unwrap();

    let mut rng = StdRng::seed_from_u64(19);
    let queries = range_workload(&db, &workload(), &mut rng);
    let (materialized, back) = (materialized.to_store(), back.to_store());
    for q in &queries {
        assert_eq!(
            qdts::query::range_query_store(&materialized, q),
            qdts::query::range_query_store(&back, q)
        );
    }
}
