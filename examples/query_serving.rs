//! Scenario: serving all four query types from one simplified database.
//!
//! The paper's "Remarks" (§III-B) stress that a *single* simplified
//! database must serve range, kNN, similarity, and clustering queries.
//! This example simplifies a Geolife-shaped database once with RL4QDTS
//! (trained only on range queries) and then measures how every query type
//! fares — the cross-query transferability claim.
//!
//! All serving goes through [`qdts::query::QueryEngine`]: one engine over
//! the original database (the ground truth) and one over the simplified
//! archive, each owning an octree that prunes execution and parallelizes
//! batches — the production path, not the O(N) reference scans.
//!
//! Run with: `cargo run --release --example query_serving`

use qdts::query::knn::{Dissimilarity, KnnQuery};
use qdts::query::similarity::SimilarityQuery;
use qdts::query::traclus::{traclus, TraclusParams};
use qdts::query::{
    f1_pairs, f1_sets, mean_f1, range_workload_store, traj_query_workload, EngineConfig,
    QueryDistribution, QueryEngine, QueryExecutor, RangeWorkloadSpec,
};
use qdts::rl4qdts::{train_store, Rl4QdtsConfig, TrainerConfig};
use qdts::trajectory::gen::{generate, DatasetSpec, Scale};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let spec = DatasetSpec::geolife(Scale::Smoke).with_trajectories(36);
    let pool = generate(&spec, 77);
    let (train_pool, db) = pool.split_at(12);
    let (train_pool, db) = (train_pool.to_store(), db.to_store());

    // Train on range queries only — the paper's strategy.
    let workload = RangeWorkloadSpec {
        count: 30,
        spatial_extent: 1_000.0,
        temporal_extent: 3_600.0,
        dist: QueryDistribution::Data,
    };
    let config = Rl4QdtsConfig::scaled_to_points(train_pool.total_points()).with_delta(25);
    let (model, _) = train_store(&train_pool, config, &TrainerConfig::small(workload), 9);

    let mut rng = StdRng::seed_from_u64(3);
    let state_queries = range_workload_store(&db, &workload, &mut rng);
    let budget = db.total_points() / 30;
    let simplified = model
        .simplify_store(&db, budget, &state_queries, 4)
        .materialize_store(&db);
    println!(
        "one simplified database: {} -> {} points\n",
        db.total_points(),
        budget
    );

    // Two engines: ground truth and archive. Index built once each; every
    // query below is served with cube pruning + parallel batches.
    let truth_engine = QueryEngine::over_store(&db, EngineConfig::octree());
    let served_engine = QueryEngine::from_store(simplified, EngineConfig::octree());

    // 1. Range queries (whole batch, parallel).
    let range_qs = range_workload_store(&db, &workload, &mut rng);
    let truth_results = truth_engine.range_batch(&range_qs);
    let served_results = served_engine.range_batch(&range_qs);
    let range_scores: Vec<_> = truth_results
        .iter()
        .zip(&served_results)
        .map(|(t, r)| f1_sets(t, r))
        .collect();
    println!("range query F1:       {:.3}", mean_f1(&range_scores));

    // 2. kNN queries under both dissimilarities.
    let knn_specs = traj_query_workload(&db, 8, 7.0 * 86_400.0, &mut rng);
    for (name, measure) in [
        ("kNN (EDR) F1:      ", Dissimilarity::Edr { eps: 100.0 }),
        ("kNN (t2vec) F1:    ", Dissimilarity::t2vec_default()),
    ] {
        let queries: Vec<KnnQuery> = knn_specs
            .iter()
            .map(|s| KnnQuery {
                query: db.view(s.query).to_trajectory(),
                ts: s.ts,
                te: s.te,
                k: 3,
                measure,
            })
            .collect();
        let truth = truth_engine.knn_batch(&queries);
        let served = served_engine.knn_batch(&queries);
        let scores: Vec<_> = truth
            .iter()
            .zip(&served)
            .map(|(t, r)| f1_sets(t, r))
            .collect();
        println!("{name}  {:.3}", mean_f1(&scores));
    }

    // 3. Similarity queries (parallel per-candidate checks).
    let sim_specs = traj_query_workload(&db, 8, 7.0 * 86_400.0, &mut rng);
    let sim_queries: Vec<SimilarityQuery> = sim_specs
        .iter()
        .map(|s| SimilarityQuery {
            query: db.view(s.query).to_trajectory(),
            ts: s.ts,
            te: s.te,
            delta: 1_000.0,
            step: 600.0,
        })
        .collect();
    let truth = truth_engine.similarity_batch(&sim_queries);
    let served = served_engine.similarity_batch(&sim_queries);
    let sim_scores: Vec<_> = truth
        .iter()
        .zip(&served)
        .map(|(t, r)| f1_sets(t, r))
        .collect();
    println!("similarity query F1:  {:.3}", mean_f1(&sim_scores));

    // 4. TRACLUS clustering (co-clustered trajectory pairs), straight off
    // the engines' columns.
    let params = TraclusParams::default();
    let truth = traclus(truth_engine.store(), &params).co_clustered_pairs();
    let ours = traclus(served_engine.store(), &params).co_clustered_pairs();
    println!("clustering pair F1:   {:.3}", f1_pairs(&truth, &ours).f1);
}
