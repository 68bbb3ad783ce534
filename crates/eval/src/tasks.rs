//! The five query tasks of the evaluation (§V-A) and the F1 pipeline that
//! scores a simplified database against the original.
//!
//! Scoring is written against the [`QueryExecutor`] façade, so the same
//! pipeline evaluates a single-store engine, a sharded fan-out engine, or
//! an opened [`traj_query::TrajDb`] — and the whole mixed workload
//! (range + kNN(EDR) + kNN(t2vec) + similarity, the shape of the paper's
//! Eq. 10 evaluation) executes as **one** heterogeneous [`QueryBatch`]
//! pass per database instead of four serial per-kind batches.

use rand::rngs::StdRng;
use traj_query::knn::{Dissimilarity, KnnQuery};
use traj_query::similarity::SimilarityQuery;
use traj_query::traclus::{traclus, TraclusParams};
use traj_query::workload::{
    range_workload_store, traj_query_workload, QueryDistribution, RangeWorkloadSpec,
};
use traj_query::{
    f1_pairs, f1_sets, mean_f1, EngineConfig, F1Score, QueryBatch, QueryEngine, QueryExecutor,
    QueryResult,
};
use trajectory::{Cube, PointStore, Trajectory, TrajectoryDb};

/// Parameters of the evaluation workloads, defaulting to the paper's
/// setup: range 2 km × 2 km × 7 days, kNN k = 3 over 7-day windows with
/// EDR ε = 2 km, similarity δ = 5 km, TRACLUS clustering.
#[derive(Debug, Clone, Copy)]
pub struct TaskParams {
    /// Range queries per evaluation (paper: 100).
    pub num_range: usize,
    /// kNN queries per evaluation.
    pub num_knn: usize,
    /// Similarity queries per evaluation.
    pub num_sim: usize,
    /// Range query spatial side length (paper: 2 km).
    pub spatial_extent: f64,
    /// Range query temporal window (paper: 7 days).
    pub temporal_extent: f64,
    /// kNN `k` (paper: 3).
    pub knn_k: usize,
    /// kNN / similarity time window length (paper: 7 days).
    pub window: f64,
    /// EDR matching tolerance (paper: 2 km).
    pub edr_eps: f64,
    /// Similarity distance threshold δ (paper: 5 km).
    pub sim_delta: f64,
    /// Similarity synchronization step (seconds).
    pub sim_step: f64,
    /// At most this many trajectories participate in clustering
    /// (TRACLUS's DBSCAN is quadratic in segments; the cap keeps the
    /// evaluation tractable — applied identically to both databases).
    pub cluster_cap: usize,
    /// TRACLUS parameters.
    pub traclus: TraclusParams,
}

impl TaskParams {
    /// The paper's parameters with workload sizes scaled by `queries`.
    pub fn paper_scaled(queries: usize) -> Self {
        Self {
            num_range: queries,
            num_knn: (queries / 5).max(3),
            num_sim: (queries / 5).max(3),
            spatial_extent: 2_000.0,
            temporal_extent: 7.0 * 86_400.0,
            knn_k: 3,
            window: 7.0 * 86_400.0,
            edr_eps: 2_000.0,
            sim_delta: 5_000.0,
            sim_step: 600.0,
            cluster_cap: 40,
            traclus: TraclusParams::default(),
        }
    }

    /// Scale-aware parameters: the paper's datasets span months to years,
    /// so a 7-day window is selective there; the synthetic horizon is 7
    /// days, so sub-paper scales shrink the windows and thresholds
    /// proportionally to keep queries equally selective (same *shape* of
    /// difficulty, feasible runtime).
    pub fn for_scale(scale: trajectory::gen::Scale, queries: usize) -> Self {
        use trajectory::gen::Scale;
        let mut p = Self::paper_scaled(queries);
        match scale {
            Scale::Paper => {}
            Scale::Small => {
                // Synthetic trajectories last minutes within a 7-day
                // horizon: range windows shrink to stay selective; kNN and
                // similarity windows stay at 7 days so whole trajectories
                // compete (their durations already bound the comparison).
                // Spatial extents shrink below the kept-point spacing the
                // ratio sweep induces, so range queries can actually miss.
                p.spatial_extent = 700.0;
                p.temporal_extent = 48.0 * 3_600.0;
                p.edr_eps = 1_000.0;
                p.sim_delta = 2_500.0;
                p.sim_step = 300.0;
                p.cluster_cap = 30;
            }
            Scale::Smoke => {
                p.spatial_extent = 400.0;
                p.temporal_extent = 24.0 * 3_600.0;
                p.edr_eps = 500.0;
                p.sim_delta = 1_500.0;
                p.sim_step = 300.0;
                p.cluster_cap = 16;
            }
        }
        p
    }
}

/// A concrete, reusable query workload across all five tasks. Built once
/// per experiment configuration so every method is scored on identical
/// queries.
#[derive(Debug, Clone)]
pub struct QueryTasks {
    /// The range queries.
    pub range_queries: Vec<Cube>,
    /// kNN query trajectories (cloned from the original database — queries
    /// are external inputs and are never simplified) with time windows.
    pub knn_queries: Vec<(Trajectory, f64, f64)>,
    /// Similarity query trajectories with time windows.
    pub sim_queries: Vec<(Trajectory, f64, f64)>,
    /// The parameters the workload was built with.
    pub params: TaskParams,
}

/// Builds the evaluation workload over `db` with query centers following
/// `dist`.
pub fn build_tasks(
    db: &TrajectoryDb,
    dist: QueryDistribution,
    params: TaskParams,
    rng: &mut StdRng,
) -> QueryTasks {
    let spec = RangeWorkloadSpec {
        count: params.num_range,
        spatial_extent: params.spatial_extent,
        temporal_extent: params.temporal_extent,
        dist,
    };
    let store = db.to_store();
    let range_queries = range_workload_store(&store, &spec, rng);
    let knn_specs = traj_query_workload(&store, params.num_knn, params.window, rng);
    let knn_queries = knn_specs
        .iter()
        .map(|s| (db.get(s.query).clone(), s.ts, s.te))
        .collect();
    let sim_specs = traj_query_workload(&store, params.num_sim, params.window, rng);
    let sim_queries = sim_specs
        .iter()
        .map(|s| (db.get(s.query).clone(), s.ts, s.te))
        .collect();
    QueryTasks {
        range_queries,
        knn_queries,
        sim_queries,
        params,
    }
}

impl QueryTasks {
    /// The kNN queries instantiated with `measure`.
    fn knn_with(&self, measure: Dissimilarity) -> impl Iterator<Item = KnnQuery> + '_ {
        self.knn_queries.iter().map(move |(q, ts, te)| KnnQuery {
            query: q.clone(),
            ts: *ts,
            te: *te,
            k: self.params.knn_k,
            measure,
        })
    }

    /// The similarity queries as typed [`SimilarityQuery`]s.
    fn sim_typed(&self) -> impl Iterator<Item = SimilarityQuery> + '_ {
        self.sim_queries.iter().map(|(q, ts, te)| SimilarityQuery {
            query: q.clone(),
            ts: *ts,
            te: *te,
            delta: self.params.sim_delta,
            step: self.params.sim_step,
        })
    }

    /// Plans the whole workload as one heterogeneous [`QueryBatch`], in
    /// task order: ranges, kNN(EDR), kNN(t2vec), similarities. The
    /// per-task sections are recovered positionally after execution.
    #[must_use]
    pub fn to_batch(&self) -> QueryBatch {
        let mut batch = QueryBatch::new();
        for q in &self.range_queries {
            batch.push_range(*q);
        }
        for q in self.knn_with(Dissimilarity::Edr {
            eps: self.params.edr_eps,
        }) {
            batch.push_knn(q);
        }
        for q in self.knn_with(Dissimilarity::t2vec_default()) {
            batch.push_knn(q);
        }
        for q in self.sim_typed() {
            batch.push_similarity(q);
        }
        batch
    }

    /// Splits a [`QueryTasks::to_batch`] result vector back into the four
    /// per-task sections, in plan order.
    fn split_results<'r>(&self, results: &'r [QueryResult]) -> [&'r [QueryResult]; 4] {
        let r = self.range_queries.len();
        let k = self.knn_queries.len();
        let s = self.sim_queries.len();
        assert_eq!(results.len(), r + 2 * k + s, "batch/task shape mismatch");
        [
            &results[..r],
            &results[r..r + k],
            &results[r + k..r + 2 * k],
            &results[r + 2 * k..],
        ]
    }
}

/// Mean F1 per task: the five series every comparison figure plots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskScores {
    /// Range query F1.
    pub range: f64,
    /// kNN (EDR) F1.
    pub knn_edr: f64,
    /// kNN (t2vec) F1.
    pub knn_t2vec: f64,
    /// Similarity query F1.
    pub similarity: f64,
    /// Clustering pair-F1.
    pub clustering: f64,
}

impl TaskScores {
    /// Task names in figure order.
    pub const NAMES: [&'static str; 5] = [
        "Range",
        "kNN(EDR)",
        "kNN(t2vec)",
        "Similarity",
        "Clustering",
    ];

    /// Scores in the same order as [`TaskScores::NAMES`].
    pub fn as_vec(&self) -> Vec<f64> {
        vec![
            self.range,
            self.knn_edr,
            self.knn_t2vec,
            self.similarity,
            self.clustering,
        ]
    }
}

/// Scores `simplified` against `original` on the full workload. Builds one
/// octree-backed [`QueryEngine`] per database and executes every task
/// through it (index pruning + data parallelism); see
/// [`evaluate_with_engines`] when executors are already at hand.
pub fn evaluate(
    original: &TrajectoryDb,
    simplified: &TrajectoryDb,
    tasks: &QueryTasks,
) -> TaskScores {
    let orig = QueryEngine::over(original, EngineConfig::octree());
    let simp = QueryEngine::over(simplified, EngineConfig::octree());
    evaluate_with_engines(&orig, &simp, tasks)
}

/// [`evaluate`] against pre-built [`QueryExecutor`]s (a [`QueryEngine`],
/// a sharded engine, or an opened [`traj_query::TrajDb`] — any layout),
/// amortizing index construction across repeated scorings of the same
/// databases.
///
/// The four query tasks run as one heterogeneous [`QueryBatch`] per
/// database: a single data-parallel pass whose work-stealing scheduler
/// overlaps cheap range queries with expensive kNN dynamic programs,
/// instead of four serial per-kind batches.
pub fn evaluate_with_engines<O, S>(original: &O, simplified: &S, tasks: &QueryTasks) -> TaskScores
where
    O: QueryExecutor + ?Sized,
    S: QueryExecutor + ?Sized,
{
    let batch = tasks.to_batch();
    let truth = original.execute_batch(&batch);
    let results = simplified.execute_batch(&batch);
    let truth = tasks.split_results(&truth);
    let results = tasks.split_results(&results);
    TaskScores {
        range: mean_f1_section(truth[0], results[0]),
        knn_edr: mean_f1_section(truth[1], results[1]),
        knn_t2vec: mean_f1_section(truth[2], results[2]),
        similarity: mean_f1_section(truth[3], results[3]),
        clustering: eval_clustering(original, simplified, tasks),
    }
}

/// Range-query-only score (used by training-adjacent experiments where the
/// full pipeline would dominate runtime).
pub fn eval_range(original: &TrajectoryDb, simplified: &TrajectoryDb, tasks: &QueryTasks) -> f64 {
    let orig = QueryEngine::over(original, EngineConfig::octree());
    let simp = QueryEngine::over(simplified, EngineConfig::octree());
    eval_range_with_engines(&orig, &simp, tasks)
}

/// [`eval_range`] against pre-built executors. Sweep loops that score many
/// simplifications of one original database should build the ground-truth
/// executor once and call this, instead of paying the index build per
/// call.
pub fn eval_range_with_engines<O, S>(original: &O, simplified: &S, tasks: &QueryTasks) -> f64
where
    O: QueryExecutor + ?Sized,
    S: QueryExecutor + ?Sized,
{
    let truth = original.range_batch(&tasks.range_queries);
    let results = simplified.range_batch(&tasks.range_queries);
    let scores: Vec<F1Score> = truth
        .iter()
        .zip(&results)
        .map(|(t, r)| f1_sets(t, r))
        .collect();
    mean_f1(&scores)
}

/// Mean F1 of one batch section against its ground-truth section.
fn mean_f1_section(truth: &[QueryResult], results: &[QueryResult]) -> f64 {
    let scores: Vec<F1Score> = truth
        .iter()
        .zip(results)
        .map(|(t, r)| {
            f1_sets(
                t.ids().expect("evaluation batches carry no RangeKept"),
                r.ids().expect("evaluation batches carry no RangeKept"),
            )
        })
        .collect();
    mean_f1(&scores)
}

fn eval_clustering<O, S>(original: &O, simplified: &S, tasks: &QueryTasks) -> f64
where
    O: QueryExecutor + ?Sized,
    S: QueryExecutor + ?Sized,
{
    let cap = tasks.params.cluster_cap;
    // TRACLUS is quadratic in segments; cluster only the capped head.
    let truth_head: PointStore = (0..original.len().min(cap))
        .map(|id| original.trajectory(id))
        .collect();
    let result_head: PointStore = (0..simplified.len().min(cap))
        .map(|id| simplified.trajectory(id))
        .collect();
    let truth = traclus(&truth_head, &tasks.params.traclus).co_clustered_pairs();
    let result = traclus(&result_head, &tasks.params.traclus).co_clustered_pairs();
    f1_pairs(&truth, &result).f1
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use trajectory::gen::{generate, DatasetSpec, Scale};
    use trajectory::Simplification;

    fn setup() -> (TrajectoryDb, QueryTasks) {
        let db = generate(&DatasetSpec::geolife(Scale::Smoke), 53);
        let mut rng = StdRng::seed_from_u64(1);
        let params = TaskParams::paper_scaled(10);
        let tasks = build_tasks(&db, QueryDistribution::Data, params, &mut rng);
        (db, tasks)
    }

    #[test]
    fn identity_simplification_scores_one_everywhere() {
        let (db, tasks) = setup();
        let s = evaluate(&db, &db, &tasks);
        for (name, v) in TaskScores::NAMES.iter().zip(s.as_vec()) {
            assert!((v - 1.0).abs() < 1e-9, "{name} = {v}");
        }
    }

    #[test]
    fn harsher_simplification_scores_lower_on_range() {
        let (db, tasks) = setup();
        let store = db.to_store();
        let endpoints = Simplification::most_simplified_store(&store).materialize(&db);
        let mild = {
            let mut s = Simplification::most_simplified_store(&store);
            // Keep every 4th point.
            for (id, t) in db.iter() {
                for idx in (0..t.len() as u32).step_by(4) {
                    s.insert(id, idx);
                }
            }
            s.materialize(&db)
        };
        let harsh = eval_range(&db, &endpoints, &tasks);
        let soft = eval_range(&db, &mild, &tasks);
        assert!(soft >= harsh, "mild {soft} >= harsh {harsh}");
        assert!(
            harsh < 1.0,
            "endpoint-only cannot be perfect on data-centered queries"
        );
    }

    #[test]
    fn task_workloads_have_requested_sizes() {
        let (_, tasks) = setup();
        assert_eq!(tasks.range_queries.len(), 10);
        assert_eq!(
            tasks.knn_queries.len(),
            TaskParams::paper_scaled(10).num_knn
        );
        assert_eq!(
            tasks.sim_queries.len(),
            TaskParams::paper_scaled(10).num_sim
        );
    }

    #[test]
    fn scores_vector_matches_names() {
        let s = TaskScores {
            range: 0.1,
            knn_edr: 0.2,
            knn_t2vec: 0.3,
            similarity: 0.4,
            clustering: 0.5,
        };
        assert_eq!(s.as_vec(), vec![0.1, 0.2, 0.3, 0.4, 0.5]);
        assert_eq!(TaskScores::NAMES.len(), 5);
    }
}
