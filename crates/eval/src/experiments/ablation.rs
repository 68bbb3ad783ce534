//! Table II: ablation of Agent-Cube and Agent-Point.
//!
//! Four variants — full RL4QDTS, w/o Agent-Cube (random start cube handed
//! straight to Agent-Point), w/o Agent-Point (max-`v_s` insertion), and
//! w/o both — scored on range-query F1 (mean ± std over runs) with wall
//! time, on a Geolife-like database under the data distribution.

use crate::experiments::{query_count, ratio_sweep, split_train_test};
use crate::suite::{state_workload, train_rl4qdts, Rl4QdtsSimplifier};
use crate::table::{mean, std_dev, Table};
use crate::tasks::{build_tasks, eval_range, TaskParams};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rl4qdts::PolicyVariant;
use traj_query::QueryDistribution;
use traj_simp::Simplifier;
use trajectory::gen::{generate, DatasetSpec, Scale};

/// Runs the ablation. Returns a table with one row per variant:
/// `variant, range F1 (mean ± std), time (s)`.
pub fn run(scale: Scale, seed: u64, runs: usize) -> Table {
    let db = generate(&DatasetSpec::geolife(scale), seed);
    let (train_db, test_db) = split_train_test(db);
    let dist = QueryDistribution::Data;
    let model = train_rl4qdts(&train_db, dist, query_count(scale), seed);

    let mut rng = StdRng::seed_from_u64(seed ^ 0xab1a);
    let params = TaskParams::for_scale(scale, query_count(scale));
    let tasks = build_tasks(&test_db, dist, params, &mut rng);
    let ratio = ratio_sweep(scale)[0];
    let budget = ((test_db.total_points() as f64 * ratio) as usize)
        .max(traj_simp::min_points_store(&test_db.to_store()));

    let variants = [
        PolicyVariant::FULL,
        PolicyVariant::NO_CUBE,
        PolicyVariant::NO_POINT,
        PolicyVariant::NEITHER,
    ];
    let mut table = Table::new(&["variant", "Range Query F1", "Time (s)"]);
    for variant in variants {
        let mut f1s = Vec::with_capacity(runs);
        let started = std::time::Instant::now();
        for run_idx in 0..runs {
            let simplifier = Rl4QdtsSimplifier {
                model: model.clone(),
                state_queries: state_workload(
                    &test_db,
                    dist,
                    query_count(scale),
                    seed ^ (run_idx as u64 + 77),
                ),
                seed: seed.wrapping_add(run_idx as u64 * 131),
                variant,
            };
            let simp = simplifier.simplify(&test_db, budget);
            f1s.push(eval_range(&test_db, &simp.materialize(&test_db), &tasks));
        }
        let elapsed = started.elapsed().as_secs_f64() / runs as f64;
        table.row(vec![
            variant.label().to_string(),
            format!("{:.3} ± {:.3}", mean(&f1s), std_dev(&f1s)),
            format!("{elapsed:.2}"),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_four_variant_rows() {
        let t = run(Scale::Smoke, 5, 2);
        assert_eq!(t.rows().len(), 4);
        let names: Vec<&str> = t.rows().iter().map(|r| r[0].as_str()).collect();
        assert_eq!(
            names,
            vec![
                "RL4QDTS",
                "w/o Agent-Cube",
                "w/o Agent-Point",
                "w/o Agent-Cube and Agent-Point"
            ]
        );
        // Every F1 cell parses as mean ± std within [0, 1].
        for r in t.rows() {
            let m: f64 = r[1].split('±').next().unwrap().trim().parse().unwrap();
            assert!((0.0..=1.0).contains(&m), "{}", r[1]);
        }
    }
}
