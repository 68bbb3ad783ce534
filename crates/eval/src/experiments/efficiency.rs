//! Figure 8: efficiency and scalability on the OSM-like dataset.
//!
//! (a) running time vs. data size `N` at fixed ratio; (b) running time vs.
//! budget `W` at fixed `N`. Times are wall-clock seconds of the
//! simplification itself (no quality evaluation).

use crate::experiments::query_count;
use crate::suite::{state_workload, train_rl4qdts, Rl4QdtsSimplifier};
use crate::table::Table;
use rl4qdts::PolicyVariant;
use traj_query::QueryDistribution;
use traj_simp::rlts::{RltsPlus, RltsTrainConfig};
use traj_simp::{Adaptation, BottomUp, Simplifier, SpanSearch, TopDown};
use trajectory::gen::{generate, DatasetSpec, Scale};
use trajectory::{ErrorMeasure, TrajectoryDb};

/// The method set timed in Fig. 8: the union of skyline members plus
/// RLTS+ and Span-Search, as in the paper's legend.
fn timed_baselines(train_db: &TrajectoryDb, seed: u64) -> Vec<Box<dyn Simplifier>> {
    let rlts_cfg = RltsTrainConfig {
        episodes: 10,
        ..RltsTrainConfig::default()
    };
    vec![
        Box::new(TopDown::new(ErrorMeasure::Ped, Adaptation::Each)),
        Box::new(TopDown::new(ErrorMeasure::Ped, Adaptation::Whole)),
        Box::new(BottomUp::new(ErrorMeasure::Ped, Adaptation::Whole)),
        Box::new(BottomUp::new(ErrorMeasure::Dad, Adaptation::Each)),
        Box::new(BottomUp::new(ErrorMeasure::Sed, Adaptation::Each)),
        Box::new(RltsPlus::train(
            ErrorMeasure::Sed,
            Adaptation::Each,
            3,
            &train_db.to_store(),
            &rlts_cfg,
            seed,
        )),
        Box::new(SpanSearch),
    ]
}

/// Trajectory-count sweep per scale (the paper sweeps 0.2–1.0 billion
/// points; the shape — who scales how — is what transfers).
fn size_sweep(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Paper => vec![100, 200, 400, 800],
        Scale::Small => vec![20, 40, 80, 160],
        Scale::Smoke => vec![4, 8],
    }
}

fn budget_sweep(scale: Scale) -> Vec<f64> {
    match scale {
        Scale::Paper => vec![0.0025, 0.005, 0.01, 0.02],
        Scale::Small => vec![0.02, 0.04, 0.08, 0.15],
        Scale::Smoke => vec![0.05, 0.25],
    }
}

fn time_one(method: &dyn Simplifier, db: &TrajectoryDb, budget: usize) -> f64 {
    let started = std::time::Instant::now();
    let simp = method.simplify(db, budget);
    let elapsed = started.elapsed().as_secs_f64();
    std::hint::black_box(simp.total_points());
    elapsed
}

/// Fig. 8(a): running time vs. data size at the base ratio.
pub fn run_varying_size(scale: Scale, seed: u64) -> Table {
    let sizes = size_sweep(scale);
    let spec = DatasetSpec::osm(scale);
    let train_db = generate(&spec.clone().with_trajectories(sizes[0].max(4)), seed ^ 1);
    let baselines = timed_baselines(&train_db, seed);
    let model = train_rl4qdts(&train_db, QueryDistribution::Data, query_count(scale), seed);

    let mut header: Vec<String> = vec!["method".into()];
    header.extend(sizes.iter().map(|m| format!("M={m}")));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = Table::new(&header_refs);

    let mut rows: Vec<Vec<String>> = baselines
        .iter()
        .map(|b| vec![b.name()])
        .chain(std::iter::once(vec!["RL4QDTS".to_string()]))
        .collect();
    for &m in &sizes {
        let db = generate(&spec.clone().with_trajectories(m), seed);
        let ratio = budget_sweep(scale)[0];
        let budget = ((db.total_points() as f64 * ratio) as usize)
            .max(traj_simp::min_points_store(&db.to_store()));
        for (i, b) in baselines.iter().enumerate() {
            rows[i].push(format!("{:.3}s", time_one(b.as_ref(), &db, budget)));
        }
        let rl = Rl4QdtsSimplifier {
            model: model.clone(),
            state_queries: state_workload(&db, QueryDistribution::Data, query_count(scale), seed),
            seed,
            variant: PolicyVariant::FULL,
        };
        let last = rows.len() - 1;
        rows[last].push(format!("{:.3}s", time_one(&rl, &db, budget)));
    }
    for r in rows {
        table.row(r);
    }
    table
}

/// Fig. 8(b): running time vs. budget at fixed data size.
pub fn run_varying_budget(scale: Scale, seed: u64) -> Table {
    let spec = DatasetSpec::osm(scale);
    let m = size_sweep(scale)[size_sweep(scale).len() / 2];
    let db = generate(&spec.clone().with_trajectories(m), seed);
    let train_db = generate(&spec.with_trajectories((m / 2).max(4)), seed ^ 1);
    let baselines = timed_baselines(&train_db, seed);
    let model = train_rl4qdts(&train_db, QueryDistribution::Data, query_count(scale), seed);

    let ratios = budget_sweep(scale);
    let mut header: Vec<String> = vec!["method".into()];
    header.extend(ratios.iter().map(|&r| crate::experiments::fmt_ratio(r)));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = Table::new(&header_refs);

    let mut rows: Vec<Vec<String>> = baselines
        .iter()
        .map(|b| vec![b.name()])
        .chain(std::iter::once(vec!["RL4QDTS".to_string()]))
        .collect();
    for &ratio in &ratios {
        let budget = ((db.total_points() as f64 * ratio) as usize)
            .max(traj_simp::min_points_store(&db.to_store()));
        for (i, b) in baselines.iter().enumerate() {
            rows[i].push(format!("{:.3}s", time_one(b.as_ref(), &db, budget)));
        }
        let rl = Rl4QdtsSimplifier {
            model: model.clone(),
            state_queries: state_workload(&db, QueryDistribution::Data, query_count(scale), seed),
            seed,
            variant: PolicyVariant::FULL,
        };
        let last = rows.len() - 1;
        rows[last].push(format!("{:.3}s", time_one(&rl, &db, budget)));
    }
    for r in rows {
        table.row(r);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_sweep_table_has_all_methods() {
        let t = run_varying_size(Scale::Smoke, 21);
        assert_eq!(t.rows().len(), 8, "7 baselines + RL4QDTS");
        for r in t.rows() {
            assert_eq!(r.len(), 1 + size_sweep(Scale::Smoke).len());
            for cell in &r[1..] {
                assert!(cell.ends_with('s'), "time cell: {cell}");
            }
        }
    }

    #[test]
    fn budget_sweep_table_has_all_methods() {
        let t = run_varying_budget(Scale::Smoke, 22);
        assert_eq!(t.rows().len(), 8);
        assert_eq!(t.rows()[0].len(), 1 + budget_sweep(Scale::Smoke).len());
    }
}
