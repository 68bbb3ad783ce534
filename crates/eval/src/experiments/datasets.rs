//! Table I: dataset statistics.
//!
//! Generates the four synthetic datasets and prints their statistics next
//! to the paper's reference values, making the substitution of synthetic
//! generators for the real datasets, which are not available offline,
//! auditable at a glance.

use crate::table::Table;
use trajectory::gen::{generate, DatasetSpec, Scale};
use trajectory::DatasetStats;

/// The paper's Table I reference values per dataset:
/// `(name, trajectories, points, pts/traj, sampling-rate description,
/// average step length)`.
pub const PAPER_REFERENCE: [(&str, &str, &str, &str, &str, &str); 4] = [
    (
        "geolife",
        "17,621",
        "24,876,978",
        "1,412",
        "1s ~ 5s",
        "9.96m",
    ),
    ("tdrive", "10,359", "17,740,902", "1,713", "177s", "623m"),
    ("chengdu", "179,756", "32,151,865", "178", "2s ~ 4s", "25m"),
    ("osm", "513,380", "2,913,478,785", "5,675", "53.5s", "180m"),
];

/// Generates all four datasets at `scale` and tabulates measured vs.
/// paper statistics.
pub fn run(scale: Scale, seed: u64) -> Table {
    let mut table = Table::new(&[
        "dataset",
        "M (ours)",
        "N (ours)",
        "pts/traj (ours)",
        "interval (ours)",
        "step (ours)",
        "M (paper)",
        "pts/traj (paper)",
        "interval (paper)",
        "step (paper)",
    ]);
    for (spec, reference) in DatasetSpec::all(scale).iter().zip(PAPER_REFERENCE) {
        let s = DatasetStats::compute(&generate(spec, seed).to_store());
        table.row(vec![
            spec.name.to_string(),
            s.num_trajectories.to_string(),
            s.total_points.to_string(),
            format!("{:.0}", s.mean_points_per_traj),
            format!("{:.1}s", s.mean_sampling_interval),
            format!("{:.1}m", s.mean_segment_length),
            reference.1.to_string(),
            reference.3.to_string(),
            reference.4.to_string(),
            reference.5.to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_four_rows() {
        let t = run(Scale::Smoke, 1);
        assert_eq!(t.rows().len(), 4);
        assert!(t.render().contains("geolife"));
        assert!(t.render().contains("osm"));
    }

    #[test]
    fn measured_shape_tracks_paper_shape() {
        // Scale-invariant relations of Table I must hold in the synthetic
        // data: T-Drive samples an order of magnitude sparser than Geolife
        // and takes far longer steps; Chengdu samples densely.
        let t = run(Scale::Smoke, 2);
        let rows = t.rows();
        let interval = |i: usize| -> f64 { rows[i][4].trim_end_matches('s').parse().unwrap() };
        let step = |i: usize| -> f64 { rows[i][5].trim_end_matches('m').parse().unwrap() };
        assert!(
            interval(1) > 10.0 * interval(0),
            "tdrive sparser than geolife"
        );
        assert!(step(1) > 5.0 * step(0), "tdrive longer steps than geolife");
        assert!(interval(2) < 10.0, "chengdu samples densely");
        assert!(interval(3) > interval(0), "osm sparser than geolife");
    }
}
