//! Dataset statistics (the columns of Table I).

use crate::store::AsColumns;

/// Summary statistics of a trajectory database, mirroring Table I of the
/// paper: trajectory count, total points, average points per trajectory,
/// mean sampling interval, and mean segment ("step") length.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetStats {
    /// Number of trajectories (`# of trajectories`).
    pub num_trajectories: usize,
    /// Total number of points (`Total # of points`).
    pub total_points: usize,
    /// Mean points per trajectory (`Ave. # of pts per traj`).
    pub mean_points_per_traj: f64,
    /// Mean sampling interval in seconds (`Sampling rate`).
    pub mean_sampling_interval: f64,
    /// Mean spatial segment length in meters (`Average length`).
    pub mean_segment_length: f64,
}

impl DatasetStats {
    /// Computes the statistics of `store` (owned or mapped columns).
    pub fn compute<S: AsColumns + ?Sized>(store: &S) -> Self {
        let num_trajectories = store.len();
        let total_points = store.total_points();
        let mean_points_per_traj = if num_trajectories == 0 {
            0.0
        } else {
            total_points as f64 / num_trajectories as f64
        };

        let mut interval_sum = 0.0;
        let mut interval_n = 0usize;
        let mut seg_sum = 0.0;
        let mut seg_n = 0usize;
        for v in store.views() {
            for i in 1..v.len() {
                let (a, b) = (v.point(i - 1), v.point(i));
                interval_sum += b.t - a.t;
                seg_sum += a.spatial_distance(&b);
                interval_n += 1;
                seg_n += 1;
            }
        }
        Self {
            num_trajectories,
            total_points,
            mean_points_per_traj,
            mean_sampling_interval: if interval_n == 0 {
                0.0
            } else {
                interval_sum / interval_n as f64
            },
            mean_segment_length: if seg_n == 0 {
                0.0
            } else {
                seg_sum / seg_n as f64
            },
        }
    }
}

impl std::fmt::Display for DatasetStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "M={} N={} pts/traj={:.0} interval={:.1}s step={:.1}m",
            self.num_trajectories,
            self.total_points,
            self.mean_points_per_traj,
            self.mean_sampling_interval,
            self.mean_segment_length
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::TrajectoryDb;
    use crate::gen::{generate, DatasetSpec, Scale};
    use crate::point::Point;
    use crate::traj::Trajectory;

    #[test]
    fn stats_of_known_database() {
        let t = Trajectory::new(vec![
            Point::new(0.0, 0.0, 0.0),
            Point::new(3.0, 4.0, 10.0),
            Point::new(6.0, 8.0, 20.0),
        ])
        .unwrap();
        let s = DatasetStats::compute(&TrajectoryDb::new(vec![t]).to_store());
        assert_eq!(s.num_trajectories, 1);
        assert_eq!(s.total_points, 3);
        assert_eq!(s.mean_points_per_traj, 3.0);
        assert_eq!(s.mean_sampling_interval, 10.0);
        assert_eq!(s.mean_segment_length, 5.0);
    }

    #[test]
    fn empty_database_is_all_zero() {
        let s = DatasetStats::compute(&TrajectoryDb::default().to_store());
        assert_eq!(s.total_points, 0);
        assert_eq!(s.mean_points_per_traj, 0.0);
        assert_eq!(s.mean_sampling_interval, 0.0);
    }

    #[test]
    fn generated_datasets_match_their_spec_shape() {
        // T-Drive-like must be sparser (larger interval, longer steps) than
        // Geolife-like — the defining contrast in Table I.
        let geo =
            DatasetStats::compute(&generate(&DatasetSpec::geolife(Scale::Smoke), 1).to_store());
        let td = DatasetStats::compute(&generate(&DatasetSpec::tdrive(Scale::Smoke), 1).to_store());
        assert!(td.mean_sampling_interval > 10.0 * geo.mean_sampling_interval);
        assert!(td.mean_segment_length > 5.0 * geo.mean_segment_length);
    }
}
