//! TRACLUS: partition-and-group trajectory clustering
//! (Lee, Han, Whang — SIGMOD 2007), the clustering operator of §III-B.
//!
//! Pipeline: (1) each trajectory is partitioned into characteristic
//! segments by approximate MDL; (2) the segments of *all* trajectories are
//! clustered with DBSCAN under the three-component segment distance.
//! The paper's clustering quality measure compares the sets of trajectory
//! pairs that share a cluster on the original vs. the simplified database,
//! so the representative-trajectory post-processing step of TRACLUS is not
//! needed here.

pub mod dbscan;
pub mod partition;
pub mod segdist;

pub use dbscan::Label;
pub use segdist::{segment_distance, DistanceWeights, Segment};

use trajectory::{AsColumns, TrajId};

/// TRACLUS parameters.
#[derive(Debug, Clone, Copy)]
pub struct TraclusParams {
    /// DBSCAN neighbourhood radius over the segment distance (meters).
    pub eps: f64,
    /// DBSCAN core threshold (minimum segments in a neighbourhood).
    pub min_lns: usize,
    /// Component weights of the segment distance.
    pub weights: DistanceWeights,
}

impl Default for TraclusParams {
    fn default() -> Self {
        Self {
            eps: 300.0,
            min_lns: 3,
            weights: DistanceWeights::default(),
        }
    }
}

/// The clustering outcome.
#[derive(Debug, Clone)]
pub struct TraclusResult {
    /// All characteristic segments (input to DBSCAN).
    pub segments: Vec<Segment>,
    /// Per-segment labels.
    pub labels: Vec<Label>,
    /// Number of clusters found.
    pub num_clusters: usize,
}

impl TraclusResult {
    /// The distinct trajectory ids present in each cluster.
    pub fn cluster_members(&self) -> Vec<Vec<TrajId>> {
        let mut members: Vec<Vec<TrajId>> = vec![Vec::new(); self.num_clusters];
        for (seg, label) in self.segments.iter().zip(&self.labels) {
            if let Label::Cluster(c) = label {
                members[*c].push(seg.traj);
            }
        }
        for m in &mut members {
            m.sort_unstable();
            m.dedup();
        }
        members
    }

    /// All unordered pairs of trajectories sharing at least one cluster,
    /// normalized as `(min, max)` and sorted — the paper's `Ro`/`Rs` for
    /// the clustering F1 (Eq. 3).
    pub fn co_clustered_pairs(&self) -> Vec<(TrajId, TrajId)> {
        let mut pairs = Vec::new();
        for members in self.cluster_members() {
            for i in 0..members.len() {
                for j in i + 1..members.len() {
                    pairs.push((members[i], members[j]));
                }
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    }
}

/// Runs TRACLUS over a database (owned or mapped columns).
pub fn traclus<S: AsColumns + ?Sized>(store: &S, params: &TraclusParams) -> TraclusResult {
    let segments = partition::partition_database(store);
    let (labels, num_clusters) =
        dbscan::dbscan(&segments, params.eps, params.min_lns, &params.weights);
    TraclusResult {
        segments,
        labels,
        num_clusters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trajectory::{Point, PointStore, Trajectory, TrajectoryDb};

    fn line(y: f64, jitter: f64, id_seed: u64) -> Trajectory {
        // Slightly jittered west-east lines so MDL keeps them as ~1 segment.
        let mut pts = Vec::new();
        for i in 0..12 {
            let j = ((i as u64 * 2654435761 + id_seed) % 100) as f64 / 100.0 - 0.5;
            pts.push(Point::new(i as f64 * 100.0, y + jitter * j, i as f64));
        }
        Trajectory::new(pts).unwrap()
    }

    fn corridor_db() -> PointStore {
        // Corridor A: trajectories 0..3 around y=0.
        // Corridor B: trajectories 3..6 around y=50_000.
        TrajectoryDb::new(vec![
            line(0.0, 10.0, 1),
            line(40.0, 10.0, 2),
            line(80.0, 10.0, 3),
            line(50_000.0, 10.0, 4),
            line(50_040.0, 10.0, 5),
            line(50_080.0, 10.0, 6),
        ])
        .to_store()
    }

    #[test]
    fn clusters_corridors_separately() {
        let r = traclus(&corridor_db(), &TraclusParams::default());
        assert!(
            r.num_clusters >= 2,
            "expected ≥2 clusters, got {}",
            r.num_clusters
        );
        let pairs = r.co_clustered_pairs();
        // Same-corridor pairs must be present.
        assert!(pairs.contains(&(0, 1)), "pairs: {pairs:?}");
        assert!(pairs.contains(&(3, 4)), "pairs: {pairs:?}");
        // Cross-corridor pairs must be absent.
        assert!(
            !pairs.iter().any(|&(a, b)| a < 3 && b >= 3),
            "pairs: {pairs:?}"
        );
    }

    #[test]
    fn pairs_are_normalized_and_deduplicated() {
        let r = traclus(&corridor_db(), &TraclusParams::default());
        let pairs = r.co_clustered_pairs();
        assert!(pairs.windows(2).all(|w| w[0] < w[1]), "sorted unique");
        assert!(pairs.iter().all(|&(a, b)| a < b), "normalized");
    }

    #[test]
    fn empty_database_clusters_to_nothing() {
        let r = traclus(&PointStore::new(), &TraclusParams::default());
        assert_eq!(r.num_clusters, 0);
        assert!(r.co_clustered_pairs().is_empty());
    }

    #[test]
    fn cluster_members_are_distinct() {
        let r = traclus(&corridor_db(), &TraclusParams::default());
        for m in r.cluster_members() {
            let mut d = m.clone();
            d.dedup();
            assert_eq!(m, d);
        }
    }
}
