//! TRACLUS trajectory partitioning via approximate MDL.
//!
//! A trajectory is cut into *characteristic segments* at the points where
//! continuing the current straight-line hypothesis would cost more bits
//! (MDL) than starting a new one. `L(H)` encodes the hypothesis segment's
//! length; `L(D|H)` encodes how far the data deviates from it
//! (perpendicular + angular distances).

use super::segdist::{components, Segment};
use trajectory::{AsColumns, PointSeq};

/// Indices of the characteristic points of `traj` (always includes the
/// first and last index). `partition_only` trades a little quality for
/// robustness by clamping distances below 1 m/1 rad before taking logs
/// (log2 of a near-zero distance would reward the hypothesis unboundedly).
pub fn characteristic_points<S: PointSeq + ?Sized>(traj: &S) -> Vec<usize> {
    let n = traj.n_points();
    if n <= 2 {
        return (0..n).collect();
    }
    let mut cps = vec![0usize];
    let mut start = 0usize;
    let mut length = 1usize;
    while start + length < n {
        let curr = start + length;
        let cost_par = mdl_par(traj, start, curr);
        let cost_nopar = mdl_nopar(traj, start, curr);
        if cost_par > cost_nopar {
            // Partition at the previous point.
            let cp = curr - 1;
            if cp > start {
                cps.push(cp);
                start = cp;
                length = 1;
            } else {
                // Degenerate: the very next point already violates MDL;
                // accept the single original segment and move on.
                cps.push(curr);
                start = curr;
                length = 1;
            }
        } else {
            length += 1;
        }
    }
    if *cps.last().unwrap() != n - 1 {
        cps.push(n - 1);
    }
    cps
}

/// Converts the characteristic points of every trajectory in a database
/// into the flat segment list TRACLUS clusters.
pub fn partition_database<S: AsColumns + ?Sized>(store: &S) -> Vec<Segment> {
    let mut segments = Vec::new();
    for (id, t) in store.iter() {
        let cps = characteristic_points(&t);
        for w in cps.windows(2) {
            let s = Segment {
                a: t.point(w[0]),
                b: t.point(w[1]),
                traj: id,
            };
            if !s.is_empty() {
                segments.push(s);
            }
        }
    }
    segments
}

/// `MDL_par(i, j) = L(H) + L(D|H)`: cost of replacing `p_i..p_j` with the
/// single segment `(p_i, p_j)`.
fn mdl_par<S: PointSeq + ?Sized>(traj: &S, i: usize, j: usize) -> f64 {
    let hyp = Segment {
        a: traj.point_at(i),
        b: traj.point_at(j),
        traj: 0,
    };
    let lh = log2_clamped(hyp.len());
    let mut ldh = 0.0;
    for k in i..j {
        let data = Segment {
            a: traj.point_at(k),
            b: traj.point_at(k + 1),
            traj: 0,
        };
        let (d_perp, _, d_angle) = components(&hyp, &data);
        ldh += log2_clamped(d_perp) + log2_clamped(d_angle);
    }
    lh + ldh
}

/// `MDL_nopar(i, j)`: cost of keeping the original segments (`L(D|H) = 0`).
fn mdl_nopar<S: PointSeq + ?Sized>(traj: &S, i: usize, j: usize) -> f64 {
    (i..j)
        .map(|k| log2_clamped(traj.point_at(k).spatial_distance(&traj.point_at(k + 1))))
        .sum()
}

/// `log2(max(x, 1))`: sub-meter deviations cost nothing rather than
/// negative bits (standard practical clamp for TRACLUS).
fn log2_clamped(x: f64) -> f64 {
    x.max(1.0).log2()
}

#[cfg(test)]
mod tests {
    use super::*;
    use trajectory::{Point, Trajectory, TrajectoryDb};

    fn traj(coords: &[(f64, f64)]) -> Trajectory {
        Trajectory::new(
            coords
                .iter()
                .enumerate()
                .map(|(i, &(x, y))| Point::new(x, y, i as f64))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn straight_line_is_one_segment() {
        let t = traj(&[
            (0.0, 0.0),
            (100.0, 0.0),
            (200.0, 0.0),
            (300.0, 0.0),
            (400.0, 0.0),
        ]);
        let cps = characteristic_points(&t);
        assert_eq!(cps, vec![0, 4]);
    }

    #[test]
    fn sharp_corner_is_a_characteristic_point() {
        // East for 4 points, then hard north: the corner must be kept.
        let t = traj(&[
            (0.0, 0.0),
            (100.0, 0.0),
            (200.0, 0.0),
            (300.0, 0.0),
            (300.0, 100.0),
            (300.0, 200.0),
            (300.0, 300.0),
        ]);
        let cps = characteristic_points(&t);
        assert!(cps.contains(&3), "corner at index 3 missing from {cps:?}");
        assert_eq!(*cps.first().unwrap(), 0);
        assert_eq!(*cps.last().unwrap(), 6);
    }

    #[test]
    fn short_trajectories_are_kept_whole() {
        assert_eq!(
            characteristic_points(&traj(&[(0.0, 0.0), (1.0, 1.0)])),
            vec![0, 1]
        );
    }

    #[test]
    fn endpoints_always_included() {
        let t = traj(&[
            (0.0, 0.0),
            (50.0, 80.0),
            (120.0, 10.0),
            (30.0, -60.0),
            (0.0, 0.0),
        ]);
        let cps = characteristic_points(&t);
        assert_eq!(*cps.first().unwrap(), 0);
        assert_eq!(*cps.last().unwrap(), t.len() - 1);
        assert!(cps.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn partition_database_produces_traj_tagged_segments() {
        let store = TrajectoryDb::new(vec![
            traj(&[(0.0, 0.0), (100.0, 0.0), (200.0, 0.0)]),
            traj(&[(0.0, 50.0), (100.0, 50.0)]),
        ])
        .to_store();
        let segs = partition_database(&store);
        assert!(!segs.is_empty());
        assert!(segs.iter().any(|s| s.traj == 0));
        assert!(segs.iter().any(|s| s.traj == 1));
        assert!(segs.iter().all(|s| !s.is_empty()));
    }
}
