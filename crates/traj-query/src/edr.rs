//! Edit Distance on Real sequence (EDR) — Chen, Özsu, Oria (SIGMOD 2005).
//!
//! EDR counts the minimum number of insert / delete / substitute edits
//! needed to align two point sequences, where two points "match" (zero-cost
//! substitution) when they are within a tolerance `ε` on both axes. It is
//! the non-learning dissimilarity the paper uses to instantiate kNN
//! queries (ε = 2 km in the experiments).

use trajectory::{Point, PointSeq};

/// `EDR(a, b)` with matching tolerance `eps` (meters, per axis) over any
/// pair of point sequences — the one dynamic program serving owned
/// trajectories, point slices and zero-copy column views alike.
///
/// Runs the standard O(|a|·|b|) dynamic program with a rolling row.
/// An empty sequence is at distance `|other|` (all inserts).
pub fn edr_seq<A: PointSeq + ?Sized, B: PointSeq + ?Sized>(a: &A, b: &B, eps: f64) -> f64 {
    let (n, m) = (a.n_points(), b.n_points());
    if n == 0 {
        return m as f64;
    }
    if m == 0 {
        return n as f64;
    }
    // prev[j] = dp[i-1][j], curr[j] = dp[i][j]; dp[0][j] = j.
    let mut prev: Vec<u32> = (0..=m as u32).collect();
    let mut curr: Vec<u32> = vec![0; m + 1];
    for i in 1..=n {
        curr[0] = i as u32;
        let pa = a.point_at(i - 1);
        for j in 1..=m {
            let pb = b.point_at(j - 1);
            let sub = if matches(&pa, &pb, eps) { 0 } else { 1 };
            curr[j] = (prev[j - 1] + sub).min(prev[j] + 1).min(curr[j - 1] + 1);
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[m] as f64
}

/// The match predicate: within `eps` on both axes.
#[inline]
pub(crate) fn matches(a: &Point, b: &Point, eps: f64) -> bool {
    (a.x - b.x).abs() <= eps && (a.y - b.y).abs() <= eps
}

#[cfg(test)]
mod tests {
    use super::*;
    use trajectory::Trajectory;

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
    fn identical_sequences_have_zero_distance() {
        let a = traj(&[(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]);
        assert_eq!(edr_seq(&a, &a, 0.5), 0.0);
    }

    #[test]
    fn within_tolerance_counts_as_match() {
        let a = traj(&[(0.0, 0.0), (10.0, 0.0)]);
        let b = traj(&[(0.3, -0.3), (10.4, 0.2)]);
        assert_eq!(edr_seq(&a, &b, 0.5), 0.0);
        assert_eq!(edr_seq(&a, &b, 0.1), 2.0);
    }

    #[test]
    fn length_difference_costs_inserts() {
        let a = traj(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)]);
        let b = traj(&[(0.0, 0.0), (3.0, 0.0)]);
        // Two interior points must be deleted.
        assert_eq!(edr_seq(&a, &b, 0.1), 2.0);
    }

    #[test]
    fn empty_sequence_distance_is_other_length() {
        let a = traj(&[(0.0, 0.0), (1.0, 0.0)]);
        let empty: &[Point] = &[];
        assert_eq!(edr_seq(a.points(), empty, 1.0), 2.0);
        assert_eq!(edr_seq(empty, a.points(), 1.0), 2.0);
        assert_eq!(edr_seq(empty, empty, 1.0), 0.0);
    }

    #[test]
    fn edr_is_symmetric() {
        let a = traj(&[(0.0, 0.0), (5.0, 1.0), (9.0, 3.0), (12.0, 8.0)]);
        let b = traj(&[(0.2, 0.1), (7.0, 7.0), (12.0, 8.0)]);
        assert_eq!(edr_seq(&a, &b, 1.0), edr_seq(&b, &a, 1.0));
    }

    #[test]
    fn edr_bounded_by_max_length() {
        let a = traj(&[(0.0, 0.0), (1e6, 0.0), (2e6, 0.0)]);
        let b = traj(&[(-1e6, 5.0), (-2e6, 5.0)]);
        let d = edr_seq(&a, &b, 1.0);
        assert!(d <= 3.0);
        assert_eq!(d, 3.0, "totally dissimilar: substitutions + delete");
    }

    #[test]
    fn simplification_increases_edr_to_original() {
        // Dropping points from a trajectory changes its EDR to the original
        // by at most the number of dropped points (each is one delete).
        let a = traj(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0), (4.0, 0.0)]);
        let simplified = traj(&[(0.0, 0.0), (4.0, 0.0)]);
        let d = edr_seq(&a, &simplified, 0.1);
        assert_eq!(d, 3.0);
    }
}
