//! Trajectory simplification error measures (§III-A, Eq. 1–2).
//!
//! Four instantiations of the per-point error `ϵ(p_s p_e | p_i)` are
//! provided — SED, PED, DAD, SAD — together with the two aggregation levels
//! the paper defines: the *segment error* (Eq. 1, max over anchored points)
//! and the *trajectory error* (Eq. 2, max over simplified segments).

pub mod dad;
pub mod ped;
pub mod sad;
pub mod sed;

use crate::db::Simplification;
use crate::seq::PointSeq;
use crate::store::AsColumns;

pub use dad::dad;
pub use ped::ped;
pub use sad::sad;
pub use sed::sed;

/// The error measure used to instantiate `ϵ(p_s p_e | p_i)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorMeasure {
    /// Synchronized Euclidean Distance (meters).
    Sed,
    /// Perpendicular Euclidean Distance (meters).
    Ped,
    /// Direction-Aware Distance (radians).
    Dad,
    /// Speed-Aware Distance (meters/second).
    Sad,
}

impl ErrorMeasure {
    /// All four measures, in the order the paper lists them.
    pub const ALL: [ErrorMeasure; 4] = [
        ErrorMeasure::Sed,
        ErrorMeasure::Ped,
        ErrorMeasure::Dad,
        ErrorMeasure::Sad,
    ];

    /// Short uppercase name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            ErrorMeasure::Sed => "SED",
            ErrorMeasure::Ped => "PED",
            ErrorMeasure::Dad => "DAD",
            ErrorMeasure::Sad => "SAD",
        }
    }

    /// `ϵ(p_s p_e | p_i)` for anchor segment `(s, e)` (point indices into
    /// `seq`) and anchored point `i`, with `s ≤ i < e` (Eq. 1's range).
    ///
    /// For SED/PED this is the deviation of point `i` itself; for DAD/SAD it
    /// is the deviation of the original segment `i → i+1` that the anchor
    /// replaces.
    pub fn point_error_seq<S: PointSeq + ?Sized>(
        self,
        seq: &S,
        s: usize,
        e: usize,
        i: usize,
    ) -> f64 {
        debug_assert!(s <= i && i < e && e < seq.n_points());
        let ps = seq.point_at(s);
        let pe = seq.point_at(e);
        match self {
            ErrorMeasure::Sed => sed(&ps, &pe, &seq.point_at(i)),
            ErrorMeasure::Ped => ped(&ps, &pe, &seq.point_at(i)),
            ErrorMeasure::Dad => dad(&ps, &pe, &seq.point_at(i), &seq.point_at(i + 1)),
            ErrorMeasure::Sad => sad(&ps, &pe, &seq.point_at(i), &seq.point_at(i + 1)),
        }
    }

    /// Segment error `ϵ(p_s p_e)` (Eq. 1): the maximum point error over all
    /// points anchored by segment `(s, e)`. Zero when the anchor spans a
    /// single original segment.
    pub fn segment_error_seq<S: PointSeq + ?Sized>(self, seq: &S, s: usize, e: usize) -> f64 {
        debug_assert!(s < e && e < seq.n_points());
        let mut worst = 0.0f64;
        for i in s..e {
            worst = worst.max(self.point_error_seq(seq, s, e, i));
        }
        worst
    }

    /// Trajectory error `ϵ(T')` (Eq. 2): the maximum segment error over the
    /// simplified segments induced by `kept` (sorted kept indices).
    pub fn trajectory_error<S: PointSeq + ?Sized>(self, seq: &S, kept: &[u32]) -> f64 {
        let mut worst = 0.0f64;
        for w in kept.windows(2) {
            worst = worst.max(self.segment_error_seq(seq, w[0] as usize, w[1] as usize));
        }
        worst
    }

    /// Maximum trajectory error over the whole simplified database — the
    /// "simplification error" of a store and its [`Simplification`].
    pub fn db_error<S: AsColumns + ?Sized>(self, store: &S, simp: &Simplification) -> f64 {
        let mut worst = 0.0f64;
        for (id, v) in store.iter() {
            worst = worst.max(self.trajectory_error(&v, simp.kept(id)));
        }
        worst
    }

    /// Mean trajectory error over the database (used by the deformation
    /// study, Fig. 7, which averages SED over query-returned trajectories).
    pub fn mean_db_error<S: AsColumns + ?Sized>(self, store: &S, simp: &Simplification) -> f64 {
        if store.is_empty() {
            return 0.0;
        }
        let sum: f64 = store
            .iter()
            .map(|(id, v)| self.trajectory_error(&v, simp.kept(id)))
            .sum();
        sum / store.len() as f64
    }
}

impl std::fmt::Display for ErrorMeasure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for ErrorMeasure {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_uppercase().as_str() {
            "SED" => Ok(ErrorMeasure::Sed),
            "PED" => Ok(ErrorMeasure::Ped),
            "DAD" => Ok(ErrorMeasure::Dad),
            "SAD" => Ok(ErrorMeasure::Sad),
            other => Err(format!("unknown error measure: {other}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::TrajectoryDb;
    use crate::point::Point;
    use crate::traj::Trajectory;

    /// A zig-zag trajectory with an obvious outlier at index 2.
    fn zigzag() -> Trajectory {
        Trajectory::new(vec![
            Point::new(0.0, 0.0, 0.0),
            Point::new(10.0, 0.0, 10.0),
            Point::new(20.0, 30.0, 20.0), // detour
            Point::new(30.0, 0.0, 30.0),
            Point::new(40.0, 0.0, 40.0),
        ])
        .unwrap()
    }

    #[test]
    fn segment_error_takes_the_max_point() {
        let t = zigzag();
        let e = ErrorMeasure::Sed.segment_error_seq(&t, 0, 4);
        // The detour point dominates: sync at t=20 is (20, 0), actual (20, 30).
        assert!((e - 30.0).abs() < 1e-9);
    }

    #[test]
    fn single_segment_anchor_has_zero_error_for_spatial_measures() {
        let t = zigzag();
        for m in [ErrorMeasure::Sed, ErrorMeasure::Ped] {
            assert!(m.segment_error_seq(&t, 1, 2) < 1e-12, "{m}");
        }
    }

    #[test]
    fn trajectory_error_zero_when_everything_kept() {
        let t = zigzag();
        let all: Vec<u32> = (0..t.len() as u32).collect();
        for m in ErrorMeasure::ALL {
            assert!(m.trajectory_error(&t, &all) < 1e-12, "{m}");
        }
    }

    #[test]
    fn keeping_the_outlier_reduces_sed_error() {
        let t = zigzag();
        let coarse = ErrorMeasure::Sed.trajectory_error(&t, &[0, 4]);
        let finer = ErrorMeasure::Sed.trajectory_error(&t, &[0, 2, 4]);
        assert!(finer < coarse);
    }

    #[test]
    fn db_error_is_max_over_trajectories() {
        let store = TrajectoryDb::new(vec![zigzag(), zigzag()]).to_store();
        let simp = Simplification::most_simplified_store(&store);
        let per = ErrorMeasure::Sed.trajectory_error(&zigzag(), simp.kept(0));
        assert_eq!(ErrorMeasure::Sed.db_error(&store, &simp), per);
        assert!((ErrorMeasure::Sed.mean_db_error(&store, &simp) - per).abs() < 1e-12);
    }

    #[test]
    fn parse_round_trips() {
        for m in ErrorMeasure::ALL {
            let parsed: ErrorMeasure = m.name().parse().unwrap();
            assert_eq!(parsed, m);
        }
        assert!("XYZ".parse::<ErrorMeasure>().is_err());
    }

    #[test]
    fn dad_flags_direction_changes_even_on_short_detours() {
        // Spatially tiny but directionally violent wiggle.
        let t = Trajectory::new(vec![
            Point::new(0.0, 0.0, 0.0),
            Point::new(1.0, 0.1, 1.0),
            Point::new(2.0, -0.1, 2.0),
            Point::new(3.0, 0.0, 3.0),
        ])
        .unwrap();
        let sed_err = ErrorMeasure::Sed.trajectory_error(&t, &[0, 3]);
        let dad_err = ErrorMeasure::Dad.trajectory_error(&t, &[0, 3]);
        assert!(sed_err < 0.2, "spatially small");
        assert!(dad_err > 0.05, "directionally noticeable");
    }
}
