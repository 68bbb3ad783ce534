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
use crate::geom;
use crate::seq::PointSeq;
use crate::store::{AsColumns, TrajView};

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

    /// The worst interior point of anchor segment `(s, e)` of `v`: the
    /// first `i` in `s + 1..e` with the largest
    /// [`point_error_seq`](Self::point_error_seq), and that error. `None`
    /// when the anchor spans a single original segment.
    ///
    /// One batched pass over the columns: the anchor's terms are computed
    /// once, every interior point's error is written into `errs` (scratch
    /// the caller reuses across calls), then the max and the first index
    /// holding it are taken. Each error is bit-identical to
    /// `point_error_seq`'s — the same IEEE operations in the same order —
    /// and the pick is a sequential `err > best` scan's: the first index
    /// of the largest error, or `s + 1` when that point's error is NaN.
    pub fn worst_point(
        self,
        v: TrajView<'_>,
        s: usize,
        e: usize,
        errs: &mut Vec<f64>,
    ) -> Option<(f64, usize)> {
        debug_assert!(s < e && e < v.len());
        if e <= s + 1 {
            return None;
        }
        let m = e - s - 1;
        if errs.len() < m {
            errs.resize(m, 0.0);
        }
        let errs = &mut errs[..m];
        self.interior_errors(v, s, e, errs);
        let mut best = errs[0];
        for &err in &errs[1..] {
            if err > best {
                best = err;
            }
        }
        // `best` is the first maximum's own value; a NaN can only be
        // `errs[0]`, which no later error beats.
        let first = if best.is_nan() {
            0
        } else {
            errs.iter()
                .position(|&err| err == best)
                .expect("the max is one of the errors")
        };
        Some((best, s + 1 + first))
    }

    /// Writes `point_error_seq(v, s, e, i)` for every `i` in `s + 1..e`
    /// into `out[i - s - 1]`. SED and PED branch on a degenerate anchor
    /// once, outside the loop, and read the columns as straight slices.
    fn interior_errors(self, v: TrajView<'_>, s: usize, e: usize, out: &mut [f64]) {
        let (a, b) = (v.point(s), v.point(e));
        let (xs, ys, ts) = (&v.xs[s + 1..e], &v.ys[s + 1..e], &v.ts[s + 1..e]);
        match self {
            // `sed`: the distance to `geom::interpolate_at(a, b, t)`.
            ErrorMeasure::Sed => {
                let dt = b.t - a.t;
                if dt <= 0.0 {
                    for ((o, &x), &y) in out.iter_mut().zip(xs).zip(ys) {
                        let (dx, dy) = (x - a.x, y - a.y);
                        *o = (dx * dx + dy * dy).sqrt();
                    }
                } else {
                    let (ex, ey) = (b.x - a.x, b.y - a.y);
                    for (((o, &x), &y), &t) in out.iter_mut().zip(xs).zip(ys).zip(ts) {
                        let r = ((t - a.t) / dt).clamp(0.0, 1.0);
                        let (dx, dy) = (x - (a.x + r * ex), y - (a.y + r * ey));
                        *o = (dx * dx + dy * dy).sqrt();
                    }
                }
            }
            // `ped`: `geom::point_segment_distance`, whose projection is 0
            // on a zero-length anchor.
            ErrorMeasure::Ped => {
                let (abx, aby) = (b.x - a.x, b.y - a.y);
                let len2 = abx * abx + aby * aby;
                if len2 <= 0.0 {
                    let (cx, cy) = (a.x + 0.0 * abx, a.y + 0.0 * aby);
                    for ((o, &x), &y) in out.iter_mut().zip(xs).zip(ys) {
                        let (dx, dy) = (x - cx, y - cy);
                        *o = (dx * dx + dy * dy).sqrt();
                    }
                } else {
                    for ((o, &x), &y) in out.iter_mut().zip(xs).zip(ys) {
                        let r = (((x - a.x) * abx + (y - a.y) * aby) / len2).clamp(0.0, 1.0);
                        let (dx, dy) = (x - (a.x + r * abx), y - (a.y + r * aby));
                        *o = (dx * dx + dy * dy).sqrt();
                    }
                }
            }
            ErrorMeasure::Dad => {
                let anchor = geom::direction(&a, &b);
                for (o, i) in out.iter_mut().zip(s + 1..e) {
                    *o = geom::angle_diff(geom::direction(&v.point(i), &v.point(i + 1)), anchor);
                }
            }
            ErrorMeasure::Sad => {
                let anchor = geom::speed(&a, &b);
                for (o, i) in out.iter_mut().zip(s + 1..e) {
                    *o = (geom::speed(&v.point(i), &v.point(i + 1)) - anchor).abs();
                }
            }
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

    /// The sequential scan `worst_point` batches: every interior point's
    /// `point_error_seq`, the first strictly larger one winning.
    fn scan(m: ErrorMeasure, v: TrajView<'_>, s: usize, e: usize) -> Option<(f64, usize)> {
        let mut best: Option<(f64, usize)> = None;
        for i in s + 1..e {
            let err = m.point_error_seq(&v, s, e, i);
            if best.is_none_or(|(b, _)| err > b) {
                best = Some((err, i));
            }
        }
        best
    }

    /// Asserts that the batched pass over `(s, e)` writes each interior
    /// point's `point_error_seq` bit for bit and picks what `scan` picks.
    fn assert_batched_matches(v: TrajView<'_>, s: usize, e: usize, errs: &mut Vec<f64>) {
        for m in ErrorMeasure::ALL {
            let got = m.worst_point(v, s, e, errs);
            let want = scan(m, v, s, e);
            assert_eq!(
                got.map(|(err, i)| (err.to_bits(), i)),
                want.map(|(err, i)| (err.to_bits(), i)),
                "{m} ({s}, {e})"
            );
            if e > s + 1 {
                let mut out = vec![0.0; e - s - 1];
                m.interior_errors(v, s, e, &mut out);
                for (k, err) in out.iter().enumerate() {
                    let i = s + 1 + k;
                    assert_eq!(
                        err.to_bits(),
                        m.point_error_seq(&v, s, e, i).to_bits(),
                        "{m} ({s}, {e}) point {i}"
                    );
                }
            }
        }
    }

    fn view<'a>(xs: &'a [f64], ys: &'a [f64], ts: &'a [f64]) -> TrajView<'a> {
        TrajView { xs, ys, ts }
    }

    #[test]
    fn worst_point_is_the_per_point_scan_on_generated_data() {
        use crate::gen::{generate, DatasetSpec, Scale};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        let mut errs = Vec::new();
        for spec in [
            DatasetSpec::tdrive(Scale::Smoke),
            DatasetSpec::geolife(Scale::Smoke),
            DatasetSpec::chengdu(Scale::Smoke),
        ] {
            let store = generate(&spec, 3).to_store();
            for (_, v) in store.iter() {
                let n = v.len();
                if n < 2 {
                    continue;
                }
                assert_batched_matches(v, 0, n - 1, &mut errs);
                for _ in 0..8 {
                    let s = rng.gen_range(0..n - 1);
                    let e = rng.gen_range(s + 1..n);
                    assert_batched_matches(v, s, e, &mut errs);
                }
            }
        }
    }

    #[test]
    fn worst_point_on_degenerate_anchors() {
        let mut errs = Vec::new();
        // Zero-duration anchor (duplicate timestamps) and a zero-length
        // one (the object returns to where it started).
        let xs = [0.0, 3.0, -2.0, 5.0, 0.0];
        let ys = [0.0, 4.0, 1.0, -1.0, 0.0];
        let ts = [7.0, 7.0, 7.0, 7.0, 7.0];
        assert_batched_matches(view(&xs, &ys, &ts), 0, 4, &mut errs);
        let ts = [0.0, 1.0, 2.0, 3.0, 4.0];
        assert_batched_matches(view(&xs, &ys, &ts), 0, 4, &mut errs);
        // Single-segment anchors have no interior point.
        assert_eq!(
            ErrorMeasure::Sed.worst_point(view(&xs, &ys, &ts), 2, 3, &mut errs),
            None
        );
    }

    #[test]
    fn worst_point_ties_go_to_the_first_index() {
        let mut errs = Vec::new();
        // Collinear and on schedule: every error is zero.
        let xs: Vec<f64> = (0..9).map(|i| i as f64 * 10.0).collect();
        let ys = vec![0.0; 9];
        let ts: Vec<f64> = (0..9).map(f64::from).collect();
        let v = view(&xs, &ys, &ts);
        assert_batched_matches(v, 0, 8, &mut errs);
        for m in [ErrorMeasure::Sed, ErrorMeasure::Ped] {
            assert_eq!(m.worst_point(v, 2, 7, &mut errs), Some((0.0, 3)), "{m}");
        }
        // A symmetric zigzag: every odd point deviates by the same amount.
        let ys: Vec<f64> = (0..9).map(|i| if i % 2 == 1 { 4.0 } else { 0.0 }).collect();
        let v = view(&xs, &ys, &ts);
        assert_batched_matches(v, 0, 8, &mut errs);
        assert_eq!(
            ErrorMeasure::Sed.worst_point(v, 0, 8, &mut errs),
            Some((4.0, 1))
        );
        assert_eq!(
            ErrorMeasure::Ped.worst_point(v, 0, 8, &mut errs),
            Some((4.0, 1))
        );
    }

    #[test]
    fn worst_point_keeps_a_leading_nan() {
        let mut errs = Vec::new();
        let xs = [0.0, f64::NAN, 5.0, 30.0, f64::NAN, 40.0, 50.0];
        let ys = [0.0, 0.0, 9.0, 0.0, 0.0, 0.0, 0.0];
        let ts = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let v = view(&xs, &ys, &ts);
        assert_batched_matches(v, 0, 6, &mut errs);
        assert_batched_matches(v, 2, 6, &mut errs);
        // A NaN first interior point is never beaten; a later one never wins.
        let (err, i) = ErrorMeasure::Sed.worst_point(v, 0, 6, &mut errs).unwrap();
        assert!(err.is_nan() && i == 1);
        let (err, i) = ErrorMeasure::Sed.worst_point(v, 2, 6, &mut errs).unwrap();
        assert!(!err.is_nan() && i == 3, "{err} at {i}");
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
