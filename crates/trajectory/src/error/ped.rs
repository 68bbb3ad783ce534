//! Perpendicular Euclidean Distance (PED).

use crate::geom;
use crate::point::Point;

/// `ϵ_PED(p_s p_e | p)`: spatial distance from `p` to the closest point of
/// the anchor segment `(s, e)` (time is ignored). The projection is clamped
/// to the segment, the convention used by the Douglas–Peucker family.
///
/// [`ErrorMeasure::worst_point`](super::ErrorMeasure::worst_point) repeats
/// these operations over a segment's columns; its tests hold the two equal
/// bit for bit.
#[inline]
pub fn ped(s: &Point, e: &Point, p: &Point) -> f64 {
    geom::point_segment_distance(s, e, p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ped_is_time_invariant() {
        let s = Point::new(0.0, 0.0, 0.0);
        let e = Point::new(10.0, 0.0, 10.0);
        let a = ped(&s, &e, &Point::new(5.0, 4.0, 5.0));
        let b = ped(&s, &e, &Point::new(5.0, 4.0, 0.0));
        assert_eq!(a, 4.0);
        assert_eq!(a, b, "PED must not depend on the timestamp");
    }

    #[test]
    fn ped_at_most_sed() {
        // PED projects to the *closest* point, SED to the synchronized one,
        // so PED ≤ SED pointwise.
        let s = Point::new(0.0, 0.0, 0.0);
        let e = Point::new(10.0, 0.0, 10.0);
        for p in [
            Point::new(5.0, 4.0, 2.0),
            Point::new(1.0, -3.0, 9.0),
            Point::new(12.0, 1.0, 5.0),
        ] {
            assert!(ped(&s, &e, &p) <= super::super::sed::sed(&s, &e, &p) + 1e-12);
        }
    }
}
