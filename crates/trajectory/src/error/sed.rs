//! Synchronized Euclidean Distance (SED).

use crate::geom;
use crate::point::Point;

/// `ϵ_SED(p_s p_e | p)`: spatial distance between the original point `p` and
/// its synchronized position on the anchor segment `(s, e)` — the location
/// the simplified trajectory would report at time `p.t`.
///
/// [`ErrorMeasure::worst_point`](super::ErrorMeasure::worst_point) repeats
/// these operations over a segment's columns; its tests hold the two equal
/// bit for bit.
#[inline]
pub fn sed(s: &Point, e: &Point, p: &Point) -> f64 {
    p.spatial_distance(&geom::sync_point(s, e, p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sed_zero_when_point_lies_on_schedule() {
        let s = Point::new(0.0, 0.0, 0.0);
        let e = Point::new(10.0, 0.0, 10.0);
        let on = Point::new(3.0, 0.0, 3.0);
        assert!(sed(&s, &e, &on) < 1e-12);
    }

    #[test]
    fn sed_measures_synchronized_deviation() {
        let s = Point::new(0.0, 0.0, 0.0);
        let e = Point::new(10.0, 0.0, 10.0);
        // At t=5 the anchor says (5,0); the object was at (5,4) => SED 4,
        // even though the *spatial* distance to the segment is also 4 here.
        assert_eq!(sed(&s, &e, &Point::new(5.0, 4.0, 5.0)), 4.0);
        // Same location but at t=0: anchor says (0,0) => SED is 41^0.5 ~ 6.4.
        let lagged = sed(&s, &e, &Point::new(5.0, 4.0, 0.0));
        assert!((lagged - (41.0f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn sed_endpoint_errors_are_zero() {
        let s = Point::new(2.0, 3.0, 1.0);
        let e = Point::new(8.0, -1.0, 9.0);
        assert!(sed(&s, &e, &s) < 1e-12);
        assert!(sed(&s, &e, &e) < 1e-12);
    }
}
