//! One trajectory, as an algorithm sees it.
//!
//! Per-trajectory kernels (EDR dynamic programs, embeddings, similarity
//! checks, windowed distances, the error measures, every simplifier's
//! inner loop) only ever need *random access by index* to a time-ordered
//! point sequence. [`PointSeq`] captures exactly that, so each kernel is
//! written once and runs over whatever holds the points:
//!
//! - [`TrajView`] — a zero-copy column view into a
//!   [`PointStore`](crate::PointStore) or mapped snapshot: the database
//!   side of every operator,
//! - [`Trajectory`] — an owned `Vec<Point>`: query trajectories off the
//!   wire, rows of the [`TrajectoryDb`](crate::TrajectoryDb) builder,
//! - bare `[Point]` slices (windowed restrictions of a [`Trajectory`]).
//!
//! The provided methods implement the time-window / interpolation
//! conventions once, so the same instants and positions are computed
//! whichever implementor a kernel is handed.

use crate::geom;
use crate::point::Point;
use crate::store::TrajView;
use crate::traj::Trajectory;

/// Random access to a time-ordered point sequence, independent of layout.
pub trait PointSeq {
    /// Number of points.
    fn n_points(&self) -> usize;

    /// The `i`-th point, by value.
    fn point_at(&self, i: usize) -> Point;

    /// True when the sequence has no points.
    fn no_points(&self) -> bool {
        self.n_points() == 0
    }

    /// Time span `[t1, tn]` of a non-empty sequence.
    fn seq_time_span(&self) -> (f64, f64) {
        (self.point_at(0).t, self.point_at(self.n_points() - 1).t)
    }

    /// Indices `[lo, hi]` (inclusive) of points with timestamps inside
    /// `[ts, te]`, or `None` when the window misses the sequence.
    fn seq_window_indices(&self, ts: f64, te: f64) -> Option<(usize, usize)> {
        if ts > te {
            return None;
        }
        let n = self.n_points();
        let lo = partition_point_t(self, n, |t| t < ts);
        let hi = partition_point_t(self, n, |t| t <= te);
        if lo >= hi {
            None
        } else {
            Some((lo, hi - 1))
        }
    }

    /// Synchronized position at time `t`, linearly interpolated along the
    /// spanning segment and clamped to the endpoints outside the span.
    fn seq_position_at(&self, t: f64) -> Point {
        let n = self.n_points();
        let first = self.point_at(0);
        if t <= first.t {
            return Point::new(first.x, first.y, t);
        }
        let last = self.point_at(n - 1);
        if t >= last.t {
            return Point::new(last.x, last.y, t);
        }
        // First index with time > t; its predecessor starts the segment.
        let hi = partition_point_t(self, n, |pt| pt <= t);
        let a = self.point_at(hi - 1);
        if a.t == t {
            return Point::new(a.x, a.y, t);
        }
        geom::interpolate_at(&a, &self.point_at(hi), t)
    }
}

/// Binary search: the first index in `0..n` whose timestamp fails `keep`.
fn partition_point_t<S: PointSeq + ?Sized>(s: &S, n: usize, keep: impl Fn(f64) -> bool) -> usize {
    let (mut lo, mut hi) = (0usize, n);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if keep(s.point_at(mid).t) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

impl PointSeq for Trajectory {
    #[inline]
    fn n_points(&self) -> usize {
        self.len()
    }

    #[inline]
    fn point_at(&self, i: usize) -> Point {
        *self.point(i)
    }
}

impl PointSeq for TrajView<'_> {
    #[inline]
    fn n_points(&self) -> usize {
        self.len()
    }

    #[inline]
    fn point_at(&self, i: usize) -> Point {
        self.point(i)
    }
}

impl PointSeq for [Point] {
    #[inline]
    fn n_points(&self) -> usize {
        self.len()
    }

    #[inline]
    fn point_at(&self, i: usize) -> Point {
        self[i]
    }
}

impl<S: PointSeq + ?Sized> PointSeq for &S {
    #[inline]
    fn n_points(&self) -> usize {
        (**self).n_points()
    }

    #[inline]
    fn point_at(&self, i: usize) -> Point {
        (**self).point_at(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::PointStore;

    fn traj() -> Trajectory {
        Trajectory::new(vec![
            Point::new(0.0, 0.0, 0.0),
            Point::new(10.0, 0.0, 10.0),
            Point::new(10.0, 10.0, 20.0),
            Point::new(20.0, 10.0, 30.0),
        ])
        .unwrap()
    }

    #[test]
    fn all_impls_agree_on_windows_and_positions() {
        let t = traj();
        let mut store = PointStore::new();
        store.push_traj(&t);
        let v = store.view(0);
        let s: &[Point] = t.points();
        for (ts, te) in [(0.0, 30.0), (5.0, 25.0), (31.0, 40.0), (20.0, 10.0)] {
            assert_eq!(t.seq_window_indices(ts, te), t.window_indices(ts, te));
            assert_eq!(v.seq_window_indices(ts, te), t.window_indices(ts, te));
            assert_eq!(s.seq_window_indices(ts, te), t.window_indices(ts, te));
        }
        for probe in [-5.0, 0.0, 5.0, 10.0, 17.5, 30.0, 99.0] {
            let expect = t.position_at(probe);
            assert_eq!(t.seq_position_at(probe), expect);
            assert_eq!(v.seq_position_at(probe), expect);
            assert_eq!(s.seq_position_at(probe), expect);
        }
    }

    #[test]
    fn spans_match() {
        let t = traj();
        assert_eq!(t.seq_time_span(), t.time_span());
        assert_eq!(t.points().seq_time_span(), t.time_span());
    }
}
