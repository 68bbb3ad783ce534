//! One-pass error-bounded online simplification (opening-window SED).
//!
//! The crate's one online simplifier. It bounds the **error** and lets
//! the size float — the "One-Pass Error Bounded Trajectory
//! Simplification" family (PAPERS.md): each raw point is examined
//! exactly once as it arrives, and every dropped point is guaranteed a
//! synchronized Euclidean distance (SED) of at most ε from the kept
//! segment that replaces it.
//!
//! The implementation is the classic *opening-window* variant: keep an
//! anchor (the last emitted point) and a window of raw points since.
//! When point `p` arrives, test whether every windowed point stays
//! within ε of the segment `anchor → p`; if yes the window extends, if
//! no the window's last point is emitted as the new anchor and the
//! window restarts at `p`. The test is O(window) per point — the cone
//! -intersection refinements of the CISED line of work trade that for
//! O(1), but with an ε-bounded window the buffer stays small in
//! practice and the simple form keeps the bound easy to audit.
//!
//! [`OnePassSed`] implements
//! [`trajectory::delta::OnlineSimplifier`], so it plugs straight into
//! the live-ingestion [`DeltaStore`](trajectory::DeltaStore) as the
//! admission-time simplifier. It is fully deterministic — a requirement
//! of WAL crash replay.

use trajectory::delta::OnlineSimplifier;
use trajectory::error::sed;
use trajectory::Point;

/// Opening-window one-pass simplifier with a hard SED bound of `eps`.
///
/// Feed points through the [`OnlineSimplifier`] protocol; the emitted
/// subsequence always contains the first and last point of each
/// trajectory, and every dropped point lies within `eps` (in SED) of
/// the kept segment spanning it.
///
/// ```
/// use traj_simp::OnePassSed;
/// use trajectory::delta::OnlineSimplifier;
/// use trajectory::Point;
///
/// let mut s = OnePassSed::new(1.0);
/// let mut out = Vec::new();
/// s.begin();
/// for i in 0..10 {
///     // A straight line: everything between the endpoints is droppable.
///     s.push(Point::new(i as f64, 2.0 * i as f64, i as f64), &mut out);
/// }
/// s.finish(&mut out);
/// assert_eq!(out.len(), 2);
/// assert_eq!((out[0].t, out[1].t), (0.0, 9.0));
/// ```
#[derive(Debug, Clone)]
pub struct OnePassSed {
    eps: f64,
    anchor: Option<Point>,
    window: Vec<Point>,
}

impl OnePassSed {
    /// A simplifier guaranteeing SED ≤ `eps` for every dropped point.
    ///
    /// # Panics
    /// When `eps` is negative or non-finite.
    #[must_use]
    pub fn new(eps: f64) -> Self {
        assert!(eps.is_finite() && eps >= 0.0, "eps must be finite and >= 0");
        Self {
            eps,
            anchor: None,
            window: Vec::new(),
        }
    }

    /// The configured error bound ε.
    #[must_use]
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// Convenience: one-shot simplification of a complete point slice.
    #[must_use]
    pub fn simplify(mut self, pts: &[Point]) -> Vec<Point> {
        let mut out = Vec::new();
        self.begin();
        for &p in pts {
            self.push(p, &mut out);
        }
        self.finish(&mut out);
        out
    }
}

impl OnlineSimplifier for OnePassSed {
    fn begin(&mut self) {
        self.anchor = None;
        self.window.clear();
    }

    fn push(&mut self, p: Point, out: &mut Vec<Point>) {
        let Some(anchor) = self.anchor else {
            // First point of the trajectory: always kept, becomes anchor.
            self.anchor = Some(p);
            out.push(p);
            return;
        };
        if self.window.iter().all(|q| sed(&anchor, &p, q) <= self.eps) {
            self.window.push(p);
        } else {
            // The previous window endpoint was the last point for which
            // all intermediates satisfied the bound — emit it and open a
            // fresh window at p. The window cannot be empty here: an
            // empty window passes the test vacuously.
            let kept = *self.window.last().expect("non-empty window on failure");
            out.push(kept);
            self.anchor = Some(kept);
            self.window.clear();
            self.window.push(p);
        }
    }

    fn finish(&mut self, out: &mut Vec<Point>) {
        if let Some(&last) = self.window.last() {
            // The final point is always kept; intermediates passed the
            // bound against (anchor, last) when last arrived.
            out.push(last);
        }
        self.anchor = None;
        self.window.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trajectory::gen::{generate, DatasetSpec, Scale};
    use trajectory::ErrorMeasure;

    fn run(eps: f64, pts: &[Point]) -> Vec<Point> {
        OnePassSed::new(eps).simplify(pts)
    }

    fn zigzag(n: usize, amp: f64) -> Vec<Point> {
        (0..n)
            .map(|i| {
                let y = if i % 4 == 2 { amp } else { 0.0 };
                Point::new(i as f64 * 10.0, y, i as f64)
            })
            .collect()
    }

    #[test]
    fn keeps_endpoints_and_is_subset() {
        let pts = zigzag(50, 25.0);
        let out = run(5.0, &pts);
        assert_eq!(out.first(), pts.first());
        assert_eq!(out.last(), pts.last());
        for p in &out {
            assert!(pts.contains(p), "invented point {p}");
        }
        assert!(out.windows(2).all(|w| w[0].t < w[1].t), "time order");
    }

    #[test]
    fn sed_bound_holds_for_every_dropped_point() {
        // The contract: each dropped point is within eps (SED) of the
        // kept segment spanning its timestamp.
        for (eps, amp) in [(1.0, 7.0), (5.0, 7.0), (50.0, 7.0), (3.0, 100.0)] {
            let pts = zigzag(80, amp);
            let out = run(eps, &pts);
            for p in &pts {
                if out.contains(p) {
                    continue;
                }
                let seg = out.windows(2).find(|w| w[0].t <= p.t && p.t <= w[1].t);
                let [s, e] = seg.unwrap_or_else(|| panic!("no segment spans {p}")) else {
                    unreachable!()
                };
                let d = sed(s, e, p);
                assert!(d <= eps + 1e-9, "eps={eps}: dropped {p} has SED {d}");
            }
        }
    }

    #[test]
    fn straight_line_collapses_to_endpoints() {
        let pts: Vec<Point> = (0..100)
            .map(|i| Point::new(i as f64, i as f64 * 3.0, i as f64))
            .collect();
        let out = run(0.5, &pts);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn eps_zero_keeps_everything_nonlinear() {
        let pts = zigzag(20, 4.0);
        let out = run(0.0, &pts);
        // ε = 0 may still drop perfectly collinear points, but the zigzag
        // has a spike every 4 points, so most survive.
        assert!(out.len() >= pts.len() / 2, "kept only {}", out.len());
    }

    #[test]
    fn large_eps_keeps_only_endpoints() {
        let pts = zigzag(60, 3.0);
        let out = run(1e9, &pts);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn single_point_trajectory() {
        let out = run(1.0, &[Point::new(1.0, 2.0, 3.0)]);
        assert_eq!(out, vec![Point::new(1.0, 2.0, 3.0)]);
    }

    #[test]
    fn two_point_trajectory_is_lossless() {
        let pts = vec![Point::new(0.0, 0.0, 0.0), Point::new(5.0, 5.0, 1.0)];
        assert_eq!(run(0.1, &pts), pts);
    }

    #[test]
    fn deterministic_across_runs() {
        let pts = zigzag(200, 13.0);
        assert_eq!(run(2.5, &pts), run(2.5, &pts));
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn negative_eps_rejected() {
        let _ = OnePassSed::new(-1.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn infinite_eps_rejected() {
        let _ = OnePassSed::new(f64::INFINITY);
    }

    #[test]
    fn a_breaking_point_emits_the_window_end() {
        // p1 sits 0.5 off the chord p0→p2 and is dropped; the spike p3
        // breaks the window, so p2 (its last end) becomes the anchor, and
        // p3 breaks the next window in turn.
        let pts = [
            Point::new(0.0, 0.0, 0.0),
            Point::new(1.0, 0.5, 1.0),
            Point::new(2.0, 0.0, 2.0),
            Point::new(3.0, 5.0, 3.0),
            Point::new(4.0, 0.0, 4.0),
        ];
        assert_eq!(run(1.0, &pts), vec![pts[0], pts[2], pts[3], pts[4]]);
    }

    #[test]
    fn prefers_keeping_spikes() {
        // A flat run with one spike far above ε: no segment that skips the
        // spike can stay within the bound, so it survives.
        let mut pts: Vec<Point> = (0..50)
            .map(|i| Point::new(i as f64 * 10.0, 0.0, i as f64))
            .collect();
        pts[25] = Point::new(250.0, 300.0, 25.0);
        let out = run(20.0, &pts);
        assert!(out.contains(&pts[25]), "spike dropped: {out:?}");
        assert!(out.len() < pts.len() / 4, "kept {} points", out.len());
    }

    #[test]
    fn emitted_points_are_never_retracted() {
        // Online: what `push` has emitted is final — later points only
        // append, and the stream ends where the one-shot call does.
        let pts = zigzag(120, 9.0);
        let mut s = OnePassSed::new(3.0);
        let mut out = Vec::new();
        s.begin();
        let mut previous: Vec<Point> = Vec::new();
        for &p in &pts {
            s.push(p, &mut out);
            assert_eq!(&out[..previous.len()], &previous[..]);
            assert!(out.len() <= previous.len() + 1, "one point per push");
            previous.clone_from(&out);
        }
        s.finish(&mut out);
        assert_eq!(out, run(3.0, &pts));
    }

    #[test]
    fn finish_without_points_emits_nothing() {
        let mut s = OnePassSed::new(1.0);
        let mut out = Vec::new();
        s.begin();
        s.finish(&mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn begin_resets_between_trajectories() {
        // One simplifier reused across a whole database gives each
        // trajectory what a fresh simplifier would.
        let db = generate(&DatasetSpec::geolife(Scale::Smoke), 5);
        let mut s = OnePassSed::new(10.0);
        for t in db.trajectories() {
            let mut out = Vec::new();
            s.begin();
            for &p in t.points() {
                s.push(p, &mut out);
            }
            s.finish(&mut out);
            assert_eq!(out, run(10.0, t.points()));
        }
    }

    #[test]
    fn error_measure_agrees_with_the_bound() {
        // The crate's SED error measure, over the kept indices, never
        // exceeds ε on generated trajectories.
        let db = generate(&DatasetSpec::geolife(Scale::Smoke), 9);
        for eps in [2.0, 25.0] {
            for t in db.trajectories() {
                let out = run(eps, t.points());
                let kept: Vec<u32> = out
                    .iter()
                    .map(|p| t.points().iter().position(|q| q == p).unwrap() as u32)
                    .collect();
                assert!(kept.windows(2).all(|w| w[0] < w[1]), "time order");
                let e = ErrorMeasure::Sed.trajectory_error(t, &kept);
                assert!(e <= eps + 1e-9, "eps={eps}: error {e}");
            }
        }
    }
}
