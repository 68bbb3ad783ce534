//! Online (streaming) trajectory simplification — SQUISH-E-style
//! (Muckell et al., GeoInformatica 2014).
//!
//! The paper focuses on the batch mode but surveys the online mode, where
//! points arrive one at a time and dropped points are gone forever. This
//! module provides that substrate: a bounded-buffer simplifier that keeps
//! at most `capacity` points per trajectory at any moment, always dropping
//! the buffered point whose removal introduces the least SED — with the
//! classic neighbour compensation so repeated drops in the same area
//! accumulate cost instead of being free.

use crate::heap::LazyHeap;
use trajectory::{error::sed, Point, Trajectory};

/// Streaming simplifier for one trajectory.
///
/// Feed points in time order with [`StreamingSimplifier::push`]; at any
/// moment [`StreamingSimplifier::current`] yields the retained points
/// (always including the first and the latest).
#[derive(Debug, Clone)]
pub struct StreamingSimplifier {
    capacity: usize,
    /// Buffered points with their accumulated drop-cost compensation.
    points: Vec<Buffered>,
    /// Monotone id for heap staleness checks.
    versions: Vec<u64>,
    heap: LazyHeap<usize>, // payload = slot index into `points`
    next_slot: usize,
}

#[derive(Debug, Clone, Copy)]
struct Buffered {
    p: Point,
    /// SQUISH's π: cost transferred from already-dropped neighbours.
    compensation: f64,
    /// Neighbour links (slot indices), usize::MAX = none.
    prev: usize,
    next: usize,
    alive: bool,
}

const NONE: usize = usize::MAX;

impl StreamingSimplifier {
    /// A streaming simplifier holding at most `capacity ≥ 2` points.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 2, "need room for at least the endpoints");
        Self {
            capacity,
            points: Vec::new(),
            versions: Vec::new(),
            heap: LazyHeap::new(),
            next_slot: 0,
        }
    }

    /// Number of currently buffered points.
    pub fn len(&self) -> usize {
        self.points.iter().filter(|b| b.alive).count()
    }

    /// True before any point arrived.
    pub fn is_empty(&self) -> bool {
        self.points.iter().all(|b| !b.alive)
    }

    /// Feeds the next point (must be ≥ the previous point in time).
    pub fn push(&mut self, p: Point) {
        let slot = self.next_slot;
        self.next_slot += 1;
        let prev = self.last_alive();
        self.points.push(Buffered {
            p,
            compensation: 0.0,
            prev,
            next: NONE,
            alive: true,
        });
        self.versions.push(0);
        if prev != NONE {
            self.points[prev].next = slot;
            // The previous tail just became interior: give it a drop cost.
            self.requeue(prev);
        }
        if self.len() > self.capacity {
            self.drop_cheapest();
        }
    }

    /// The retained points, time-ordered, as a lazy walk over the buffer's
    /// neighbour links — no `Vec<Point>` is allocated per call. Collect
    /// with [`StreamingSimplifier::finish`] (or `.collect()`) when an
    /// owned sequence is needed.
    pub fn current(&self) -> impl Iterator<Item = Point> + '_ {
        let mut slot = self.first_alive();
        std::iter::from_fn(move || {
            if slot == NONE {
                return None;
            }
            let p = self.points[slot].p;
            slot = self.points[slot].next;
            Some(p)
        })
    }

    /// Finalizes into a [`Trajectory`] (None when < 1 point was fed).
    pub fn finish(&self) -> Option<Trajectory> {
        Trajectory::new(self.current().collect())
    }

    fn first_alive(&self) -> usize {
        self.points.iter().position(|b| b.alive).unwrap_or(NONE)
    }

    fn last_alive(&self) -> usize {
        match self.points.iter().rposition(|b| b.alive) {
            Some(i) => i,
            None => NONE,
        }
    }

    /// Drop cost of interior slot `i`: compensation + SED of `p_i` against
    /// the segment linking its current neighbours.
    fn drop_cost(&self, i: usize) -> Option<f64> {
        let b = &self.points[i];
        if !b.alive || b.prev == NONE || b.next == NONE {
            return None;
        }
        let cost = b.compensation + sed(&self.points[b.prev].p, &self.points[b.next].p, &b.p);
        Some(cost)
    }

    fn requeue(&mut self, i: usize) {
        if let Some(cost) = self.drop_cost(i) {
            self.versions[i] += 1;
            self.heap.push(-cost, self.versions[i], i);
        }
    }

    fn drop_cheapest(&mut self) {
        let points = &self.points;
        let versions = &self.versions;
        let popped = self.heap.pop_current(|&i, v| {
            let b = &points[i];
            b.alive && versions[i] == v && b.prev != NONE && b.next != NONE
        });
        let Some((neg_cost, i)) = popped else { return };
        let cost = -neg_cost;
        let (prev, next) = (self.points[i].prev, self.points[i].next);
        self.points[i].alive = false;
        self.points[prev].next = next;
        self.points[next].prev = prev;
        // SQUISH compensation: neighbours inherit the dropped cost so
        // error cannot silently accumulate.
        self.points[prev].compensation += cost;
        self.points[next].compensation += cost;
        self.requeue(prev);
        self.requeue(next);
    }
}

/// Convenience: streams a whole trajectory through a buffer of
/// `capacity` and returns the simplified result.
pub fn streaming_simplify(traj: &Trajectory, capacity: usize) -> Trajectory {
    let mut s = StreamingSimplifier::new(capacity);
    for p in traj.points() {
        s.push(*p);
    }
    s.finish().expect("non-empty input")
}

#[cfg(test)]
mod tests {
    use super::*;
    use trajectory::ErrorMeasure;

    fn traj(n: usize, amp: f64) -> Trajectory {
        Trajectory::new(
            (0..n)
                .map(|i| {
                    let y = if i % 5 == 0 { amp } else { 0.0 };
                    Point::new(i as f64 * 10.0, y, i as f64)
                })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn buffer_never_exceeds_capacity() {
        let mut s = StreamingSimplifier::new(8);
        for i in 0..100 {
            s.push(Point::new(i as f64, (i % 3) as f64, i as f64));
            assert!(s.len() <= 8, "buffer overflow at {i}");
        }
        assert_eq!(s.len(), 8);
    }

    #[test]
    fn keeps_first_and_latest() {
        let t = traj(60, 50.0);
        let out = streaming_simplify(&t, 6);
        assert_eq!(out.first(), t.first());
        assert_eq!(out.last(), t.last());
        assert_eq!(out.len(), 6);
    }

    #[test]
    fn output_is_time_ordered_subset() {
        let t = traj(80, 20.0);
        let out = streaming_simplify(&t, 10);
        assert!(out.points().windows(2).all(|w| w[0].t < w[1].t));
        for p in out.points() {
            assert!(t.points().iter().any(|q| q == p), "invented point {p}");
        }
    }

    #[test]
    fn current_is_a_lazy_walk_matching_finish() {
        let mut s = StreamingSimplifier::new(4);
        for i in 0..10 {
            s.push(Point::new(i as f64, (i % 2) as f64, i as f64));
        }
        // Two traversals of the same state agree (the iterator borrows, it
        // does not drain), and finish() sees the identical sequence.
        let a: Vec<Point> = s.current().collect();
        let b: Vec<Point> = s.current().collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), s.len());
        assert_eq!(s.finish().unwrap().points(), &a[..]);
    }

    #[test]
    fn capacity_at_input_size_is_lossless() {
        let t = traj(15, 9.0);
        let out = streaming_simplify(&t, 15);
        assert_eq!(out.points(), t.points());
    }

    #[test]
    fn online_error_is_worse_than_batch_but_bounded() {
        // The streaming simplifier can't revisit dropped points, so batch
        // Bottom-Up at the same size must be at least as good — but the
        // stream should stay within a small factor on benign input.
        let t = traj(100, 15.0);
        let out = streaming_simplify(&t, 12);
        let kept_stream: Vec<u32> = out
            .points()
            .iter()
            .map(|p| t.points().iter().position(|q| q == p).unwrap() as u32)
            .collect();
        let e_stream = ErrorMeasure::Sed.trajectory_error(&t, &kept_stream);
        let kept_batch = crate::bottomup::bottomup_one_seq(&t, 12, ErrorMeasure::Sed);
        let e_batch = ErrorMeasure::Sed.trajectory_error(&t, &kept_batch);
        assert!(
            e_batch <= e_stream + 1e-9,
            "batch must win: {e_batch} vs {e_stream}"
        );
        assert!(
            e_stream <= 10.0 * e_batch + 20.0,
            "stream unreasonably bad: {e_stream}"
        );
    }

    #[test]
    fn prefers_keeping_spikes() {
        // A flat run with one big spike: the spike should survive a
        // tiny buffer (its drop cost dominates).
        let mut pts: Vec<Point> = (0..50)
            .map(|i| Point::new(i as f64 * 10.0, 0.0, i as f64))
            .collect();
        pts[25] = Point::new(250.0, 300.0, 25.0);
        let t = Trajectory::new(pts).unwrap();
        let out = streaming_simplify(&t, 5);
        assert!(
            out.points().iter().any(|p| p.y == 300.0),
            "spike dropped: {:?}",
            out.points()
        );
    }

    #[test]
    #[should_panic(expected = "at least the endpoints")]
    fn capacity_one_is_rejected() {
        let _ = StreamingSimplifier::new(1);
    }
}
