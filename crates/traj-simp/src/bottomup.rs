//! Bottom-Up simplification (Marteau & Ménier): start from the full
//! trajectory and repeatedly *drop* the point whose removal introduces the
//! smallest error, until the budget is met.
//!
//! The per-trajectory drop loop is generic over [`PointSeq`] and the
//! database loop walks zero-copy [`TrajView`](trajectory::TrajView)s
//! straight off the columns — no `Vec<Point>` trajectories are
//! materialized. Both push and pop the same cost sequences through the
//! shared [`LazyHeap`], so "W" over a single-trajectory database equals
//! "E" point for point (tested for all four error measures).

use crate::adapt::{simplify_each, Adaptation};
use crate::heap::LazyHeap;
use crate::Simplifier;
use trajectory::{AsColumns, ErrorMeasure, PointSeq, PointStore, Simplification, TrajId};

/// The Bottom-Up baseline, parameterized by error measure and adaptation.
#[derive(Debug, Clone, Copy)]
pub struct BottomUp {
    /// Error measure driving the drop order.
    pub measure: ErrorMeasure,
    /// Database adaptation ("E" or "W").
    pub adaptation: Adaptation,
}

impl BottomUp {
    /// Creates a Bottom-Up simplifier.
    pub fn new(measure: ErrorMeasure, adaptation: Adaptation) -> Self {
        Self {
            measure,
            adaptation,
        }
    }
}

impl Simplifier for BottomUp {
    fn name(&self) -> String {
        format!("Bottom-Up({},{})", self.adaptation, self.measure)
    }

    fn simplify_store(&self, store: &PointStore, budget: usize) -> Simplification {
        match self.adaptation {
            Adaptation::Each => {
                simplify_each(store, budget, |v, b| bottomup_one_seq(&v, b, self.measure))
            }
            Adaptation::Whole => bottomup_whole_store(store, budget, self.measure),
        }
    }
}

/// Bottom-Up for a single trajectory under a point budget, over any
/// [`PointSeq`]. Kept indices are maintained in a doubly-linked prev/next
/// list instead of a [`Simplification`], but costs, version stamps, and
/// heap operations occur in exactly the order of the database loop run
/// over that one trajectory, so the kept sets are identical.
pub fn bottomup_one_seq<S: PointSeq + ?Sized>(
    seq: &S,
    budget: usize,
    measure: ErrorMeasure,
) -> Vec<u32> {
    let n = seq.n_points();
    if n <= 2 {
        return (0..n as u32).collect();
    }
    let budget = budget.clamp(2, n);
    let last = n as u32 - 1;
    // Doubly-linked kept list: prev/next of every still-kept index.
    let mut prev: Vec<u32> = (0..n as u32).map(|i| i.wrapping_sub(1)).collect();
    let mut next: Vec<u32> = (1..=n as u32).collect();
    let mut kept = vec![true; n];
    let mut versions = vec![0u64; n];
    let mut heap: LazyHeap<u32> = LazyHeap::new();
    for idx in 1..last {
        let c = measure.segment_error_seq(
            seq,
            prev[idx as usize] as usize,
            next[idx as usize] as usize,
        );
        heap.push(-c, 0, idx); // negate: LazyHeap is a max-heap
    }
    let mut total = n;
    while total > budget {
        let popped = heap.pop_current(|&idx, v| versions[idx as usize] == v && kept[idx as usize]);
        let Some((_, idx)) = popped else { break };
        let i = idx as usize;
        let (l, r) = (prev[i], next[i]);
        kept[i] = false;
        next[l as usize] = r;
        prev[r as usize] = l;
        total -= 1;
        // The bracketing neighbors' drop costs changed: re-push with fresh
        // stamps (endpoints are never dropped, so they never enter).
        for nb in [l, r] {
            if nb != 0 && nb != last {
                let nbi = nb as usize;
                versions[nbi] += 1;
                let c = measure.segment_error_seq(seq, prev[nbi] as usize, next[nbi] as usize);
                heap.push(-c, versions[nbi], nb);
            }
        }
    }
    (0..n as u32).filter(|&i| kept[i as usize]).collect()
}

/// Bottom-Up over the whole database: one global min-heap of drop costs.
fn bottomup_whole_store<S: AsColumns + ?Sized>(
    store: &S,
    budget: usize,
    measure: ErrorMeasure,
) -> Simplification {
    let mut simp = Simplification::full_store(store);
    let budget = budget.max(crate::min_points_store(store));
    // Version stamps: an entry for (id, idx) is valid only if the stamp
    // matches (neighbors unchanged since push) and the point is still kept.
    let mut versions: Vec<Vec<u64>> = store.views().map(|v| vec![0u64; v.len()]).collect();
    let mut heap: LazyHeap<(TrajId, u32)> = LazyHeap::new();
    for (id, v) in store.iter() {
        for idx in 1..v.len().saturating_sub(1) as u32 {
            if let Some(c) = drop_cost_seq(&v, &simp, id, idx, measure) {
                heap.push(-c, 0, (id, idx)); // negate: LazyHeap is a max-heap
            }
        }
    }
    let mut total = simp.total_points();
    while total > budget {
        let popped = heap
            .pop_current(|&(id, idx), v| versions[id][idx as usize] == v && simp.contains(id, idx));
        let Some((_, (id, idx))) = popped else { break };
        let (l, r) = simp.kept_neighbors(id, idx).expect("validated current");
        let removed = simp.remove(id, idx);
        debug_assert!(removed);
        total -= 1;
        // The bracketing neighbors' drop costs changed: re-push with fresh
        // stamps.
        let v = store.view(id);
        for nb in [l, r] {
            if simp.kept_neighbors(id, nb).is_some() {
                versions[id][nb as usize] += 1;
                if let Some(c) = drop_cost_seq(&v, &simp, id, nb, measure) {
                    heap.push(-c, versions[id][nb as usize], (id, nb));
                }
            }
        }
    }
    simp
}

/// The cost of dropping kept point `idx`: the Eq. 1 segment error of the
/// merged anchor `(left, right)` that removal would create.
pub(crate) fn drop_cost_seq<S: PointSeq + ?Sized>(
    seq: &S,
    simp: &Simplification,
    id: TrajId,
    idx: u32,
    m: ErrorMeasure,
) -> Option<f64> {
    let (l, r) = simp.kept_neighbors(id, idx)?;
    Some(m.segment_error_seq(seq, l as usize, r as usize))
}

#[cfg(test)]
mod tests {
    use super::*;
    use trajectory::{Point, Trajectory, TrajectoryDb};

    fn zigzag(n: usize, amp: f64) -> Trajectory {
        Trajectory::new(
            (0..n)
                .map(|i| {
                    let y = if i % 2 == 0 { 0.0 } else { amp };
                    Point::new(i as f64 * 10.0, y, i as f64)
                })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn respects_budget_and_endpoints() {
        let t = zigzag(40, 5.0);
        for budget in [2, 7, 20, 40] {
            let kept = bottomup_one_seq(&t, budget, ErrorMeasure::Sed);
            assert_eq!(kept.len(), budget.max(2), "exact budget expected");
            assert_eq!(kept[0], 0);
            assert_eq!(*kept.last().unwrap(), 39);
        }
    }

    #[test]
    fn drops_redundant_points_first() {
        // Straight line with one outlier: everything but the outlier is
        // free to drop, so the outlier must survive a budget of 3.
        let mut pts: Vec<Point> = (0..20)
            .map(|i| Point::new(i as f64 * 10.0, 0.0, i as f64))
            .collect();
        pts[11] = Point::new(110.0, 400.0, 11.0);
        let t = Trajectory::new(pts).unwrap();
        let kept = bottomup_one_seq(&t, 3, ErrorMeasure::Sed);
        assert_eq!(kept, vec![0, 11, 19]);
    }

    #[test]
    fn full_budget_is_identity() {
        let t = zigzag(15, 3.0);
        let kept = bottomup_one_seq(&t, 15, ErrorMeasure::Ped);
        assert_eq!(kept.len(), 15);
    }

    #[test]
    fn whole_adaptation_prefers_dropping_from_simple_trajectories() {
        let wild = zigzag(30, 200.0);
        let straight = Trajectory::new(
            (0..30)
                .map(|i| Point::new(i as f64 * 10.0, 0.0, i as f64))
                .collect(),
        )
        .unwrap();
        let store = TrajectoryDb::new(vec![wild, straight]).to_store();
        let bu = BottomUp::new(ErrorMeasure::Sed, Adaptation::Whole);
        let simp = bu.simplify_store(&store, 34);
        assert_eq!(simp.total_points(), 34);
        assert!(
            simp.kept(0).len() > simp.kept(1).len(),
            "wild {} vs straight {}",
            simp.kept(0).len(),
            simp.kept(1).len()
        );
        // The straight trajectory should be reduced to nearly endpoints.
        assert!(simp.kept(1).len() <= 4);
    }

    #[test]
    fn budget_below_floor_clamps_to_endpoints() {
        let store = TrajectoryDb::new(vec![zigzag(10, 1.0), zigzag(10, 1.0)]).to_store();
        let bu = BottomUp::new(ErrorMeasure::Sed, Adaptation::Whole);
        let simp = bu.simplify_store(&store, 0);
        assert_eq!(simp.total_points(), 4);
    }

    #[test]
    fn all_measures_and_adaptations_run() {
        let store = TrajectoryDb::new(vec![zigzag(25, 5.0), zigzag(12, 2.0)]).to_store();
        for m in ErrorMeasure::ALL {
            for a in [Adaptation::Each, Adaptation::Whole] {
                let simp = BottomUp::new(m, a).simplify_store(&store, 12);
                assert!(simp.total_points() <= 12, "{m} {a}");
            }
        }
    }

    #[test]
    fn name_matches_paper_convention() {
        assert_eq!(
            BottomUp::new(ErrorMeasure::Dad, Adaptation::Each).name(),
            "Bottom-Up(E,DAD)"
        );
    }

    #[test]
    fn one_seq_matches_one_on_views() {
        // The linked-list loop over one sequence — a column view or an
        // owned trajectory — keeps exactly what the database loop keeps on
        // a single-trajectory store.
        let t = zigzag(33, 6.0);
        let store = TrajectoryDb::new(vec![t.clone()]).to_store();
        for m in ErrorMeasure::ALL {
            let whole = BottomUp::new(m, Adaptation::Whole);
            for budget in [2, 5, 12, 33] {
                let kept = bottomup_one_seq(&store.view(0), budget, m);
                assert_eq!(kept, bottomup_one_seq(&t, budget, m), "{m} budget {budget}");
                assert_eq!(
                    kept,
                    whole.simplify_store(&store, budget).kept(0),
                    "{m} budget {budget}"
                );
            }
        }
    }

    #[test]
    fn bottomup_error_close_to_topdown() {
        // Both heuristics should land in the same error ballpark on a
        // benign input (sanity guard against gross implementation bugs).
        let t = zigzag(60, 5.0);
        let bu = bottomup_one_seq(&t, 12, ErrorMeasure::Sed);
        let store = TrajectoryDb::new(vec![t.clone()]).to_store();
        let td = crate::topdown::topdown_one(store.view(0), 12, ErrorMeasure::Sed);
        let e_bu = ErrorMeasure::Sed.trajectory_error(&t, &bu);
        let e_td = ErrorMeasure::Sed.trajectory_error(&t, &td);
        assert!(
            e_bu <= 3.0 * e_td + 1e-9,
            "bottom-up {e_bu} vs top-down {e_td}"
        );
    }
}
