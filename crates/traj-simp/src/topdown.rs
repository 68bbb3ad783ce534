//! Top-Down simplification: the Douglas–Peucker strategy driven by a
//! priority queue (Hershberger & Snoeyink). Start from the endpoints-only
//! simplification and repeatedly *insert* the point with the largest error
//! until the budget is reached.
//!
//! Both loops walk zero-copy [`TrajView`]s straight off the columns, and
//! a segment's worst point is one batched pass over its columns
//! ([`ErrorMeasure::worst_point`]) into a scratch buffer the loop reuses.
//! That scan is most of a Top-Down run: at a 10 % budget it reads ~6
//! anchored points per input point.

use crate::adapt::{simplify_each, Adaptation};
use crate::heap::LazyHeap;
use crate::Simplifier;
use trajectory::{AsColumns, ErrorMeasure, PointStore, Simplification, TrajId, TrajView};

/// The Top-Down baseline, parameterized by error measure and adaptation.
#[derive(Debug, Clone, Copy)]
pub struct TopDown {
    /// Error measure driving the insertion order.
    pub measure: ErrorMeasure,
    /// Database adaptation ("E" or "W").
    pub adaptation: Adaptation,
}

impl TopDown {
    /// Creates a Top-Down simplifier.
    pub fn new(measure: ErrorMeasure, adaptation: Adaptation) -> Self {
        Self {
            measure,
            adaptation,
        }
    }
}

impl Simplifier for TopDown {
    fn name(&self) -> String {
        format!("Top-Down({},{})", self.adaptation, self.measure)
    }

    fn simplify_store(&self, store: &PointStore, budget: usize) -> Simplification {
        match self.adaptation {
            Adaptation::Each => {
                simplify_each(store, budget, |v, b| topdown_one(v, b, self.measure))
            }
            Adaptation::Whole => topdown_whole_store(store, budget, self.measure),
        }
    }
}

/// Top-Down for a single trajectory under a point budget: best-first
/// insertion over a zero-copy column view.
pub fn topdown_one(v: TrajView<'_>, budget: usize, measure: ErrorMeasure) -> Vec<u32> {
    let n = v.len();
    if n <= 2 {
        return (0..n as u32).collect();
    }
    let budget = budget.clamp(2, n);
    let mut kept: Vec<u32> = vec![0, n as u32 - 1];
    let mut errs = Vec::new();
    // Max-heap of (error, (s, e, insert_idx)); segments are immutable once
    // pushed (they are only ever split after being popped), so no versions
    // are needed.
    let mut heap: LazyHeap<(usize, usize, usize)> = LazyHeap::new();
    if let Some((err, idx)) = measure.worst_point(v, 0, n - 1, &mut errs) {
        heap.push(err, 0, (0, n - 1, idx));
    }
    while kept.len() < budget {
        let Some((_, (s, e, idx))) = heap.pop_current(|_, _| true) else {
            break;
        };
        match kept.binary_search(&(idx as u32)) {
            Ok(_) => unreachable!("insertable points are never already kept"),
            Err(pos) => kept.insert(pos, idx as u32),
        }
        if let Some((err, i)) = measure.worst_point(v, s, idx, &mut errs) {
            heap.push(err, 0, (s, idx, i));
        }
        if let Some((err, i)) = measure.worst_point(v, idx, e, &mut errs) {
            heap.push(err, 0, (idx, e, i));
        }
    }
    kept
}

/// Top-Down over the whole database: one global heap, insert the globally
/// worst point anywhere until the budget is exhausted.
fn topdown_whole_store<S: AsColumns + ?Sized>(
    store: &S,
    budget: usize,
    measure: ErrorMeasure,
) -> Simplification {
    let mut simp = Simplification::most_simplified_store(store);
    let mut total = simp.total_points();
    let budget = budget.max(total);
    let mut errs = Vec::new();
    let mut heap: LazyHeap<(TrajId, usize, usize, usize)> = LazyHeap::new();
    for (id, v) in store.iter() {
        if v.len() > 2 {
            if let Some((err, idx)) = measure.worst_point(v, 0, v.len() - 1, &mut errs) {
                heap.push(err, 0, (id, 0, v.len() - 1, idx));
            }
        }
    }
    while total < budget {
        let Some((_, (id, s, e, idx))) = heap.pop_current(|_, _| true) else {
            break;
        };
        let inserted = simp.insert(id, idx as u32);
        debug_assert!(inserted);
        total += 1;
        let v = store.view(id);
        if let Some((err, i)) = measure.worst_point(v, s, idx, &mut errs) {
            heap.push(err, 0, (id, s, idx, i));
        }
        if let Some((err, i)) = measure.worst_point(v, idx, e, &mut errs) {
            heap.push(err, 0, (id, idx, e, i));
        }
    }
    simp
}

#[cfg(test)]
mod tests {
    use super::*;
    use trajectory::gen::{generate, DatasetSpec, Scale};
    use trajectory::{Point, Trajectory, TrajectoryDb};

    /// Top-Down as it was before its scan was batched: the per-point scan
    /// over any [`PointSeq`] and the two loops around it, verbatim. The
    /// oracle for the kept lists of the batched pass.
    mod reference {
        use super::super::*;
        use trajectory::PointSeq;

        /// Evaluates the insertable point of `(s, e)` with the largest error.
        /// Returns `None` when the anchor spans a single original segment.
        fn worst_insertable<S: PointSeq + ?Sized>(
            seq: &S,
            s: usize,
            e: usize,
            measure: ErrorMeasure,
        ) -> Option<(f64, usize)> {
            if e <= s + 1 {
                return None;
            }
            let mut best: Option<(f64, usize)> = None;
            for i in s + 1..e {
                let err = measure.point_error_seq(seq, s, e, i);
                if best.is_none_or(|(b, _)| err > b) {
                    best = Some((err, i));
                }
            }
            best
        }

        pub fn topdown_one_seq<S: PointSeq + ?Sized>(
            seq: &S,
            budget: usize,
            measure: ErrorMeasure,
        ) -> Vec<u32> {
            let n = seq.n_points();
            if n <= 2 {
                return (0..n as u32).collect();
            }
            let budget = budget.clamp(2, n);
            let mut kept: Vec<u32> = vec![0, n as u32 - 1];
            let mut heap: LazyHeap<(usize, usize, usize)> = LazyHeap::new();
            if let Some((err, idx)) = worst_insertable(seq, 0, n - 1, measure) {
                heap.push(err, 0, (0, n - 1, idx));
            }
            while kept.len() < budget {
                let Some((_, (s, e, idx))) = heap.pop_current(|_, _| true) else {
                    break;
                };
                match kept.binary_search(&(idx as u32)) {
                    Ok(_) => unreachable!("insertable points are never already kept"),
                    Err(pos) => kept.insert(pos, idx as u32),
                }
                if let Some((err, i)) = worst_insertable(seq, s, idx, measure) {
                    heap.push(err, 0, (s, idx, i));
                }
                if let Some((err, i)) = worst_insertable(seq, idx, e, measure) {
                    heap.push(err, 0, (idx, e, i));
                }
            }
            kept
        }

        pub fn topdown_whole_store<S: AsColumns + ?Sized>(
            store: &S,
            budget: usize,
            measure: ErrorMeasure,
        ) -> Simplification {
            let mut simp = Simplification::most_simplified_store(store);
            let mut total = simp.total_points();
            let budget = budget.max(total);
            let mut heap: LazyHeap<(TrajId, usize, usize, usize)> = LazyHeap::new();
            for (id, v) in store.iter() {
                if v.len() > 2 {
                    if let Some((err, idx)) = worst_insertable(&v, 0, v.len() - 1, measure) {
                        heap.push(err, 0, (id, 0, v.len() - 1, idx));
                    }
                }
            }
            while total < budget {
                let Some((_, (id, s, e, idx))) = heap.pop_current(|_, _| true) else {
                    break;
                };
                let inserted = simp.insert(id, idx as u32);
                debug_assert!(inserted);
                total += 1;
                let v = store.view(id);
                if let Some((err, i)) = worst_insertable(&v, s, idx, measure) {
                    heap.push(err, 0, (id, s, idx, i));
                }
                if let Some((err, i)) = worst_insertable(&v, idx, e, measure) {
                    heap.push(err, 0, (id, idx, e, i));
                }
            }
            simp
        }
    }

    #[test]
    fn kept_lists_match_the_per_point_scan() {
        for spec in [
            DatasetSpec::tdrive(Scale::Small),
            DatasetSpec::geolife(Scale::Small),
            DatasetSpec::chengdu(Scale::Small),
        ] {
            let store = generate(&spec, 7).to_store();
            for m in ErrorMeasure::ALL {
                for ratio in [0.03, 0.10, 0.30] {
                    let budget = (ratio * store.total_points() as f64) as usize;
                    let each =
                        simplify_each(&store, budget, |v, b| reference::topdown_one_seq(&v, b, m));
                    let whole = reference::topdown_whole_store(&store, budget, m);
                    for (a, want) in [(Adaptation::Each, each), (Adaptation::Whole, whole)] {
                        let got = TopDown::new(m, a).simplify_store(&store, budget);
                        assert!(got == want, "{} {m} {a} {ratio}", spec.name);
                    }
                }
            }
        }
    }

    /// A one-trajectory store, for the kernels that take a column view.
    fn store_of(t: Trajectory) -> PointStore {
        TrajectoryDb::new(vec![t]).to_store()
    }

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
    fn respects_budget() {
        let store = store_of(zigzag(50, 5.0));
        for budget in [2, 5, 10, 50, 100] {
            let kept = topdown_one(store.view(0), budget, ErrorMeasure::Sed);
            assert!(kept.len() <= budget.clamp(2, 50));
            assert_eq!(kept[0], 0);
            assert_eq!(*kept.last().unwrap(), 49);
        }
    }

    #[test]
    fn error_shrinks_from_coarse_to_fine() {
        // Greedy refinement is not strictly monotone under SED (splitting a
        // segment can re-anchor points less favourably), but the trend must
        // hold: a generous budget beats the endpoints-only baseline, and
        // the full budget is lossless.
        let store = store_of(zigzag(60, 8.0));
        let v = store.view(0);
        let error = |budget| {
            ErrorMeasure::Sed.trajectory_error(&v, &topdown_one(v, budget, ErrorMeasure::Sed))
        };
        let (coarse, fine, full) = (error(2), error(40), error(60));
        assert!(fine <= coarse + 1e-9, "fine {fine} vs coarse {coarse}");
        assert!(full < 1e-9, "full budget must be lossless");
    }

    #[test]
    fn budgets_grow_kept_sets_as_prefixes() {
        // Best-first insertion is deterministic, so a larger budget's kept
        // set contains the smaller one's.
        let store = store_of(zigzag(60, 8.0));
        let small = topdown_one(store.view(0), 10, ErrorMeasure::Sed);
        let large = topdown_one(store.view(0), 25, ErrorMeasure::Sed);
        for idx in &small {
            assert!(large.contains(idx), "index {idx} lost when budget grew");
        }
    }

    #[test]
    fn picks_the_outlier_first() {
        // A flat line with one huge detour: the first inserted point must be
        // the detour.
        let mut pts: Vec<Point> = (0..20)
            .map(|i| Point::new(i as f64 * 10.0, 0.0, i as f64))
            .collect();
        pts[7] = Point::new(70.0, 500.0, 7.0);
        let store = store_of(Trajectory::new(pts).unwrap());
        let kept = topdown_one(store.view(0), 3, ErrorMeasure::Sed);
        assert_eq!(kept, vec![0, 7, 19]);
    }

    #[test]
    fn whole_adaptation_allocates_budget_to_complex_trajectories() {
        // One wild trajectory + one straight line: "W" must spend almost the
        // whole spare budget on the wild one.
        let wild = zigzag(40, 100.0);
        let straight = Trajectory::new(
            (0..40)
                .map(|i| Point::new(i as f64 * 10.0, 0.0, i as f64))
                .collect(),
        )
        .unwrap();
        let store = TrajectoryDb::new(vec![wild, straight]).to_store();
        let td = TopDown::new(ErrorMeasure::Sed, Adaptation::Whole);
        let simp = td.simplify_store(&store, 14);
        assert!(simp.total_points() <= 14);
        assert!(
            simp.kept(0).len() >= simp.kept(1).len() + 6,
            "wild {} vs straight {}",
            simp.kept(0).len(),
            simp.kept(1).len()
        );
    }

    #[test]
    fn each_adaptation_splits_proportionally() {
        let store = TrajectoryDb::new(vec![zigzag(100, 5.0), zigzag(20, 5.0)]).to_store();
        let td = TopDown::new(ErrorMeasure::Ped, Adaptation::Each);
        let simp = td.simplify_store(&store, 24);
        assert!(simp.total_points() <= 24);
        assert!(simp.kept(0).len() > simp.kept(1).len());
    }

    #[test]
    fn name_matches_paper_convention() {
        assert_eq!(
            TopDown::new(ErrorMeasure::Ped, Adaptation::Each).name(),
            "Top-Down(E,PED)"
        );
        assert_eq!(
            TopDown::new(ErrorMeasure::Sad, Adaptation::Whole).name(),
            "Top-Down(W,SAD)"
        );
    }

    #[test]
    fn whole_over_one_trajectory_is_each() {
        // The global-heap loop and the per-trajectory loop push and pop
        // the same sequence when the database is one trajectory.
        let store = TrajectoryDb::new(vec![zigzag(40, 8.0)]).to_store();
        for m in ErrorMeasure::ALL {
            let whole = TopDown::new(m, Adaptation::Whole);
            for budget in [2, 9, 25, 40] {
                assert_eq!(
                    whole.simplify_store(&store, budget).kept(0),
                    topdown_one(store.view(0), budget, m),
                    "{m} budget {budget}"
                );
            }
        }
    }

    #[test]
    fn all_measures_run() {
        let store = TrajectoryDb::new(vec![zigzag(30, 5.0)]).to_store();
        for m in ErrorMeasure::ALL {
            for a in [Adaptation::Each, Adaptation::Whole] {
                let simp = TopDown::new(m, a).simplify_store(&store, 10);
                assert!(simp.total_points() <= 10, "{m} {a}");
                assert!(simp.total_points() >= 2);
            }
        }
    }
}
