//! The engine's filter-and-refine arms against the scan reference, where
//! a bound can be wrong.
//!
//! The kNN arm skips a DP when the box lower bound exceeds the running
//! k-th best distance τ, and cuts the ones it runs to the band τ leaves
//! reachable; the similarity arm asks the matcher only of trajectories
//! whose recorded span overlaps the window. Each is an answer-preserving
//! claim, checked here against code that shares none of it:
//! [`edr_seq`], [`KnnQuery::execute_store`] and
//! [`SimilarityQuery::execute_store`].
//!
//! The generator is adversarial where the bounds are thin: coordinates
//! sit on a 0.1 lattice (not representable, so differences round) with ε
//! a lattice multiple, so `|a − b| == ε` and points exactly ε off a box
//! edge occur; trajectories are stored twice and more, so distances tie
//! at the k-th place and the id decides; `k` is 0, 1, 2, M, M + 5 and
//! `usize::MAX`; query windows are empty, a single instant, reversed, or
//! hold one sample of a candidate.
//!
//! Mutations each of which fails a case below (tried by hand when the
//! arms were written): stopping the kNN visit at `lb >= τ` instead of
//! `lb > τ` (`a_tie_at_the_kth_place_goes_to_the_smaller_id_visited_later`,
//! and `engine_answers_equal_the_scan_reference…` when the stop does not
//! wait for `k` distances); testing a point against a box expanded by
//! ε beforehand instead of subtracting as the kernel does
//! (`a_match_at_exactly_eps_from_the_box_edge_is_kept`); a band one cell
//! too narrow, `|i − j| < τ` (`bounded_edr_is_the_full_program_cut_at_tau`).

use proptest::prelude::*;
use traj_query::edr::edr_seq;
use traj_query::knn::{Dissimilarity, KnnQuery};
use traj_query::refine::{edr_bounded, edr_lower_bound};
use traj_query::{
    fan_out, EngineConfig, IdMap, Query, QueryEngine, QueryExecutor, QueryResult, QueryScratch,
    Segment, SimilarityQuery,
};
use trajectory::{AsColumns, Point, PointStore, TrajId, TrajView, Trajectory};

/// The coordinate lattice. `i as f64 * 0.1` is inexact for most `i`, so
/// `(a.x − b.x).abs() <= eps` at `|i − j| * 0.1 == eps` goes either way.
const STEP: f64 = 0.1;

/// Lattice steps `(x, y, dt)`; `dt` may be 0 (repeated timestamps).
type Steps = Vec<(i32, i32, i32)>;

fn arb_steps(len: std::ops::Range<usize>) -> impl Strategy<Value = Steps> {
    prop::collection::vec((0..8i32, 0..8i32, 0..3i32), len)
}

/// The points of `steps`, starting at time `start`, x shifted by `base`
/// (another magnitude, another rounding).
fn points(base: f64, start: i32, steps: &Steps) -> Vec<Point> {
    let mut t = start;
    steps
        .iter()
        .map(|&(x, y, dt)| {
            t += dt;
            Point::new(
                base + f64::from(x) * STEP,
                f64::from(y) * STEP,
                f64::from(t),
            )
        })
        .collect()
}

fn arb_base() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), Just(1_000.0), Just(-3.3)]
}

/// 2..7 lattice trajectories starting within 8 s of each other, then up
/// to four of them stored again: equal distances at different ids.
fn arb_trajs() -> impl Strategy<Value = Vec<Trajectory>> {
    (
        arb_base(),
        prop::collection::vec((10..18i32, arb_steps(1..9)), 2..7),
        prop::collection::vec(0..100usize, 0..5),
    )
        .prop_map(|(base, trajs, again)| {
            let mut trajs: Vec<Trajectory> = trajs
                .iter()
                .map(|(start, steps)| Trajectory::new(points(base, *start, steps)).unwrap())
                .collect();
            for i in again {
                trajs.push(trajs[i % trajs.len()].clone());
            }
            trajs
        })
}

/// A window `[ts, te]` on the integer time lattice: before, inside and
/// after the data (which starts at 10..18 s and runs for a few seconds),
/// one instant wide (`len == 0`) or reversed (`len < 0`).
fn arb_window() -> impl Strategy<Value = (f64, f64)> {
    (8..19i32, -2..10i32).prop_map(|(ts, len)| (f64::from(ts), f64::from(ts + len)))
}

fn store_of(trajs: &[Trajectory]) -> PointStore {
    let mut store = PointStore::new();
    for t in trajs {
        store.push_points(t.points()).unwrap();
    }
    store
}

fn backends() -> [EngineConfig; 3] {
    [
        EngineConfig::scan(),
        EngineConfig::octree().tree_shape(6, 4),
        EngineConfig::median_kd().tree_shape(6, 4),
    ]
}

/// What `knn_candidates` must return, from the full program alone: every
/// finite `(distance, id)` ascending, cut at `k`.
fn reference_candidates(store: &PointStore, q: &KnnQuery, eps: f64) -> Vec<(f64, TrajId)> {
    let inside = |p: &&Point| q.ts <= p.t && p.t <= q.te;
    let q_window: Vec<Point> = q.query.points().iter().filter(inside).copied().collect();
    let mut scored: Vec<(f64, TrajId)> = store
        .iter()
        .filter_map(|(id, v)| match v.window(q.ts, q.te) {
            Some(w) => Some((edr_seq(&q_window[..], &w, eps), id)),
            None => q_window.is_empty().then_some((0.0, id)),
        })
        .collect();
    scored.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    scored.truncate(q.k);
    scored
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// (i) `edr_bounded(a, b, ε, τ) == Some(d)` iff `d = edr_seq(a, b, ε) ≤ τ`,
    /// for every τ from 0 to past the longer side, empty sides included,
    /// over rows left as the previous call wrote them.
    #[test]
    fn bounded_edr_is_the_full_program_cut_at_tau(
        (base, a, b) in (arb_base(), arb_steps(0..10), arb_steps(0..10)),
        eps in 0..6i32,
    ) {
        let (a, b) = (points(base, 0, &a), points(base, 0, &b));
        let eps = f64::from(eps) * STEP;
        let d = edr_seq(&a[..], &b[..], eps) as u32;
        let mut rows = [Vec::new(), Vec::new()];
        for tau in 0..=a.len().max(b.len()) as u32 + 1 {
            prop_assert_eq!(
                edr_bounded(&a[..], &b[..], eps, tau, &mut rows),
                (d <= tau).then_some(d),
                "tau = {}, lengths {} and {}", tau, a.len(), b.len()
            );
        }
    }

    /// (ii) The box bound is at least the length difference and never
    /// above the distance.
    #[test]
    fn box_bound_sits_between_length_difference_and_edr(
        (base, a, b) in (arb_base(), arb_steps(0..10), arb_steps(0..10)),
        eps in 0..6i32,
    ) {
        let (a, b) = (points(base, 0, &a), points(base, 0, &b));
        let eps = f64::from(eps) * STEP;
        let (xs, ys, ts): (Vec<f64>, Vec<f64>, Vec<f64>) =
            (b.iter().map(|p| p.x).collect(), b.iter().map(|p| p.y).collect(), b.iter().map(|p| p.t).collect());
        let lb = edr_lower_bound(&a, TrajView { xs: &xs, ys: &ys, ts: &ts }, eps);
        prop_assert!(lb as usize >= a.len().abs_diff(b.len()));
        prop_assert!(f64::from(lb) <= edr_seq(&a[..], &b[..], eps), "{} above the distance", lb);
    }

    /// (iii) Engine kNN and similarity equal the scan reference — ids,
    /// and for kNN the `(distance, id)` list — on every backend and over
    /// a 1..5-segment cut of the store (`segment_props`' cutter: an owner
    /// per trajectory, interleaved id tables, backends rotated).
    #[test]
    fn engine_answers_equal_the_scan_reference_on_an_adversarial_lattice(
        (trajs, owner, stored_query) in arb_trajs().prop_flat_map(|trajs| {
            let n = trajs.len();
            let owner = (1..6usize).prop_flat_map(move |k| prop::collection::vec(0..k, n));
            (Just(trajs), owner, 0..2 * n)
        }),
        fresh_query in (10..18i32, arb_steps(1..9)),
        (ts, te) in arb_window(),
        (eps, k_choice) in (0..6i32, 0..6usize),
        (delta, step) in (0..16i32, 0..3usize),
    ) {
        let store = store_of(&trajs);
        // Half the queries are stored trajectories (distance 0 to
        // themselves and to their copies), half are strangers.
        let query = match trajs.get(stored_query) {
            Some(t) => t.clone(),
            None => Trajectory::new(points(0.0, fresh_query.0, &fresh_query.1)).unwrap(),
        };
        let eps = f64::from(eps) * STEP;
        let m = store.len();
        let knn = KnnQuery {
            query: query.clone(),
            ts,
            te,
            k: [0, 1, 2, m, m + 5, usize::MAX][k_choice],
            measure: Dissimilarity::Edr { eps },
        };
        let similarity = SimilarityQuery {
            query,
            ts,
            te,
            delta: f64::from(delta) * STEP,
            step: [0.0, 0.5, 1.0][step],
        };
        let want_knn = knn.execute_store(&store);
        let want_candidates = reference_candidates(&store, &knn, eps);
        let want_similarity = similarity.execute_store(&store);

        let mut scratch = QueryScratch::new();
        for cfg in backends() {
            let engine = QueryEngine::over_store(&store, cfg);
            prop_assert_eq!(&engine.knn(&knn), &want_knn, "{:?}", cfg.backend);
            prop_assert_eq!(&engine.knn_candidates(&knn), &want_candidates, "{:?}", cfg.backend);
            prop_assert_eq!(&engine.similarity(&similarity), &want_similarity, "{:?}", cfg.backend);
        }

        let tables: Vec<Vec<TrajId>> = (0..=*owner.iter().max().unwrap())
            .map(|s| (0..m).filter(|&t| owner[t] == s).collect())
            .collect();
        let engines: Vec<QueryEngine<'static>> = tables
            .iter()
            .enumerate()
            .map(|(s, ids)| QueryEngine::from_store(store.gather_trajs(ids), backends()[s % 3]))
            .collect();
        let segments: Vec<Segment<'_>> = engines
            .iter()
            .zip(&tables)
            .map(|(engine, ids)| Segment {
                engine,
                ids: IdMap::Table(ids),
                bounds: engine.store().bounding_cube(),
            })
            .collect();
        for parallel in [false, true] {
            prop_assert_eq!(
                fan_out(&segments, &Query::Knn(knn.clone()), parallel, &mut scratch),
                QueryResult::Knn(want_knn.clone())
            );
            prop_assert_eq!(
                fan_out(&segments, &Query::Similarity(similarity.clone()), parallel, &mut scratch),
                QueryResult::Similarity(want_similarity.clone())
            );
        }
    }
}

/// The pre-expanded-box mutation, pinned: `0.2` and `7 × 0.1`
/// (`0.7000000000000001`) are `0.5` apart as the kernel subtracts them —
/// the difference rounds to exactly `0.5` — but `0.7000000000000001 − 0.5`
/// is `0.20000000000000007 > 0.2` (and `0.2 + 0.5` is `0.7`, below the
/// other point): a box grown by ε beforehand calls the point unmatched
/// and puts the bound above the distance.
#[test]
fn a_match_at_exactly_eps_from_the_box_edge_is_kept() {
    let (lo, hi, eps) = (2.0 * STEP, 7.0 * STEP, 5.0 * STEP);
    assert!(hi - eps > lo && lo + eps < hi, "the expanded edges miss");
    for (a, b) in [(lo, hi), (hi, lo)] {
        let a = [Point::new(a, 0.0, 0.0)];
        let (xs, ys, ts) = ([b], [0.0], [0.0]);
        let b = TrajView {
            xs: &xs,
            ys: &ys,
            ts: &ts,
        };
        assert_eq!(edr_seq(&a[..], &b, eps), 0.0);
        assert_eq!(edr_lower_bound(&a, b, eps), 0);
    }
}

/// The `lb >= τ` mutation, pinned. Both trajectories are at distance 2
/// from the query, so `k = 1` goes to id 0 — but id 1 has the smaller
/// bound (its box covers every query point) and is visited first: when
/// id 0 comes up its bound *equals* τ, and it must still be scored.
#[test]
fn a_tie_at_the_kth_place_goes_to_the_smaller_id_visited_later() {
    let at = |coords: &[(f64, f64)]| -> Vec<Point> {
        let timed = coords.iter().zip(1..);
        timed
            .map(|(&(x, y), t)| Point::new(x, y, f64::from(t)))
            .collect()
    };
    let query = at(&[(0.0, 0.0), (1.0, 1.0), (0.0, 0.0)]);
    let stored = [at(&[(0.0, 0.0)]), at(&[(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])];
    let mut store = PointStore::new();
    for pts in &stored {
        store.push_points(pts).unwrap();
    }
    let eps = 0.1;
    let bounds = [0, 1].map(|id| edr_lower_bound(&query, store.view(id), eps));
    let distances = [0, 1].map(|id| edr_seq(&query[..], &store.view(id), eps));
    assert_eq!((bounds, distances), ([2, 0], [2.0, 2.0]));
    let q = KnnQuery {
        query: Trajectory::new(query).unwrap(),
        ts: 0.0,
        te: 10.0,
        k: 1,
        measure: Dissimilarity::Edr { eps },
    };
    assert_eq!(q.execute_store(&store), [0]);
    for cfg in backends() {
        let engine = QueryEngine::over_store(&store, cfg);
        assert_eq!(engine.knn_candidates(&q), [(2.0, 0)], "{:?}", cfg.backend);
    }
}

/// `k` comes off the wire: with `usize::MAX` of it over a window where
/// twenty thousand trajectories score finite, the arm must neither size
/// anything by `k` (a capacity overflow) nor keep its best-so-far in a
/// sorted `Vec` (twenty thousand shifting inserts) — it answers what the
/// scan answers, every finite candidate in order.
#[test]
fn a_hostile_k_is_neither_allocated_nor_sorted_by() {
    let mut store = PointStore::new();
    for i in 0..20_000u32 {
        // Descending distance to the query with ascending id: the worst
        // insertion order for a sorted list.
        let far = f64::from(i % 3);
        let pts = [
            Point::new(far, 0.0, 1.0),
            Point::new(far + f64::from(i % 2), 0.0, 2.0),
        ];
        store.push_points(&pts).unwrap();
    }
    let q = KnnQuery {
        query: Trajectory::new(vec![Point::new(2.0, 0.0, 1.0), Point::new(2.0, 0.0, 2.0)]).unwrap(),
        ts: 0.0,
        te: 3.0,
        k: usize::MAX,
        measure: Dissimilarity::Edr { eps: 0.5 },
    };
    let engine = QueryEngine::over_store(&store, EngineConfig::octree());
    let candidates = engine.knn_candidates(&q);
    assert_eq!(candidates, reference_candidates(&store, &q, 0.5));
    assert_eq!(candidates.len(), store.len());
    assert_eq!(engine.knn(&q), q.execute_store(&store));
}
