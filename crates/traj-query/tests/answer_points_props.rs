//! `answer_points`: a kNN or similarity query rebuilt over the samples
//! its answer reads — its window plus one neighbour on each side —
//! answers bit for bit what the whole query answers. The wire ships only
//! those samples, so every remote answer rests on this rule.
//!
//! Checked through the scan references ([`KnnQuery::execute_store`],
//! [`SimilarityQuery::execute_store`]) and through [`QueryEngine`] on the
//! scan, octree and kd backends — kNN under EDR (its `(distance, id)`
//! candidates too) and t2vec, and similarity.
//!
//! The generator sits where the rule could slip: trajectories on a 0.1
//! coordinate lattice over integer times, with timestamps repeated (also
//! at and next to the window bounds); windows before, after and inside
//! the data, straddling either end, one instant wide, between two samples
//! (holding none), reversed, with infinite and with NaN bounds; similarity
//! thresholds on the lattice, so a distance of exactly δ occurs.
//!
//! Mutations each of which fails a case below (tried by hand when the
//! rule was written): similarity keeping only its window, dropping one
//! neighbour or the other, and trimming under a NaN bound.

use proptest::prelude::*;
use traj_query::{
    Dissimilarity, EngineConfig, KnnQuery, QueryEngine, QueryExecutor, SimilarityQuery,
    T2vecEmbedder,
};
use trajectory::{Point, PointStore, Trajectory};

/// Lattice steps `(x, y, dt)`; `dt` may be 0 (repeated timestamps).
fn arb_steps(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<(i32, i32, i32)>> {
    prop::collection::vec((0..8i32, 0..8i32, 0..3i32), len)
}

/// A lattice trajectory starting at `start`: `dt` of 0 repeats a
/// timestamp, 2 leaves an integer instant with no sample.
fn lattice(start: i32, steps: &[(i32, i32, i32)]) -> Trajectory {
    let mut t = start;
    let points = steps.iter().map(|&(x, y, dt)| {
        t += dt;
        Point::new(f64::from(x) * 0.1, f64::from(y) * 0.1, f64::from(t))
    });
    Trajectory::new(points.collect()).unwrap()
}

fn arb_lattice() -> impl Strategy<Value = Trajectory> {
    (10..16i32, arb_steps(1..12)).prop_map(|(start, steps)| lattice(start, &steps))
}

/// A window `[ts, te]`: on the integer lattice before, inside, after and
/// across the data (which starts at 10..16 s and runs for up to 22 s),
/// one instant wide (`len == 0`) or reversed (`len < 0`); shifted by half
/// a second, so a bound falls between two samples and a narrow window
/// holds none; or with a bound at ±∞ or NaN.
fn arb_window() -> impl Strategy<Value = (f64, f64)> {
    let special = || {
        prop_oneof![
            Just(f64::NEG_INFINITY),
            Just(f64::INFINITY),
            Just(f64::NAN),
            (5..40i32).prop_map(f64::from),
        ]
    };
    prop_oneof![
        4 => (5..40i32, -3..14i32).prop_map(|(ts, len)| (f64::from(ts), f64::from(ts + len))),
        2 => (5..40i32, -2..6i32)
            .prop_map(|(ts, len)| (f64::from(ts) + 0.5, f64::from(ts + len) + 0.5)),
        1 => (special(), special()),
    ]
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

fn rebuilt(points: &[Point]) -> Trajectory {
    Trajectory::new(points.to_vec()).expect("answer points are a non-empty run of a trajectory")
}

/// The samples of `t` inside `[ts, te]`, counted the obvious way.
fn inside(t: &Trajectory, ts: f64, te: f64) -> usize {
    t.points().iter().filter(|p| ts <= p.t && p.t <= te).count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Whole query and answer-points query answer the same, on the scan
    /// reference and on every backend; the rule keeps the window, at most
    /// one sample more on each side, and is idempotent.
    #[test]
    fn a_query_rebuilt_from_its_answer_points_answers_the_same(
        (trajs, stored_query) in prop::collection::vec(arb_lattice(), 1..7)
            .prop_flat_map(|trajs| { let n = trajs.len(); (Just(trajs), 0..2 * n) }),
        fresh_query in arb_lattice(),
        (ts, te) in arb_window(),
        (k, eps, cell) in (0..5usize, 0..6i32, 1..4i32),
        (delta, step) in (0..16i32, 0..4usize),
    ) {
        let store = store_of(&trajs);
        // Half the queries are stored trajectories (similar to themselves
        // at every δ), half are strangers.
        let query = trajs.get(stored_query).cloned().unwrap_or(fresh_query);
        let measures = [
            Dissimilarity::Edr { eps: f64::from(eps) * 0.1 },
            Dissimilarity::T2vec(T2vecEmbedder { cell_size: f64::from(cell) * 0.1, dim: 16 }),
        ];
        let similarity = SimilarityQuery {
            query: query.clone(),
            ts,
            te,
            delta: f64::from(delta) * 0.1,
            step: [0.0, 0.5, 1.0, f64::NAN][step],
        };
        let similarity_trimmed = SimilarityQuery {
            query: rebuilt(similarity.answer_points()),
            ..similarity.clone()
        };

        let engines = backends().map(|cfg| QueryEngine::over_store(&store, cfg));
        let want = similarity.execute_store(&store);
        prop_assert_eq!(&similarity_trimmed.execute_store(&store), &want);
        for engine in &engines {
            prop_assert_eq!(engine.similarity(&similarity_trimmed), engine.similarity(&similarity));
        }

        // What the rule keeps.
        let kept = similarity.answer_points();
        if ts.is_nan() || te.is_nan() {
            prop_assert_eq!(kept, query.points());
        } else {
            let window = inside(&query, ts, te);
            prop_assert!(kept.len() >= window.max(1) && kept.len() <= window + 2);
            prop_assert_eq!(inside(&similarity_trimmed.query, ts, te), window);
        }
        prop_assert_eq!(similarity_trimmed.answer_points(), similarity_trimmed.query.points());

        for measure in measures {
            let knn = KnnQuery { query: query.clone(), ts, te, k, measure };
            let trimmed = KnnQuery { query: rebuilt(knn.answer_points()), ..knn.clone() };
            let want = knn.execute_store(&store);
            prop_assert_eq!(&trimmed.execute_store(&store), &want, "{}", measure.name());
            for engine in &engines {
                prop_assert_eq!(engine.knn(&trimmed), engine.knn(&knn), "{}", measure.name());
                prop_assert_eq!(
                    engine.knn_candidates(&trimmed),
                    engine.knn_candidates(&knn),
                    "{}", measure.name()
                );
            }
            prop_assert_eq!(knn.answer_points(), similarity.answer_points());
            prop_assert_eq!(trimmed.answer_points(), trimmed.query.points());
        }
    }
}

/// The neighbours earn their place: with the window strictly between two
/// samples the query's position there is interpolated across the pair,
/// and only the neighbours supply it. The whole query and its answer
/// points both find the candidate that follows the segment; the window
/// alone would hold no sample to check against.
#[test]
fn a_window_between_two_samples_keeps_both() {
    let query = Trajectory::new(vec![
        Point::new(0.0, 0.0, 0.0),
        Point::new(0.0, 0.0, 10.0),
        Point::new(10.0, 0.0, 20.0),
        Point::new(10.0, 0.0, 30.0),
    ])
    .unwrap();
    let q = SimilarityQuery {
        query,
        ts: 14.0,
        te: 16.0,
        delta: 0.5,
        step: 1.0,
    };
    assert_eq!(q.answer_points(), &q.query.points()[1..3]);
    // Follows the query's segment through the window, and nothing else.
    let follower =
        Trajectory::new(vec![Point::new(4.0, 0.0, 14.0), Point::new(6.0, 0.0, 16.0)]).unwrap();
    let store = store_of(&[follower]);
    let trimmed = SimilarityQuery {
        query: rebuilt(q.answer_points()),
        ..q.clone()
    };
    assert_eq!(q.execute_store(&store), [0]);
    assert_eq!(trimmed.execute_store(&store), [0]);
}

/// Repeated timestamps at both bounds: every sample at `ts` and at `te`
/// is inside, the neighbours are the nearest strictly outside.
#[test]
fn repeated_timestamps_at_the_bounds_are_all_kept() {
    let t = [5.0, 6.0, 6.0, 6.0, 7.0, 8.0, 8.0, 9.0, 9.0];
    let query = Trajectory::new(
        t.iter()
            .enumerate()
            .map(|(i, &t)| Point::new(i as f64, 0.0, t))
            .collect(),
    )
    .unwrap();
    let knn = |ts: f64, te: f64| KnnQuery {
        query: query.clone(),
        ts,
        te,
        k: 1,
        measure: Dissimilarity::edr_paper(),
    };
    let times = |q: &KnnQuery| q.answer_points().iter().map(|p| p.t).collect::<Vec<_>>();
    assert_eq!(
        times(&knn(6.0, 8.0)),
        [5.0, 6.0, 6.0, 6.0, 7.0, 8.0, 8.0, 9.0]
    );
    assert_eq!(times(&knn(6.5, 7.5)), [6.0, 7.0, 8.0]);
    assert_eq!(times(&knn(9.0, 9.0)), [8.0, 9.0, 9.0]);
    assert_eq!(times(&knn(0.0, 1.0)), [5.0]);
    assert_eq!(times(&knn(20.0, 30.0)), [9.0]);
    // Reversed: nothing is inside; what is kept only has to be a sample.
    assert_eq!(times(&knn(8.0, 6.0)), [7.0]);
    assert_eq!(times(&knn(9.0, 5.5)), [5.0]);
    assert_eq!(times(&knn(f64::NEG_INFINITY, f64::INFINITY)).len(), t.len());
    assert_eq!(times(&knn(f64::NAN, 7.0)).len(), t.len());
}
