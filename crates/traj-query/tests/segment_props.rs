//! The merge itself, as one table: a random store is cut into `k`
//! segments — contiguous id ranges ([`IdMap::Offset`]) and interleaved
//! id tables ([`IdMap::Table`]), mixed index backends, a random subset
//! allowed to prune by its bounds, a random subset carrying kept
//! bitmaps, a random subset degraded away (the coordinator's case) —
//! and the shared [`merge`] must answer every query kind exactly like
//! the linear-scan oracle over the surviving trajectories, including
//! the kNN infinite-fill and the `RangeKept` all-or-`None` rule.
//!
//! Beside it, the shard frame: on every executor a shard server can
//! front, `shard_batch` — one pass over a frame — must produce exactly
//! the material `shard_result` produces one query at a time.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use traj_query::knn::{Dissimilarity, KnnQuery};
use traj_query::{
    fan_out, merge, merge_knn_candidates, range_query_store, Answer, DbOptions, EngineConfig,
    GenerationalDb, IdMap, Query, QueryBatch, QueryEngine, QueryExecutor, QueryResult,
    QueryScratch, Segment, ShardResult, SimilarityQuery, TrajDb,
};
use trajectory::snapshot::write_snapshot_quantized;
use trajectory::{
    partition, AsColumns, Cube, DeltaStore, KeepAll, KeptBitmap, OpenShard, PartitionStrategy,
    Point, PointStore, TrajId, Trajectory, TrajectoryDb,
};

/// Strategy: 2..10 trajectories of 2..24 points, each starting at its
/// own time offset so segments differ in their time bounds and narrow
/// windows actually prune some of them.
fn arb_db() -> impl Strategy<Value = TrajectoryDb> {
    prop::collection::vec(
        (
            0.0..2_000.0f64,
            prop::collection::vec((-1e4..1e4f64, -1e4..1e4f64, 0.1..60.0f64), 2..24),
        ),
        2..10,
    )
    .prop_map(|trajs| {
        trajs
            .into_iter()
            .map(|(start, steps)| {
                let mut t = start;
                let pts = steps
                    .into_iter()
                    .map(|(x, y, dt)| {
                        t += dt;
                        Point::new(x, y, t)
                    })
                    .collect();
                Trajectory::new(pts).unwrap()
            })
            .collect()
    })
}

/// One table row: how the store is cut and what happens to each part.
#[derive(Debug, Clone)]
struct Cut {
    /// `owner[traj]` = the segment holding it (interleaved form); the
    /// contiguous form sorts this, so segment sizes stay the same.
    owner: Vec<usize>,
    /// Per segment: tight bounds (may prune) or unbounded (never prunes).
    tight: Vec<bool>,
    /// Per segment: carries a kept bitmap (every even point index).
    kept: Vec<bool>,
    /// Per segment: degraded away.
    missing: Vec<bool>,
}

fn arb_cut(trajs: usize) -> impl Strategy<Value = Cut> {
    (1usize..5).prop_flat_map(move |k| {
        (
            prop::collection::vec(0..k, trajs),
            prop::collection::vec((0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64), k),
        )
            .prop_map(|(owner, coins)| Cut {
                owner,
                tight: coins.iter().map(|c| c.0 < 0.5).collect(),
                kept: coins.iter().map(|c| c.1 < 0.7).collect(),
                missing: coins.iter().map(|c| c.2 < 0.25).collect(),
            })
    })
}

fn backends() -> [EngineConfig; 3] {
    [
        EngineConfig::scan(),
        EngineConfig::octree().tree_shape(6, 8),
        EngineConfig::median_kd().tree_shape(6, 8),
    ]
}

const EVERYWHERE: Cube = Cube {
    x_min: f64::NEG_INFINITY,
    x_max: f64::INFINITY,
    y_min: f64::NEG_INFINITY,
    y_max: f64::INFINITY,
    t_min: f64::NEG_INFINITY,
    t_max: f64::INFINITY,
};

/// The bitmap keeping every point whose index *within its trajectory*
/// is even — a selection that does not depend on how the store is cut.
fn even_points(store: &PointStore) -> KeptBitmap {
    let mut bitmap = KeptBitmap::zeros(store.total_points());
    for (id, v) in store.iter() {
        for idx in (0..v.len() as u32).step_by(2) {
            bitmap.insert(store.offsets()[id] + idx);
        }
    }
    bitmap
}

/// The oracle: linear scans over the surviving trajectories alone,
/// positions mapped back to their global ids.
fn oracle(store: &PointStore, survivors: &[TrajId], all_kept: bool, q: &Query) -> QueryResult {
    let sub = store.gather_trajs(survivors);
    let global =
        |ids: Vec<TrajId>| -> Vec<TrajId> { ids.into_iter().map(|i| survivors[i]).collect() };
    match q {
        Query::Range(c) => QueryResult::Range(global(range_query_store(&sub, c))),
        Query::Knn(k) => QueryResult::Knn(global(k.execute_store(&sub))),
        Query::Similarity(s) => QueryResult::Similarity(global(s.execute_store(&sub))),
        Query::RangeKept(c) => QueryResult::RangeKept(all_kept.then(|| {
            let hits = sub
                .iter()
                .filter(|(_, t)| t.points().step_by(2).any(|p| c.contains(&p)))
                .map(|(i, _)| i)
                .collect();
            global(hits)
        })),
    }
}

type Fractions = (f64, f64, f64);

/// Strategy: where a probe cube sits in the database's bounding cube
/// (centre, half-extents as fractions of it), the kNN `k` for a
/// database of `trajs` trajectories, and the similarity `delta`.
fn arb_probe(trajs: usize) -> impl Strategy<Value = ((Fractions, Fractions), usize, f64)> {
    (
        (
            (0.0..1.0f64, 0.0..1.0f64, -0.1..1.1f64),
            (0.05..0.8f64, 0.05..0.8f64, 0.01..0.6f64),
        ),
        1..trajs + 3,
        10.0..5e3f64,
    )
}

/// One query of each kind around the same probe cube (see
/// [`arb_probe`]).
fn one_of_each_kind(
    db: &TrajectoryDb,
    frac: Fractions,
    half: Fractions,
    k: usize,
    delta: f64,
) -> [Query; 4] {
    let bc = db.bounding_cube();
    let (ex, ey, et) = bc.extents();
    let cube = Cube::centered(
        bc.x_min + frac.0 * ex,
        bc.y_min + frac.1 * ey,
        bc.t_min + frac.2 * et,
        (half.0 * ex).max(1e-6),
        (half.1 * ey).max(1e-6),
        (half.2 * et).max(1e-6),
    );
    // Windows may overshoot the data's time span, so the kNN
    // infinite-fill (fewer than k finite scores) is exercised.
    let (ts, te) = (cube.t_min, cube.t_max);
    [
        Query::Range(cube),
        Query::RangeKept(cube),
        Query::Knn(KnnQuery {
            query: db.get(0).clone(),
            ts,
            te,
            k,
            measure: Dissimilarity::Edr { eps: 1_000.0 },
        }),
        Query::Similarity(SimilarityQuery {
            query: db.get(0).clone(),
            ts,
            te,
            delta,
            step: 5.0,
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn merge_over_any_cut_equals_the_scan_oracle(
        (db, cut, ((frac, half), k, delta), rotate) in arb_db().prop_flat_map(|db| {
            let cut = arb_cut(db.len());
            let probe = arb_probe(db.len());
            (Just(db), cut, probe, 0usize..3)
        })
    ) {
        let store = db.to_store();
        let queries = one_of_each_kind(&db, frac, half, k, delta);
        // One worker's scratch, as in a batch pass: reused across every
        // segment of every cut and every query below.
        let mut scratch = QueryScratch::new();

        let mut sorted_owner = cut.owner.clone();
        sorted_owner.sort_unstable();
        for (form, owner) in [("interleaved", &cut.owner), ("contiguous", &sorted_owner)] {
            let k_segments = cut.tight.len();
            let tables: Vec<Vec<TrajId>> = (0..k_segments)
                .map(|s| (0..db.len()).filter(|&t| owner[t] == s).collect())
                .collect();
            let engines: Vec<QueryEngine<'static>> = tables
                .iter()
                .enumerate()
                .map(|(s, ids)| {
                    let part = store.gather_trajs(ids);
                    let bitmap = cut.kept[s].then(|| even_points(&part));
                    let mut engine = QueryEngine::from_store(part, backends()[(s + rotate) % 3]);
                    engine.set_kept_bitmap(bitmap);
                    engine
                })
                .collect();
            let segments: Vec<Segment<'_>> = engines
                .iter()
                .zip(&tables)
                .enumerate()
                .map(|(s, (engine, ids))| Segment {
                    engine,
                    ids: match ids.first() {
                        Some(&first) if form == "contiguous" => IdMap::Offset { first, len: ids.len() },
                        _ => IdMap::Table(ids),
                    },
                    bounds: if cut.tight[s] { engine.store().bounding_cube() } else { EVERYWHERE },
                })
                .collect();

            for q in &queries {
                // In process: nothing is missing; both fan-out modes.
                let everyone: Vec<TrajId> = (0..db.len()).collect();
                let all_kept = cut.kept.iter().all(|&kept| kept);
                let expected = oracle(&store, &everyone, all_kept, q);
                for parallel in [false, true] {
                    prop_assert_eq!(
                        &fan_out(&segments, q, parallel, &mut scratch),
                        &expected,
                        "{} fan_out(parallel={}) of {:?}",
                        form, parallel, q.kind()
                    );
                }

                // The coordinator's case: some segments degraded away.
                let parts: Vec<(IdMap<'_>, Answer)> = segments
                    .iter()
                    .enumerate()
                    .map(|(s, seg)| {
                        let answer = if cut.missing[s] { Answer::Missing } else { seg.answer(q, false, &mut scratch) };
                        (seg.ids, answer)
                    })
                    .collect();
                let survivors: Vec<TrajId> =
                    (0..db.len()).filter(|&t| !cut.missing[owner[t]]).collect();
                let surviving = (0..k_segments).filter(|&s| !cut.missing[s]);
                let all_kept = surviving.clone().count() > 0 && surviving.clone().all(|s| cut.kept[s]);
                prop_assert_eq!(
                    merge(q, parts).expect("well-formed material"),
                    oracle(&store, &survivors, all_kept, q),
                    "{} degraded merge of {:?} (missing {:?})",
                    form, q.kind(), &cut.missing
                );
            }
        }
    }
}

/// A unique temp dir per case so parallel test binaries never collide.
fn unique_dir() -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir()
        .join("qdts_segment_props")
        .join(format!(
            "case_{}_{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn store_of(trajs: &[Trajectory]) -> PointStore {
    let mut store = PointStore::new();
    for t in trajs {
        store.push_points(t.points()).unwrap();
    }
    store
}

/// A live database serving `[base, sealed, active]`: `trajs[..a]` in
/// generation 0 (quantized on disk when `quantize`), `trajs[a..b]` in a
/// WAL sealed by a compaction that died before its commit, `trajs[b..]`
/// in the active delta.
fn live_with_every_segment(
    trajs: &[Trajectory],
    (a, b): (usize, usize),
    quantize: bool,
    opts: DbOptions,
) -> (PathBuf, GenerationalDb) {
    let keep_all = || -> traj_query::SimpFactory { Box::new(|| Box::new(KeepAll)) };
    let dir = unique_dir();
    let base = store_of(&trajs[..a]);
    let live = GenerationalDb::create(&dir, &base, opts, keep_all()).unwrap();
    live.ingest(&trajs[a..b]).unwrap();
    drop(live);
    if quantize {
        write_snapshot_quantized(&base, None, 0.5, dir.join("gen-000000.snap")).unwrap();
    }
    DeltaStore::create(dir.join("wal-000001.log"), Box::new(KeepAll)).unwrap();
    let live = GenerationalDb::open(&dir, opts, keep_all()).unwrap();
    live.ingest(&trajs[b..]).unwrap();
    (dir, live)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `shard_batch` is `shard_result` per query, on every executor a
    /// shard server can front: frames of any mix of the four kinds,
    /// repeats, the empty frame and the one-query frame included. The
    /// batch pass walks every segment of a query on one worker's scratch;
    /// the one-by-one side starts each query on a fresh one.
    #[test]
    fn a_shard_frame_in_one_pass_equals_its_queries_one_by_one(
        (db, ((frac, half), k, delta), picks, parts, (s0, s1)) in arb_db().prop_flat_map(|db| {
            let n = db.len();
            let probe = arb_probe(n);
            let picks = prop::collection::vec(0usize..4, 0..9);
            (Just(db), probe, picks, 1usize..4, (0..=n, 0..=n))
        })
    ) {
        let kinds = one_of_each_kind(&db, frac, half, k, delta);
        let batch: QueryBatch = picks.iter().map(|&i| kinds[i].clone()).collect();
        let check = |exec: &dyn QueryExecutor, what: &str| -> Result<(), TestCaseError> {
            let one_by_one: Vec<ShardResult> =
                batch.queries().iter().map(|q| exec.shard_result(q)).collect();
            prop_assert_eq!(exec.shard_batch(&batch), one_by_one, "{}", what);
            Ok(())
        };

        let store = db.to_store();
        for cfg in backends() {
            let engine = QueryEngine::over_store(&store, cfg).with_kept_bitmap(even_points(&store));
            check(&engine, cfg.backend.label())?;
        }

        let strategy = PartitionStrategy::Time { parts };
        let shards = partition(&store, &strategy)
            .into_iter()
            .map(|sh| OpenShard {
                kept: Some(even_points(&sh.store)),
                store: sh.store,
                global_ids: sh.global_ids,
            })
            .collect();
        check(&TrajDb::from_shards(shards, backends()[1]), "sharded")?;
        // Indexed segments of unequal length, `[..a)`, `[a..b)`, `[b..)`:
        // the worker's hit buffer is re-sized and re-cleared per segment.
        let cut = (s0.min(s1), s0.max(s1));
        let uneven = || -> Vec<OpenShard<PointStore>> {
            [0..cut.0, cut.0..cut.1, cut.1..db.len()]
                .into_iter()
                .filter(|ids| !ids.is_empty())
                .map(|ids| {
                    let global_ids: Vec<TrajId> = ids.collect();
                    let part = store.gather_trajs(&global_ids);
                    OpenShard { kept: Some(even_points(&part)), store: part, global_ids }
                })
                .collect()
        };
        for cfg in &backends()[1..] {
            check(&TrajDb::from_shards(uneven(), *cfg), "uneven shards")?;
        }
        // And from a store: one segment, then one per shard without a
        // kept bitmap.
        check(&TrajDb::from_store(store.clone(), DbOptions::new()), "TrajDb, single")?;
        let shards = partition(&store, &strategy).into_iter().map(Into::into).collect();
        check(&TrajDb::from_shards(shards, DbOptions::new()), "TrajDb, sharded")?;

        let trajs: Vec<Trajectory> = db.iter().map(|(_, t)| t.clone()).collect();
        let opts = backends()[1];
        for quantize in [false, true] {
            let (dir, live) = live_with_every_segment(&trajs, cut, quantize, opts);
            prop_assert_eq!(live.len(), trajs.len());
            check(&live, if quantize { "live, quantized base" } else { "live" })?;
            drop(live);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// Material the merge cannot use is a typed error naming the segment —
/// what the coordinator turns into a `Protocol` error.
#[test]
fn malformed_material_is_a_typed_merge_error() {
    let ids = [3usize, 7];
    let q = Query::Range(Cube::new(0.0, 1.0, 0.0, 1.0, 0.0, 1.0));
    let ok = (
        IdMap::Table(&ids),
        Answer::Material(ShardResult::Ids(vec![1])),
    );
    let wrong_kind = (
        IdMap::Table(&ids),
        Answer::Material(ShardResult::Kept(None)),
    );
    let out_of_range = (
        IdMap::Table(&ids),
        Answer::Material(ShardResult::Ids(vec![2])),
    );
    assert_eq!(merge(&q, vec![ok.clone()]), Ok(QueryResult::Range(vec![7])));
    assert_eq!(
        merge(&q, vec![ok.clone(), wrong_kind]).unwrap_err().segment,
        1
    );
    assert_eq!(merge(&q, vec![out_of_range, ok]).unwrap_err().segment, 0);
}

/// `k` arrives off the wire as any `u64`: the merge must size its output
/// by the candidates it was handed, never by `k`.
#[test]
fn a_knn_merge_with_an_unbounded_k_returns_every_candidate() {
    let streams = vec![
        vec![(0.0, 4), (2.0, 1)],
        vec![],
        vec![(1.0, 7), (2.0, 0), (5.0, 3)],
    ];
    let all = vec![(0.0, 4), (1.0, 7), (2.0, 0), (2.0, 1), (5.0, 3)];
    assert_eq!(merge_knn_candidates(usize::MAX, &streams), all);
    assert_eq!(merge_knn_candidates(1 << 60, &streams), all);
    assert_eq!(merge_knn_candidates(2, &streams), all[..2]);
    assert!(merge_knn_candidates(usize::MAX, &[]).is_empty());
}
