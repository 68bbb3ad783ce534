//! Per-layer probes of the traced run: each times calls into one crate's
//! public functions, from here, under a span — no timing code lives in
//! the crates themselves. Every probe works on the workload's own data,
//! and a workload calls only the probes of the layers on its path.

use std::path::Path;
use std::time::Instant;

use rl4qdts::Rl4Qdts;
use traj_index::{MedianTree, MedianTreeConfig, Octree, OctreeConfig};
use traj_query::{Query, QueryBatch, QueryExecutor, QueryResult};
use traj_serve::{decode_message, encode_message, Message};
use traj_simp::{Adaptation, BottomUp, OnePassSed, Simplifier, TopDown};
use trajectory::snapshot::{write_snapshot_with, MappedStore};
use trajectory::{
    partition, Cube, DeltaStore, ErrorMeasure, PartitionStrategy, PointStore, Simplification,
};

use crate::report::Outcome;
use crate::spans::{Recorder, NO_PARENT};
use crate::stats::median;
use crate::workloads::err;

/// Error bound of the write-path simplifier on `live-rw`, in metres: at
/// T-Drive's ~600 m hops it keeps roughly a third of the raw points.
pub const ONEPASS_EPS: f64 = 200.0;

/// Simplifier probes run on at most this many trajectories; points/s does
/// not depend on the database size beyond that.
const SIMPLIFIER_PROBE_TRAJS: usize = 1000;

/// Trajectories pushed through a scratch `DeltaStore` by the ingest probe.
const INGEST_PROBE_TRAJS: usize = 64;

/// Runs `f` `reps` (≥ 1) times under spans called `name`; the median in
/// ms and what the last call returned.
fn timed<T>(
    rec: &mut Recorder,
    name: &'static str,
    reps: usize,
    mut f: impl FnMut() -> T,
) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        last = Some(std::hint::black_box(rec.time(name, NO_PARENT, 0, &mut f)));
        times.push(t.elapsed().as_secs_f64() * 1e3);
    }
    (median(&times), last.expect("at least one repetition"))
}

/// [`timed`] for calls whose result is of no interest.
fn timed_ms<T>(rec: &mut Recorder, name: &'static str, reps: usize, f: impl FnMut() -> T) -> f64 {
    timed(rec, name, reps, f).0
}

/// `trajectory` snapshot I/O: writing `store` (with `simp`'s kept bitmap,
/// if any) as a snapshot and mapping it back.
pub fn snapshot_io(
    rec: &mut Recorder,
    store: &PointStore,
    simp: Option<&Simplification>,
    scratch: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let kept = simp.map(|s| s.to_bitmap(store));
    let snap = scratch.join("probe.snap");
    let (write_ms, written) = timed(rec, "trajectory.snapshot_write", 3, || {
        write_snapshot_with(store, kept.as_ref(), &snap)
    });
    written.map_err(|e| err("probe snapshot write", e))?;
    out.set("trajectory.snapshot_write_ms", write_ms);
    let (open_ms, opened) = timed(rec, "trajectory.snapshot_open", 5, || {
        MappedStore::open(&snap).map(drop)
    });
    opened.map_err(|e| err("probe snapshot open", e))?;
    out.set("trajectory.snapshot_open_ms", open_ms);
    Ok(())
}

/// `trajectory` time partitioning into two shards.
pub fn partition_in_two(rec: &mut Recorder, store: &PointStore, out: &mut Outcome) {
    let strategy = PartitionStrategy::Time { parts: 2 };
    out.set(
        "trajectory.partition_ms",
        timed_ms(rec, "trajectory.partition", 3, || {
            partition(store, &strategy)
        }),
    );
}

/// `trajectory::simd`: one scan of the whole of every column, through a
/// cube no point lies in, so the kernel cannot stop early.
pub fn simd_scan(rec: &mut Recorder, store: &PointStore, out: &mut Outcome) {
    let nowhere = Cube::new(-2.0, -1.0, -2.0, -1.0, -2.0, -1.0);
    let scan_ms = timed_ms(rec, "trajectory.simd_scan", 9, || {
        trajectory::simd::any_in_cube(store.xs(), store.ys(), store.ts(), &nowhere)
    });
    out.set(
        "trajectory.simd_scan_points_per_s",
        store.total_points() as f64 / (scan_ms / 1e3).max(1e-9),
    );
}

/// `traj-index`: the octree every workload builds (per job on
/// `simplify-offline`, per `open` on the serving ones).
pub fn octree_build(rec: &mut Recorder, store: &PointStore, out: &mut Outcome) {
    out.set(
        "traj-index.octree_build_ms",
        timed_ms(rec, "traj-index.octree_build", 3, || {
            Octree::build(store, OctreeConfig::default())
        }),
    );
}

/// `traj-index`: the median tree, the serving stack's other backend.
pub fn kd_build(rec: &mut Recorder, store: &PointStore, out: &mut Outcome) {
    out.set(
        "traj-index.kd_build_ms",
        timed_ms(rec, "traj-index.kd_build", 3, || {
            MedianTree::build(store, MedianTreeConfig::default())
        }),
    );
}

/// `trajectory::delta`, the append path of an ingest: raw points in,
/// simplified points admitted, every raw point logged, one sync at the
/// end (the shape of one ingest ack).
pub fn delta_ingest(
    rec: &mut Recorder,
    store: &PointStore,
    scratch: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let wal = scratch.join("probe.wal");
    let n = store.len().min(INGEST_PROBE_TRAJS);
    let trajs: Vec<Vec<trajectory::Point>> =
        (0..n).map(|id| store.view(id).collect_points()).collect();
    let raw_points: usize = trajs.iter().map(Vec::len).sum();
    let span = rec.start("trajectory.delta_ingest", NO_PARENT, 0);
    let t = Instant::now();
    let mut delta = DeltaStore::create(&wal, Box::new(OnePassSed::new(ONEPASS_EPS)))
        .map_err(|e| err("probe WAL create", e))?;
    for pts in &trajs {
        delta
            .push_traj(pts)
            .map_err(|e| err("probe WAL append", e))?;
    }
    delta.sync().map_err(|e| err("probe WAL sync", e))?;
    let secs = t.elapsed().as_secs_f64();
    rec.end(span);
    drop(delta);
    let wal_bytes = std::fs::metadata(&wal)
        .map_err(|e| err("probe WAL size", e))?
        .len();
    out.set(
        "trajectory.delta_ingest_points_per_s",
        raw_points as f64 / secs.max(1e-9),
    );
    // A user point is three f64 coordinates.
    out.set(
        "trajectory.wal_bytes_per_user_byte",
        wal_bytes as f64 / (raw_points.max(1) * 24) as f64,
    );
    Ok(())
}

/// At most [`SIMPLIFIER_PROBE_TRAJS`] trajectories of `store`.
fn simplifier_sample(store: &PointStore) -> PointStore {
    let n = store.len().min(SIMPLIFIER_PROBE_TRAJS);
    store.gather_trajs(&(0..n).collect::<Vec<_>>())
}

/// `traj-simp`, set-up side: the batch simplifiers at a 10 % budget, in
/// input points per second.
pub fn batch_simplifiers(rec: &mut Recorder, store: &PointStore, out: &mut Outcome) {
    let store = &simplifier_sample(store);
    let points = store.total_points() as f64;
    let budget = store.total_points() / 10;
    let topdown = TopDown::new(ErrorMeasure::Sed, Adaptation::Each);
    let ms = timed_ms(rec, "traj-simp.topdown", 3, || {
        topdown.simplify_store(store, budget)
    });
    out.set(
        "traj-simp.topdown_points_per_s",
        points / (ms / 1e3).max(1e-9),
    );
    let bottomup = BottomUp::new(ErrorMeasure::Sed, Adaptation::Each);
    let ms = timed_ms(rec, "traj-simp.bottomup", 3, || {
        bottomup.simplify_store(store, budget)
    });
    out.set(
        "traj-simp.bottomup_points_per_s",
        points / (ms / 1e3).max(1e-9),
    );
}

/// `traj-simp`, write side: the one-pass simplifier of the ingest path,
/// in input points per second.
pub fn onepass_simplifier(rec: &mut Recorder, store: &PointStore, out: &mut Outcome) {
    let store = simplifier_sample(store);
    let trajs: Vec<Vec<trajectory::Point>> = store.views().map(|v| v.collect_points()).collect();
    let ms = timed_ms(rec, "traj-simp.onepass", 3, || {
        trajs
            .iter()
            .map(|pts| OnePassSed::new(ONEPASS_EPS).simplify(pts).len())
            .sum::<usize>()
    });
    out.set(
        "traj-simp.onepass_points_per_s",
        store.total_points() as f64 / (ms / 1e3).max(1e-9),
    );
}

/// `tiny-rl`: one forward pass of the cube agent's network.
pub fn tiny_rl(rec: &mut Recorder, model: &Rl4Qdts, out: &mut Outcome) {
    let (cube_agent, _) = model.agents();
    let state = vec![0.25; cube_agent.state_dim()];
    const CALLS: usize = 20_000;
    let ms = timed_ms(rec, "tiny-rl.forward_x20000", 3, || {
        (0..CALLS)
            .map(|_| cube_agent.q_values(std::hint::black_box(&state))[0])
            .sum::<f64>()
    });
    out.set("tiny-rl.forward_ns", ms * 1e6 / CALLS as f64);
}

/// `traj-serve` codec: encode and decode of a 64-query request frame and
/// encode of its response frame, with the frame sizes.
pub fn wire_codec(
    rec: &mut Recorder,
    batches: &[QueryBatch],
    answers: &[Vec<QueryResult>],
    out: &mut Outcome,
) {
    let mut enc = Vec::new();
    let mut dec = Vec::new();
    let mut enc_res = Vec::new();
    let mut req_bytes = Vec::new();
    let mut res_bytes = Vec::new();
    for (i, (batch, results)) in batches.iter().zip(answers).enumerate() {
        let id = i as u64;
        let t = Instant::now();
        let frame = rec.time("traj-serve.encode_batch", NO_PARENT, id, || {
            encode_message(&Message::Request(batch.clone()))
        });
        enc.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let decoded = rec.time("traj-serve.decode_batch", NO_PARENT, id, || {
            decode_message(&frame)
        });
        dec.push(t.elapsed().as_secs_f64() * 1e6);
        debug_assert!(decoded.is_ok());
        let t = Instant::now();
        let reply = rec.time("traj-serve.encode_results", NO_PARENT, id, || {
            encode_message(&Message::Response(results.clone()))
        });
        enc_res.push(t.elapsed().as_secs_f64() * 1e6);
        req_bytes.push(frame.len() as f64);
        res_bytes.push(reply.len() as f64);
    }
    out.set("traj-serve.encode_batch64_us", median(&enc));
    out.set("traj-serve.decode_batch64_us", median(&dec));
    out.set("traj-serve.encode_results64_us", median(&enc_res));
    out.set("traj-serve.request_bytes", median(&req_bytes));
    out.set("traj-serve.response_bytes", median(&res_bytes));
}

/// Median time in µs of `execute_batch` over `batches` on `db`, each
/// under a span called `name` carrying the batch's request id.
pub fn batch_p50_us(
    rec: &mut Recorder,
    name: &'static str,
    db: &dyn QueryExecutor,
    batches: &[QueryBatch],
) -> f64 {
    let times: Vec<f64> = batches
        .iter()
        .enumerate()
        .map(|(i, batch)| {
            let t = Instant::now();
            std::hint::black_box(rec.time(name, NO_PARENT, i as u64, || db.execute_batch(batch)));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&times)
}

/// `traj-query` per kind: median in-process `execute_one` time of the
/// queries of each kind found in the first batches.
pub fn per_kind(
    rec: &mut Recorder,
    db: &dyn QueryExecutor,
    batches: &[QueryBatch],
    out: &mut Outcome,
) {
    let mut times: [Vec<f64>; 4] = Default::default();
    for (i, batch) in batches.iter().take(8).enumerate() {
        for q in batch.queries() {
            let (slot, name) = match q {
                Query::Range(_) => (0, "traj-query.range"),
                Query::RangeKept(_) => (1, "traj-query.range_kept"),
                Query::Knn(_) => (2, "traj-query.knn"),
                Query::Similarity(_) => (3, "traj-query.similarity"),
            };
            let t = Instant::now();
            std::hint::black_box(rec.time(name, NO_PARENT, i as u64, || db.execute_one(q)));
            times[slot].push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    out.set("traj-query.range_us", median(&times[0]));
    out.set("traj-query.range_kept_us", median(&times[1]));
    out.set("traj-query.knn_us", median(&times[2]));
    out.set("traj-query.similarity_us", median(&times[3]));
}
