//! `live-rw`: the same `Server`, now over a `GenerationalDb` — a raw base
//! generation, a WAL-backed delta fed through the one-pass SED
//! simplifier, and a background compactor — with writes beside reads.
//!
//! Reader: one connection, closed loop, 64-query batches (50 % range,
//! 25 % kNN, 25 % similarity). Writer: one connection, *open loop* at 20
//! ingest frames a second of one trajectory each, every frame timed from
//! the moment it was due. Ops are the reader's queries; throughput and
//! latency are the reader's.
//!
//! The write rate is sized so that the reader's p95 sits on a flat part of
//! its latency distribution. At 20 trajectories a second the delta reaches
//! the compaction threshold every ~5 s, so a compaction's ~100 ms touches
//! ~2 % of the requests and under half of the 2 s slices, and the database
//! grows ~10 % over a 20 s window. Four trajectories a frame folded every
//! 1.3 s: ~6 % of the requests ran beside a compaction, so whether p95 read
//! a compaction-time or a quiet-time request was decided by chance, and
//! the database grew by half within the window (README.md has the series).
//!
//! A gain for the static path that costs the merged base + delta path
//! shows here and nowhere else.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use traj_query::{
    spawn_compactor, CompactorHandle, DbOptions, GenerationalDb, Query, QueryBatch, QueryExecutor,
    QueryResult, SimpFactory, TrajDb,
};
use traj_serve::{Client, ServeOptions, Server};
use traj_simp::OnePassSed;
use trajectory::{PointStore, TrajId, Trajectory, TrajectoryDb};

use super::{err, plain_window, tracing_overhead, SetupClock, TracedWire};
use crate::inputs::{batches, corpus, dataset, probe_cubes, sub_seed, Mix};
use crate::measure::{dir_bytes, peak_rss_mb};
use crate::oracle::{mean_f1_of, Oracle, Tally};
use crate::probes::{self, ONEPASS_EPS};
use crate::report::{Outcome, RunCfg};
use crate::spans::{self, Recorder, NO_PARENT};
use crate::stats::percentile;

/// Trajectories ingested before the window opens; with the base they are
/// the fixed state `f1_range` and `stored_bytes_per_point` are read at.
const FIXED_INGEST: usize = 64;
/// Trajectories per ingest frame of the set-up's fixed ingest.
const SETUP_FRAME: usize = 4;
/// Trajectories per ingest frame of the writer beside the window.
const FRAME: usize = 1;
/// The writer's schedule: one frame every 50 ms, whatever the server does.
const FRAME_EVERY: Duration = Duration::from_millis(50);
/// How often the compactor looks at the delta (`spawn_compactor`'s poll).
const COMPACTOR_POLL: Duration = Duration::from_millis(100);

fn factory() -> SimpFactory {
    Box::new(|| Box::new(OnePassSed::new(ONEPASS_EPS)))
}

/// What the write path makes of one raw trajectory.
fn simplified(t: &Trajectory) -> Vec<trajectory::Point> {
    OnePassSed::new(ONEPASS_EPS).simplify(t.points())
}

/// From-scratch rebuild: the base plus every given trajectory through the
/// same simplifier, in ingest order (which is id order).
fn rebuild(base: &PointStore, ingested: &[Trajectory]) -> PointStore {
    let mut store = base.clone();
    for t in ingested {
        store.push_points(&simplified(t));
    }
    store
}

struct Live {
    db: Arc<GenerationalDb>,
    compactor: CompactorHandle,
    server: Server,
    reader: Client,
    first: Vec<QueryResult>,
}

impl Live {
    fn serve(
        db: GenerationalDb,
        threshold: usize,
        first: &QueryBatch,
        ingest: &[Trajectory],
    ) -> Result<Live, String> {
        let db = Arc::new(db);
        let compactor = spawn_compactor(Arc::clone(&db), threshold, COMPACTOR_POLL);
        let server = Server::start(Arc::clone(&db), "127.0.0.1:0", ServeOptions::default())
            .map_err(|e| err("start live server", e))?;
        if !ingest.is_empty() {
            let mut writer = Client::connect(server.local_addr()).map_err(|e| err("connect", e))?;
            for frame in ingest.chunks(SETUP_FRAME) {
                let ack = writer.ingest(frame).map_err(|e| err("set-up ingest", e))?;
                if ack.accepted as usize != frame.len() {
                    return Err(format!("set-up ingest: {} rejected", ack.rejected));
                }
            }
        }
        let mut reader = Client::connect(server.local_addr()).map_err(|e| err("connect", e))?;
        let first = reader
            .execute_batch(first)
            .map_err(|e| err("first request", e))?;
        Ok(Live {
            db,
            compactor,
            server,
            reader,
            first,
        })
    }

    /// Everything down, the directory left as a crash would leave it
    /// (every acked write is already synced).
    fn stop(self) {
        drop(self.reader);
        self.server.shutdown();
        self.compactor.shutdown();
        drop(self.db);
    }
}

/// Raw base → live database created → compactor → served → 64-trajectory
/// ingest → first answer → stop → recovery from the directory → served
/// again → first answer.
fn set_up(
    cfg: &RunCfg,
    dir: &Path,
    base: &PointStore,
    fixed: &[Trajectory],
    first: &QueryBatch,
) -> Result<Live, String> {
    let _ = std::fs::remove_dir_all(dir);
    let threshold = cfg.sizes.compact_threshold;
    let db = GenerationalDb::create(dir, base, DbOptions::new(), factory())
        .map_err(|e| err("create live database", e))?;
    Live::serve(db, threshold, first, fixed)?.stop();
    let db = GenerationalDb::open(dir, DbOptions::new(), factory())
        .map_err(|e| err("recover live database", e))?;
    Live::serve(db, threshold, first, &[])
}

/// What the writer thread saw.
#[derive(Default)]
struct WriterReport {
    /// Trajectories acknowledged, in order.
    acked: usize,
    /// Per frame: due → ack, in µs (open loop: timed from the due time).
    ack_us: Vec<f64>,
    /// Per frame: how late after its due time it was sent, in µs.
    late_us: Vec<f64>,
    /// Send and ack instants, for the span file.
    calls: Vec<(Instant, Instant)>,
    delta_points_max: usize,
    error: Option<String>,
}

/// Open-loop writer: frame `k` is due at `k · FRAME_EVERY`; a frame that
/// finds the writer behind goes out at once and its wait counts.
fn write_loop(
    addr: std::net::SocketAddr,
    pool: &[Trajectory],
    db: &GenerationalDb,
    stop: &AtomicBool,
) -> WriterReport {
    let mut report = WriterReport::default();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            report.error = Some(err("writer connect", e));
            return report;
        }
    };
    let start = Instant::now();
    for (k, frame) in pool.chunks_exact(FRAME).enumerate() {
        let due = start + FRAME_EVERY * k as u32;
        while Instant::now() < due && !stop.load(Ordering::Relaxed) {
            std::thread::sleep((due - Instant::now()).min(Duration::from_millis(5)));
        }
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let sent = Instant::now();
        match client.ingest(frame) {
            Ok(ack) if ack.accepted as usize == frame.len() => {}
            Ok(ack) => {
                report.error = Some(format!("frame {k}: {} trajectories rejected", ack.rejected));
                break;
            }
            Err(e) => {
                report.error = Some(err("ingest", e));
                break;
            }
        }
        let acked = Instant::now();
        report.acked += frame.len();
        report.ack_us.push((acked - due).as_secs_f64() * 1e6);
        report.late_us.push((sent - due).as_secs_f64() * 1e6);
        report.calls.push((sent, acked));
        report.delta_points_max = report.delta_points_max.max(db.delta_points());
    }
    report
}

/// Range and similarity answers are per-trajectory decisions, so whatever
/// the writer has added since, the answer cut down to the fixed state's
/// ids must equal the fixed state's answer exactly. A kNN answer depends
/// on its competitors; in the window only its shape can be checked (every
/// answer is compared in full once the writer has stopped).
fn check_in_window(
    tally: &mut Tally,
    request: usize,
    batch: &QueryBatch,
    got: &[QueryResult],
    fixed: &[QueryResult],
    fixed_len: usize,
) {
    for (i, q) in batch.queries().iter().enumerate() {
        let ok = match (q, got.get(i), &fixed[i]) {
            (Query::Knn(k), Some(QueryResult::Knn(ids)), _) => {
                ids.len() == k.k && ids.windows(2).all(|w| w[0] < w[1])
            }
            (_, Some(QueryResult::Range(ids)), QueryResult::Range(want))
            | (_, Some(QueryResult::Similarity(ids)), QueryResult::Similarity(want)) => {
                ids.windows(2).all(|w| w[0] < w[1])
                    && ids.iter().take_while(|&&id| id < fixed_len).eq(want.iter())
            }
            _ => false,
        };
        tally.check(ok, || {
            format!("request {request}, query {i}: answer contradicts the fixed-state oracle")
        });
    }
}

pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut tally = Tally::default();

    let t = Instant::now();
    let base_db = dataset(cfg.sizes.live_trajs, corpus::BASE);
    let base = base_db.to_store();
    // The writer never runs out: its whole schedule, and some to spare.
    let frames = ((cfg.sizes.warmup_s + cfg.seconds) / FRAME_EVERY.as_secs_f64()) as usize + 40;
    let pool: Vec<Trajectory> = dataset(FIXED_INGEST + frames * FRAME, corpus::WRITER)
        .trajectories()
        .to_vec();
    let (fixed, stream) = pool.split_at(FIXED_INGEST);
    let batches = batches(
        &base_db,
        cfg.sizes.live_batches,
        Mix::LIVE,
        sub_seed(cfg.seed, 1),
    );
    let fixed_len = base.len() + FIXED_INGEST;
    let fixed_oracle = Oracle::new(rebuild(&base, fixed), None);
    let fixed_answers: Vec<Vec<QueryResult>> =
        batches.iter().map(|b| fixed_oracle.answers(b)).collect();
    // F1 probe: cubes anchored on the ingested trajectories, truth from
    // their raw points.
    let fixed_raw = TrajectoryDb::new(fixed.to_vec());
    let cubes = probe_cubes(&fixed_raw, cfg.sizes.probe_cubes, corpus::PROBE);
    let raw_oracle = Oracle::new(fixed_raw.to_store(), None);
    out.set("bench.datagen_s", t.elapsed().as_secs_f64());
    out.note("peak_rss_after_datagen_mb", peak_rss_mb());
    out.note("base_trajectories", base.len());
    out.note("base_points", base.total_points());
    out.note("onepass_eps_m", ONEPASS_EPS);
    out.note("compact_threshold_points", cfg.sizes.compact_threshold);

    let dir = cfg.scratch.join("live");
    let mut clock = SetupClock::new();
    let mut live = clock.time(|| set_up(cfg, &dir, &base, fixed, &batches[0]))?;
    out.note("peak_rss_after_setup_mb", peak_rss_mb());
    tally.check_batch(&live.first, &fixed_answers[0], 0);

    // Fixed probe state: base + the 64 ingested trajectories, recovered
    // from disk, nothing compacted yet.
    out.note("probe_delta_points", live.db.delta_points());
    tally.check(live.db.generation() == 0, || {
        "the probe state is not the fixed one: the set-up ingest alone reached the compaction threshold"
            .to_owned()
    });
    let raw_points = base.total_points() + fixed.iter().map(Trajectory::len).sum::<usize>();
    let bytes = dir_bytes(&dir).map_err(|e| err("live directory size", e))?;
    out.set("stored_bytes_per_point", bytes as f64 / raw_points as f64);
    let mut truth: Vec<Vec<TrajId>> = Vec::new();
    let mut got: Vec<Vec<TrajId>> = Vec::new();
    for chunk in cubes.chunks(crate::inputs::BATCH) {
        let batch: QueryBatch = chunk.iter().map(|c| Query::Range(*c)).collect();
        let answers = live.reader.execute_batch(&batch).unwrap_or_default();
        for (i, cube) in chunk.iter().enumerate() {
            // What users get back for the ingested trajectories, against
            // what their raw points would have answered.
            let ids = answers.get(i).and_then(|r| r.ids());
            tally.check(ids.is_some(), || "F1 probe: no range answer".to_owned());
            got.push(
                ids.unwrap_or_default()
                    .iter()
                    .filter(|&&id| id >= base.len())
                    .map(|id| id - base.len())
                    .collect(),
            );
            truth.push(raw_oracle.range(cube));
        }
    }
    out.set("f1_range", mean_f1_of(&truth, &got));

    // The window: reader here, writer on its own thread.
    let addr = live.server.local_addr();
    let stop = AtomicBool::new(false);
    let mut rec = Recorder::new();
    let reader = &mut live.reader;
    let db = &live.db;
    let check = |t: &mut Tally, b: usize, got: &[QueryResult]| {
        check_in_window(t, b, &batches[b], got, &fixed_answers[b], fixed_len)
    };
    let writer = std::thread::scope(|scope| -> Result<WriterReport, String> {
        let writer = scope.spawn(|| write_loop(addr, stream, db, &stop));
        let measured = (|| {
            if !cfg.trace {
                plain_window(
                    cfg,
                    &batches,
                    &mut out,
                    &mut tally,
                    |_, b| reader.execute_batch(b).map_err(|e| e.to_string()),
                    check,
                );
            } else {
                let mut wire = TracedWire::connect(addr)?;
                tracing_overhead(
                    cfg,
                    &batches,
                    &mut out,
                    &mut tally,
                    |_, b| reader.execute_batch(b).map_err(|e| e.to_string()),
                    |i, b| wire.execute_batch(&mut rec, "request", i as u64, b),
                    check,
                );
            }
            Ok(())
        })();
        stop.store(true, Ordering::Relaxed);
        let report = writer.join().expect("writer thread panicked");
        measured.map(|()| report)
    })?;
    if let Some(e) = &writer.error {
        tally.refused(FRAME as u64, || format!("writer: {e}"));
    }
    let mut acks = writer.ack_us.clone();
    acks.sort_by(f64::total_cmp);
    let mut late = writer.late_us.clone();
    late.sort_by(f64::total_cmp);
    out.set("traj-serve.ingest_ack_p50_us", percentile(&acks, 0.50));
    out.set("traj-serve.ingest_ack_p95_us", percentile(&acks, 0.95));
    out.set("traj-serve.writer_late_p95_us", percentile(&late, 0.95));
    out.set(
        "traj-query.delta_points_max",
        writer.delta_points_max as f64,
    );
    out.set("traj-query.compactions", live.db.generation() as f64);
    out.set(
        "traj-serve.mean_batch_size",
        live.server.stats().mean_batch_size(),
    );
    out.note("trajectories_ingested_in_run", writer.acked);

    // Writer stopped: every query, in full, against a from-scratch
    // rebuild of base + everything acknowledged.
    let ingested = &pool[..FIXED_INGEST + writer.acked];
    let rebuilt = rebuild(&base, ingested);
    let final_oracle = Oracle::new(rebuilt.clone(), None);
    for (b, batch) in batches.iter().enumerate() {
        match live.reader.execute_batch(batch) {
            Ok(answers) => tally.check_batch(&answers, &final_oracle.answers(batch), b),
            Err(e) => tally.refused(batch.len() as u64, || format!("final check {b}: {e}")),
        }
    }
    drop(final_oracle);

    // Stop everything, reopen the directory: every acknowledged
    // trajectory must be there, as the simplifier left it.
    live.stop();
    let reopened = GenerationalDb::open(&dir, DbOptions::new(), factory())
        .map_err(|e| err("reopen live database", e))?;
    tally.check(reopened.len() == base.len() + ingested.len(), || {
        format!(
            "reopened database holds {} trajectories, {} were acknowledged",
            reopened.len(),
            base.len() + ingested.len()
        )
    });
    for (i, t) in ingested.iter().enumerate() {
        let id = base.len() + i;
        let readable = id < reopened.len() && reopened.trajectory(id).points() == simplified(t);
        tally.check(readable, || {
            format!("acknowledged trajectory {id} is not readable after reopen")
        });
    }
    drop(reopened);

    if cfg.trace {
        for (k, (sent, acked)) in writer.calls.iter().enumerate() {
            rec.record("traj-serve.ingest", 2_000_000 + k as u64, *sent, *acked);
        }
        replay(cfg, &mut rec, &base, ingested, &rebuilt, &batches, &mut out)?;
        spans::file(cfg, &rec, &mut out)?;
    }

    clock.repeat(
        &cfg.sizes,
        &mut out,
        || set_up(cfg, &dir, &base, fixed, &batches[0]),
        Live::stop,
    )?;
    Ok(out.finish(tally))
}

/// The same batches in process: the merged base + delta view, the same
/// data as one static store, and the merged view with nothing in its
/// delta against the static base (the price of being writable).
fn replay(
    cfg: &RunCfg,
    rec: &mut Recorder,
    base: &PointStore,
    ingested: &[Trajectory],
    rebuilt: &PointStore,
    batches: &[QueryBatch],
    out: &mut Outcome,
) -> Result<(), String> {
    let open = |name: &str| {
        let dir = cfg.scratch.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        GenerationalDb::create(&dir, base, DbOptions::new(), factory())
            .map_err(|e| err("create replay database", e))
    };
    let merged = open("replay-merged")?;
    merged
        .ingest(ingested)
        .map_err(|e| err("replay ingest", e))?;
    let merged_us = probes::batch_p50_us(rec, "traj-query.generational_batch", &merged, batches);
    out.set("traj-query.generational_batch64_us", merged_us);
    probes::per_kind(rec, &merged, batches, out);
    let answers: Vec<_> = batches.iter().map(|b| merged.execute_batch(b)).collect();
    // One fold into the next generation, timed here because the stock
    // compactor does not say how long its passes take. The base's column
    // copy, snapshot write and index rebuild dominate a pass, whatever
    // the delta holds.
    let t = Instant::now();
    rec.time("traj-query.compact", NO_PARENT, 0, || merged.compact())
        .map_err(|e| err("replay compaction", e))?;
    out.set("traj-query.compaction_ms", t.elapsed().as_secs_f64() * 1e3);
    drop(merged);

    let fixed = TrajDb::from_store(rebuilt.clone(), DbOptions::new());
    out.set(
        "traj-query.batch64_us",
        probes::batch_p50_us(rec, "traj-query.execute_batch", &fixed, batches),
    );
    drop(fixed);

    let empty = open("replay-empty")?;
    let empty_us =
        probes::batch_p50_us(rec, "traj-query.generational_batch_empty", &empty, batches);
    drop(empty);
    let base_only = TrajDb::from_store(base.clone(), DbOptions::new());
    let base_us = probes::batch_p50_us(rec, "traj-query.execute_batch_base", &base_only, batches);
    out.set(
        "traj-query.empty_delta_tax_ratio",
        empty_us / base_us.max(1e-9),
    );

    probes::wire_codec(rec, batches, &answers, out);
    // Write side, then what `create`, `open` and every compaction spend
    // their time in.
    probes::delta_ingest(rec, base, &cfg.scratch, out)?;
    probes::onepass_simplifier(rec, base, out);
    probes::snapshot_io(rec, base, None, &cfg.scratch, out)?;
    probes::octree_build(rec, base, out);
    probes::kd_build(rec, base, out);
    probes::simd_scan(rec, base, out);
    Ok(())
}
