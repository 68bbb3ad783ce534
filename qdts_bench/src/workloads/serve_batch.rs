//! `serve-batch`: one static `Server` over a snapshot that carries a
//! Top-Down(SED,E) 10 % kept bitmap; one client connection in a closed
//! loop, one 64-query batch per request. Ops are queries.
//!
//! The wire format, the admission layer and the `traj-query` batch path
//! do the work here; the coordinator and the delta store do none.

use std::path::Path;
use std::time::Instant;

use traj_query::{DbOptions, Query, QueryBatch, QueryExecutor, QueryResult, TrajDb};
use traj_serve::{Client, ServeOptions, Server};
use traj_simp::{write_simplified_snapshot, Adaptation, Simplifier, TopDown};
use trajectory::{ErrorMeasure, PointStore};

use super::{err, f1_probe, plain_window, tracing_overhead, SetupClock, TracedWire};
use crate::inputs::static_inputs;
use crate::measure::peak_rss_mb;
use crate::oracle::{Oracle, Tally};
use crate::probes;
use crate::report::{Outcome, RunCfg};
use crate::spans::{self, Recorder, NO_PARENT};
use crate::stats::median;

pub(crate) fn simplifier() -> TopDown {
    TopDown::new(ErrorMeasure::Sed, Adaptation::Each)
}

struct Serving {
    server: Server,
    client: Client,
    first: Vec<QueryResult>,
}

/// Raw store → simplified snapshot on disk → served → first answer.
fn set_up(store: &PointStore, snap: &Path, first: &QueryBatch) -> Result<Serving, String> {
    let simp = simplifier().simplify_store(store, store.total_points() / 10);
    write_simplified_snapshot(store, &simp, snap).map_err(|e| err("write snapshot", e))?;
    let server = Server::open(
        snap,
        DbOptions::new(),
        "127.0.0.1:0",
        ServeOptions::default(),
    )
    .map_err(|e| err("open server", e))?;
    let mut client = Client::connect(server.local_addr()).map_err(|e| err("connect", e))?;
    let first = client
        .execute_batch(first)
        .map_err(|e| err("first request", e))?;
    Ok(Serving {
        server,
        client,
        first,
    })
}

fn tear_down(serving: Serving) {
    drop(serving.client);
    serving.server.shutdown();
}

pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut tally = Tally::default();

    let t = Instant::now();
    let (store, batches, cubes) = static_inputs(cfg.sizes.static_trajs, &cfg.sizes, cfg.seed);
    let oracle_simp = simplifier().simplify_store(&store, store.total_points() / 10);
    let oracle = Oracle::new(store.clone(), Some(oracle_simp.clone()));
    let expected: Vec<Vec<QueryResult>> = batches.iter().map(|b| oracle.answers(b)).collect();
    out.set("bench.datagen_s", t.elapsed().as_secs_f64());
    out.note("peak_rss_after_datagen_mb", peak_rss_mb());
    out.note("trajectories", store.len());
    out.note("points", store.total_points());

    let snap = cfg.scratch.join("serve.snap");
    let mut clock = SetupClock::new();
    let mut serving = clock.time(|| set_up(&store, &snap, &batches[0]))?;
    out.note("peak_rss_after_setup_mb", peak_rss_mb());
    tally.check_batch(&serving.first, &expected[0], 0);

    // Fixed probe state: the served snapshot, before the window opens.
    let client = &mut serving.client;
    let f1 = f1_probe(&cubes, &oracle, &mut tally, |b| {
        client.execute_batch(b).map_err(|e| e.to_string())
    });
    out.set("f1_range", f1);
    let bytes = std::fs::metadata(&snap)
        .map_err(|e| err("snapshot size", e))?
        .len();
    out.set(
        "stored_bytes_per_point",
        bytes as f64 / store.total_points() as f64,
    );

    let check = |t: &mut Tally, b: usize, got: &[QueryResult]| t.check_batch(got, &expected[b], b);
    if !cfg.trace {
        plain_window(
            cfg,
            &batches,
            &mut out,
            &mut tally,
            |_, b| client.execute_batch(b).map_err(|e| e.to_string()),
            check,
        );
    } else {
        let mut rec = Recorder::new();
        let mut wire = TracedWire::connect(serving.server.local_addr())?;
        let request_p50_us = tracing_overhead(
            cfg,
            &batches,
            &mut out,
            &mut tally,
            |_, b| client.execute_batch(b).map_err(|e| e.to_string()),
            |i, b| wire.execute_batch(&mut rec, "request", i as u64, b),
            check,
        );
        out.set(
            "traj-serve.mean_batch_size",
            serving.server.stats().mean_batch_size(),
        );

        // The same batches in process, under the same request ids.
        let local = TrajDb::open(&snap, DbOptions::new()).map_err(|e| err("open in process", e))?;
        let engine_us =
            probes::batch_p50_us(&mut rec, "traj-query.execute_batch", &local, &batches);
        out.set("traj-query.batch64_us", engine_us);
        probes::per_kind(&mut rec, &local, &batches, &mut out);
        probes::wire_codec(&mut rec, &batches, &expected, &mut out);
        single_query(&mut rec, &mut wire, &local, &batches, &mut out, &mut tally);
        // Set-up side: what `set_up` spends its time in.
        probes::batch_simplifiers(&mut rec, &store, &mut out);
        probes::snapshot_io(&mut rec, &store, Some(&oracle_simp), &cfg.scratch, &mut out)?;
        probes::octree_build(&mut rec, &store, &mut out);
        probes::kd_build(&mut rec, &store, &mut out);
        probes::simd_scan(&mut rec, &store, &mut out);
        out.note(
            "engine_share_of_request",
            engine_us / request_p50_us.max(1e-9),
        );

        spans::file(cfg, &rec, &mut out)?;
    }

    tear_down(serving);
    clock.repeat(
        &cfg.sizes,
        &mut out,
        || set_up(&store, &snap, &batches[0]),
        tear_down,
    )?;
    Ok(out.finish(tally))
}

/// One query per request: the round trip over the wire, the same query
/// in process, and the codec for one query. What is left over is the
/// per-request fixed cost — wake-ups, admission linger, socket — that
/// ROADMAP calls the unattributed ~120 µs.
fn single_query(
    rec: &mut Recorder,
    wire: &mut TracedWire,
    local: &TrajDb,
    batches: &[QueryBatch],
    out: &mut Outcome,
    tally: &mut Tally,
) {
    let queries: Vec<&Query> = batches.iter().flat_map(|b| b.queries()).take(512).collect();
    let mut overhead = Vec::with_capacity(queries.len());
    let mut round_trips = Vec::with_capacity(queries.len());
    let first_span = rec.spans().len();
    for (i, q) in queries.iter().enumerate() {
        let id = 1_000_000 + i as u64;
        let batch = QueryBatch::from_queries(vec![(*q).clone()]);
        let t = Instant::now();
        let reply = wire.execute_batch(rec, "single.request", id, &batch);
        let round_trip = t.elapsed().as_secs_f64() * 1e6;
        let t = Instant::now();
        let want = rec.time("single.execute_one", NO_PARENT, id, || local.execute_one(q));
        let in_process = t.elapsed().as_secs_f64() * 1e6;
        tally.check(reply.as_ref().is_ok_and(|r| r[..] == [want]), || {
            format!("single-query request {i} differs from in-process execution")
        });
        round_trips.push(round_trip);
        overhead.push(round_trip - in_process);
    }
    // Codec share of a one-query request: the client's encode and decode
    // are spans of the traced client; the server's mirror them.
    let recent = &rec.spans()[first_span..];
    let codec: f64 = ["wire.encode", "wire.decode"]
        .iter()
        .map(|name| {
            let d: Vec<f64> = recent
                .iter()
                .filter(|s| s.name == *name)
                .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
                .collect();
            2.0 * median(&d)
        })
        .sum();
    out.set("traj-serve.single_query_p50_us", median(&round_trips));
    out.set("traj-serve.request_overhead_us", median(&overhead) - codec);
}
