//! `cluster-batch`: a `Coordinator` over two time-partitioned shard
//! `Server`s, each the same `Server` that `shardd` wraps but hosted on
//! threads of this process — child processes beside the load generator on
//! two cores made an earlier version of this benchmark swing by tens of
//! per cent. One caller, one 64-query batch per
//! `Coordinator::execute_batch`. Ops are queries.
//!
//! The same database as `serve-batch` (and the same batches for a seed),
//! so routing, fan-out, shard frames and the global merge are all that
//! separates the two workloads' numbers.

use std::path::Path;
use std::time::Instant;

use traj_query::{DbOptions, QueryBatch, QueryResult, TrajDb};
use traj_serve::{
    Coordinator, CoordinatorOptions, Placement, ResponseStatus, ServeOptions, Server,
};
use traj_simp::{simplify_shards, write_simplified_shard_set};
use trajectory::{partition, PartitionStrategy, PointStore, Shard, Simplification};

use super::serve_batch::simplifier;
use super::{err, f1_probe, plain_window, tracing_overhead, SetupClock};
use crate::inputs::static_inputs;
use crate::measure::peak_rss_mb;
use crate::oracle::{Oracle, Tally};
use crate::probes;
use crate::report::{Outcome, RunCfg};
use crate::spans::{self, Recorder, NO_PARENT};

const SHARDS: usize = 2;
const STRATEGY: PartitionStrategy = PartitionStrategy::Time { parts: SHARDS };

struct Cluster {
    servers: Vec<Server>,
    coordinator: Coordinator,
    first: Vec<QueryResult>,
}

fn ask(coordinator: &Coordinator, batch: &QueryBatch) -> Result<Vec<QueryResult>, String> {
    let response = coordinator
        .execute_batch(batch)
        .map_err(|e| e.to_string())?;
    if response.status != ResponseStatus::Complete {
        return Err(format!("degraded answer: {:?}", response.status));
    }
    Ok(response.results)
}

/// Raw store → partitioned, simplified shard set on disk → one server per
/// shard → coordinator connected → first answer.
fn set_up(store: &PointStore, dir: &Path, first: &QueryBatch) -> Result<Cluster, String> {
    let _ = std::fs::remove_dir_all(dir);
    let shards = partition(store, &STRATEGY);
    let simps = simplify_shards(&simplifier(), &shards, store.total_points() / 10);
    let set =
        write_simplified_shard_set(dir, &shards, &simps).map_err(|e| err("write shards", e))?;
    let mut servers = Vec::with_capacity(set.len());
    let mut parts = Vec::with_capacity(set.len());
    for entry in set.entries() {
        let server = Server::open(
            dir.join(&entry.file),
            DbOptions::new(),
            "127.0.0.1:0",
            ServeOptions::default(),
        )
        .map_err(|e| err("open shard server", e))?;
        parts.push((server.local_addr().to_string(), entry.global_ids.clone()));
        servers.push(server);
    }
    let placement = Placement::from_parts(parts).map_err(|e| err("placement", e))?;
    let coordinator = Coordinator::connect(placement, CoordinatorOptions::default())
        .map_err(|e| err("connect coordinator", e))?;
    let first = ask(&coordinator, first).map_err(|e| err("first request", e))?;
    Ok(Cluster {
        servers,
        coordinator,
        first,
    })
}

fn tear_down(cluster: Cluster) {
    drop(cluster.coordinator);
    for server in cluster.servers {
        server.shutdown();
    }
}

/// The simplified database the shard set persists, in global ids: each
/// shard simplifies on its own with its slice of the budget.
fn global_simplification(store: &PointStore, shards: &[Shard]) -> Simplification {
    let simps = simplify_shards(&simplifier(), shards, store.total_points() / 10);
    let mut kept: Vec<Vec<u32>> = vec![Vec::new(); store.len()];
    for (shard, simp) in shards.iter().zip(&simps) {
        for (local, &global) in shard.global_ids.iter().enumerate() {
            kept[global] = simp.kept(local).to_vec();
        }
    }
    Simplification::from_kept_store(store, kept)
}

pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut tally = Tally::default();

    let t = Instant::now();
    let (store, batches, cubes) = static_inputs(cfg.sizes.static_trajs, &cfg.sizes, cfg.seed);
    let oracle_simp = global_simplification(&store, &partition(&store, &STRATEGY));
    let oracle = Oracle::new(store.clone(), Some(oracle_simp.clone()));
    let expected: Vec<Vec<QueryResult>> = batches.iter().map(|b| oracle.answers(b)).collect();
    out.set("bench.datagen_s", t.elapsed().as_secs_f64());
    out.note("peak_rss_after_datagen_mb", peak_rss_mb());
    out.note("trajectories", store.len());
    out.note("points", store.total_points());
    out.note("shards", SHARDS);

    let dir = cfg.scratch.join("shards");
    let mut clock = SetupClock::new();
    let cluster = clock.time(|| set_up(&store, &dir, &batches[0]))?;
    out.note("peak_rss_after_setup_mb", peak_rss_mb());
    tally.check_batch(&cluster.first, &expected[0], 0);

    let coordinator = &cluster.coordinator;
    let f1 = f1_probe(&cubes, &oracle, &mut tally, |b| ask(coordinator, b));
    out.set("f1_range", f1);
    let bytes = crate::measure::dir_bytes(&dir).map_err(|e| err("shard set size", e))?;
    out.set(
        "stored_bytes_per_point",
        bytes as f64 / store.total_points() as f64,
    );

    let check = |t: &mut Tally, b: usize, got: &[QueryResult]| t.check_batch(got, &expected[b], b);
    if !cfg.trace {
        let issue = |_, b: &QueryBatch| ask(coordinator, b);
        plain_window(cfg, &batches, &mut out, &mut tally, issue, check);
    } else {
        let mut rec = Recorder::new();
        let before = coordinator.stats();
        let request_p50_us = tracing_overhead(
            cfg,
            &batches,
            &mut out,
            &mut tally,
            |_, b| ask(coordinator, b),
            // The coordinator is a library, not a socket: the span wraps
            // the public call the caller makes.
            |i, b| rec.time("request", NO_PARENT, i as u64, || ask(coordinator, b)),
            check,
        );
        let after = coordinator.stats();
        let rounds = after.rounds - before.rounds;
        let sent = after.frames_sent() - before.frames_sent();
        let pruned = after.frames_pruned() - before.frames_pruned();
        out.set("traj-serve.rounds", rounds as f64);
        out.set("traj-serve.frames_sent", sent as f64);
        out.set(
            "traj-serve.frames_pruned_share",
            pruned as f64 / ((sent + pruned) as f64).max(1.0),
        );
        out.set(
            "traj-serve.mean_batch_size",
            (after.queries - before.queries) as f64 / (rounds as f64).max(1.0),
        );

        // The same batches in process: fan-out and merge without sockets
        // (the shard directory), and no fan-out at all (one store).
        let sharded = TrajDb::open(&dir, DbOptions::new()).map_err(|e| err("open shard set", e))?;
        let sharded_us =
            probes::batch_p50_us(&mut rec, "traj-query.sharded_batch", &sharded, &batches);
        out.set("traj-query.sharded_batch64_us", sharded_us);
        out.set(
            "traj-serve.coordinator_overhead_us",
            request_p50_us - sharded_us,
        );
        probes::per_kind(&mut rec, &sharded, &batches, &mut out);
        drop(sharded);
        let single = TrajDb::from_store(store.clone(), DbOptions::new());
        let single_us =
            probes::batch_p50_us(&mut rec, "traj-query.execute_batch", &single, &batches);
        out.set("traj-query.batch64_us", single_us);
        drop(single);
        probes::wire_codec(&mut rec, &batches, &expected, &mut out);
        // Set-up side: what `set_up` spends its time in.
        probes::partition_in_two(&mut rec, &store, &mut out);
        probes::batch_simplifiers(&mut rec, &store, &mut out);
        probes::snapshot_io(&mut rec, &store, Some(&oracle_simp), &cfg.scratch, &mut out)?;
        probes::octree_build(&mut rec, &store, &mut out);
        probes::kd_build(&mut rec, &store, &mut out);
        probes::simd_scan(&mut rec, &store, &mut out);

        spans::file(cfg, &rec, &mut out)?;
    }

    tear_down(cluster);
    clock.repeat(
        &cfg.sizes,
        &mut out,
        || set_up(&store, &dir, &batches[0]),
        tear_down,
    )?;
    Ok(out.finish(tally))
}
