//! Load generator for the wire-format query server: N concurrent
//! simulated clients driving a mixed range/kNN/similarity workload,
//! reporting throughput and p50/p95/p99 latency.
//!
//! ```text
//! traj_bench_client [--clients 64] [--requests 50]
//!                   [--seed 7] [--trajectories 1000]
//!                   [--max-batch 256] [--linger-us 100]
//!                   [--cluster 0] [--writers 0]
//!                   [--out BENCH_serve.json] [--date YYYY-MM-DD]
//! ```
//!
//! `--writers N` additionally benchmarks the live-ingestion path: the
//! same dataset served from a WAL-backed `GenerationalDb` (with its
//! background compactor running), first read-only as a baseline and
//! then with N writer connections streaming ingest batches for the
//! whole read run — so "queries stay fast while writes land" is a
//! measured p99 ratio, not a claim.
//!
//! Each request carries one query (80% range, 10% kNN/EDR, 10%
//! similarity — the paper's §III-B mix); the server's admission queue
//! coalesces requests arriving concurrently across all connections
//! into shared heterogeneous engine passes.
//!
//! `--cluster N` additionally benchmarks the distributed path: the
//! dataset is time-partitioned into N shards each served by a spawned
//! `shardd` child process, and every simulated client submits to one
//! shared, coalescing [`SharedCoordinator`] — concurrent requests ride
//! the same bound-pruned wire round per shard, pipelined over pooled
//! connections — so the reported numbers include the full admission,
//! routing, fan-out, and global-merge path, and the JSON records the
//! coordinator's coalescing and pruned-frame counters.

use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use traj_query::{
    range_workload, spawn_compactor, DbOptions, Dissimilarity, GenerationalDb, KnnQuery, Query,
    QueryBatch, QueryDistribution, RangeWorkloadSpec, SimilarityQuery, TrajDb,
};
use traj_serve::{
    BatchConfig, Client, Coordinator, CoordinatorOptions, CoordinatorStats, Placement,
    ResponseStatus, ServeOptions, Server, SharedCoordinator,
};
use trajectory::gen::{generate, DatasetSpec, Scale};
use trajectory::shard::{partition, PartitionStrategy, ShardSet};
use trajectory::{KeepAll, Trajectory, TrajectoryDb};

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn flag_parse<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    flag_value(args, flag)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Builds the mixed workload: one query per request, deterministic in
/// `seed`. 80% range (paper-default 2 km × 7 day cubes anchored on
/// data), 10% kNN (EDR, k = 3, 1 h window), 10% similarity (δ = 5 km,
/// 10 min step, 1 h window).
fn build_workload(db: &TrajectoryDb, total: usize, seed: u64) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(seed);
    let spec = RangeWorkloadSpec::paper_default(total, QueryDistribution::Data);
    let cubes = range_workload(db, &spec, &mut rng);
    let bounds = db.bounding_cube();
    let m = db.len();
    let window = 3_600.0;
    let mut queries = Vec::with_capacity(total);
    for (i, cube) in cubes.into_iter().enumerate() {
        let roll = i % 10;
        if roll < 8 {
            queries.push(Query::Range(cube));
            continue;
        }
        let traj = db.get(rng.gen_range(0..m)).clone();
        let ts = traj.points().first().map(|p| p.t).unwrap_or(bounds.t_min);
        let te = (ts + window).min(bounds.t_max);
        if roll == 8 {
            queries.push(Query::Knn(KnnQuery {
                query: traj,
                ts,
                te,
                k: 3,
                measure: Dissimilarity::Edr { eps: 2_000.0 },
            }));
        } else {
            queries.push(Query::Similarity(SimilarityQuery {
                query: traj,
                ts,
                te,
                delta: 5_000.0,
                step: 600.0,
            }));
        }
    }
    queries
}

struct ModeReport {
    label: &'static str,
    requests: usize,
    elapsed_s: f64,
    throughput_rps: f64,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
    mean_us: f64,
    mean_batch: f64,
    /// Coordinator counters — cluster mode only.
    cluster_stats: Option<CoordinatorStats>,
    /// Writer-side counters — live-ingest mode only.
    ingest_stats: Option<IngestBenchStats>,
}

/// What the concurrent writers did while the read latencies above were
/// being measured.
struct IngestBenchStats {
    writers: usize,
    batches: u64,
    trajs: u64,
    points: u64,
    write_mean_us: f64,
    write_p50_us: f64,
    write_p99_us: f64,
    writes_per_s: f64,
    /// Snapshot generations the background compactor committed during
    /// the run.
    generations: u64,
}

fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() as f64 * p).ceil() as usize).clamp(1, sorted_us.len()) - 1;
    sorted_us[idx]
}

/// Runs the single-server leg: fresh server on a loopback port,
/// `clients` threads each issuing its share of `workload` as
/// single-query requests.
fn run_mode(db: TrajDb, batch: BatchConfig, workload: &[Query], clients: usize) -> ModeReport {
    let opts = ServeOptions {
        batch,
        executors: 1,
    };
    let server = Server::start(db, "127.0.0.1:0", opts).expect("bind loopback");
    let addr = server.local_addr();
    let barrier = Barrier::new(clients + 1);
    let shares: Vec<&[Query]> = (0..clients)
        .map(|c| {
            let per = workload.len() / clients;
            &workload[c * per..(c + 1) * per]
        })
        .collect();

    let mut latencies_us: Vec<f64> = Vec::with_capacity(workload.len());
    let barrier = &barrier;
    let (collected, elapsed) = std::thread::scope(|scope| {
        let handles: Vec<_> = shares
            .iter()
            .map(|share| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let mut lat = Vec::with_capacity(share.len());
                    barrier.wait();
                    for q in *share {
                        let batch = QueryBatch::from_queries(vec![q.clone()]);
                        let t0 = Instant::now();
                        let results = client.execute_batch(&batch).expect("request failed");
                        lat.push(t0.elapsed().as_secs_f64() * 1e6);
                        assert_eq!(results.len(), 1, "one result per query");
                    }
                    lat
                })
            })
            .collect();
        barrier.wait();
        let started = Instant::now();
        let collected: Vec<Vec<f64>> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (collected, started.elapsed())
    });
    for lat in collected {
        latencies_us.extend(lat);
    }

    let stats = server.stats();
    server.shutdown();
    latencies_us.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let requests = latencies_us.len();
    let elapsed_s = elapsed.as_secs_f64();
    ModeReport {
        label: "batched",
        requests,
        elapsed_s,
        throughput_rps: requests as f64 / elapsed_s,
        p50_us: percentile(&latencies_us, 0.50),
        p95_us: percentile(&latencies_us, 0.95),
        p99_us: percentile(&latencies_us, 0.99),
        mean_us: latencies_us.iter().sum::<f64>() / requests.max(1) as f64,
        mean_batch: stats.mean_batch_size(),
        cluster_stats: None,
        ingest_stats: None,
    }
}

/// Benchmarks the live-ingestion path: the dataset is served from a
/// WAL-backed [`GenerationalDb`] (background compactor running), the
/// usual reader threads measure query latency, and `writers` extra
/// connections stream 8-trajectory ingest batches while the readers
/// run. Writers are paced (a short sleep between acked batches, like a
/// telemetry fleet reporting on an interval) and budgeted (a hard cap
/// on batches per writer) so the delta grows at a realistic bounded
/// rate instead of however fast `fsync` allows — unthrottled writers on
/// a fast temp filesystem can outrun compaction without bound. With
/// `writers == 0` this is the read-only baseline over the identical
/// serving stack, so the p99 ratio isolates exactly the cost of
/// concurrent writes.
/// Hard cap on acked batches per writer connection (8 trajectories
/// each) — bounds the WAL/delta no matter how long the read run lasts.
const WRITER_BATCH_BUDGET: usize = 256;

/// Sleep between a writer's acked batches: the arrival cadence of a
/// device fleet, and the throttle that keeps ingest from degenerating
/// into an fsync speed test.
const WRITER_PACE: Duration = Duration::from_millis(4);

fn run_live(
    db: &TrajectoryDb,
    label: &'static str,
    workload: &[Query],
    clients: usize,
    writers: usize,
    batch_cfg: BatchConfig,
) -> ModeReport {
    let dir =
        std::env::temp_dir().join(format!("qdts_bench_live_{}_{}", std::process::id(), label));
    let _ = std::fs::remove_dir_all(&dir);
    let gdb = Arc::new(
        GenerationalDb::create(
            &dir,
            &db.to_store(),
            DbOptions::new(),
            Box::new(|| Box::new(KeepAll)),
        )
        .expect("create live db"),
    );
    // A low fold threshold keeps the resident delta small for the whole
    // run, so merged-view reads measure steady-state serving rather
    // than an ever-growing unfolded tail.
    let compactor = spawn_compactor(Arc::clone(&gdb), 50_000, Duration::from_millis(100));
    let opts = ServeOptions {
        batch: batch_cfg,
        executors: 1,
    };
    let server = Server::start(Arc::clone(&gdb), "127.0.0.1:0", opts).expect("bind loopback");
    let addr = server.local_addr();

    // Writers cycle through pre-generated batches so trajectory
    // generation cost never pollutes the measured ack latency.
    let pools: Vec<Vec<Trajectory>> = (0..writers)
        .map(|w| {
            generate(
                &DatasetSpec::tdrive(Scale::Smoke).with_trajectories(64),
                900 + w as u64,
            )
            .iter()
            .map(|(_, t)| t.clone())
            .collect()
        })
        .collect();

    let stop = AtomicBool::new(false);
    let barrier = Barrier::new(clients + writers + 1);
    let shares: Vec<&[Query]> = (0..clients)
        .map(|c| {
            let per = workload.len() / clients;
            &workload[c * per..(c + 1) * per]
        })
        .collect();

    let stop = &stop;
    let barrier = &barrier;
    let (read_lats, write_lats, trajs, points, elapsed, write_elapsed_s) =
        std::thread::scope(|scope| {
            let readers: Vec<_> = shares
                .iter()
                .map(|share| {
                    scope.spawn(move || {
                        let mut client = Client::connect(addr).expect("connect reader");
                        let mut lat = Vec::with_capacity(share.len());
                        barrier.wait();
                        for q in *share {
                            let batch = QueryBatch::from_queries(vec![q.clone()]);
                            let t0 = Instant::now();
                            let results = client.execute_batch(&batch).expect("read failed");
                            lat.push(t0.elapsed().as_secs_f64() * 1e6);
                            assert_eq!(results.len(), 1, "one result per query");
                        }
                        lat
                    })
                })
                .collect();
            let writer_handles: Vec<_> = pools
                .iter()
                .map(|pool| {
                    scope.spawn(move || {
                        let mut client = Client::connect(addr).expect("connect writer");
                        let mut lat = Vec::new();
                        let mut trajs = 0u64;
                        let mut points = 0u64;
                        let mut at = 0usize;
                        barrier.wait();
                        let started = Instant::now();
                        for _ in 0..WRITER_BATCH_BUDGET {
                            if stop.load(Ordering::Relaxed) {
                                break;
                            }
                            let end = (at + 8).min(pool.len());
                            let chunk = &pool[at..end];
                            at = if end == pool.len() { 0 } else { end };
                            let t0 = Instant::now();
                            let ack = client.ingest(chunk).expect("ingest failed");
                            lat.push(t0.elapsed().as_secs_f64() * 1e6);
                            trajs += u64::from(ack.accepted);
                            points += chunk.iter().map(|t| t.len() as u64).sum::<u64>();
                            std::thread::sleep(WRITER_PACE);
                        }
                        (lat, trajs, points, started.elapsed().as_secs_f64())
                    })
                })
                .collect();
            barrier.wait();
            let started = Instant::now();
            let read_lats: Vec<Vec<f64>> = readers
                .into_iter()
                .map(|h| h.join().expect("reader panicked"))
                .collect();
            let elapsed = started.elapsed();
            stop.store(true, Ordering::Relaxed);
            let mut write_lats = Vec::new();
            let mut trajs = 0u64;
            let mut points = 0u64;
            let mut write_elapsed_s = 0f64;
            for h in writer_handles {
                let (lat, t, p, secs) = h.join().expect("writer panicked");
                write_lats.extend(lat);
                trajs += t;
                points += p;
                write_elapsed_s = write_elapsed_s.max(secs);
            }
            (
                read_lats,
                write_lats,
                trajs,
                points,
                elapsed,
                write_elapsed_s,
            )
        });

    let generations = gdb.generation();
    let server_stats = server.stats();
    server.shutdown();
    compactor.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    let mut latencies_us: Vec<f64> = read_lats.into_iter().flatten().collect();
    latencies_us.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let requests = latencies_us.len();
    let elapsed_s = elapsed.as_secs_f64();

    let ingest_stats = (writers > 0).then(|| {
        let mut sorted = write_lats.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        let batches = sorted.len() as u64;
        IngestBenchStats {
            writers,
            batches,
            trajs,
            points,
            write_mean_us: sorted.iter().sum::<f64>() / (batches.max(1)) as f64,
            write_p50_us: percentile(&sorted, 0.50),
            write_p99_us: percentile(&sorted, 0.99),
            writes_per_s: if write_elapsed_s > 0.0 {
                batches as f64 / write_elapsed_s
            } else {
                0.0
            },
            generations,
        }
    });

    ModeReport {
        label,
        requests,
        elapsed_s,
        throughput_rps: requests as f64 / elapsed_s,
        p50_us: percentile(&latencies_us, 0.50),
        p95_us: percentile(&latencies_us, 0.95),
        p99_us: percentile(&latencies_us, 0.99),
        mean_us: latencies_us.iter().sum::<f64>() / requests.max(1) as f64,
        mean_batch: server_stats.mean_batch_size(),
        cluster_stats: None,
        ingest_stats,
    }
}

/// Rounds the shared coordinator's admission queue lets run at once in
/// cluster mode — the pipeline depth: how many coalesced wire
/// rounds stay in flight over the pooled shard connections. Extra
/// in-flight rounds only pay off when coordinator-side merge work can
/// overlap shard execution on other cores; on a single core they just
/// split the admission queue into smaller, less amortized rounds.
fn cluster_executors() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().clamp(1, 4))
}

/// Benchmarks the distributed path: time-partitions the dataset into
/// `shards` snapshot files served by spawned `shardd` children (all
/// started first, READY waited afterwards, so they load in parallel),
/// then has every client thread submit to one shared, coalescing
/// [`SharedCoordinator`] — concurrent requests ride the same
/// bound-pruned, pipelined wire round per shard. Time partitioning is
/// what gives bound-pruned routing leverage here: the taxis roam the
/// whole city, so spatial grid cells produce near-identical bounding
/// cubes, but per-shard time spans are mostly disjoint and the
/// workload's one-hour kNN/similarity windows route to only the
/// shards whose span they overlap.
fn run_cluster(
    db: &TrajectoryDb,
    shards: usize,
    workload: &[Query],
    clients: usize,
    batch_cfg: BatchConfig,
) -> ModeReport {
    use std::io::BufRead as _;
    use std::process::{Child, ChildStdout, Command, Stdio};

    let dir = std::env::temp_dir().join(format!("qdts_bench_cluster_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = db.to_store();
    let parts = partition(&store, &PartitionStrategy::Time { parts: shards });
    let set = ShardSet::write(&dir, &parts).expect("write shard dir");

    // shardd sits next to this binary in the target directory.
    let shardd = std::env::current_exe()
        .expect("current exe")
        .with_file_name("shardd");
    // Spawn every child before waiting for any READY line, so the
    // shards load their snapshots concurrently instead of serially.
    let mut children: Vec<Child> = Vec::new();
    let mut stdouts: Vec<ChildStdout> = Vec::new();
    for e in set.entries() {
        let mut child = Command::new(&shardd)
            .arg("--snap")
            .arg(dir.join(&e.file))
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn shardd (build it with `cargo build --release -p traj-serve --bins`)");
        stdouts.push(child.stdout.take().expect("piped stdout"));
        children.push(child);
    }
    let mut placement_parts = Vec::new();
    for (e, stdout) in set.entries().iter().zip(stdouts) {
        let mut line = String::new();
        std::io::BufReader::new(stdout)
            .read_line(&mut line)
            .expect("shardd READY line");
        let addr = line
            .trim()
            .strip_prefix("READY ")
            .expect("shardd greeting")
            .to_string();
        placement_parts.push((addr, e.global_ids.clone()));
    }
    let placement = Placement::from_parts(placement_parts).expect("placement");

    let coordinator =
        Coordinator::connect(placement, CoordinatorOptions::default()).expect("connect cluster");
    let shared = SharedCoordinator::start(coordinator, batch_cfg, cluster_executors());

    let barrier = Barrier::new(clients + 1);
    let shares: Vec<&[Query]> = (0..clients)
        .map(|c| {
            let per = workload.len() / clients;
            &workload[c * per..(c + 1) * per]
        })
        .collect();
    let barrier = &barrier;
    let shared_ref = &shared;
    let (collected, elapsed) = std::thread::scope(|scope| {
        let handles: Vec<_> = shares
            .iter()
            .map(|share| {
                scope.spawn(move || {
                    let mut lat = Vec::with_capacity(share.len());
                    barrier.wait();
                    for q in *share {
                        let batch = QueryBatch::from_queries(vec![q.clone()]);
                        let t0 = Instant::now();
                        let response = shared_ref.execute_batch(&batch).expect("cluster request");
                        lat.push(t0.elapsed().as_secs_f64() * 1e6);
                        assert_eq!(response.status, ResponseStatus::Complete);
                        assert_eq!(response.results.len(), 1, "one result per query");
                    }
                    lat
                })
            })
            .collect();
        barrier.wait();
        let started = Instant::now();
        let collected: Vec<Vec<f64>> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (collected, started.elapsed())
    });

    let stats = shared.stats();
    shared.shutdown();
    for child in &mut children {
        let _ = child.kill();
        let _ = child.wait();
    }
    let _ = std::fs::remove_dir_all(&dir);

    let mut latencies_us: Vec<f64> = collected.into_iter().flatten().collect();
    latencies_us.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let requests = latencies_us.len();
    let elapsed_s = elapsed.as_secs_f64();
    ModeReport {
        label: "cluster",
        requests,
        elapsed_s,
        throughput_rps: requests as f64 / elapsed_s,
        p50_us: percentile(&latencies_us, 0.50),
        p95_us: percentile(&latencies_us, 0.95),
        p99_us: percentile(&latencies_us, 0.99),
        mean_us: latencies_us.iter().sum::<f64>() / requests.max(1) as f64,
        mean_batch: stats.mean_coalesced_batch(),
        cluster_stats: Some(stats),
        ingest_stats: None,
    }
}

fn mode_json(r: &ModeReport) -> String {
    let mut block = format!(
        concat!(
            "    \"{}\": {{\n",
            "      \"requests\": {},\n",
            "      \"elapsed_s\": {:.3},\n",
            "      \"throughput_rps\": {:.0},\n",
            "      \"latency_us\": {{ \"mean\": {:.1}, \"p50\": {:.1}, \"p95\": {:.1}, \"p99\": {:.1} }},\n",
            "      \"mean_coalesced_batch\": {:.2}"
        ),
        r.label, r.requests, r.elapsed_s, r.throughput_rps, r.mean_us, r.p50_us, r.p95_us,
        r.p99_us, r.mean_batch,
    );
    if let Some(stats) = &r.cluster_stats {
        let per_shard: Vec<String> = stats
            .shards
            .iter()
            .map(|s| {
                format!(
                    "{{ \"sent\": {}, \"pruned\": {} }}",
                    s.frames_sent, s.frames_pruned
                )
            })
            .collect();
        block.push_str(&format!(
            concat!(
                ",\n",
                "      \"coalesced_rounds\": {},\n",
                "      \"frames\": {{\n",
                "        \"sent\": {},\n",
                "        \"pruned\": {},\n",
                "        \"per_shard\": [{}]\n",
                "      }}"
            ),
            stats.rounds,
            stats.frames_sent(),
            stats.frames_pruned(),
            per_shard.join(", "),
        ));
    }
    if let Some(w) = &r.ingest_stats {
        block.push_str(&format!(
            concat!(
                ",\n",
                "      \"ingest\": {{\n",
                "        \"writers\": {},\n",
                "        \"batches_acked\": {},\n",
                "        \"trajectories_written\": {},\n",
                "        \"points_written\": {},\n",
                "        \"write_latency_us\": {{ \"mean\": {:.1}, \"p50\": {:.1}, \"p99\": {:.1} }},\n",
                "        \"write_batches_per_s\": {:.0},\n",
                "        \"compactions_committed\": {}\n",
                "      }}"
            ),
            w.writers,
            w.batches,
            w.trajs,
            w.points,
            w.write_mean_us,
            w.write_p50_us,
            w.write_p99_us,
            w.writes_per_s,
            w.generations,
        ));
    }
    block.push_str("\n    }");
    block
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let clients: usize = flag_parse(&args, "--clients", 64);
    let requests: usize = flag_parse(&args, "--requests", 50);
    let seed: u64 = flag_parse(&args, "--seed", 7);
    let trajectories: usize = flag_parse(&args, "--trajectories", 1000);
    let max_batch: usize = flag_parse(&args, "--max-batch", 256);
    let linger_us: u64 = flag_parse(&args, "--linger-us", 100);
    let cluster: usize = flag_parse(&args, "--cluster", 0);
    let writers: usize = flag_parse(&args, "--writers", 0);
    let out = flag_value(&args, "--out")
        .unwrap_or("BENCH_serve.json")
        .to_owned();
    let date = flag_value(&args, "--date").unwrap_or("unknown").to_owned();

    let spec = DatasetSpec::tdrive(Scale::Small).with_trajectories(trajectories);
    let db = generate(&spec, 7);
    let points: usize = db.iter().map(|(_, t)| t.len()).sum();
    eprintln!(
        "dataset: {} trajectories, {} points; {} clients x {} requests",
        db.len(),
        points,
        clients,
        requests
    );
    let workload = build_workload(&db, clients * requests, seed);

    let batch_cfg = BatchConfig {
        max_queries: max_batch,
        linger: std::time::Duration::from_micros(linger_us),
    };
    let mut reports: Vec<ModeReport> = Vec::new();
    {
        let served = TrajDb::from_db(&db, DbOptions::new());
        let r = run_mode(served, batch_cfg, &workload, clients);
        eprintln!(
            "batched:     {:.0} req/s, p50 {:.0}us p95 {:.0}us p99 {:.0}us, mean batch {:.1}",
            r.throughput_rps, r.p50_us, r.p95_us, r.p99_us, r.mean_batch
        );
        reports.push(r);
    }
    if cluster > 0 {
        let r = run_cluster(&db, cluster, &workload, clients, batch_cfg);
        eprintln!(
            "cluster({cluster}): {:.0} req/s, p50 {:.0}us p95 {:.0}us p99 {:.0}us, mean coalesced {:.1}",
            r.throughput_rps, r.p50_us, r.p95_us, r.p99_us, r.mean_batch
        );
        reports.push(r);
    }
    if writers > 0 {
        let baseline = run_live(&db, "live_read_only", &workload, clients, 0, batch_cfg);
        eprintln!(
            "live read-only: {:.0} req/s, p50 {:.0}us p95 {:.0}us p99 {:.0}us",
            baseline.throughput_rps, baseline.p50_us, baseline.p95_us, baseline.p99_us
        );
        let mixed = run_live(&db, "live_ingest", &workload, clients, writers, batch_cfg);
        let w = mixed.ingest_stats.as_ref().expect("writers ran");
        eprintln!(
            "live +{writers} writers: {:.0} req/s, p50 {:.0}us p95 {:.0}us p99 {:.0}us; \
             {} trajs ({} pts) written in {} acked batches, write p99 {:.0}us, \
             {} compactions",
            mixed.throughput_rps,
            mixed.p50_us,
            mixed.p95_us,
            mixed.p99_us,
            w.trajs,
            w.points,
            w.batches,
            w.write_p99_us,
            w.generations,
        );
        reports.push(baseline);
        reports.push(mixed);
    }

    let ingest_p99_ratio = match (
        reports.iter().find(|r| r.label == "live_ingest"),
        reports.iter().find(|r| r.label == "live_read_only"),
    ) {
        (Some(m), Some(b)) if b.p99_us > 0.0 => {
            let s = m.p99_us / b.p99_us;
            eprintln!("read p99 under ingest / read-only p99 = {s:.2}x");
            Some(s)
        }
        _ => None,
    };

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"title\": \"Wire-format query serving: batched admission\",\n");
    json.push_str(&format!("  \"date\": \"{date}\",\n"));
    json.push_str(
        "  \"source\": \"crates/traj-serve/src/bin/traj_bench_client.rs (release profile)\",\n",
    );
    json.push_str(&format!(
        concat!(
            "  \"config\": {{\n",
            "    \"clients\": {},\n",
            "    \"requests_per_client\": {},\n",
            "    \"workload\": \"1 query/request: 80% range (paper-default 2km x 7d, data-anchored), 10% knn (EDR, k=3, 1h window), 10% similarity (5km, 10min step, 1h window)\",\n",
            "    \"batched_mode\": \"admission queue whose leader coalesces concurrent requests into shared heterogeneous engine passes on its own thread\",\n",
            "    \"max_batch_queries\": {},\n",
            "    \"linger_us\": {},\n",
            "    \"cluster_shards\": {},\n",
            "    \"cluster_mode\": \"time-partitioned shardd child processes behind one shared coalescing coordinator (admission/linger batching, bound-pruned routing over per-shard time spans, pipelined pooled connections, global merge); 0 = not benchmarked\",\n",
            "    \"writers\": {},\n",
            "    \"live_mode\": \"WAL-backed GenerationalDb serving (background compactor at 50k delta points): live_read_only is the baseline over the identical stack, live_ingest adds N connections streaming 8-trajectory ingest batches for the whole read run; 0 = not benchmarked\",\n",
            "    \"seed\": {}\n",
            "  }},\n"
        ),
        clients, requests, max_batch, linger_us, cluster, writers, seed
    ));
    json.push_str(&format!(
        concat!(
            "  \"dataset\": {{\n",
            "    \"spec\": \"DatasetSpec::tdrive(Scale::Small).with_trajectories({}), seed 7\",\n",
            "    \"trajectories\": {},\n",
            "    \"points\": {}\n",
            "  }},\n"
        ),
        trajectories,
        db.len(),
        points
    ));
    json.push_str("  \"modes\": {\n");
    let mode_blocks: Vec<String> = reports.iter().map(mode_json).collect();
    json.push_str(&mode_blocks.join(",\n"));
    json.push_str("\n  },\n");
    match ingest_p99_ratio {
        Some(s) => json.push_str(&format!(
            "  \"read_p99_under_ingest_over_read_only\": {s:.2}\n"
        )),
        None => json.push_str("  \"read_p99_under_ingest_over_read_only\": null\n"),
    }
    json.push_str("}\n");

    let mut f = std::fs::File::create(&out).expect("create output file");
    f.write_all(json.as_bytes()).expect("write output file");
    eprintln!("wrote {out}");
}
