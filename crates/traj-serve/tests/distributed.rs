//! Multi-process distributed serving tests: a fleet of `shardd` child
//! processes (one per shard snapshot) behind a [`Coordinator`] answers
//! byte-identically to opening the same shard directory in-process —
//! across time partitions of several part counts, every index backend,
//! and plain as well as quantized shard files — and
//! injected failures (killed shards, stalled responses, in-flight
//! corruption) surface as typed errors or correct degraded answers,
//! never silently wrong ones.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use traj_query::{
    knn_take_fill, merge_knn_candidates, DbOptions, Dissimilarity, KnnQuery, Query, QueryBatch,
    QueryExecutor, QueryResult, SimilarityQuery, TrajDb,
};
use traj_serve::wire::{encode_message, Message};
use traj_serve::{
    BatchConfig, Coordinator, CoordinatorError, CoordinatorOptions, FailurePolicy, Fault,
    FaultDirection, FaultProxy, Placement, ResponseStatus, ShardInfo, SharedCoordinator, WireError,
};
use trajectory::gen::{generate, DatasetSpec, Scale};
use trajectory::shard::{partition, PartitionStrategy, ShardSet};
use trajectory::{KeptBitmap, TrajId, TrajectoryDb};

fn unique_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join("qdts_distributed_tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!(
        "{tag}_{}_{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

fn dataset() -> TrajectoryDb {
    generate(&DatasetSpec::tdrive(Scale::Smoke).with_trajectories(24), 3)
}

/// A batch exercising every query variant (both kNN measures included).
fn mixed_batch(db: &TrajectoryDb) -> QueryBatch {
    let bounds = db.bounding_cube();
    let mid_t = (bounds.t_min + bounds.t_max) / 2.0;
    let cube = trajectory::Cube::new(
        bounds.x_min,
        (bounds.x_min + bounds.x_max) / 2.0,
        bounds.y_min,
        (bounds.y_min + bounds.y_max) / 2.0,
        bounds.t_min,
        mid_t,
    );
    let probe = db.get(0).clone();
    let ts = bounds.t_min;
    let te = mid_t;
    QueryBatch::from_queries(vec![
        Query::Range(cube),
        Query::Knn(KnnQuery {
            query: probe.clone(),
            ts,
            te,
            k: 3,
            measure: Dissimilarity::Edr { eps: 2_000.0 },
        }),
        Query::Knn(KnnQuery {
            query: probe.clone(),
            ts,
            te,
            k: 2,
            measure: Dissimilarity::t2vec_default(),
        }),
        Query::Similarity(SimilarityQuery {
            query: probe,
            ts,
            te,
            delta: 5_000.0,
            step: 600.0,
        }),
        Query::RangeKept(cube),
    ])
}

/// Writes a shard directory for `strategy`, with per-shard keep-every-
/// other-point bitmaps, plain or quantized.
fn write_shard_dir(db: &TrajectoryDb, strategy: &PartitionStrategy, quantized: bool) -> PathBuf {
    let store = db.to_store();
    let shards = partition(&store, strategy);
    let kept: Vec<KeptBitmap> = shards
        .iter()
        .map(|sh| {
            let mut bitmap = KeptBitmap::zeros(sh.store.total_points());
            for p in (0..sh.store.total_points()).step_by(2) {
                bitmap.insert(p as u32);
            }
            bitmap
        })
        .collect();
    let dir = unique_path(if quantized { "qshards" } else { "shards" });
    if quantized {
        ShardSet::write_quantized(&dir, &shards, Some(&kept), 1e-3).expect("write quantized");
    } else {
        ShardSet::write_with(&dir, &shards, &kept).expect("write shards");
    }
    dir
}

/// A fleet of `shardd` children, killed (and reaped) on drop.
struct Cluster {
    children: Vec<Child>,
    addrs: Vec<String>,
}

impl Cluster {
    /// Spawns one `shardd` per shard file of the set — all children
    /// first, then the `READY <addr>` waits — so the shards load their
    /// snapshots in parallel instead of serially.
    fn spawn(dir: &Path, set: &ShardSet, extra_args: &[&str]) -> Cluster {
        let mut children = Vec::new();
        let mut stdouts = Vec::new();
        for e in set.entries() {
            let (child, stdout) = spawn_shardd(&dir.join(&e.file), extra_args);
            children.push(child);
            stdouts.push(stdout);
        }
        let addrs = stdouts.into_iter().map(wait_ready).collect();
        Cluster { children, addrs }
    }

    /// Kills shard `i` and waits for it to die.
    fn kill(&mut self, i: usize) {
        let _ = self.children[i].kill();
        let _ = self.children[i].wait();
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

fn spawn_shardd(snap: &Path, extra_args: &[&str]) -> (Child, std::process::ChildStdout) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_shardd"))
        .arg("--snap")
        .arg(snap)
        .args(extra_args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn shardd");
    let stdout = child.stdout.take().expect("piped stdout");
    (child, stdout)
}

fn wait_ready(stdout: std::process::ChildStdout) -> String {
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("shardd READY line");
    line.trim()
        .strip_prefix("READY ")
        .unwrap_or_else(|| panic!("unexpected shardd greeting: {line:?}"))
        .to_string()
}

/// `shardd` takes only its six flags, each with a value: a misspelt
/// flag, a stray word or a flag without its value is a usage error
/// (exit 2) before anything is served, never silently ignored.
#[test]
fn shardd_rejects_unknown_flags_and_missing_values() {
    let snap = unique_path("args").with_extension("snap");
    trajectory::snapshot::write_snapshot(&dataset().to_store(), &snap).expect("write snapshot");
    let cases: [&[&str]; 4] = [
        &["--bakend", "kd"],
        &["--addr"],
        &["--addr", "--backend", "kd"],
        &["serve"],
    ];
    for extra in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_shardd"))
            .arg("--snap")
            .arg(&snap)
            .args(extra)
            .stdin(Stdio::null())
            .output()
            .expect("run shardd");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(2), "{extra:?}: {out:?}");
        assert!(!stdout.contains("READY"), "{extra:?} served: {stdout}");
    }
    std::fs::remove_file(&snap).ok();
}

/// Fast-failure coordinator tuning for tests.
fn test_opts() -> CoordinatorOptions {
    CoordinatorOptions {
        connect_timeout: Duration::from_millis(500),
        request_timeout: Duration::from_secs(5),
        retries: 1,
        backoff: Duration::from_millis(10),
        ..CoordinatorOptions::default()
    }
}

fn cleanup(dir: &Path) {
    std::fs::remove_dir_all(dir).ok();
}

/// The headline equivalence matrix: time partitions of 2, 3 and 4 parts
/// × every index backend × plain and quantized shard files, the
/// coordinator's merged answer is
/// byte-identical (re-encoded frame equality) to opening the same
/// shard directory in one process. The shard manifest round-trips the
/// `addr=` placement assignments through disk along the way.
#[test]
fn distributed_matches_in_process_across_the_matrix() {
    let db = dataset();
    let batch = mixed_batch(&db);
    let backends: [(&str, &str); 3] = [("octree", "octree"), ("kd", "kd"), ("scan", "scan")];

    for parts in [2, 3, 4] {
        let strategy = PartitionStrategy::Time { parts };
        let plain_dir = write_shard_dir(&db, &strategy, false);
        let quant_dir = write_shard_dir(&db, &strategy, true);
        for (backend_label, backend_flag) in backends {
            for quantized in [false, true] {
                let dir = if quantized { &quant_dir } else { &plain_dir };
                let label = format!(
                    "time partition of {parts}, backend `{backend_label}`, quantized {quantized}"
                );

                let opts = DbOptions::new().backend(match backend_flag {
                    "kd" => traj_query::BackendKind::MedianKd,
                    "scan" => traj_query::BackendKind::Scan,
                    _ => traj_query::BackendKind::Octree,
                });
                let expected = TrajDb::open(dir, opts)
                    .expect("open shard dir in-process")
                    .execute_batch(&batch);

                let mut set = ShardSet::load(dir).expect("load manifest");
                let cluster = Cluster::spawn(dir, &set, &["--backend", backend_flag]);
                // Persist the placement through the manifest and read
                // it back: the round-trip is part of what's under test.
                set.set_addrs(&cluster.addrs).expect("assign addrs");
                set.save_manifest().expect("save manifest");
                let reloaded = ShardSet::load(dir).expect("reload manifest");
                let placement = Placement::from_manifest(&reloaded).expect("placement");
                assert_eq!(
                    placement.total_trajs(),
                    db.len(),
                    "{label}: placement total"
                );

                let coord = Coordinator::connect(placement, test_opts()).expect("connect cluster");
                let response = coord.execute_batch(&batch).expect("distributed batch");
                assert_eq!(response.status, ResponseStatus::Complete, "{label}");
                assert_eq!(response.results, expected, "{label}: results diverge");
                assert_eq!(
                    encode_message(&Message::Response(response.results)),
                    encode_message(&Message::Response(expected)),
                    "{label}: encodings diverge"
                );

                // Connection reuse: a second batch on the same
                // coordinator, no reconnect.
                let again = coord.execute_batch(&batch).expect("second batch");
                assert_eq!(again.status, ResponseStatus::Complete, "{label}: reuse");
            }
        }
        cleanup(&plain_dir);
        cleanup(&quant_dir);
    }
}

/// Concatenates per-shard global-id lists and sorts them ascending.
fn merge_global_ids(per_shard: Vec<Vec<TrajId>>) -> Vec<TrajId> {
    let mut out: Vec<TrajId> = per_shard.into_iter().flatten().collect();
    out.sort_unstable();
    out
}

/// Computes the expected degraded answer by opening each *surviving*
/// shard file as its own single-store database and merging by hand —
/// an independent reference for the shared merge.
fn expected_degraded(
    dir: &Path,
    set: &ShardSet,
    survivors: &[usize],
    batch: &QueryBatch,
) -> Vec<QueryResult> {
    let dbs: Vec<(TrajDb, &[TrajId])> = survivors
        .iter()
        .map(|&s| {
            let e = &set.entries()[s];
            let db = TrajDb::open(dir.join(&e.file), DbOptions::new()).expect("open shard");
            (db, e.global_ids.as_slice())
        })
        .collect();
    let remap = |ids: Vec<TrajId>, globals: &[TrajId]| -> Vec<TrajId> {
        ids.into_iter().map(|l| globals[l]).collect()
    };
    let mut universe: Vec<TrajId> = dbs
        .iter()
        .flat_map(|(_, globals)| globals.iter().copied())
        .collect();
    universe.sort_unstable();

    batch
        .queries()
        .iter()
        .map(|q| match q {
            Query::Range(c) => QueryResult::Range(merge_global_ids(
                dbs.iter().map(|(db, g)| remap(db.range(c), g)).collect(),
            )),
            Query::Similarity(s) => QueryResult::Similarity(merge_global_ids(
                dbs.iter()
                    .map(|(db, g)| remap(db.similarity(s), g))
                    .collect(),
            )),
            Query::Knn(k) => {
                let streams: Vec<Vec<(f64, TrajId)>> = dbs
                    .iter()
                    .map(|(db, g)| {
                        db.knn_candidates(k)
                            .into_iter()
                            .map(|(d, l)| (d, g[l]))
                            .collect()
                    })
                    .collect();
                let merged = merge_knn_candidates(k.k, &streams);
                QueryResult::Knn(knn_take_fill(k.k, &merged, universe.iter().copied()))
            }
            Query::RangeKept(c) => {
                let per: Vec<Option<Vec<TrajId>>> = dbs
                    .iter()
                    .map(|(db, g)| db.range_kept(c).map(|ids| remap(ids, g)))
                    .collect();
                let all_kept = !per.is_empty() && per.iter().all(Option::is_some);
                QueryResult::RangeKept(
                    all_kept.then(|| merge_global_ids(per.into_iter().flatten().collect())),
                )
            }
        })
        .collect()
}

/// Kill one shard mid-flight: under `Degrade` the answer is exactly
/// the merge over the survivors (with the kNN fill universe shrunk to
/// their ids) and the missing shard is reported; under `FailFast` the
/// same failure is a typed `ShardFailed`.
#[test]
fn killed_shard_degrades_or_fails_fast_but_never_lies() {
    let db = dataset();
    let batch = mixed_batch(&db);
    let dir = write_shard_dir(&db, &PartitionStrategy::Time { parts: 3 }, false);
    let mut set = ShardSet::load(&dir).expect("load manifest");
    let mut cluster = Cluster::spawn(&dir, &set, &[]);
    set.set_addrs(&cluster.addrs).expect("assign addrs");
    let placement = Placement::from_manifest(&set).expect("placement");

    let coord = Coordinator::connect(placement.clone(), test_opts()).expect("connect");
    // Healthy first: complete answers.
    let healthy = coord.execute_batch(&batch).expect("healthy batch");
    assert_eq!(healthy.status, ResponseStatus::Complete);

    let victim = 1;
    cluster.kill(victim);

    // Degrade: correct merge over the survivors, victim reported.
    let degraded = coord
        .execute_batch_with(&batch, FailurePolicy::Degrade)
        .expect("degraded batch");
    assert_eq!(
        degraded.status,
        ResponseStatus::Degraded {
            missing_shards: vec![victim]
        }
    );
    assert_eq!(degraded.failures.len(), 1);
    assert_eq!(degraded.failures[0].0, victim);
    let survivors: Vec<usize> = (0..set.len()).filter(|&s| s != victim).collect();
    let expected = expected_degraded(&dir, &set, &survivors, &batch);
    assert_eq!(degraded.results, expected, "degraded answer is wrong");

    // Degraded range hits are a subset of the healthy ones.
    for (got, full) in degraded.results.iter().zip(&healthy.results) {
        if let (QueryResult::Range(got), QueryResult::Range(full)) = (got, full) {
            assert!(got.iter().all(|id| full.contains(id)));
        }
    }

    // FailFast: the same outage is a typed error naming the victim.
    match coord.execute_batch_with(&batch, FailurePolicy::FailFast) {
        Err(CoordinatorError::ShardFailed { shard, .. }) => assert_eq!(shard, victim),
        other => panic!("expected ShardFailed, got {other:?}"),
    }

    // Killing every shard is an outage even under Degrade.
    for s in 0..set.len() {
        if s != victim {
            cluster.kill(s);
        }
    }
    match coord.execute_batch_with(&batch, FailurePolicy::Degrade) {
        Err(CoordinatorError::ShardFailed { .. }) => {}
        other => panic!("expected total outage to fail, got {other:?}"),
    }
    cleanup(&dir);
}

/// A shard that stops responding mid-exchange (black-holed response)
/// trips the request deadline as a typed `Timeout`; a shard whose
/// response is corrupted in flight trips the frame checksum as a typed
/// decode error. Neither ever yields a wrong answer.
#[test]
fn stalled_and_corrupted_shards_surface_typed_errors() {
    let db = dataset();
    let batch = mixed_batch(&db);
    let dir = write_shard_dir(&db, &PartitionStrategy::Time { parts: 1 }, false);
    let set = ShardSet::load(&dir).expect("load manifest");
    let cluster = Cluster::spawn(&dir, &set, &[]);
    let upstream: std::net::SocketAddr = cluster.addrs[0].parse().expect("shardd addr");
    let proxy = FaultProxy::start(upstream).expect("start proxy");

    // Server→client bytes 0..hello_len carry the ShardInfo handshake
    // (fixed-size frame for a non-empty shard: the cube is always
    // present, so any Some(bounds) value gives the right length);
    // everything after is the shard response.
    let hello_len = encode_message(&Message::ShardInfo(ShardInfo {
        trajs: 0,
        points: 0,
        has_kept: false,
        bounds: Some(trajectory::Cube::new(0.0, 1.0, 0.0, 1.0, 0.0, 1.0)),
    }))
    .len() as u64;

    let placement = |addr: std::net::SocketAddr| {
        Placement::from_parts(vec![(
            addr.to_string(),
            set.entries()[0].global_ids.clone(),
        )])
        .expect("placement")
    };
    let opts = CoordinatorOptions {
        connect_timeout: Duration::from_millis(500),
        request_timeout: Duration::from_millis(300),
        retries: 0,
        backoff: Duration::from_millis(1),
        policy: FailurePolicy::FailFast,
    };

    // Stall: the handshake passes, the first response byte never comes.
    proxy.set_fault(Fault::DropFrom {
        dir: FaultDirection::ServerToClient,
        offset: hello_len,
    });
    let coord = Coordinator::connect(placement(proxy.local_addr()), opts).expect("connect");
    match coord.execute_batch(&batch) {
        Err(CoordinatorError::ShardFailed {
            source: WireError::Timeout { .. },
            ..
        }) => {}
        other => panic!("expected a shard timeout, got {other:?}"),
    }

    // Corruption: flip a bit in the response frame's magic.
    proxy.set_fault(Fault::FlipBit {
        dir: FaultDirection::ServerToClient,
        offset: hello_len + 1,
        bit: 3,
    });
    let coord = Coordinator::connect(placement(proxy.local_addr()), opts).expect("connect");
    match coord.execute_batch(&batch) {
        Err(CoordinatorError::ShardFailed { source, .. }) => {
            assert!(
                !matches!(source, WireError::Io(_)),
                "corruption must be a typed decode error, got {source:?}"
            );
        }
        other => panic!("expected a typed decode failure, got {other:?}"),
    }

    // A delayed (but uncorrupted) response still answers correctly.
    proxy.set_fault(Fault::DelayAt {
        dir: FaultDirection::ServerToClient,
        offset: hello_len,
        delay: Duration::from_millis(50),
    });
    let relaxed = CoordinatorOptions {
        request_timeout: Duration::from_secs(5),
        ..opts
    };
    let coord = Coordinator::connect(placement(proxy.local_addr()), relaxed).expect("connect");
    let slow = coord.execute_batch(&batch).expect("delayed batch");
    let direct = TrajDb::open(&dir, DbOptions::new())
        .expect("open shard dir")
        .execute_batch(&batch);
    assert_eq!(slow.results, direct, "a delay must never change results");
    cleanup(&dir);
}

/// Placement validation: missing `addr=` entries and malformed covers
/// are typed errors, and a shard whose handshake contradicts the
/// placement map is rejected at connect time.
#[test]
fn bad_placements_and_mismatched_handshakes_are_rejected() {
    let db = dataset();
    let dir = write_shard_dir(&db, &PartitionStrategy::Time { parts: 2 }, false);
    let set = ShardSet::load(&dir).expect("load manifest");

    // No addresses assigned yet: not a placement map.
    match Placement::from_manifest(&set) {
        Err(CoordinatorError::MissingAddr { .. }) => {}
        other => panic!("expected MissingAddr, got {other:?}"),
    }

    // Doubly-assigned global id.
    match Placement::from_parts(vec![
        ("127.0.0.1:1001".into(), vec![0, 1]),
        ("127.0.0.1:1002".into(), vec![1]),
    ]) {
        Err(CoordinatorError::BadPlacement { .. }) => {}
        other => panic!("expected BadPlacement, got {other:?}"),
    }

    // Duplicate address.
    match Placement::from_parts(vec![
        ("127.0.0.1:1001".into(), vec![0]),
        ("127.0.0.1:1001".into(), vec![1]),
    ]) {
        Err(CoordinatorError::BadPlacement { .. }) => {}
        other => panic!("expected BadPlacement, got {other:?}"),
    }

    // A live shardd serving shard 0's snapshot, but a placement that
    // assigns it the whole database: handshake cross-check fails.
    let cluster = Cluster::spawn(&dir, &set, &[]);
    let all_ids: Vec<TrajId> = (0..set.total_trajs()).collect();
    let lying = Placement::from_parts(vec![(cluster.addrs[0].clone(), all_ids)]).expect("parts");
    match Coordinator::connect(lying, test_opts()) {
        Err(CoordinatorError::ShardFailed {
            source: WireError::Malformed { .. },
            ..
        }) => {}
        Err(other) => panic!("expected a handshake mismatch, got {other:?}"),
        Ok(_) => panic!("a lying placement must not connect"),
    }

    // A manifest whose `bounds=` token disagrees with what the shard
    // declares in its handshake is rejected the same way: the routing
    // table must never silently adopt bounds the shard contradicts.
    let manifest_path = dir.join(trajectory::shard::MANIFEST_FILE);
    let text = std::fs::read_to_string(&manifest_path).expect("read manifest");
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let line = lines
        .iter_mut()
        .find(|l| l.contains("bounds="))
        .expect("manifest carries bounds tokens");
    let start = line.find("bounds=").expect("token start");
    let end = line[start..].find(' ').map_or(line.len(), |i| start + i);
    line.replace_range(start..end, "bounds=0.0,1.0,0.0,1.0,0.0,1.0");
    std::fs::write(&manifest_path, lines.join("\n") + "\n").expect("write tampered manifest");

    let mut tampered = ShardSet::load(&dir).expect("tampered bounds are still well-formed");
    tampered.set_addrs(&cluster.addrs).expect("assign addrs");
    let placement = Placement::from_manifest(&tampered).expect("placement");
    match Coordinator::connect(placement, test_opts()) {
        Err(CoordinatorError::ShardFailed {
            shard,
            source: WireError::Malformed { .. },
            ..
        }) => assert_eq!(shard, 0, "the tampered shard is the one named"),
        Err(other) => panic!("expected a bounds mismatch rejection, got {other:?}"),
        Ok(_) => panic!("tampered bounds must not connect"),
    }
    cleanup(&dir);
}

/// Every manifest entry's bounds, the shard whose data starts latest in
/// time, and a probe cube spanning the whole spatial domain but ending
/// strictly before that shard's first timestamp — so bound-pruned
/// routing must send it no frame at all.
fn pruning_probe(set: &ShardSet) -> (trajectory::Cube, usize) {
    let bounds: Vec<trajectory::Cube> = set
        .entries()
        .iter()
        .map(|e| e.bounds.expect("manifest carries shard bounds"))
        .collect();
    let victim = bounds
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.t_min.total_cmp(&b.1.t_min))
        .expect("non-empty shard set")
        .0;
    let lo = |f: fn(&trajectory::Cube) -> f64| bounds.iter().map(f).fold(f64::INFINITY, f64::min);
    let hi =
        |f: fn(&trajectory::Cube) -> f64| bounds.iter().map(f).fold(f64::NEG_INFINITY, f64::max);
    let t_lo = lo(|b| b.t_min);
    let cut = bounds[victim].t_min - 1.0;
    assert!(
        cut > t_lo,
        "time partitioning must separate shard start times"
    );
    let cube = trajectory::Cube::new(
        lo(|b| b.x_min),
        hi(|b| b.x_max),
        lo(|b| b.y_min),
        hi(|b| b.y_max),
        t_lo,
        cut,
    );
    (cube, victim)
}

/// Bound-pruned routing: a batch confined to the early part of the time
/// axis sends *no frame at all* to the shard whose data starts after
/// it, yet answers exactly like the full in-process database, and the
/// per-shard frame counters record both the pruning and a later
/// whole-domain fan-out.
#[test]
fn bound_pruned_routing_skips_untouched_shards_and_counts_frames() {
    let db = dataset();
    let dir = write_shard_dir(&db, &PartitionStrategy::Time { parts: 3 }, false);
    let mut set = ShardSet::load(&dir).expect("load manifest");
    let (cube, victim) = pruning_probe(&set);
    let probe = db.get(0).clone();
    let batch = QueryBatch::from_queries(vec![
        Query::Range(cube),
        Query::RangeKept(cube),
        Query::Similarity(SimilarityQuery {
            query: probe,
            ts: cube.t_min,
            te: cube.t_max,
            delta: 5_000.0,
            step: 600.0,
        }),
    ]);
    let expected = TrajDb::open(&dir, DbOptions::new())
        .expect("open shard dir in-process")
        .execute_batch(&batch);

    let cluster = Cluster::spawn(&dir, &set, &[]);
    set.set_addrs(&cluster.addrs).expect("assign addrs");
    let placement = Placement::from_manifest(&set).expect("placement");
    let coord = Coordinator::connect(placement, test_opts()).expect("connect");

    let response = coord.execute_batch(&batch).expect("pruned batch");
    assert_eq!(response.status, ResponseStatus::Complete);
    assert_eq!(
        response.results, expected,
        "pruned routing changed the answer"
    );

    let stats = coord.stats();
    assert_eq!(stats.rounds, 1);
    assert_eq!(stats.queries, batch.queries().len() as u64);
    assert_eq!(
        stats.shards[victim].frames_sent, 0,
        "the late shard must get no frame"
    );
    assert_eq!(stats.shards[victim].frames_pruned, 1);
    assert!(stats.frames_sent() >= 1, "some shard must be contacted");

    // A whole-domain range touches every shard: each counter moves.
    let everywhere = QueryBatch::from_queries(vec![Query::Range(db.bounding_cube())]);
    let full = coord.execute_batch(&everywhere).expect("full fan-out");
    assert_eq!(full.status, ResponseStatus::Complete);
    for (s, shard) in coord.stats().shards.iter().enumerate() {
        assert!(shard.frames_sent >= 1, "shard {s} missed the full fan-out");
    }
    cleanup(&dir);
}

/// A dead shard that bound-pruning routes away from cannot hurt the
/// answer: with the batch confined to the time range before the
/// victim's data starts, the response stays `Complete` with no recorded
/// failures under *both* failure policies — no frame is ever sent to
/// the corpse.
#[test]
fn a_pruned_away_dead_shard_stays_complete() {
    let db = dataset();
    let dir = write_shard_dir(&db, &PartitionStrategy::Time { parts: 3 }, false);
    let mut set = ShardSet::load(&dir).expect("load manifest");
    let (cube, victim) = pruning_probe(&set);
    let batch = QueryBatch::from_queries(vec![Query::Range(cube), Query::RangeKept(cube)]);
    let expected = TrajDb::open(&dir, DbOptions::new())
        .expect("open shard dir in-process")
        .execute_batch(&batch);

    let mut cluster = Cluster::spawn(&dir, &set, &[]);
    set.set_addrs(&cluster.addrs).expect("assign addrs");
    let placement = Placement::from_manifest(&set).expect("placement");
    let coord = Coordinator::connect(placement, test_opts()).expect("connect");
    cluster.kill(victim);

    for policy in [FailurePolicy::Degrade, FailurePolicy::FailFast] {
        let response = coord
            .execute_batch_with(&batch, policy)
            .expect("the dead shard is never contacted");
        assert_eq!(response.status, ResponseStatus::Complete, "{policy:?}");
        assert!(response.failures.is_empty(), "{policy:?}: failures leaked");
        assert_eq!(
            response.results, expected,
            "{policy:?}: answer diverges from the full database"
        );
    }
    assert_eq!(coord.stats().shards[victim].frames_sent, 0);
    cleanup(&dir);
}

/// Many callers sharing one coordinator: concurrent single-query
/// submissions coalesce into shared wire rounds through the
/// admission/linger layer, every caller still gets exactly its own
/// correct slice back, and a `from_parts` placement (no manifest
/// bounds) adopts the shards' handshake bounds into the routing table.
#[test]
fn shared_coordinator_coalesces_concurrent_submissions() {
    let db = dataset();
    let dir = write_shard_dir(&db, &PartitionStrategy::Time { parts: 2 }, false);
    let set = ShardSet::load(&dir).expect("load manifest");

    // In-process servers instead of shardd children: the placement is
    // built from parts, so routing bounds must come from the handshake.
    let mut servers = Vec::new();
    let mut parts = Vec::new();
    for e in set.entries() {
        let shard_db = TrajDb::open(dir.join(&e.file), DbOptions::new()).expect("open shard");
        let server =
            traj_serve::Server::start(shard_db, "127.0.0.1:0", traj_serve::ServeOptions::batched())
                .expect("start shard server");
        parts.push((server.local_addr().to_string(), e.global_ids.clone()));
        servers.push(server);
    }
    let placement = Placement::from_parts(parts).expect("placement");
    let coord = Coordinator::connect(placement, test_opts()).expect("connect");
    assert!(
        coord.shard_bounds().iter().all(Option::is_some),
        "handshake bounds must be adopted into the routing table"
    );

    let queries = mixed_batch(&db).into_queries();
    let truth = TrajDb::open(&dir, DbOptions::new()).expect("open shard dir in-process");
    let expected: Vec<QueryResult> = queries
        .iter()
        .map(|q| {
            truth
                .execute_batch(&QueryBatch::from_queries(vec![q.clone()]))
                .remove(0)
        })
        .collect();

    let shared = SharedCoordinator::start(
        coord,
        BatchConfig {
            max_queries: 256,
            linger: Duration::from_millis(50),
        },
        2,
    );
    let n = 16;
    let barrier = std::sync::Barrier::new(n);
    std::thread::scope(|scope| {
        for i in 0..n {
            let q = queries[i % queries.len()].clone();
            let want = expected[i % queries.len()].clone();
            let (shared, barrier) = (&shared, &barrier);
            scope.spawn(move || {
                barrier.wait();
                let resp = shared
                    .execute_batch(&QueryBatch::from_queries(vec![q]))
                    .expect("shared batch");
                assert_eq!(resp.status, ResponseStatus::Complete);
                assert!(resp.failures.is_empty());
                assert_eq!(
                    resp.results,
                    vec![want],
                    "caller {i} got someone else's slice"
                );
            });
        }
    });

    let stats = shared.stats();
    assert_eq!(stats.queries, n as u64, "every submission is counted");
    assert!(
        stats.rounds < n as u64,
        "{n} concurrent submissions never coalesced: {} rounds",
        stats.rounds
    );
    assert!(stats.mean_coalesced_batch() > 1.0);
    shared.shutdown();
    for server in servers {
        server.shutdown();
    }
    cleanup(&dir);
}
