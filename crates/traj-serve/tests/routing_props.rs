//! Property test for bound-pruned routing: for random probe cubes and
//! time windows — inside, straddling, and fully outside the data's
//! bounding cube — a coordinator fanning out over in-process shard
//! servers answers byte-identically to the full single-process
//! database, across time partitions of 2, 3 and 4 parts × every index
//! backend.
//! Pruning is an invisible optimization: whichever shards it routes
//! away from, the merged answer (and its wire encoding) never changes.
//! Beside it, the rounds the calling thread runs alone: routing that
//! leaves exactly one shard, and a placement of one shard.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

use proptest::prelude::*;
use traj_query::{
    BackendKind, DbOptions, Dissimilarity, KnnQuery, Query, QueryBatch, QueryExecutor,
    SimilarityQuery, TrajDb,
};
use traj_serve::wire::{encode_message, Message};
use traj_serve::{
    Coordinator, CoordinatorOptions, Placement, ResponseStatus, ServeOptions, Server,
};
use trajectory::gen::{generate, DatasetSpec, Scale};
use trajectory::shard::{partition, PartitionStrategy, ShardSet};
use trajectory::{Cube, KeptBitmap, TrajectoryDb};

/// Writes a plain shard directory with keep-every-other-point bitmaps.
fn write_shard_dir(db: &TrajectoryDb, strategy: &PartitionStrategy) -> std::path::PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
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
    let parent = std::env::temp_dir().join("qdts_routing_props");
    std::fs::create_dir_all(&parent).expect("temp dir");
    let dir = parent.join(format!(
        "shards_{}_{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    ShardSet::write_with(&dir, &shards, &kept).expect("write shards");
    dir
}

/// One partition × backend combination: a coordinator over leaked
/// in-process shard servers, plus the full-directory ground truth.
struct Combo {
    label: String,
    truth: TrajDb,
    coordinator: Coordinator,
}

static FIXTURE: OnceLock<(TrajectoryDb, Vec<Combo>)> = OnceLock::new();

fn fixture() -> &'static (TrajectoryDb, Vec<Combo>) {
    FIXTURE.get_or_init(|| {
        let db = generate(&DatasetSpec::tdrive(Scale::Smoke).with_trajectories(24), 3);
        let partitioners: [(&str, PartitionStrategy); 3] = [
            ("time 2", PartitionStrategy::Time { parts: 2 }),
            ("time 3", PartitionStrategy::Time { parts: 3 }),
            ("time 4", PartitionStrategy::Time { parts: 4 }),
        ];
        let backends: [(&str, BackendKind); 3] = [
            ("octree", BackendKind::Octree),
            ("kd", BackendKind::MedianKd),
            ("scan", BackendKind::Scan),
        ];
        let opts = CoordinatorOptions {
            connect_timeout: Duration::from_secs(1),
            request_timeout: Duration::from_secs(10),
            retries: 1,
            backoff: Duration::from_millis(10),
            ..CoordinatorOptions::default()
        };
        let mut combos = Vec::new();
        for (part_label, strategy) in &partitioners {
            let dir = write_shard_dir(&db, strategy);
            for (backend_label, backend) in backends {
                let mut set = ShardSet::load(&dir).expect("load manifest");
                let mut addrs = Vec::new();
                for e in set.entries() {
                    let shard_db =
                        TrajDb::open(dir.join(&e.file), DbOptions::new().backend(backend))
                            .expect("open shard");
                    let server = Server::start(shard_db, "127.0.0.1:0", ServeOptions::batched())
                        .expect("start shard server");
                    addrs.push(server.local_addr().to_string());
                    // The servers must outlive every proptest case.
                    std::mem::forget(server);
                }
                set.set_addrs(&addrs).expect("assign addrs");
                let placement = Placement::from_manifest(&set).expect("placement");
                let coordinator = Coordinator::connect(placement, opts).expect("connect");
                assert!(
                    coordinator.shard_bounds().iter().all(Option::is_some),
                    "manifest bounds must reach the routing table"
                );
                combos.push(Combo {
                    label: format!("partition `{part_label}`, backend `{backend_label}`"),
                    truth: TrajDb::open(&dir, DbOptions::new().backend(backend))
                        .expect("open shard dir in-process"),
                    coordinator,
                });
            }
        }
        (db, combos)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn pruned_routing_answers_like_the_full_database(
        (kind, fr, probe, k) in (
            0u8..4,
            (
                -0.15..1.15f64,
                -0.15..1.15f64,
                -0.15..1.15f64,
                -0.15..1.15f64,
                -0.15..1.15f64,
                -0.15..1.15f64,
            ),
            0usize..1024,
            1usize..6,
        )
    ) {
        let (db, combos) = fixture();
        let b = db.bounding_cube();
        let lerp = |lo: f64, hi: f64, f: f64| lo + (hi - lo) * f;
        let axis = |lo: f64, hi: f64, f0: f64, f1: f64| {
            let (a, z) = (lerp(lo, hi, f0), lerp(lo, hi, f1));
            if a <= z { (a, z) } else { (z, a) }
        };
        let (x0, x1) = axis(b.x_min, b.x_max, fr.0, fr.1);
        let (y0, y1) = axis(b.y_min, b.y_max, fr.2, fr.3);
        let (t0, t1) = axis(b.t_min, b.t_max, fr.4, fr.5);
        let cube = Cube::new(x0, x1, y0, y1, t0, t1);
        let probe_traj = db.get(probe % db.len()).clone();
        let query = match kind {
            0 => Query::Range(cube),
            1 => Query::RangeKept(cube),
            2 => Query::Similarity(SimilarityQuery {
                query: probe_traj,
                ts: t0,
                te: t1,
                delta: 5_000.0,
                step: 600.0,
            }),
            _ => Query::Knn(KnnQuery {
                query: probe_traj,
                ts: t0,
                te: t1,
                k,
                measure: Dissimilarity::Edr { eps: 2_000.0 },
            }),
        };
        let batch = QueryBatch::from_queries(vec![query]);
        for combo in combos {
            let expected = combo.truth.execute_batch(&batch);
            let resp = combo
                .coordinator
                .execute_batch(&batch)
                .expect("distributed batch");
            prop_assert_eq!(&resp.status, &ResponseStatus::Complete, "{}", combo.label);
            prop_assert_eq!(&resp.results, &expected, "{}: results diverge", combo.label);
            prop_assert_eq!(
                encode_message(&Message::Response(resp.results)),
                encode_message(&Message::Response(expected)),
                "{}: encodings diverge",
                combo.label
            );
        }
    }
}

/// In-process shard servers over the shard directory `dir` and a
/// coordinator connected to them through the manifest.
fn cluster_over(dir: &std::path::Path) -> (Vec<Server>, Coordinator) {
    let mut set = ShardSet::load(dir).expect("load manifest");
    let servers: Vec<Server> = set
        .entries()
        .iter()
        .map(|e| {
            let shard_db = TrajDb::open(dir.join(&e.file), DbOptions::new()).expect("open shard");
            Server::start(shard_db, "127.0.0.1:0", ServeOptions::batched()).expect("start shard")
        })
        .collect();
    let addrs: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();
    set.set_addrs(&addrs).expect("assign addrs");
    let placement = Placement::from_manifest(&set).expect("placement");
    let coordinator =
        Coordinator::connect(placement, CoordinatorOptions::default()).expect("connect");
    (servers, coordinator)
}

/// One query of each kind confined to `cube` (its time span is the
/// kNN and similarity window), probing with `probe`.
fn one_of_each_kind(cube: Cube, probe: &trajectory::Trajectory) -> QueryBatch {
    QueryBatch::from_queries(vec![
        Query::Range(cube),
        Query::Knn(KnnQuery {
            query: probe.clone(),
            ts: cube.t_min,
            te: cube.t_max,
            k: 4,
            measure: Dissimilarity::Edr { eps: 2_000.0 },
        }),
        Query::Similarity(SimilarityQuery {
            query: probe.clone(),
            ts: cube.t_min,
            te: cube.t_max,
            delta: 5_000.0,
            step: 600.0,
        }),
        Query::RangeKept(cube),
    ])
}

/// The rounds the calling thread runs alone — routing leaves exactly
/// one shard of three, or the placement has one shard — answer
/// byte-identically to the in-process engine, and every round still
/// accounts for every shard: sent or pruned.
#[test]
fn rounds_that_reach_one_shard_answer_like_the_full_database() {
    let db = generate(&DatasetSpec::tdrive(Scale::Smoke).with_trajectories(24), 3);
    let everywhere = db.bounding_cube();
    let frames =
        |c: &Coordinator| -> Vec<u64> { c.stats().shards.iter().map(|s| s.frames_sent).collect() };
    let answers_like = |truth: &TrajDb, c: &Coordinator, batch: &QueryBatch, what: &str| {
        let expected = truth.execute_batch(batch);
        let resp = c.execute_batch(batch).expect("distributed batch");
        assert_eq!(resp.status, ResponseStatus::Complete, "{what}");
        assert_eq!(
            encode_message(&Message::Response(resp.results)),
            encode_message(&Message::Response(expected)),
            "{what}: encodings diverge"
        );
    };

    // Three shards by time: a window that ends before the second
    // shard's data starts reaches the earliest shard alone.
    let dir = write_shard_dir(&db, &PartitionStrategy::Time { parts: 3 });
    let truth = TrajDb::open(&dir, DbOptions::new()).expect("open shard dir in-process");
    let (servers, coordinator) = cluster_over(&dir);
    let mut starts: Vec<f64> = coordinator
        .shard_bounds()
        .iter()
        .map(|b| b.expect("shard bounds").t_min)
        .collect();
    starts.sort_by(f64::total_cmp);
    assert!(
        starts[0] + 1.0 < starts[1],
        "time partitioning must separate shard start times"
    );
    let early = Cube {
        t_max: starts[1] - 1.0,
        ..everywhere
    };
    // The trajectory the data starts with: its window is not empty, so
    // the kNN routes by time like everything else.
    let (_, first) = db
        .iter()
        .min_by(|a, b| a.1.time_span().0.total_cmp(&b.1.time_span().0))
        .expect("non-empty database");
    let before = frames(&coordinator);
    answers_like(
        &truth,
        &coordinator,
        &one_of_each_kind(early, first),
        "one shard of three",
    );
    let sent: u64 = frames(&coordinator).iter().sum::<u64>() - before.iter().sum::<u64>();
    assert_eq!(sent, 1, "the early window must reach exactly one shard");
    // And a round nothing prunes, on the same connections.
    answers_like(
        &truth,
        &coordinator,
        &one_of_each_kind(everywhere, first),
        "all three",
    );
    let stats = coordinator.stats();
    assert_eq!(stats.rounds, 2);
    assert_eq!(stats.frames_sent(), 1 + 3);
    assert_eq!(
        stats.frames_sent() + stats.frames_pruned(),
        stats.rounds * 3
    );
    drop(coordinator);
    servers.into_iter().for_each(Server::shutdown);
    std::fs::remove_dir_all(&dir).ok();

    // A placement of one shard: every round is the caller's own.
    let dir = write_shard_dir(&db, &PartitionStrategy::Time { parts: 1 });
    let truth = TrajDb::open(&dir, DbOptions::new()).expect("open shard dir in-process");
    let (servers, coordinator) = cluster_over(&dir);
    assert_eq!(coordinator.shard_count(), 1);
    answers_like(
        &truth,
        &coordinator,
        &one_of_each_kind(everywhere, first),
        "one-shard placement",
    );
    let nowhere = Cube {
        t_min: everywhere.t_max + 1.0,
        t_max: everywhere.t_max + 2.0,
        ..everywhere
    };
    answers_like(
        &truth,
        &coordinator,
        &QueryBatch::from_queries(vec![Query::Range(nowhere), Query::RangeKept(nowhere)]),
        "one-shard placement, pruned away",
    );
    let stats = coordinator.stats();
    assert_eq!((stats.frames_sent(), stats.frames_pruned()), (1, 1));
    assert_eq!(stats.frames_sent() + stats.frames_pruned(), stats.rounds);
    drop(coordinator);
    servers.into_iter().for_each(Server::shutdown);
    std::fs::remove_dir_all(&dir).ok();
}

/// A kNN `k` of `usize::MAX` through a coordinator — whose global merge
/// takes the shards' candidate lists — is answered with every id, exactly
/// like `k = len`, and both the coordinator and a shard server it talked
/// to keep serving afterwards.
#[test]
fn an_unbounded_knn_k_is_answered_by_the_coordinator_which_keeps_serving() {
    let db = generate(&DatasetSpec::tdrive(Scale::Smoke).with_trajectories(24), 3);
    let dir = write_shard_dir(&db, &PartitionStrategy::Time { parts: 2 });
    let (servers, coordinator) = cluster_over(&dir);
    let bounds = db.bounding_cube();
    let knn = |k: usize| {
        QueryBatch::from_queries(vec![Query::Knn(KnnQuery {
            query: db.get(0).clone(),
            ts: bounds.t_min,
            te: bounds.t_max,
            k,
            measure: Dissimilarity::Edr { eps: 2_000.0 },
        })])
    };

    let everyone = coordinator.execute_batch(&knn(db.len())).expect("k = len");
    assert_eq!(everyone.status, ResponseStatus::Complete);
    assert_eq!(everyone.results[0].ids().map(<[_]>::len), Some(db.len()));
    let unbounded = coordinator
        .execute_batch(&knn(usize::MAX))
        .expect("k = MAX");
    assert_eq!(unbounded.status, ResponseStatus::Complete);
    assert_eq!(unbounded.results, everyone.results);

    let three = coordinator.execute_batch(&knn(3)).expect("the next round");
    assert_eq!(three.results[0].ids().map(<[_]>::len), Some(3));
    let mut direct = traj_serve::Client::connect(servers[0].local_addr()).expect("connect");
    assert!(
        direct.execute_batch(&knn(3)).is_ok(),
        "a shard's next client"
    );

    drop(coordinator);
    servers.into_iter().for_each(Server::shutdown);
    std::fs::remove_dir_all(&dir).ok();
}
