//! Integration tests for wire-format ingestion: a live server accepts
//! `Ingest` frames concurrently with queries, acks only after the WAL
//! sync, serves the new trajectories immediately and byte-identically
//! to in-process execution, survives a server restart, and a server
//! fronting an immutable snapshot rejects writes with a typed error.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use traj_query::{
    spawn_compactor, DbOptions, Dissimilarity, GenerationalDb, KnnQuery, Query, QueryBatch,
    QueryExecutor, SimilarityQuery, SimpFactory, TrajDb,
};
use traj_serve::{Client, ServeOptions, Server, ShardResult, WireError, ERR_READ_ONLY};
use trajectory::gen::{generate, DatasetSpec, Scale};
use trajectory::snapshot::write_snapshot;
use trajectory::{KeepAll, Trajectory, TrajectoryDb};

fn unique_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join("qdts_ingest_tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!(
        "{tag}_{}_{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

fn keep_all() -> SimpFactory {
    Box::new(|| Box::new(KeepAll))
}

fn dataset(seed: u64, trajs: usize) -> TrajectoryDb {
    generate(
        &DatasetSpec::tdrive(Scale::Smoke).with_trajectories(trajs),
        seed,
    )
}

/// A batch exercising every query variant against `db`'s bounds.
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
    QueryBatch::from_queries(vec![
        Query::Range(cube),
        Query::Knn(KnnQuery {
            query: probe.clone(),
            ts: bounds.t_min,
            te: mid_t,
            k: 3,
            measure: Dissimilarity::Edr { eps: 2_000.0 },
        }),
        Query::Similarity(SimilarityQuery {
            query: probe,
            ts: bounds.t_min,
            te: mid_t,
            delta: 5_000.0,
            step: 600.0,
        }),
        Query::RangeKept(cube),
    ])
}

fn trajs_of(db: &TrajectoryDb) -> Vec<Trajectory> {
    db.iter().map(|(_, t)| t.clone()).collect()
}

#[test]
fn live_server_ingests_and_serves_immediately() {
    let base = dataset(3, 12);
    let extra = dataset(17, 5);
    let dir = unique_dir("serve");
    let db = Arc::new(
        GenerationalDb::create(&dir, &base.to_store(), DbOptions::new(), keep_all())
            .expect("create"),
    );
    let server = Server::start(Arc::clone(&db), "127.0.0.1:0", ServeOptions::batched())
        .expect("server start");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let new_trajs = trajs_of(&extra);
    let ack = client.ingest(&new_trajs).expect("ingest acked");
    assert_eq!(ack.accepted, new_trajs.len() as u32);
    assert_eq!(ack.rejected, 0);
    assert_eq!(ack.first_id, Some(base.len()));
    assert_eq!(ack.total_trajs, (base.len() + new_trajs.len()) as u64);

    // The ack means queryable *now*: the wire answers match in-process
    // execution over the merged view, and the new ids are reachable.
    let combined: TrajectoryDb = trajs_of(&base).into_iter().chain(new_trajs).collect();
    let batch = mixed_batch(&combined);
    let over_wire = client.execute_batch(&batch).expect("batch over wire");
    let in_process = db.execute_batch(&batch);
    assert_eq!(over_wire, in_process);
    assert_eq!(db.len(), combined.len());

    let stats = server.stats();
    assert_eq!(stats.ingests, 1);
    assert_eq!(stats.ingested_trajs, extra.len() as u64);

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A live server is as good a shard as a static one: it answers the
/// coordinator's handshake and `ShardRequest` frames byte-identically
/// to a static server over the same trajectories — while the data
/// still sits in the delta, and again after a compaction folded it.
#[test]
fn live_shard_frames_match_a_static_server_across_compaction() {
    let base = dataset(7, 10);
    let extra = dataset(29, 6);
    let combined: TrajectoryDb = trajs_of(&base)
        .into_iter()
        .chain(trajs_of(&extra))
        .collect();
    let batch = mixed_batch(&combined);

    let static_server = Server::start(
        TrajDb::from_db(&combined, DbOptions::new()),
        "127.0.0.1:0",
        ServeOptions::batched(),
    )
    .expect("static server");
    let mut static_client = Client::connect(static_server.local_addr()).expect("connect");
    let want_info = static_client.hello().expect("static hello");
    let want = static_client
        .execute_shard_batch(&batch, 1)
        .expect("static shard batch");

    let dir = unique_dir("live_shard");
    let db = Arc::new(
        GenerationalDb::create(&dir, &base.to_store(), DbOptions::new(), keep_all())
            .expect("create"),
    );
    let live_server = Server::start(Arc::clone(&db), "127.0.0.1:0", ServeOptions::batched())
        .expect("live server");
    let mut live_client = Client::connect(live_server.local_addr()).expect("connect");
    live_client.ingest(&trajs_of(&extra)).expect("ingest acked");

    for phase in ["delta", "compacted"] {
        assert_eq!(
            live_client.hello().expect("live hello"),
            want_info,
            "{phase}"
        );
        assert_eq!(
            live_client
                .execute_shard_batch(&batch, 2)
                .expect("live shard batch"),
            want,
            "{phase}: live shard material diverges from the static server's"
        );
        assert_eq!(
            db.compact().expect("compact").generation,
            1,
            "one fold, then a no-op"
        );
    }
    assert_eq!(db.delta_points(), 0);

    static_server.shutdown();
    live_server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// One segment list per frame: while a writer appends and the stock
/// compactor folds, every repeat of a query inside one `ShardRequest`
/// frame gets the same answer — the frame is answered from one state
/// of the database, never straddling an ingest or a fold.
#[test]
fn a_live_shard_answers_each_frame_from_one_state() {
    let base = dataset(13, 10);
    let pool = trajs_of(&dataset(41, 40));
    let dir = unique_dir("live_frames");
    let db = Arc::new(
        GenerationalDb::create(&dir, &base.to_store(), DbOptions::new(), keep_all())
            .expect("create"),
    );
    // A fold every few appended trajectories.
    let compactor = spawn_compactor(Arc::clone(&db), 200, Duration::from_millis(1));
    let server = Server::start(Arc::clone(&db), "127.0.0.1:0", ServeOptions::batched())
        .expect("server start");
    let addr = server.local_addr();

    // Both queries see every trajectory ever appended: the cube covers
    // the generator's whole domain, the kNN wants more neighbours than
    // exist. Any append between two repeats would show.
    let everywhere = trajectory::Cube::new(-1e12, 1e12, -1e12, 1e12, -1e12, 1e12);
    let knn = Query::Knn(KnnQuery {
        query: Trajectory::new(base.get(0).points()[..2].to_vec()).expect("two points"),
        ts: everywhere.t_min,
        te: everywhere.t_max,
        k: 1_000_000,
        measure: Dissimilarity::Edr { eps: 2_000.0 },
    });
    const REPEATS: usize = 4;
    let frame: QueryBatch = (0..REPEATS)
        .flat_map(|_| [Query::Range(everywhere), knn.clone()])
        .collect();

    let stop = AtomicBool::new(false);
    let start = Barrier::new(2);
    let (mut sizes_seen, appended) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut client = Client::connect(addr).expect("writer connect");
            start.wait();
            let mut appended = 0usize;
            for t in pool.iter().cycle() {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                client
                    .ingest(std::slice::from_ref(t))
                    .expect("ingest acked");
                appended += 1;
            }
            appended
        });
        // Stops the writer when the reader is done — or fails.
        struct StopOnDrop<'a>(&'a AtomicBool);
        impl Drop for StopOnDrop<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::Relaxed);
            }
        }
        let stop_writer = StopOnDrop(&stop);
        let mut client = Client::connect(addr).expect("reader connect");
        start.wait();
        let mut sizes_seen = Vec::new();
        for id in 0..300 {
            let material = client
                .execute_shard_batch(&frame, id)
                .expect("frame answered");
            for repeat in material.chunks(2).skip(1) {
                assert_eq!(
                    repeat,
                    &material[..2],
                    "frame {id}: repeats of one query disagree inside one frame"
                );
            }
            match &material[0] {
                ShardResult::Ids(ids) => sizes_seen.push(ids.len()),
                other => panic!("range answered with {other:?}"),
            }
        }
        drop(stop_writer);
        (sizes_seen, writer.join().expect("writer"))
    });

    // The frames did run beside the writer, not before or after it.
    assert!(sizes_seen.windows(2).all(|w| w[0] <= w[1]));
    sizes_seen.dedup();
    assert!(
        sizes_seen.len() > 10,
        "only {} database states over 300 frames ({appended} appends)",
        sizes_seen.len()
    );
    compactor.shutdown();
    assert!(db.generation() > 0, "the compactor never folded");
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ingested_data_survives_a_server_restart() {
    let base = dataset(5, 8);
    let extra = dataset(23, 4);
    let dir = unique_dir("restart");
    let db = Arc::new(
        GenerationalDb::create(&dir, &base.to_store(), DbOptions::new(), keep_all())
            .expect("create"),
    );
    let server = Server::start(Arc::clone(&db), "127.0.0.1:0", ServeOptions::batched())
        .expect("server start");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.ingest(&trajs_of(&extra)).expect("ingest acked");
    server.shutdown();
    drop(client);
    drop(db); // release the WAL file before reopening the directory

    // A fresh process opening the same directory replays the WAL and
    // serves everything the old server acked.
    let reopened = Arc::new(
        GenerationalDb::open(&dir, DbOptions::new(), keep_all()).expect("reopen after restart"),
    );
    assert_eq!(reopened.len(), base.len() + extra.len());
    let server = Server::start(
        Arc::clone(&reopened),
        "127.0.0.1:0",
        ServeOptions::batched(),
    )
    .expect("second server");
    let mut client = Client::connect(server.local_addr()).expect("reconnect");
    let combined: TrajectoryDb = trajs_of(&base)
        .into_iter()
        .chain(trajs_of(&extra))
        .collect();
    let batch = mixed_batch(&combined);
    assert_eq!(
        client.execute_batch(&batch).expect("batch after restart"),
        reopened.execute_batch(&batch)
    );
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn static_server_rejects_ingest_with_a_typed_error() {
    let base = dataset(7, 6);
    let snap = unique_dir("static").with_extension("snap");
    write_snapshot(&base.to_store(), &snap).expect("write snapshot");
    let db = TrajDb::open(&snap, DbOptions::new()).expect("open snapshot");
    let server = Server::start(db, "127.0.0.1:0", ServeOptions::batched()).expect("server start");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let err = client
        .ingest(&trajs_of(&base))
        .expect_err("read-only must reject");
    match err {
        WireError::Remote { code, .. } => assert_eq!(code, ERR_READ_ONLY),
        other => panic!("expected a Remote error, got {other}"),
    }

    // The connection stays usable for reads after the typed rejection.
    let batch = mixed_batch(&base);
    let results = client.execute_batch(&batch).expect("reads still served");
    assert_eq!(results.len(), batch.len());
    server.shutdown();
    std::fs::remove_file(&snap).ok();
}

#[test]
fn concurrent_writers_and_readers_stay_consistent() {
    let base = dataset(11, 10);
    let dir = unique_dir("mixed");
    let db = Arc::new(
        GenerationalDb::create(&dir, &base.to_store(), DbOptions::new(), keep_all())
            .expect("create"),
    );
    let server = Server::start(Arc::clone(&db), "127.0.0.1:0", ServeOptions::batched())
        .expect("server start");
    let addr = server.local_addr();

    const WRITERS: usize = 3;
    const BATCHES: usize = 4;
    let barrier = Arc::new(Barrier::new(WRITERS + 1));
    let mut handles = Vec::new();
    for w in 0..WRITERS {
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("writer connect");
            barrier.wait();
            let mut accepted = 0u64;
            for b in 0..BATCHES {
                let chunk = dataset(100 + (w * BATCHES + b) as u64, 2);
                let ack = client.ingest(&trajs_of(&chunk)).expect("ingest acked");
                accepted += u64::from(ack.accepted);
            }
            accepted
        }));
    }
    // One reader hammers range queries while the writers append; every
    // response must be well-formed and monotonically growing in ids.
    let reader = {
        let bounds = base.bounding_cube();
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("reader connect");
            let mut seen_max = 0usize;
            for _ in 0..24 {
                let batch = QueryBatch::from_queries(vec![Query::Range(bounds)]);
                let results = client.execute_batch(&batch).expect("read during writes");
                if let traj_query::QueryResult::Range(ids) = &results[0] {
                    if let Some(max) = ids.iter().max() {
                        assert!(*max >= seen_max || seen_max == 0);
                        seen_max = *max;
                    }
                }
            }
        })
    };
    barrier.wait();
    let written: u64 = handles.into_iter().map(|h| h.join().expect("writer")).sum();
    reader.join().expect("reader");

    assert_eq!(written, (WRITERS * BATCHES * 2) as u64);
    assert_eq!(db.len(), base.len() + written as usize);
    // Everything acked is durable: reopen from disk and compare counts.
    server.shutdown();
    drop(db);
    let reopened =
        GenerationalDb::open(&dir, DbOptions::new(), keep_all()).expect("reopen after writes");
    assert_eq!(reopened.len(), base.len() + written as usize);
    std::fs::remove_dir_all(&dir).ok();
}

/// A kNN `k` of `usize::MAX` over a live database with a non-empty delta
/// — base and delta candidates are merged — is answered with every id,
/// exactly like `k = len`, and the `live-rw` server keeps serving a
/// second client afterwards.
#[test]
fn an_unbounded_knn_k_is_answered_by_a_live_server_which_keeps_serving() {
    let base = dataset(3, 12);
    let extra = dataset(17, 5);
    let dir = unique_dir("unbounded_k");
    let db = Arc::new(
        GenerationalDb::create(&dir, &base.to_store(), DbOptions::new(), keep_all())
            .expect("create"),
    );
    let server = Server::start(Arc::clone(&db), "127.0.0.1:0", ServeOptions::batched())
        .expect("server start");
    let mut first = Client::connect(server.local_addr()).expect("connect");
    first.ingest(&trajs_of(&extra)).expect("ingest acked");
    let total = base.len() + extra.len();

    let bounds = base.bounding_cube();
    let knn = |k: usize| {
        Query::Knn(KnnQuery {
            query: base.get(0).clone(),
            ts: bounds.t_min,
            te: bounds.t_max,
            k,
            measure: Dissimilarity::Edr { eps: 2_000.0 },
        })
    };
    let everyone = first.execute(&knn(total)).expect("k = len");
    assert_eq!(everyone.ids().map(<[_]>::len), Some(total));
    assert_eq!(first.execute(&knn(usize::MAX)).expect("k = MAX"), everyone);

    let mut second = Client::connect(server.local_addr()).expect("second connect");
    let three = second
        .execute(&knn(3))
        .expect("a second client is answered");
    assert_eq!(three.ids().map(<[_]>::len), Some(3));
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// An ingest-only writer never sends a `Request` frame, so it is never a
/// peer a pass lingers for: under a one-minute window the reader beside
/// it — the only query peer — is answered at once, before and after the
/// writer's frames.
#[test]
fn an_ingest_only_writer_is_never_lingered_for() {
    use std::time::{Duration, Instant};

    let base = dataset(3, 12);
    let dir = unique_dir("writer_peer");
    let db = Arc::new(
        GenerationalDb::create(&dir, &base.to_store(), DbOptions::new(), keep_all())
            .expect("create"),
    );
    let opts = ServeOptions {
        batch: traj_serve::BatchConfig {
            max_queries: 256,
            linger: Duration::from_secs(60),
        },
        executors: 1,
    };
    let server = Server::start(Arc::clone(&db), "127.0.0.1:0", opts).expect("server start");
    let mut writer = Client::connect(server.local_addr()).expect("writer connect");
    let mut reader = Client::connect(server.local_addr()).expect("reader connect");
    let batch = mixed_batch(&base);

    let started = Instant::now();
    for seed in [17, 19, 23] {
        reader.execute_batch(&batch).expect("read");
        let ack = writer.ingest(&trajs_of(&dataset(seed, 2))).expect("ingest");
        assert_eq!(ack.accepted, 2);
        reader.execute_batch(&batch).expect("read after write");
    }
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "the reader lingered for the writer: {:?}",
        started.elapsed()
    );
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
