//! Integration tests: a server over loopback answers byte-identically
//! to in-process `TrajDb` execution — for a mixed heterogeneous batch,
//! across every storage layout the façade auto-detects (snapshot,
//! shard directory, quantized snapshot) — and
//! the admission layer routes coalesced results back to the right
//! connection.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

use traj_query::{
    DbOptions, Dissimilarity, GenerationalDb, KnnQuery, Query, QueryBatch, QueryExecutor,
    QueryResult, SimilarityQuery, TrajDb,
};
use traj_serve::wire::{decode_message, encode_message, Message};
use traj_serve::{BatchConfig, Client, ServeOptions, Server};
use trajectory::gen::{generate, DatasetSpec, Scale};
use trajectory::shard::{partition, PartitionStrategy, ShardSet};
use trajectory::snapshot::{write_snapshot_quantized, write_snapshot_with, xxh64};
use trajectory::{KeepAll, KeptBitmap, Trajectory, TrajectoryDb};

fn unique_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join("qdts_loopback_tests");
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

/// Writes the three on-disk layouts and returns (label, path) pairs
/// whose `TrajDb::open` covers single, sharded and quantized openings.
fn layouts(db: &TrajectoryDb) -> Vec<(&'static str, PathBuf)> {
    let store = db.to_store();
    let n = store.total_points();
    // Keep every other point: a valid simplified database D' so
    // RangeKept answers Some over the snapshot layouts.
    let mut bitmap = KeptBitmap::zeros(n);
    for g in (0..n).step_by(2) {
        bitmap.insert(g as u32);
    }

    let snap = unique_path("loopback").with_extension("snap");
    write_snapshot_with(&store, Some(&bitmap), &snap).expect("write snapshot");

    let qsnap = unique_path("loopback_q").with_extension("snap");
    write_snapshot_quantized(&store, Some(&bitmap), 1e-3, &qsnap).expect("write quantized");

    let shard_dir = unique_path("loopback_shards");
    let shards = partition(&store, &PartitionStrategy::Time { parts: 3 });
    ShardSet::write(&shard_dir, &shards).expect("write shards");

    vec![
        ("snapshot", snap),
        ("shard directory", shard_dir),
        ("quantized snapshot", qsnap),
    ]
}

/// `db` cut into `parts` time ranges and served from memory.
fn time_sharded(db: &TrajectoryDb, parts: usize) -> TrajDb {
    let shards = partition(&db.to_store(), &PartitionStrategy::Time { parts });
    TrajDb::from_shards(
        shards.into_iter().map(Into::into).collect(),
        DbOptions::new(),
    )
}

#[test]
fn loopback_matches_in_process_on_every_layout() {
    let db = dataset();
    let batch = mixed_batch(&db);
    let layouts = layouts(&db);
    for (label, path) in &layouts {
        let expected = TrajDb::open(path, DbOptions::new())
            .expect("open for in-process baseline")
            .execute_batch(&batch);
        let server = Server::open(
            path,
            DbOptions::new(),
            "127.0.0.1:0",
            ServeOptions::batched(),
        )
        .expect("open + serve");
        let mut client = Client::connect(server.local_addr()).expect("connect");
        let got = client.execute_batch(&batch).expect("remote batch");
        assert_eq!(got, expected, "layout `{label}`: wire results diverge");
        // Byte-identical on the wire, not merely equal in memory:
        // re-encoding both sides gives the same frame.
        assert_eq!(
            encode_message(&Message::Response(got)),
            encode_message(&Message::Response(expected)),
            "layout `{label}`: encodings diverge"
        );
        server.shutdown();
    }
    for (_, path) in layouts {
        if path.is_dir() {
            std::fs::remove_dir_all(&path).ok();
        } else {
            std::fs::remove_file(&path).ok();
        }
    }
}

/// Many concurrent connections, each with a *different* query: the
/// admission layer must coalesce them into shared passes (linger makes
/// that overwhelmingly likely) yet route every result back to the
/// connection that asked.
#[test]
fn batched_admission_routes_results_to_the_right_connection() {
    let db = dataset();
    let store = db.to_store();
    let served = TrajDb::from_store(store, DbOptions::new());
    let in_process = TrajDb::from_store(db.to_store(), DbOptions::new());

    let bounds = db.bounding_cube();
    let clients = 8;
    let rounds = 6;
    // Per-client distinct range cubes (different x-slices).
    let queries: Vec<Query> = (0..clients)
        .map(|c| {
            let w = (bounds.x_max - bounds.x_min) / clients as f64;
            let x0 = bounds.x_min + c as f64 * w;
            Query::Range(trajectory::Cube::new(
                x0,
                x0 + w,
                bounds.y_min,
                bounds.y_max,
                bounds.t_min,
                bounds.t_max,
            ))
        })
        .collect();
    let expected: Vec<QueryResult> = queries.iter().map(|q| in_process.execute_one(q)).collect();

    let server = Server::start(
        served,
        "127.0.0.1:0",
        ServeOptions {
            batch: BatchConfig {
                max_queries: 64,
                linger: std::time::Duration::from_millis(2),
            },
            executors: 2,
        },
    )
    .expect("start server");
    let addr = server.local_addr();

    let barrier = Barrier::new(clients);
    std::thread::scope(|scope| {
        for (q, want) in queries.iter().zip(&expected) {
            let barrier = &barrier;
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                barrier.wait();
                for _ in 0..rounds {
                    let got = client.execute(q).expect("remote query");
                    assert_eq!(&got, want, "result routed to the wrong connection");
                }
            });
        }
    });

    let stats = server.stats();
    assert_eq!(stats.requests, (clients * rounds) as u64);
    assert_eq!(stats.queries, (clients * rounds) as u64);
    // The linger window actually coalesced concurrent connections.
    assert!(
        stats.mean_batch_size() > 1.0,
        "no coalescing happened (mean batch {})",
        stats.mean_batch_size()
    );
    server.shutdown();
}

/// A shard frame is one engine pass, counted like a coalesced batch: a
/// server that answered only `Request` and `ShardRequest` frames has
/// put every query it counted through a counted pass.
#[test]
fn shard_frames_count_as_engine_passes() {
    let db = dataset();
    let batch = mixed_batch(&db);
    let server = Server::start(
        TrajDb::from_db(&db, DbOptions::new()),
        "127.0.0.1:0",
        ServeOptions::batched(),
    )
    .expect("start server");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    for id in 0..3 {
        let material = client.execute_shard_batch(&batch, id).expect("shard frame");
        assert_eq!(material.len(), batch.len());
    }
    let stats = server.stats();
    assert_eq!(stats.batches, 3, "each shard frame is one pass");
    assert_eq!(stats.mean_batch_size(), batch.len() as f64);

    client.execute_batch(&batch).expect("request frame");
    let stats = server.stats();
    assert_eq!(stats.requests, 4);
    assert_eq!(stats.queries, 4 * batch.len() as u64);
    assert_eq!(stats.batched_queries, stats.queries);
    server.shutdown();
}

/// Corrupt frames get a typed error frame back; the protocol never
/// hangs the connection.
#[test]
fn corrupt_request_is_answered_with_an_error_frame() {
    use std::io::{Read, Write};

    let db = dataset();
    let served = TrajDb::from_store(db.to_store(), DbOptions::new());
    let server = Server::start(served, "127.0.0.1:0", ServeOptions::batched()).expect("start");

    let mut raw = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    let mut frame = encode_message(&Message::Request(QueryBatch::new()));
    let last = frame.len() - 1;
    frame[last] ^= 0x40; // break the checksum
    raw.write_all(&frame).expect("send corrupt frame");
    let reply = traj_serve::wire::read_message(&mut raw)
        .expect("typed error frame")
        .expect("frame, not EOF");
    match reply {
        Message::Error { code, .. } => {
            assert_eq!(code, traj_serve::server::ERR_BAD_REQUEST);
        }
        other => panic!("expected an error frame, got {other:?}"),
    }
    // Server closed the stream after the error: next read is EOF.
    let mut buf = [0u8; 1];
    assert_eq!(raw.read(&mut buf).expect("clean close"), 0);
    server.shutdown();
}

/// A kNN `k` is any `u64` on the wire. Over a sharded database — where
/// per-shard candidates are merged — `usize::MAX` must be answered with
/// every id, exactly like `k = len`, by a merge sized by its candidates,
/// and the server must keep serving: a second client's request
/// afterwards is answered too.
#[test]
fn an_unbounded_knn_k_is_answered_and_the_server_keeps_serving() {
    let db = dataset();
    let server =
        Server::start(time_sharded(&db, 2), "127.0.0.1:0", ServeOptions::batched()).expect("start");
    let bounds = db.bounding_cube();
    let knn = |k: usize| {
        Query::Knn(KnnQuery {
            query: db.get(0).clone(),
            ts: bounds.t_min,
            te: bounds.t_max,
            k,
            measure: Dissimilarity::Edr { eps: 2_000.0 },
        })
    };

    let mut first = Client::connect(server.local_addr()).expect("connect");
    let everyone = first.execute(&knn(db.len())).expect("k = len");
    assert_eq!(everyone.ids().map(<[_]>::len), Some(db.len()));
    assert_eq!(first.execute(&knn(usize::MAX)).expect("k = MAX"), everyone);
    assert_eq!(first.execute(&knn(1 << 60)).expect("k = 2^60"), everyone);

    let mut second = Client::connect(server.local_addr()).expect("second connect");
    let three = second
        .execute(&knn(3))
        .expect("a second client is answered");
    assert_eq!(three.ids().map(<[_]>::len), Some(3));
    server.shutdown();
}

/// A similarity `step` is any bit pattern on the wire. A step that never
/// advances the grid cursor (`1e-20` against timestamps of ~10^5 s) or
/// advances nothing anywhere (a subnormal) must come back — in bounded
/// memory — with the answer the default grid gives, over the wire and in
/// process alike.
#[test]
fn a_hostile_similarity_step_is_answered_like_the_default_step() {
    let db = dataset();
    let in_process = TrajDb::from_store(db.to_store(), DbOptions::new());
    let served = TrajDb::from_store(db.to_store(), DbOptions::new());
    let server = Server::start(served, "127.0.0.1:0", ServeOptions::batched()).expect("start");
    let probe = db.get(0).clone();
    let (ts, te) = probe.time_span();
    let similar = |step: f64| {
        Query::Similarity(SimilarityQuery {
            query: probe.clone(),
            ts,
            te,
            delta: 5_000.0,
            step,
        })
    };

    let mut client = Client::connect(server.local_addr()).expect("connect");
    let want = client.execute(&similar(0.0)).expect("default grid");
    assert!(
        want.ids().is_some_and(|ids| ids.contains(&0)),
        "the probe matches itself"
    );
    for step in [1e-20, f64::from_bits(1), f64::MIN_POSITIVE] {
        assert_eq!(client.execute(&similar(step)).expect("hostile step"), want);
        assert_eq!(in_process.execute_one(&similar(step)), want);
    }
    server.shutdown();
}

/// A t2vec `dim` of 0 would have the embedder take a remainder by zero
/// inside the engine pass. The frame is refused at the decoder with a
/// typed error, like any malformed frame, and the server keeps serving: a
/// second client's kNN afterwards is answered.
#[test]
fn a_zero_t2vec_dimension_is_refused_and_the_server_keeps_serving() {
    use std::io::Write;

    let db = dataset();
    let served = TrajDb::from_store(db.to_store(), DbOptions::new());
    let server = Server::start(served, "127.0.0.1:0", ServeOptions::batched()).expect("start");
    let bounds = db.bounding_cube();
    let knn = |measure: Dissimilarity| {
        Query::Knn(KnnQuery {
            query: db.get(0).clone(),
            ts: bounds.t_min,
            te: bounds.t_max,
            k: 3,
            measure,
        })
    };

    let hostile = knn(Dissimilarity::T2vec(traj_query::T2vecEmbedder {
        cell_size: 250.0,
        dim: 0,
    }));
    let mut raw = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    let frame = encode_message(&Message::Request(QueryBatch::from_queries(vec![hostile])));
    raw.write_all(&frame).expect("send the frame");
    match traj_serve::wire::read_message(&mut raw).expect("typed error frame") {
        Some(Message::Error { code, .. }) => {
            assert_eq!(code, traj_serve::server::ERR_BAD_REQUEST);
        }
        other => panic!("expected an error frame, got {other:?}"),
    }

    let mut second = Client::connect(server.local_addr()).expect("second connect");
    let three = second
        .execute(&knn(Dissimilarity::Edr { eps: 2_000.0 }))
        .expect("a second client is answered");
    assert_eq!(three.ids().map(<[_]>::len), Some(3));
    server.shutdown();
}

/// A frame header is a promise of bytes, not the bytes: a connection that
/// declares the largest payload, sends 1 KiB of it and stalls ties up its
/// own handler and nothing else — a second client is answered meanwhile —
/// and when it gives up it gets end-of-stream, not a reply.
#[test]
fn a_stalled_oversized_declaration_costs_only_its_own_connection() {
    use std::io::{Read, Write};

    let db = dataset();
    let served = TrajDb::from_store(db.to_store(), DbOptions::new());
    let server = Server::start(served, "127.0.0.1:0", ServeOptions::batched()).expect("start");

    let mut staller = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    let mut header = encode_message(&Message::Request(QueryBatch::new()));
    header.truncate(traj_serve::wire::HEADER_LEN);
    header[8..12].copy_from_slice(&(traj_serve::MAX_PAYLOAD as u32).to_le_bytes());
    staller.write_all(&header).expect("send the header");
    staller.write_all(&[0xAB; 1024]).expect("send 1 KiB of it");

    let batch = mixed_batch(&db);
    let mut second = Client::connect(server.local_addr()).expect("second connect");
    for _ in 0..3 {
        let got = second.execute_batch(&batch).expect("answered meanwhile");
        assert_eq!(got.len(), batch.len());
    }

    staller
        .shutdown(std::net::Shutdown::Write)
        .expect("give up mid-frame");
    let mut buf = [0u8; 1];
    assert_eq!(staller.read(&mut buf).expect("closed, not answered"), 0);
    assert_eq!(server.stats().requests, 3);
    server.shutdown();
}

/// The linger is a wait for peers that can still arrive. Under a window
/// of a minute: a lone client is answered at once; so is one beside a
/// coordinator's shard connection, which never sends a `Request` frame
/// and so is nobody's peer; and once a second client *has* queried, its
/// staying connected but silent past the window costs the first nothing.
#[test]
fn the_linger_waits_only_for_peers_that_can_still_arrive() {
    use std::time::{Duration, Instant};

    let db = dataset();
    let batch = mixed_batch(&db);
    let at_once = Duration::from_secs(5);
    let start = |linger| {
        let opts = ServeOptions {
            batch: BatchConfig {
                max_queries: 256,
                linger,
            },
            executors: 1,
        };
        Server::start(TrajDb::from_db(&db, DbOptions::new()), "127.0.0.1:0", opts).expect("start")
    };

    let server = start(Duration::from_secs(60));
    let mut lone = Client::connect(server.local_addr()).expect("connect");
    let mut shard_conn = Client::connect(server.local_addr()).expect("shard connection");
    shard_conn.hello().expect("handshake");
    shard_conn
        .execute_shard_batch(&batch, 1)
        .expect("shard frame");
    let started = Instant::now();
    for _ in 0..3 {
        lone.execute_batch(&batch).expect("request");
    }
    assert!(
        started.elapsed() < at_once,
        "a lone client lingered: {:?}",
        started.elapsed()
    );
    server.shutdown();

    // A second client queries once, then idles. The first client's next
    // request falls inside the window that pass opened and may spend it
    // waiting; the one after the window has run out may not.
    let window = Duration::from_millis(300);
    let server = start(window);
    let mut first = Client::connect(server.local_addr()).expect("connect");
    let mut idle = Client::connect(server.local_addr()).expect("idle connect");
    idle.execute_batch(&batch).expect("its one request");
    first
        .execute_batch(&batch)
        .expect("request inside the window");
    std::thread::sleep(window + Duration::from_millis(50));
    let started = Instant::now();
    first
        .execute_batch(&batch)
        .expect("request beside an idle peer");
    assert!(
        started.elapsed() < window / 2,
        "an idle connection was waited for: {:?}",
        started.elapsed()
    );
    server.shutdown();
}

/// The request frame a client that ships whole query trajectories sends
/// (the layout of `docs/WIRE_FORMAT.md`, written out by hand, since this
/// crate's encoder ships only each query's answer points).
fn whole_trajectory_request(queries: &[Query]) -> Vec<u8> {
    fn f64s(out: &mut Vec<u8>, values: &[f64]) {
        for v in values {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    fn trajectory(out: &mut Vec<u8>, t: &Trajectory) {
        out.extend_from_slice(&(t.len() as u32).to_le_bytes());
        for p in t.points() {
            f64s(out, &[p.x, p.y, p.t]);
        }
    }
    let mut payload = (queries.len() as u32).to_le_bytes().to_vec();
    for q in queries {
        match q {
            Query::Range(c) => {
                payload.push(0);
                f64s(
                    &mut payload,
                    &[c.x_min, c.x_max, c.y_min, c.y_max, c.t_min, c.t_max],
                );
            }
            Query::Knn(k) => {
                payload.push(1);
                trajectory(&mut payload, &k.query);
                f64s(&mut payload, &[k.ts, k.te]);
                payload.extend_from_slice(&(k.k as u64).to_le_bytes());
                match k.measure {
                    Dissimilarity::Edr { eps } => {
                        payload.push(0);
                        f64s(&mut payload, &[eps]);
                    }
                    Dissimilarity::T2vec(e) => {
                        payload.push(1);
                        f64s(&mut payload, &[e.cell_size]);
                        payload.extend_from_slice(&(e.dim as u64).to_le_bytes());
                    }
                }
            }
            Query::Similarity(s) => {
                payload.push(2);
                trajectory(&mut payload, &s.query);
                f64s(&mut payload, &[s.ts, s.te, s.delta, s.step]);
            }
            Query::RangeKept(_) => unreachable!("not in the batch below"),
        }
    }
    let mut frame = b"QWIR".to_vec();
    frame.extend_from_slice(&2u16.to_le_bytes()); // version
    frame.extend_from_slice(&[1, 0]); // kind: request, reserved
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&payload);
    let checksum = xxh64(&frame);
    frame.extend_from_slice(&checksum.to_le_bytes());
    frame
}

/// A client that ships whole query trajectories, as one written before
/// queries shipped their answer points does, speaks the same wire
/// version: its frame decodes to exactly the queries it holds, and an
/// owned, a sharded and a live server answer it as they answer the
/// trimmed frame of the stock client — and as the database answers in
/// process. The windows are a third of the probe's span, so the two
/// frames really differ.
#[test]
fn whole_trajectory_requests_are_answered_like_trimmed_ones() {
    use std::io::Write;

    let db = dataset();
    let probe = db.get(0).clone();
    let (t0, t1) = probe.time_span();
    let (ts, te) = (t0 + (t1 - t0) / 3.0, t0 + 2.0 * (t1 - t0) / 3.0);
    let knn = |k, measure| {
        Query::Knn(KnnQuery {
            query: probe.clone(),
            ts,
            te,
            k,
            measure,
        })
    };
    let batch = QueryBatch::from_queries(vec![
        Query::Range(db.bounding_cube()),
        knn(3, Dissimilarity::Edr { eps: 2_000.0 }),
        knn(2, Dissimilarity::t2vec_default()),
        Query::Similarity(SimilarityQuery {
            query: probe.clone(),
            ts,
            te,
            delta: 5_000.0,
            step: 600.0,
        }),
    ]);
    let whole = whole_trajectory_request(batch.queries());
    let trimmed = encode_message(&Message::Request(batch.clone()));
    assert!(
        whole.len() > trimmed.len(),
        "{} whole against {} trimmed bytes",
        whole.len(),
        trimmed.len()
    );
    let Message::Request(decoded) = decode_message(&whole).expect("a whole-trajectory frame")
    else {
        panic!("kind preserved");
    };
    assert_eq!(decoded.queries(), batch.queries());

    let answers_alike = |label: &str, server: Server, expected: Vec<QueryResult>| {
        let mut client = Client::connect(server.local_addr()).expect("connect");
        let got = client.execute_batch(&batch).expect("trimmed frame");
        assert_eq!(got, expected, "{label}: trimmed frame");
        let mut raw = std::net::TcpStream::connect(server.local_addr()).expect("connect");
        raw.write_all(&whole)
            .expect("send the whole-trajectory frame");
        match traj_serve::wire::read_message(&mut raw).expect("a reply") {
            Some(Message::Response(got)) => {
                assert_eq!(got, expected, "{label}: whole-trajectory frame");
            }
            other => panic!("{label}: expected a response, got {other:?}"),
        }
        server.shutdown();
    };

    let owned = || TrajDb::from_store(db.to_store(), DbOptions::new());
    let expected = owned().execute_batch(&batch);
    let server = Server::start(owned(), "127.0.0.1:0", ServeOptions::batched()).expect("start");
    answers_alike("owned", server, expected);

    let expected = time_sharded(&db, 3).execute_batch(&batch);
    let server =
        Server::start(time_sharded(&db, 3), "127.0.0.1:0", ServeOptions::batched()).expect("start");
    answers_alike("sharded", server, expected);

    // Live: two thirds of the trajectories in the base, the rest ingested
    // into the delta before the queries arrive.
    let trajs: Vec<Trajectory> = db.iter().map(|(_, t)| t.clone()).collect();
    let (base, extra) = trajs.split_at(2 * trajs.len() / 3);
    let base: TrajectoryDb = base.iter().cloned().collect();
    let dir = unique_path("loopback_live");
    let live = std::sync::Arc::new(
        GenerationalDb::create(
            &dir,
            &base.to_store(),
            DbOptions::new(),
            Box::new(|| Box::new(KeepAll)),
        )
        .expect("create a live database"),
    );
    let server = Server::start(
        std::sync::Arc::clone(&live),
        "127.0.0.1:0",
        ServeOptions::batched(),
    )
    .expect("start");
    let ack = Client::connect(server.local_addr())
        .expect("connect")
        .ingest(extra)
        .expect("ingest acked");
    assert_eq!(ack.accepted as usize, extra.len());
    answers_alike("live", server, live.execute_batch(&batch));
    std::fs::remove_dir_all(&dir).ok();
}
