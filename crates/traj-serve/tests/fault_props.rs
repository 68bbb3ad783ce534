//! Property tests for the fault-injection proxy: every frame kind
//! (plain batch, coordinator handshake, shard batch), driven through
//! [`FaultProxy`] under every fault class (close, black-hole, delay,
//! bit-flip) at arbitrary byte offsets in either direction, yields
//! either the correct answer or a typed [`WireError`] — never a
//! silently wrong answer, and never a hang (client deadlines bound
//! every stall).

use std::net::SocketAddr;
use std::sync::OnceLock;
use std::time::Duration;

use proptest::prelude::*;
use traj_query::{
    DbOptions, Dissimilarity, KnnQuery, Query, QueryBatch, QueryExecutor, QueryResult,
    SimilarityQuery, TrajDb,
};
use traj_serve::wire::{encode_message, Message};
use traj_serve::{
    Client, ClientConfig, Fault, FaultDirection, FaultProxy, ServeOptions, Server, ShardInfo,
    ShardResult, WireError,
};
use trajectory::gen::{generate, DatasetSpec, Scale};
use trajectory::TrajectoryDb;

fn dataset() -> TrajectoryDb {
    generate(&DatasetSpec::tdrive(Scale::Smoke).with_trajectories(24), 3)
}

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

/// One server shared by all cases (leaked so it outlives the test fns)
/// plus the in-process ground truth for every exchange kind.
struct Fixture {
    server_addr: SocketAddr,
    batch: QueryBatch,
    results: Vec<QueryResult>,
    shard_results: Vec<ShardResult>,
    info: ShardInfo,
}

static FIXTURE: OnceLock<Fixture> = OnceLock::new();

fn fixture() -> &'static Fixture {
    FIXTURE.get_or_init(|| {
        let db = dataset();
        let truth = TrajDb::from_store(db.to_store(), DbOptions::new());
        let batch = mixed_batch(&db);
        let results = truth.execute_batch(&batch);
        let shard_results = batch
            .queries()
            .iter()
            .map(|q| truth.shard_result(q))
            .collect();
        let info = ShardInfo {
            trajs: truth.len() as u64,
            points: truth.total_points() as u64,
            has_kept: truth.has_kept_bitmap(),
            bounds: (truth.total_points() > 0).then(|| truth.bounding_cube()),
        };
        let served = TrajDb::from_store(db.to_store(), DbOptions::new());
        let server =
            Server::start(served, "127.0.0.1:0", ServeOptions::batched()).expect("start server");
        let server_addr = server.local_addr();
        // The server must outlive every proptest case; leak it.
        std::mem::forget(server);
        Fixture {
            server_addr,
            batch,
            results,
            shard_results,
            info,
        }
    })
}

#[derive(Debug, Clone, Copy)]
enum Exchange {
    Batch,
    Hello,
    Shard,
}

/// The request id every shard exchange in this suite is tagged with
/// (fixed so both directions of [`direction_len`] stay deterministic).
const SHARD_REQ_ID: u64 = 7;

/// Bytes each direction of the exchange carries, so generated offsets
/// land meaningfully inside (or just past) the stream.
fn direction_len(fx: &Fixture, exchange: Exchange, dir: FaultDirection) -> u64 {
    let msg = match (exchange, dir) {
        (Exchange::Batch, FaultDirection::ClientToServer) => Message::Request(fx.batch.clone()),
        (Exchange::Batch, FaultDirection::ServerToClient) => Message::Response(fx.results.clone()),
        (Exchange::Hello, FaultDirection::ClientToServer) => Message::Hello,
        (Exchange::Hello, FaultDirection::ServerToClient) => Message::ShardInfo(fx.info),
        (Exchange::Shard, FaultDirection::ClientToServer) => Message::ShardRequest {
            id: SHARD_REQ_ID,
            batch: fx.batch.clone(),
        },
        (Exchange::Shard, FaultDirection::ServerToClient) => Message::ShardResponse {
            id: SHARD_REQ_ID,
            results: fx.shard_results.clone(),
        },
    };
    encode_message(&msg).len() as u64
}

fn arb_direction() -> impl Strategy<Value = FaultDirection> {
    prop_oneof![
        Just(FaultDirection::ClientToServer),
        Just(FaultDirection::ServerToClient),
    ]
}

fn arb_exchange() -> impl Strategy<Value = Exchange> {
    prop_oneof![
        Just(Exchange::Batch),
        Just(Exchange::Hello),
        Just(Exchange::Shard),
    ]
}

/// (kind selector, fraction of the direction's byte length, bit, delay)
/// resolved into a concrete fault once the exchange is known.
fn resolve_fault(
    kind: u8,
    dir: FaultDirection,
    frac: f64,
    bit: u8,
    delay_ms: u64,
    len: u64,
) -> Fault {
    // frac ranges past 1.0 so some faults land beyond the stream end
    // (and must therefore be harmless).
    let offset = (frac * len as f64) as u64;
    match kind {
        0 => Fault::None,
        1 => Fault::CloseAt { dir, offset },
        2 => Fault::DropFrom { dir, offset },
        3 => Fault::DelayAt {
            dir,
            offset,
            delay: Duration::from_millis(delay_ms),
        },
        _ => Fault::FlipBit { dir, offset, bit },
    }
}

/// Faults that cannot corrupt or destroy the exchange must leave it
/// intact: `None`, a short delay, or any fault anchored past the last
/// byte its direction carries.
fn must_succeed(fault: &Fault, len_of_dir: u64) -> bool {
    match fault {
        Fault::None | Fault::DelayAt { .. } => true,
        Fault::CloseAt { offset, .. } | Fault::DropFrom { offset, .. } => *offset >= len_of_dir,
        Fault::FlipBit { offset, .. } => *offset >= len_of_dir,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn faulted_exchanges_answer_correctly_or_fail_typed(
        (exchange, kind, dir, frac, bit, delay_ms) in (
            arb_exchange(),
            0u8..5,
            arb_direction(),
            0.0..1.15f64,
            0u8..8,
            5u64..80,
        )
    ) {
        let fx = fixture();
        let len = direction_len(fx, exchange, dir);
        let fault = resolve_fault(kind, dir, frac, bit, delay_ms, len);

        let proxy = FaultProxy::start(fx.server_addr).expect("start proxy");
        proxy.set_fault(fault);
        let cfg = ClientConfig {
            connect_timeout: Some(Duration::from_millis(500)),
            read_timeout: Some(Duration::from_millis(600)),
            write_timeout: Some(Duration::from_millis(600)),
        };
        let mut client = Client::connect_with(proxy.local_addr(), &cfg).expect("connect");

        let outcome: Result<(), WireError> = match exchange {
            Exchange::Batch => client.execute_batch(&fx.batch).map(|got| {
                assert_eq!(got, fx.results, "fault {fault:?} changed batch results");
            }),
            Exchange::Hello => client.hello().map(|got| {
                assert_eq!(got, fx.info, "fault {fault:?} changed the handshake");
            }),
            Exchange::Shard => client.execute_shard_batch(&fx.batch, SHARD_REQ_ID).map(|got| {
                assert_eq!(got, fx.shard_results, "fault {fault:?} changed shard results");
            }),
        };

        match outcome {
            // Correct answer (asserted above): always acceptable.
            Ok(()) => {}
            Err(e) => {
                prop_assert!(
                    !must_succeed(&fault, len),
                    "harmless fault {fault:?} failed the exchange: {e}"
                );
                // A bit flip inside the stream must surface as a typed
                // protocol error (remote reject, decode error, or a
                // deadline if framing desynchronized) — never as raw
                // transport Io.
                if let Fault::FlipBit { offset, .. } = fault {
                    if offset < len {
                        prop_assert!(
                            !matches!(e, WireError::Io(_)),
                            "bit flip surfaced as untyped Io: {e}"
                        );
                    }
                }
            }
        }
    }
}

/// Targeted flips in the fields this wire revision added — the shard
/// request id (the first 8 payload bytes of both shard frame kinds)
/// and the `ShardInfo` bounds cube in the handshake reply — must land
/// as typed errors or leave the answer intact, never corrupt it.
#[test]
fn flips_in_request_id_and_bounds_bytes_land_typed() {
    let fx = fixture();
    assert!(
        fx.info.bounds.is_some(),
        "fixture dataset has points, so the handshake must carry bounds"
    );
    let cfg = ClientConfig {
        connect_timeout: Some(Duration::from_millis(500)),
        read_timeout: Some(Duration::from_millis(600)),
        write_timeout: Some(Duration::from_millis(600)),
    };
    // Stream offsets: the 12-byte header puts the shard request id at
    // 12..20; the ShardInfo payload (version u16, trajs u64, points
    // u64, has_kept u8, bounds-presence u8) puts the 48 cube bytes at
    // 32..80.
    let cases = [
        (Exchange::Shard, FaultDirection::ClientToServer, 12u64),
        (Exchange::Shard, FaultDirection::ClientToServer, 19),
        (Exchange::Shard, FaultDirection::ServerToClient, 12),
        (Exchange::Shard, FaultDirection::ServerToClient, 19),
        (Exchange::Hello, FaultDirection::ServerToClient, 31), // presence byte
        (Exchange::Hello, FaultDirection::ServerToClient, 32), // first cube byte
        (Exchange::Hello, FaultDirection::ServerToClient, 79), // last cube byte
    ];
    for (exchange, dir, offset) in cases {
        for bit in [0u8, 7] {
            let proxy = FaultProxy::start(fx.server_addr).expect("start proxy");
            proxy.set_fault(Fault::FlipBit { dir, offset, bit });
            let mut client = Client::connect_with(proxy.local_addr(), &cfg).expect("connect");
            let err = match exchange {
                Exchange::Shard => match client.execute_shard_batch(&fx.batch, SHARD_REQ_ID) {
                    Ok(got) => {
                        assert_eq!(got, fx.shard_results, "flip at {offset} changed results");
                        continue;
                    }
                    Err(e) => e,
                },
                Exchange::Hello => match client.hello() {
                    Ok(got) => {
                        assert_eq!(got, fx.info, "flip at {offset} changed the handshake");
                        continue;
                    }
                    Err(e) => e,
                },
                Exchange::Batch => unreachable!("no batch cases above"),
            };
            assert!(
                !matches!(err, WireError::Io(_)),
                "flip at {offset} bit {bit} ({dir:?}) surfaced as untyped Io: {err}"
            );
        }
    }
}
