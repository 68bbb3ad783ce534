//! Property-based tests for the wire format, mirroring the snapshot
//! corruption suites: every `Query`/`QueryResult`/`QueryBatch` variant
//! round-trips through a frame — exactly, except that a kNN or
//! similarity query arrives as its answer points — and *any* single-bit
//! flip, truncation, or oversized length prefix is rejected with a typed
//! [`WireError`] — never a panic, never silently wrong data.

use proptest::prelude::*;
use traj_query::{
    Dissimilarity, KnnQuery, Query, QueryBatch, QueryResult, SimilarityQuery, T2vecEmbedder,
};
use traj_serve::wire::{
    decode_message, encode_message, IngestAck, Message, ShardInfo, ShardResult, WireError,
    CHECKSUM_LEN, HEADER_LEN, KIND_RESPONSE, MAGIC, MAX_PAYLOAD, MAX_T2VEC_DIM, VERSION,
};
use trajectory::snapshot::xxh64;
use trajectory::{Cube, Point, Trajectory};

fn arb_cube() -> impl Strategy<Value = Cube> {
    (
        -1e6..1e6f64,
        0.0..1e5f64,
        -1e6..1e6f64,
        0.0..1e5f64,
        0.0..1e9f64,
        0.0..1e6f64,
    )
        .prop_map(|(x, dx, y, dy, t, dt)| Cube::new(x, x + dx, y, y + dy, t, t + dt))
}

fn arb_trajectory() -> impl Strategy<Value = Trajectory> {
    prop::collection::vec((-1e5..1e5f64, -1e5..1e5f64, 0.001..60.0f64), 1..20).prop_map(|steps| {
        let mut t = 0.0;
        let pts = steps
            .into_iter()
            .map(|(x, y, dt)| {
                t += dt;
                Point::new(x, y, t)
            })
            .collect();
        Trajectory::new(pts).expect("generated trajectories are valid")
    })
}

fn arb_measure() -> impl Strategy<Value = Dissimilarity> {
    prop_oneof![
        (1.0..1e5f64).prop_map(|eps| Dissimilarity::Edr { eps }),
        (10.0..1e4f64, 1usize..256).prop_map(|(cell_size, dim)| {
            Dissimilarity::T2vec(T2vecEmbedder { cell_size, dim })
        }),
    ]
}

/// A query window `(ts, te)`. Mostly over the generated trajectories
/// (which start after 0 s and end before 1 200 s) — inside, across either
/// end, or reversed — so the answer points are a strict part of the
/// trajectory; sometimes anywhere up to 10⁶ s, where they are one sample.
fn arb_window() -> impl Strategy<Value = (f64, f64)> {
    prop_oneof![
        3 => (-100.0..1_300.0f64, -50.0..600.0f64).prop_map(|(ts, dte)| (ts, ts + dte)),
        1 => (0.0..1e6f64, 0.0..1e6f64).prop_map(|(ts, dte)| (ts, ts + dte)),
    ]
}

fn arb_query() -> impl Strategy<Value = Query> {
    prop_oneof![
        arb_cube().prop_map(Query::Range),
        (arb_trajectory(), arb_window(), 1usize..50, arb_measure()).prop_map(
            |(query, (ts, te), k, measure)| {
                Query::Knn(KnnQuery {
                    query,
                    ts,
                    te,
                    k,
                    measure,
                })
            }
        ),
        (arb_trajectory(), arb_window(), 1.0..1e5f64, 1.0..1e4f64).prop_map(
            |(query, (ts, te), delta, step)| {
                Query::Similarity(SimilarityQuery {
                    query,
                    ts,
                    te,
                    delta,
                    step,
                })
            }
        ),
        arb_cube().prop_map(Query::RangeKept),
    ]
}

fn arb_ids() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0usize..1_000_000, 0..40)
}

/// Any id list the codec must carry exactly: ids anywhere in the type's
/// range, 0 and the largest id included, in any order — as drawn, ascending
/// as a range answer, descending — or with every id repeated.
fn arb_any_ids() -> impl Strategy<Value = Vec<usize>> {
    let id = prop_oneof![
        Just(0usize),
        Just(u64::MAX as usize),
        any::<usize>(),
        0usize..1_000,
    ];
    (prop::collection::vec(id, 0..40), 0u8..4).prop_map(|(mut ids, shape)| {
        match shape {
            0 => ids.sort_unstable(),
            1 => ids.sort_unstable_by(|a, b| b.cmp(a)),
            2 => ids = ids.iter().flat_map(|&id| [id, id]).collect(),
            _ => {}
        }
        ids
    })
}

fn arb_result() -> impl Strategy<Value = QueryResult> {
    prop_oneof![
        arb_ids().prop_map(QueryResult::Range),
        arb_ids().prop_map(QueryResult::Knn),
        arb_ids().prop_map(QueryResult::Similarity),
        prop_oneof![Just(None), arb_ids().prop_map(Some)].prop_map(QueryResult::RangeKept),
    ]
}

/// Scored kNN candidate lists as a shard produces them: finite,
/// non-negative-zero distances, strictly ascending in `(distance, id)`
/// (the decode-side invariant).
fn arb_candidates() -> impl Strategy<Value = Vec<(f64, usize)>> {
    prop::collection::vec((0.0..1e6f64, 0usize..1_000_000), 0..40).prop_map(|mut cands| {
        cands.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        cands.dedup_by(|a, b| a.0 == b.0 && a.1 == b.1);
        cands
    })
}

fn arb_shard_result() -> impl Strategy<Value = ShardResult> {
    prop_oneof![
        arb_ids().prop_map(ShardResult::Ids),
        prop_oneof![Just(None), arb_ids().prop_map(Some)].prop_map(ShardResult::Kept),
        arb_candidates().prop_map(ShardResult::Candidates),
    ]
}

fn arb_shard_info() -> impl Strategy<Value = ShardInfo> {
    (
        0u64..1 << 48,
        0u64..1 << 48,
        any::<bool>(),
        prop_oneof![Just(None), arb_cube().prop_map(Some)],
    )
        .prop_map(|(trajs, points, has_kept, bounds)| ShardInfo {
            trajs,
            points,
            has_kept,
            bounds,
        })
}

/// Ingest acks as a live server produces them: `first_id` present
/// exactly when something was accepted (the decode-side invariant).
fn arb_ingest_ack() -> impl Strategy<Value = IngestAck> {
    (
        0u32..10_000,
        0u32..10_000,
        0usize..1_000_000,
        0u64..1 << 48,
        0u64..1 << 48,
    )
        .prop_map(
            |(accepted, rejected, first, total_trajs, total_points)| IngestAck {
                accepted,
                rejected,
                first_id: (accepted > 0).then_some(first),
                total_trajs,
                total_points,
            },
        )
}

fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        prop::collection::vec(arb_query(), 0..8)
            .prop_map(|qs| Message::Request(QueryBatch::from_queries(qs))),
        prop::collection::vec(arb_result(), 0..8).prop_map(Message::Response),
        (prop::collection::vec(32u8..127, 0..60), 0u16..100).prop_map(|(bytes, code)| {
            Message::Error {
                code,
                message: String::from_utf8(bytes).expect("printable ASCII"),
            }
        }),
        Just(Message::Hello),
        arb_shard_info().prop_map(Message::ShardInfo),
        (any::<u64>(), prop::collection::vec(arb_query(), 0..8)).prop_map(|(id, qs)| {
            Message::ShardRequest {
                id,
                batch: QueryBatch::from_queries(qs),
            }
        }),
        (
            any::<u64>(),
            prop::collection::vec(arb_shard_result(), 0..8)
        )
            .prop_map(|(id, results)| Message::ShardResponse { id, results }),
        prop::collection::vec(arb_trajectory(), 0..6).prop_map(Message::Ingest),
        arb_ingest_ack().prop_map(Message::IngestAck),
    ]
}

/// `q` as it arrives: a kNN or similarity query over its answer points.
fn answer_form(q: &Query) -> Query {
    let trimmed = |points: &[Point]| Trajectory::new(points.to_vec()).expect("a run of samples");
    match q {
        Query::Knn(k) => Query::Knn(KnnQuery {
            query: trimmed(k.answer_points()),
            ..k.clone()
        }),
        Query::Similarity(s) => Query::Similarity(SimilarityQuery {
            query: trimmed(s.answer_points()),
            ..s.clone()
        }),
        Query::Range(_) | Query::RangeKept(_) => q.clone(),
    }
}

/// `msg` as it arrives: every query of a request in its
/// [`answer_form`], everything else as it was.
fn arrives_as(msg: &Message) -> Message {
    let batch =
        |b: &QueryBatch| QueryBatch::from_queries(b.queries().iter().map(answer_form).collect());
    match msg {
        Message::Request(b) => Message::Request(batch(b)),
        Message::ShardRequest { id, batch: b } => Message::ShardRequest {
            id: *id,
            batch: batch(b),
        },
        other => other.clone(),
    }
}

/// Structural equality over messages (Query intentionally has no Eq
/// impl beyond PartialEq; compare per variant).
fn assert_message_eq(a: &Message, b: &Message) -> Result<(), TestCaseError> {
    match (a, b) {
        (Message::Request(x), Message::Request(y)) => {
            prop_assert_eq!(x.queries(), y.queries());
        }
        (Message::Response(x), Message::Response(y)) => {
            prop_assert_eq!(x, y);
        }
        (
            Message::Error {
                code: ca,
                message: ma,
            },
            Message::Error {
                code: cb,
                message: mb,
            },
        ) => {
            prop_assert_eq!(ca, cb);
            prop_assert_eq!(ma, mb);
        }
        (Message::Hello, Message::Hello) => {}
        (Message::ShardInfo(x), Message::ShardInfo(y)) => {
            prop_assert_eq!(x, y);
        }
        (
            Message::ShardRequest { id: ia, batch: x },
            Message::ShardRequest { id: ib, batch: y },
        ) => {
            prop_assert_eq!(ia, ib);
            prop_assert_eq!(x.queries(), y.queries());
        }
        (
            Message::ShardResponse { id: ia, results: x },
            Message::ShardResponse { id: ib, results: y },
        ) => {
            prop_assert_eq!(ia, ib);
            prop_assert_eq!(x, y);
        }
        (Message::Ingest(x), Message::Ingest(y)) => {
            prop_assert_eq!(x, y);
        }
        (Message::IngestAck(x), Message::IngestAck(y)) => {
            prop_assert_eq!(x, y);
        }
        _ => prop_assert!(false, "message kind changed in round trip"),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_message_round_trips_to_its_answer_form(msg in arb_message()) {
        let frame = encode_message(&msg);
        let decoded = decode_message(&frame).expect("own encoding decodes");
        assert_message_eq(&arrives_as(&msg), &decoded)?;
    }

    /// A message already in answer form — and so every message that
    /// carries no kNN or similarity query, `Ingest` included —
    /// round-trips exactly, to the same frame.
    #[test]
    fn a_message_in_answer_form_round_trips_exactly(msg in arb_message()) {
        let msg = arrives_as(&msg);
        let frame = encode_message(&msg);
        let decoded = decode_message(&frame).expect("own encoding decodes");
        assert_message_eq(&msg, &decoded)?;
        prop_assert_eq!(encode_message(&decoded), frame);
    }

    /// Ingested trajectories are data, not query probes: every sample of
    /// every trajectory is written and comes back, whatever its times.
    #[test]
    fn ingest_trajectories_are_never_trimmed(trajs in prop::collection::vec(arb_trajectory(), 0..6)) {
        let frame = encode_message(&Message::Ingest(trajs.clone()));
        let points: usize = trajs.iter().map(Trajectory::len).sum();
        prop_assert_eq!(frame.len(), HEADER_LEN + 4 + 4 * trajs.len() + 24 * points + CHECKSUM_LEN);
        match decode_message(&frame).expect("own encoding decodes") {
            Message::Ingest(decoded) => prop_assert_eq!(decoded, trajs),
            other => prop_assert!(false, "kind changed: {:?}", other),
        }
    }

    #[test]
    fn every_single_bit_flip_is_rejected(
        (msg, pos, bit) in (arb_message(), 0.0..1.0f64, 0u8..8)
    ) {
        let mut frame = encode_message(&msg);
        let idx = ((frame.len() - 1) as f64 * pos) as usize;
        frame[idx] ^= 1 << bit;
        let err = decode_message(&frame);
        prop_assert!(err.is_err(), "bit {bit} flip at {idx} accepted");
        // Typed, never an Io error from a buffer decode.
        prop_assert!(
            !matches!(err.unwrap_err(), WireError::Io(_)),
            "corruption surfaced as Io"
        );
    }

    #[test]
    fn every_truncation_is_rejected(
        (msg, frac) in (arb_message(), 0.0..1.0f64)
    ) {
        let frame = encode_message(&msg);
        let cut = ((frame.len() - 1) as f64 * frac) as usize;
        let err = decode_message(&frame[..cut]).unwrap_err();
        prop_assert!(
            matches!(err, WireError::Truncated { .. }),
            "cut at {cut}/{} gave {err}",
            frame.len()
        );
    }

    #[test]
    fn oversized_length_prefixes_are_rejected_before_allocation(
        (msg, extra) in (arb_message(), 1u64..u32::MAX as u64)
    ) {
        let mut frame = encode_message(&msg);
        let huge = (MAX_PAYLOAD as u64 + extra).min(u32::MAX as u64) as u32;
        frame[8..12].copy_from_slice(&huge.to_le_bytes());
        prop_assert!(matches!(
            decode_message(&frame),
            Err(WireError::Oversized { .. })
        ));
    }

    /// Every id list — in a response's four result kinds and a shard
    /// reply's two id kinds — comes back exactly, at no more than the
    /// ten bytes an id a 64-bit varint can take.
    #[test]
    fn every_id_list_round_trips_exactly(ids in arb_any_ids()) {
        let response = Message::Response(vec![
            QueryResult::Range(ids.clone()),
            QueryResult::Knn(ids.clone()),
            QueryResult::Similarity(ids.clone()),
            QueryResult::RangeKept(Some(ids.clone())),
        ]);
        let shard = Message::ShardResponse {
            id: 1,
            results: vec![ShardResult::Ids(ids.clone()), ShardResult::Kept(Some(ids.clone()))],
        };
        for (msg, lists) in [(response, 4), (shard, 2)] {
            let frame = encode_message(&msg);
            prop_assert!(frame.len() <= HEADER_LEN + 12 + lists * (6 + 10 * ids.len()) + CHECKSUM_LEN);
            let decoded = decode_message(&frame).expect("own encoding decodes");
            assert_message_eq(&msg, &decoded)?;
        }
    }

    #[test]
    fn streaming_and_buffer_decodes_agree(msg in arb_message()) {
        // read_message over an in-memory stream sees the same message
        // decode_message sees over the buffer.
        let frame = encode_message(&msg);
        let mut cursor = std::io::Cursor::new(frame.clone());
        let streamed = traj_serve::wire::read_message(&mut cursor)
            .expect("stream decode")
            .expect("not EOF");
        let buffered = decode_message(&frame).expect("buffer decode");
        assert_message_eq(&streamed, &buffered)?;
        // And the stream is left exactly at the frame boundary.
        prop_assert_eq!(cursor.position() as usize, frame.len());
        prop_assert!(traj_serve::wire::read_message(&mut cursor).expect("clean EOF").is_none());
    }
}

#[test]
fn version_and_kind_corruption_give_specific_errors() {
    let frame = encode_message(&Message::Request(QueryBatch::new()));

    let mut v = frame.clone();
    v[4] = 1;
    assert!(matches!(
        decode_message(&v),
        Err(WireError::UnsupportedVersion {
            found: 1,
            supported: 2
        })
    ));

    let mut k = frame.clone();
    k[6] = 10;
    assert!(matches!(
        decode_message(&k),
        Err(WireError::UnknownKind { kind: 10 })
    ));

    let mut m = frame.clone();
    m[0] = b'X';
    assert!(matches!(
        decode_message(&m),
        Err(WireError::BadMagic { .. })
    ));

    let mut r = frame;
    r[7] = 1;
    assert!(matches!(
        decode_message(&r),
        Err(WireError::Malformed { .. })
    ));
}

/// A frame of `kind` around a hand-written `payload`, sealed as the
/// encoder seals one, so only the payload can be wrong.
fn sealed(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut frame = MAGIC.to_vec();
    frame.extend_from_slice(&VERSION.to_le_bytes());
    frame.extend_from_slice(&[kind, 0]);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    let checksum = xxh64(&frame);
    frame.extend_from_slice(&checksum.to_le_bytes());
    frame
}

/// A response frame holding one range result: `n` ids declared, then
/// `codes` as the id bytes.
fn range_response(n: u32, codes: &[u8]) -> Vec<u8> {
    let mut payload = 1u32.to_le_bytes().to_vec();
    payload.push(0); // tag: range
    payload.extend_from_slice(&n.to_le_bytes());
    payload.extend_from_slice(codes);
    sealed(KIND_RESPONSE, &payload)
}

/// Hand-written id bytes decode as the codec specifies — the first id
/// from 0, each next one from its predecessor, wrapping — and every bad
/// varint is a typed error: bytes that run out are `Truncated`, an
/// eleventh byte or bits past 64 are `Malformed`, and a count the bytes
/// cannot hold is refused before anything is sized by it.
#[test]
fn id_varints_decode_exactly_and_bad_ones_give_typed_errors() {
    let ids = |frame: &[u8]| match decode_message(frame) {
        Ok(Message::Response(results)) => match &results[..] {
            [QueryResult::Range(ids)] => ids.clone(),
            other => panic!("unexpected results {other:?}"),
        },
        other => panic!("unexpected decode {other:?}"),
    };
    // 5 → zigzag 10; 300 − 5 → 590 = 0xce 0x04; 299 − 300 → zigzag 1.
    assert_eq!(ids(&range_response(3, &[10, 0xce, 0x04, 1])), [5, 300, 299]);
    // The widest code, ten bytes: zigzag u64::MAX is the delta −2⁶³.
    let widest = [[0xff; 9].as_slice(), &[0x01]].concat();
    assert_eq!(ids(&range_response(1, &widest)), [1usize << 63]);

    // A varint cut off by the end of the payload.
    assert!(matches!(
        decode_message(&range_response(1, &[0x80])),
        Err(WireError::Truncated { .. })
    ));
    // An eleventh byte.
    let eleven = [[0x80; 10].as_slice(), &[0x00]].concat();
    assert!(matches!(
        decode_message(&range_response(1, &eleven)),
        Err(WireError::Malformed { .. })
    ));
    // A tenth byte carrying bits past 64.
    let overflow = [[0xff; 9].as_slice(), &[0x02]].concat();
    assert!(matches!(
        decode_message(&range_response(1, &overflow)),
        Err(WireError::Malformed { .. })
    ));
    // Four billion ids declared over three bytes: refused at the count
    // (sizing the list by it would ask for 32 GiB).
    assert!(matches!(
        decode_message(&range_response(u32::MAX, &[0, 0, 0])),
        Err(WireError::Truncated { needed, got: 3 }) if needed == u32::MAX as usize
    ));
}

/// A t2vec dimension the embedder cannot take a remainder by (0), or one
/// that commits the server to unbounded embedding work, is refused at the
/// decoder; the bounds themselves decode.
#[test]
fn a_t2vec_dimension_out_of_range_is_malformed() {
    let frame = |dim: usize| {
        let knn = KnnQuery {
            query: Trajectory::new(vec![Point::new(0.0, 0.0, 0.0), Point::new(1.0, 1.0, 1.0)])
                .unwrap(),
            ts: 0.0,
            te: 1.0,
            k: 1,
            measure: Dissimilarity::T2vec(T2vecEmbedder {
                cell_size: 250.0,
                dim,
            }),
        };
        encode_message(&Message::Request(QueryBatch::from_queries(vec![
            Query::Knn(knn),
        ])))
    };
    for dim in [0, MAX_T2VEC_DIM + 1] {
        assert!(
            matches!(
                decode_message(&frame(dim)),
                Err(WireError::Malformed { .. })
            ),
            "dim {dim}"
        );
    }
    for dim in [1, MAX_T2VEC_DIM] {
        assert!(decode_message(&frame(dim)).is_ok(), "dim {dim}");
    }
}
