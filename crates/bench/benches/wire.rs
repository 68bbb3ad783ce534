//! Wire-format codec benchmark: how fast does a frame carrying a mixed
//! query batch (or its response) encode and decode?
//!
//! The framing cost bounds the per-request overhead the serving layer
//! adds on top of the engine pass, so it should stay microseconds-scale
//! even for large heterogeneous batches. The checksum (XXH64 over the
//! header and payload) takes 32 bytes a step, so the rest of the codec
//! dominates: the encode side writes each query's answer points and each
//! result's varint ids, the decode side adds bounds-checked parsing and
//! trajectory revalidation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use traj_query::{Dissimilarity, KnnQuery, Query, QueryBatch, QueryResult, SimilarityQuery};
use traj_serve::wire::{decode_message, encode_message, Message};
use trajectory::{Cube, Point, Trajectory};

/// A deterministic mixed batch: 80% range, 10% kNN, 10% similarity,
/// with `probe_len`-point query trajectories.
fn mixed_batch(queries: usize, probe_len: usize) -> QueryBatch {
    let probe = Trajectory::new(
        (0..probe_len)
            .map(|i| Point::new(i as f64 * 13.7, i as f64 * -4.2, i as f64 + 1.0))
            .collect(),
    )
    .expect("valid probe");
    let qs = (0..queries)
        .map(|i| {
            let f = i as f64;
            let cube = Cube::new(f, f + 1_000.0, -f, -f + 1_000.0, 0.0, 3_600.0);
            match i % 10 {
                8 => Query::Knn(KnnQuery {
                    query: probe.clone(),
                    ts: 0.0,
                    te: 3_600.0,
                    k: 3,
                    measure: Dissimilarity::Edr { eps: 2_000.0 },
                }),
                9 => Query::Similarity(SimilarityQuery {
                    query: probe.clone(),
                    ts: 0.0,
                    te: 3_600.0,
                    delta: 5_000.0,
                    step: 600.0,
                }),
                _ => Query::Range(cube),
            }
        })
        .collect();
    QueryBatch::from_queries(qs)
}

fn mixed_response(queries: usize, ids_per_result: usize) -> Vec<QueryResult> {
    (0..queries)
        .map(|i| QueryResult::Range((0..ids_per_result).map(|j| i * 1_000 + j).collect()))
        .collect()
}

fn bench_wire(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_codec");
    for &queries in &[16usize, 256] {
        let request = Message::Request(mixed_batch(queries, 32));
        let request_frame = encode_message(&request);
        let response = Message::Response(mixed_response(queries, 20));
        let response_frame = encode_message(&response);

        group.bench_with_input(
            BenchmarkId::new("encode_request", queries),
            &request,
            |b, msg| b.iter(|| encode_message(msg)),
        );
        group.bench_with_input(
            BenchmarkId::new("decode_request", queries),
            &request_frame,
            |b, frame| b.iter(|| decode_message(frame).expect("valid frame")),
        );
        group.bench_with_input(
            BenchmarkId::new("encode_response", queries),
            &response,
            |b, msg| b.iter(|| encode_message(msg)),
        );
        group.bench_with_input(
            BenchmarkId::new("decode_response", queries),
            &response_frame,
            |b, frame| b.iter(|| decode_message(frame).expect("valid frame")),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_wire);
criterion_main!(benches);
