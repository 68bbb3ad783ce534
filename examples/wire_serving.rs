//! Scenario: serving a simplified trajectory database over TCP.
//!
//! The in-process façade ([`qdts::TrajDb`]) answers query batches for
//! whoever holds the object; the serving layer (`qdts::serve`) puts the
//! same façade behind a versioned, checksummed wire format so many
//! processes can query one database. This example stands up a loopback
//! server over a snapshot file, drives it from several concurrent
//! client connections, and shows the admission layer coalescing their
//! requests into shared engine passes — while every answer stays
//! byte-identical to in-process execution.
//!
//! Run with: `cargo run --release --example wire_serving`

use qdts::query::knn::{Dissimilarity, KnnQuery};
use qdts::query::{DbOptions, QueryDistribution, RangeWorkloadSpec};
use qdts::serve::server::BatchConfig;
use qdts::trajectory::gen::{generate, DatasetSpec, Scale};
use qdts::trajectory::snapshot::write_snapshot_with;
use qdts::{Client, Query, QueryBatch, QueryExecutor, ServeOptions, Server, TrajDb};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // One snapshot on disk: the simplified archive a fleet would share.
    let db = generate(&DatasetSpec::tdrive(Scale::Smoke).with_trajectories(48), 7);
    let store = db.to_store();
    let mut kept = qdts::trajectory::KeptBitmap::zeros(store.total_points());
    for g in (0..store.total_points()).step_by(2) {
        kept.insert(g as u32);
    }
    let snap = std::env::temp_dir().join(format!("wire_serving_{}.snap", std::process::id()));
    write_snapshot_with(&store, Some(&kept), &snap).expect("write snapshot");

    // The server opens the path through the same auto-detecting façade
    // used in-process (snapshot / quantized / shard dir / CSV), then
    // coalesces concurrently arriving requests into shared passes.
    let server = Server::open(
        &snap,
        DbOptions::new(),
        "127.0.0.1:0",
        ServeOptions {
            batch: BatchConfig {
                max_queries: 128,
                linger: std::time::Duration::from_millis(1),
            },
            executors: 1,
        },
    )
    .expect("open + serve");
    let addr = server.local_addr();
    println!("serving {snap:?} on {addr}");

    // A mixed workload: paper-default data-anchored range cubes plus a
    // kNN probe per client.
    let spec = RangeWorkloadSpec::paper_default(8, QueryDistribution::Data);
    let mut rng = StdRng::seed_from_u64(3);
    let cubes = qdts::query::range_workload(&db, &spec, &mut rng);
    let probe = db.get(0).clone();
    let (ts, te) = (probe.points()[0].t, probe.points().last().unwrap().t);

    // Several concurrent client connections, each sending its own batch.
    std::thread::scope(|scope| {
        for (c, chunk) in cubes.chunks(2).enumerate() {
            let probe = probe.clone();
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut queries: Vec<Query> = chunk.iter().copied().map(Query::Range).collect();
                queries.push(Query::Knn(KnnQuery {
                    query: probe,
                    ts,
                    te,
                    k: 3,
                    measure: Dissimilarity::Edr { eps: 2_000.0 },
                }));
                let batch = QueryBatch::from_queries(queries);
                let results = client.execute_batch(&batch).expect("remote batch");
                println!(
                    "client {c}: {} queries answered, {} ids total",
                    batch.len(),
                    results
                        .iter()
                        .map(|r| r.ids().map_or(0, <[usize]>::len))
                        .sum::<usize>()
                );
            });
        }
    });

    // The wire adds framing, not semantics: an in-process pass over the
    // same snapshot gives identical results.
    let local = TrajDb::open(&snap, DbOptions::new()).expect("open in-process");
    let check = QueryBatch::from_queries(cubes.iter().copied().map(Query::Range).collect());
    let mut client = Client::connect(addr).expect("connect");
    assert_eq!(
        client.execute_batch(&check).expect("remote"),
        local.execute_batch(&check),
        "wire results must match in-process results"
    );

    let stats = server.stats();
    println!(
        "served {} requests / {} queries in {} engine passes (mean batch {:.1})",
        stats.requests,
        stats.queries,
        stats.batches,
        stats.mean_batch_size()
    );
    server.shutdown();
    std::fs::remove_file(&snap).ok();
}
