//! kNN and similarity answers **recorded at the parent commit**
//! (`0b8946a`) — where the engine's kNN arm marked candidates by walking
//! the index over a time slab and ran the full `edr_seq` on every one of
//! them, and its similarity arm was `execute_store` over the whole store —
//! at the benchmark's parameters, and asserted here against the
//! filter-and-refine arms that replaced them.
//!
//! The refined arms prune on lower bounds and abandon a DP that cannot
//! enter the top `k`, so "same answers" is a claim about every bound being
//! below the exact distance; these constants are the check of it that
//! shares no code with the bounds. Answers are encoded to bytes and
//! compared through an FNV-1a fingerprint (with the total id count beside
//! it), distances through `f64::to_bits` — the `tests/parent_fixtures.rs`
//! pattern.

use qdts::query::knn::{Dissimilarity, KnnQuery};
use qdts::query::{
    DbOptions, EngineConfig, GenerationalDb, Query, QueryBatch, QueryEngine, QueryExecutor,
    QueryResult, SimilarityQuery, TrajDb,
};
use qdts::trajectory::gen::{generate, DatasetSpec, Scale};
use qdts::trajectory::snapshot::fnv1a64;
use qdts::trajectory::{partition, KeepAll, PartitionStrategy, PointStore, Trajectory};

/// `(total ids, fingerprint)` of one encoded answer list.
type Print = (usize, u64);

/// `execute_batch` over [`batch`], as the parent answered it.
const EXECUTE_BATCH: Print = (284, 0x0ff1f834c6252bb3);
/// `knn_candidates` of every kNN query of [`batch`], in batch order, as
/// the parent answered them.
const KNN_CANDIDATES: Print = (80, 0xdc21792f110c64b1);

/// The benchmark's corpus shape at a fifth of its size: 200 taxi
/// trajectories of ~340 points over seven days.
fn store() -> PointStore {
    generate(&DatasetSpec::tdrive(Scale::Small).with_trajectories(200), 7).to_store()
}

/// The fixed batch: the benchmark's 16 kNN (EDR ε = 2 km, k = 3) and 16
/// similarity (δ = 5 km, step 600 s) queries over stored trajectories'
/// first hours, then the edges a bound can get wrong — k = 1, k above the
/// trajectory count, a whole day (long DPs), a window before all data, a
/// reversed window, an ε of 0 and an ε wider than the region.
fn batch(store: &PointStore) -> QueryBatch {
    let (t0, t1) = store.time_span();
    let first_hour = |id: usize| {
        let ts = store.view(id).time_span().0;
        (ts, (ts + 3_600.0).min(t1))
    };
    let knn = |id: usize, (ts, te): (f64, f64), k: usize, eps: f64| KnnQuery {
        query: store.view(id).to_trajectory(),
        ts,
        te,
        k,
        measure: Dissimilarity::Edr { eps },
    };
    let mut batch = QueryBatch::new();
    for i in 0..16 {
        let id = (i * 37 + 5) % store.len();
        batch.push_knn(knn(id, first_hour(id), 3, 2_000.0));
    }
    for i in 0..16 {
        let id = (i * 53 + 11) % store.len();
        let (ts, te) = first_hour(id);
        batch.push_similarity(SimilarityQuery {
            query: store.view(id).to_trajectory(),
            ts,
            te,
            delta: 5_000.0,
            step: 600.0,
        });
    }
    batch.push_knn(knn(17, first_hour(17), 1, 2_000.0));
    batch.push_knn(knn(42, first_hour(42), store.len() + 5, 2_000.0));
    let day = store.view(99).time_span().0;
    batch.push_knn(knn(99, (day, day + 86_400.0), 3, 2_000.0));
    batch.push_knn(knn(3, (t0 - 5_000.0, t0 - 1_000.0), 3, 2_000.0));
    let (ts, te) = first_hour(8);
    batch.push_knn(knn(8, (te, ts), 3, 2_000.0));
    batch.push_knn(knn(123, first_hour(123), 3, 0.0));
    batch.push_knn(knn(150, first_hour(150), 3, 1e6));
    batch
}

fn results_print(results: &[QueryResult]) -> Print {
    let (mut bytes, mut total) = (Vec::new(), 0);
    for r in results {
        let ids = r.ids().expect("kNN and similarity results carry ids");
        bytes.push(r.kind() as u8);
        bytes.extend((ids.len() as u64).to_le_bytes());
        for &id in ids {
            bytes.extend((id as u64).to_le_bytes());
        }
        total += ids.len();
    }
    (total, fnv1a64(&bytes))
}

fn candidates_print(exec: &impl QueryExecutor, batch: &QueryBatch) -> Print {
    let (mut bytes, mut total) = (Vec::new(), 0);
    for q in batch.queries() {
        let Query::Knn(knn) = q else { continue };
        let candidates = exec.knn_candidates(knn);
        bytes.extend((candidates.len() as u64).to_le_bytes());
        for &(d, id) in &candidates {
            bytes.extend(d.to_bits().to_le_bytes());
            bytes.extend((id as u64).to_le_bytes());
        }
        total += candidates.len();
    }
    (total, fnv1a64(&bytes))
}

fn check(exec: &impl QueryExecutor, batch: &QueryBatch, who: &str) {
    let got = results_print(&exec.execute_batch(batch));
    assert_eq!(got, EXECUTE_BATCH, "execute_batch on {who}: {got:#x?}");
    let got = candidates_print(exec, batch);
    assert_eq!(got, KNN_CANDIDATES, "knn_candidates on {who}: {got:#x?}");
}

#[test]
fn query_engine_matches_the_parent_on_every_backend() {
    let store = store();
    let batch = batch(&store);
    for (name, cfg) in [
        ("scan", EngineConfig::scan()),
        ("octree", EngineConfig::octree()),
        ("median-kd", EngineConfig::median_kd()),
    ] {
        check(&QueryEngine::over_store(&store, cfg), &batch, name);
    }
}

#[test]
fn sharded_traj_db_matches_the_parent() {
    let store = store();
    let batch = batch(&store);
    for parts in [3, 4] {
        let shards = partition(&store, &PartitionStrategy::Time { parts });
        let sharded = TrajDb::from_shards(
            shards.into_iter().map(Into::into).collect(),
            DbOptions::new(),
        );
        check(&sharded, &batch, &format!("time-{parts}"));
    }
}

#[test]
fn generational_db_with_an_unfolded_delta_matches_the_parent() {
    let store = store();
    let batch = batch(&store);
    // Three quarters as generation 0, the rest ingested raw and left in
    // the delta: ids are assigned in ingest order, so base + delta is the
    // store again, served as an indexed segment plus a scan segment.
    let cut = store.len() * 3 / 4;
    let mut base = PointStore::new();
    for id in 0..cut {
        base.push_view(store.view(id));
    }
    let rest: Vec<Trajectory> = (cut..store.len())
        .map(|id| store.view(id).to_trajectory())
        .collect();
    let dir = std::env::temp_dir().join(format!("qdts_refine_fixtures_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let db = GenerationalDb::create(
        &dir,
        &base,
        DbOptions::new(),
        Box::new(|| Box::new(KeepAll)),
    )
    .unwrap();
    assert_eq!(db.ingest(&rest).unwrap().accepted as usize, rest.len());
    assert_eq!((db.len(), db.delta_trajs()), (store.len(), rest.len()));
    check(&db, &batch, "generational");
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}
