//! Everything a run feeds the system. The program under test only ever
//! sees what this module makes.
//!
//! The trajectory data is the benchmark's **corpus**: T-Drive-shaped
//! datasets generated from [`CORPUS_SEED`], the same on every run, the way
//! the paper runs every experiment over the same T-Drive file. `--seed`
//! draws what the paper draws afresh per run — the query workload: the
//! 64-query batches the window cycles through (and, on
//! `simplify-offline`, the state queries that drive each timed job).
//!
//! The quality probe (`f1_range`, `stored_bytes_per_point`) reads corpus
//! data through cubes drawn from the corpus seed, so both metrics are a
//! function of the code alone: any run of one build reads the same
//! value, whatever its seed, and a 1 % gate on them means a 1 % change in
//! what the system computes, not a different draw of the data.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use traj_query::{
    range_workload, Dissimilarity, KnnQuery, Query, QueryBatch, QueryDistribution,
    RangeWorkloadSpec, SimilarityQuery,
};
use trajectory::gen::{generate, DatasetSpec, Scale};
use trajectory::{Cube, PointStore, TrajectoryDb};

use crate::report::Sizes;

/// Queries per request on every serving workload: enough server work
/// (~4 ms) that the three thread wake-ups of a round trip stop deciding
/// the latency (one-query ping-pong was bimodal between identical runs).
pub const BATCH: usize = 64;

/// Seed of the corpus: every dataset, the writer's trajectory stream, the
/// training run of `simplify-offline` and the quality probe derive from it.
pub const CORPUS_SEED: u64 = 2024;

/// Streams of [`CORPUS_SEED`].
pub mod corpus {
    /// The workload's main database.
    pub const BASE: u64 = 0;
    /// Cubes of the quality probe.
    pub const PROBE: u64 = 2;
    /// `live-rw`: the trajectories the writer ingests.
    pub const WRITER: u64 = 3;
}

/// Independent sub-seeds of a seed (splitmix64 step), so datasets,
/// queries and the writer pool never share a random stream.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A T-Drive-shaped database (sparse ~3 min sampling, ~340 points per
/// trajectory, 12 taxi hubs in a ~12 km region, 7-day horizon) of the
/// corpus: `stream` tells the corpus's datasets apart.
pub fn dataset(trajectories: usize, stream: u64) -> TrajectoryDb {
    generate(
        &DatasetSpec::tdrive(Scale::Small).with_trajectories(trajectories),
        sub_seed(CORPUS_SEED, stream),
    )
}

/// The query kinds of one batch, by share.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub range: usize,
    pub range_kept: usize,
    pub knn: usize,
    pub similarity: usize,
}

impl Mix {
    /// Static serving: 40 % range over `D`, 40 % range over the persisted
    /// `D'`, 10 % kNN, 10 % similarity.
    pub const STATIC: Mix = Mix {
        range: 26,
        range_kept: 26,
        knn: 6,
        similarity: 6,
    };
    /// Live serving: no `RangeKept` (a live database answers it `None`).
    pub const LIVE: Mix = Mix {
        range: 32,
        range_kept: 0,
        knn: 16,
        similarity: 16,
    };
}

/// `count` batches of [`BATCH`] queries in the given mix, kinds shuffled
/// within each batch. Range cubes are the paper-default 2 km × 2 km × 7 d,
/// anchored on data points; kNN is EDR (ε = 2 km, k = 3) and similarity
/// δ = 5 km at a 10 min step, both over the query trajectory's first hour.
pub fn batches(db: &TrajectoryDb, count: usize, mix: Mix, seed: u64) -> Vec<QueryBatch> {
    assert_eq!(
        mix.range + mix.range_kept + mix.knn + mix.similarity,
        BATCH,
        "a mix fills one batch"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let cubes_per = mix.range + mix.range_kept;
    let spec = RangeWorkloadSpec::paper_default(count * cubes_per, QueryDistribution::Data);
    let mut cubes = range_workload(db, &spec, &mut rng).into_iter();
    let t_max = db.bounding_cube().t_max;
    (0..count)
        .map(|_| {
            let mut queries = Vec::with_capacity(BATCH);
            for i in 0..cubes_per {
                let cube = cubes.next().expect("one cube per range query");
                queries.push(if i < mix.range {
                    Query::Range(cube)
                } else {
                    Query::RangeKept(cube)
                });
            }
            for i in 0..mix.knn + mix.similarity {
                let query = db.get(rng.gen_range(0..db.len())).clone();
                let ts = query.first().t;
                let te = (ts + 3_600.0).min(t_max);
                queries.push(if i < mix.knn {
                    Query::Knn(KnnQuery {
                        query,
                        ts,
                        te,
                        k: 3,
                        measure: Dissimilarity::Edr { eps: 2_000.0 },
                    })
                } else {
                    Query::Similarity(SimilarityQuery {
                        query,
                        ts,
                        te,
                        delta: 5_000.0,
                        step: 600.0,
                    })
                });
            }
            queries.shuffle(&mut rng);
            QueryBatch::from_queries(queries)
        })
        .collect()
}

/// The fixed F1 probe: `count` paper-default cubes anchored on `db`,
/// drawn from stream `stream` of the corpus seed.
pub fn probe_cubes(db: &TrajectoryDb, count: usize, stream: u64) -> Vec<Cube> {
    let mut rng = StdRng::seed_from_u64(sub_seed(CORPUS_SEED, stream));
    let spec = RangeWorkloadSpec::paper_default(count, QueryDistribution::Data);
    range_workload(db, &spec, &mut rng)
}

/// What the two static serving workloads are fed: the raw columns of a
/// `trajectories`-strong corpus database, the batches a run cycles through
/// (drawn from the run's `seed`) and the F1 probe cubes. The row-form
/// database is dropped here, so it does not sit in the process's peak RSS.
pub fn static_inputs(
    trajectories: usize,
    sizes: &Sizes,
    seed: u64,
) -> (PointStore, Vec<QueryBatch>, Vec<Cube>) {
    let db = dataset(trajectories, corpus::BASE);
    (
        db.to_store(),
        batches(&db, sizes.batches, Mix::STATIC, sub_seed(seed, 1)),
        probe_cubes(&db, sizes.probe_cubes, corpus::PROBE),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_queries_same_corpus() {
        let db = dataset(12, corpus::BASE);
        assert_eq!(db.len(), 12);
        assert_eq!(db.total_points(), dataset(12, corpus::BASE).total_points());
        assert_eq!(
            probe_cubes(&db, 5, corpus::PROBE),
            probe_cubes(&db, 5, corpus::PROBE)
        );
        let a = batches(&db, 2, Mix::STATIC, 9);
        let b = batches(&db, 2, Mix::STATIC, 9);
        let c = batches(&db, 2, Mix::STATIC, 10);
        assert_eq!(a.len(), 2);
        assert_eq!(a[0].queries(), b[0].queries());
        assert_ne!(a[0].queries(), c[0].queries());
        assert_eq!(a[0].kind_counts().iter().sum::<usize>(), BATCH);
        assert_ne!(sub_seed(5, 0), sub_seed(5, 1));
        assert_ne!(sub_seed(5, 0), sub_seed(6, 0));
    }

    #[test]
    fn mixes_hold_their_shares() {
        let db = dataset(12, corpus::BASE);
        let count = |mix| {
            let b = &batches(&db, 1, mix, 1)[0];
            let n = |f: fn(&Query) -> bool| b.queries().iter().filter(|q| f(q)).count();
            [
                n(|q| matches!(q, Query::Range(_))),
                n(|q| matches!(q, Query::RangeKept(_))),
                n(|q| matches!(q, Query::Knn(_))),
                n(|q| matches!(q, Query::Similarity(_))),
            ]
        };
        assert_eq!(count(Mix::STATIC), [26, 26, 6, 6]);
        assert_eq!(count(Mix::LIVE), [32, 0, 16, 16]);
    }
}
