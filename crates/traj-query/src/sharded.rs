//! Fan-out query execution over a sharded database.
//!
//! A [`ShardedQueryEngine`] holds one [`QueryEngine`] per shard (each over
//! its own columns — heap-owned or mmap-backed — with its own index, all
//! built **in parallel** via [`par_map`]) plus the shard-local → global
//! trajectory id tables — that is, a list of [`Segment`]s, each bounded
//! by its engine's bounding cube. Every query is the shared fan-out of
//! [`segment`](crate::segment): each shard whose bounds can contribute
//! answers, the one [`merge`](crate::merge) combines, and the result is
//! **byte-identical** to a single-store [`QueryEngine`] over the
//! unsharded database.
//!
//! The equality is property-tested in `tests/sharded_props.rs` across all
//! partitioners and index backends, including mmap-backed shards.

use trajectory::shard::{partition, OpenShard, PartitionStrategy, Shard};
use trajectory::{KeptBitmap, MappedStore, PointStore, StoreRef, TrajId};

use crate::engine::{build_backend, EngineConfig, QueryEngine};
use crate::parallel::par_map;
use crate::segment::{IdMap, Segment, Segmented};

/// One shard as the router sees it: its engine (which carries the shard
/// snapshot's kept bitmap, when one was persisted, and knows the bounding
/// cube range routing and kNN time pruning test against) and its id
/// translation.
struct ShardHandle<'a> {
    engine: QueryEngine<'a>,
    /// `global_ids[local]` = global trajectory id; strictly ascending, so
    /// shard-local result order is global order.
    global_ids: Vec<TrajId>,
}

/// A query engine over a sharded database: per-shard indexes built in
/// parallel, queries fanned out to the shards whose bounds can
/// contribute, results merged to match the single-store [`QueryEngine`]
/// exactly. See the [module docs](self) for the routing/merge rules.
pub struct ShardedQueryEngine<'a> {
    shards: Vec<ShardHandle<'a>>,
    config: EngineConfig,
}

impl ShardedQueryEngine<'static> {
    /// Partitions `store` with `strategy` and builds one engine per shard
    /// (index builds run in parallel). The convenience constructor for
    /// "shard this database now"; use [`ShardedQueryEngine::from_shards`]
    /// when the partition is reused.
    #[must_use]
    pub fn from_partition(
        store: &PointStore,
        strategy: &PartitionStrategy,
        config: EngineConfig,
    ) -> Self {
        Self::from_shards(partition(store, strategy), config)
    }

    /// Builds the fan-out engine over already-partitioned shards,
    /// consuming their stores. All shard index builds run in parallel via
    /// [`par_map`], then each store moves into its engine — no column is
    /// copied.
    #[must_use]
    pub fn from_shards(shards: Vec<Shard>, config: EngineConfig) -> Self {
        Self::build(
            shards
                .into_iter()
                .map(|sh| (StoreRef::Owned(sh.store), sh.global_ids, None))
                .collect(),
            config,
        )
    }

    /// Builds the fan-out engine over shards reopened from a
    /// [`ShardSet`](trajectory::ShardSet) as owned stores
    /// (`open_owned`). Kept bitmaps carried by the shard snapshots are
    /// retained for [`QueryExecutor::range_kept`](crate::QueryExecutor::range_kept).
    #[must_use]
    pub fn from_open_shards(shards: Vec<OpenShard<PointStore>>, config: EngineConfig) -> Self {
        Self::build(
            shards
                .into_iter()
                .map(|sh| (StoreRef::Owned(sh.store), sh.global_ids, sh.kept))
                .collect(),
            config,
        )
    }

    /// Builds the fan-out engine over mmap-backed shards (`open_mapped`):
    /// per-shard index builds walk the mapped columns in parallel and
    /// queries execute with zero deserialization, exactly as
    /// [`QueryEngine::from_mapped`] does for a single store.
    #[must_use]
    pub fn from_mapped_shards(shards: Vec<OpenShard<MappedStore>>, config: EngineConfig) -> Self {
        Self::build(
            shards
                .into_iter()
                .map(|sh| (StoreRef::Mapped(sh.store), sh.global_ids, sh.kept))
                .collect(),
            config,
        )
    }
}

impl<'a> ShardedQueryEngine<'a> {
    /// Builds the fan-out engine *borrowing* already-partitioned shards —
    /// the zero-copy twin of [`ShardedQueryEngine::from_shards`], for
    /// callers (benchmarks, repeated builds) that keep the partition
    /// around.
    #[must_use]
    pub fn over_shards(shards: &'a [Shard], config: EngineConfig) -> Self {
        Self::build(
            shards
                .iter()
                .map(|sh| (StoreRef::Borrowed(&sh.store), sh.global_ids.clone(), None))
                .collect(),
            config,
        )
    }

    /// The shared constructor core: per-shard index builds run in
    /// parallel via [`par_map`] over the store handles (owned, borrowed,
    /// or mapped — [`StoreRef`] implements `AsColumns`), then each store
    /// moves into its engine alongside its id map.
    fn build(
        shards: Vec<(StoreRef<'a>, Vec<TrajId>, Option<KeptBitmap>)>,
        config: EngineConfig,
    ) -> Self {
        let backends = par_map(&shards, |(store, _, _)| build_backend(store, config));
        let shards: Vec<ShardHandle<'a>> = shards
            .into_iter()
            .zip(backends)
            .map(|((store, global_ids, kept), backend)| {
                let mut engine = QueryEngine::from_backend(store, backend, config);
                engine.set_kept_bitmap(kept);
                ShardHandle { engine, global_ids }
            })
            .collect();
        let total_trajs = shards.iter().map(|sh| sh.global_ids.len()).sum();
        debug_assert!(
            {
                let mut seen = vec![false; total_trajs];
                shards
                    .iter()
                    .flat_map(|sh| &sh.global_ids)
                    .all(|&g| g < total_trajs && !std::mem::replace(&mut seen[g], true))
            },
            "shard global ids must partition 0..total"
        );
        Self { shards, config }
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The per-shard build configuration.
    #[must_use]
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// Per-shard store handles, in shard order (owned, borrowed, or
    /// mapped). The accessor workload generators and statistics use; query
    /// execution itself goes through [`QueryExecutor`](crate::QueryExecutor).
    pub fn shard_stores(&self) -> impl Iterator<Item = &StoreRef<'a>> {
        self.shards.iter().map(|sh| sh.engine.store())
    }
}

/// One segment per shard; the whole [`QueryExecutor`](crate::QueryExecutor)
/// surface follows from the shared fan-out. Shards whose bounds cannot
/// contribute are pruned without touching their index; answers are
/// identical to a [`QueryEngine`] over the unsharded store.
impl Segmented for ShardedQueryEngine<'_> {
    fn with_segments<R>(&self, f: impl FnOnce(&[Segment<'_>]) -> R) -> R {
        let segments: Vec<Segment<'_>> = self
            .shards
            .iter()
            .map(|sh| Segment {
                engine: &sh.engine,
                ids: IdMap::Table(&sh.global_ids),
                bounds: sh.engine.bounding_cube(),
            })
            .collect();
        f(&segments)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::{Dissimilarity, KnnQuery};
    use crate::workload::{range_workload_store, QueryDistribution, RangeWorkloadSpec};
    use crate::{QueryExecutor, SimilarityQuery};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use trajectory::gen::{generate, DatasetSpec, Scale};
    use trajectory::Cube;
    use trajectory::Simplification;

    fn sample_store() -> PointStore {
        generate(&DatasetSpec::geolife(Scale::Smoke), 4242).to_store()
    }

    fn workload(store: &PointStore, n: usize, seed: u64) -> Vec<Cube> {
        let spec = RangeWorkloadSpec {
            count: n,
            spatial_extent: 2_000.0,
            temporal_extent: 86_400.0,
            dist: QueryDistribution::Data,
        };
        range_workload_store(store, &spec, &mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn sharded_range_matches_single_store() {
        let store = sample_store();
        let queries = workload(&store, 25, 1);
        let single = QueryEngine::over_store(&store, EngineConfig::octree());
        for strategy in [
            PartitionStrategy::Grid { nx: 2, ny: 2 },
            PartitionStrategy::Time { parts: 3 },
            PartitionStrategy::Hash { parts: 4 },
        ] {
            let sharded =
                ShardedQueryEngine::from_partition(&store, &strategy, EngineConfig::octree());
            assert!(sharded.shard_count() >= 1);
            assert_eq!(sharded.len(), store.len());
            assert_eq!(sharded.total_points(), store.total_points());
            for q in &queries {
                assert_eq!(sharded.range(q), single.range(q), "{strategy:?}");
            }
            assert_eq!(sharded.range_batch(&queries), single.range_batch(&queries));
        }
    }

    #[test]
    fn sharded_knn_matches_single_store() {
        let store = sample_store();
        let (t0, t1) = store.time_span();
        let single = QueryEngine::over_store(&store, EngineConfig::octree());
        let sharded = ShardedQueryEngine::from_partition(
            &store,
            &PartitionStrategy::Hash { parts: 3 },
            EngineConfig::octree(),
        );
        for (k, ts, te) in [
            (3, t0, t1),
            (1, t0, (t0 + t1) / 2.0),
            (100, t1 + 1.0, t1 + 10.0), // empty window: degenerate scoring
        ] {
            let q = KnnQuery {
                query: store.view(0).to_trajectory(),
                ts,
                te,
                k,
                measure: Dissimilarity::Edr { eps: 1_000.0 },
            };
            assert_eq!(sharded.knn(&q), single.knn(&q), "k={k} ts={ts} te={te}");
        }
    }

    #[test]
    fn sharded_similarity_matches_single_store() {
        let store = sample_store();
        let (t0, t1) = store.view(0).time_span();
        let q = SimilarityQuery {
            query: store.view(0).to_trajectory(),
            ts: t0,
            te: t1,
            delta: 2_500.0,
            step: 300.0,
        };
        let single = QueryEngine::over_store(&store, EngineConfig::octree());
        let sharded = ShardedQueryEngine::from_partition(
            &store,
            &PartitionStrategy::Time { parts: 4 },
            EngineConfig::octree(),
        );
        assert_eq!(sharded.similarity(&q), single.similarity(&q));
        assert_eq!(
            sharded.similarity_batch(std::slice::from_ref(&q)),
            single.similarity_batch(std::slice::from_ref(&q))
        );
    }

    #[test]
    fn sharded_simplified_and_workload_match_single_store() {
        let store = sample_store();
        let mut simp = Simplification::most_simplified_store(&store);
        for (id, t) in store.iter() {
            for idx in (0..t.len() as u32).step_by(4) {
                simp.insert(id, idx);
            }
        }
        let queries = workload(&store, 15, 9);
        let single = QueryEngine::over_store(&store, EngineConfig::octree());
        let sharded = ShardedQueryEngine::from_partition(
            &store,
            &PartitionStrategy::Grid { nx: 2, ny: 2 },
            EngineConfig::octree(),
        );
        for q in &queries {
            assert_eq!(
                sharded.range_simplified(&simp, q),
                single.range_simplified(&simp, q)
            );
        }
        assert_eq!(
            sharded.range_simplified_batch(&simp, &queries),
            single.range_simplified_batch(&simp, &queries)
        );

        let mut single_w = single.maintained_workload(queries.clone(), &simp);
        let mut sharded_w = sharded.maintained_workload(queries.clone(), &simp);
        assert!((single_w.diff() - sharded_w.diff()).abs() < 1e-12);
        for i in 0..queries.len() {
            assert_eq!(single_w.truth(i), sharded_w.truth(i));
            assert_eq!(single_w.result(i), sharded_w.result(i));
        }
        // The maintained state evolves identically under insertions.
        for id in 0..store.len().min(8) {
            let v = store.view(id);
            if v.len() > 2 && simp.insert(id, 1) {
                single_w.insert(id, &v.point(1));
                sharded_w.insert(id, &v.point(1));
            }
        }
        assert!((single_w.diff() - sharded_w.diff()).abs() < 1e-12);
    }

    #[test]
    fn borrowed_shards_serve_identically() {
        let store = sample_store();
        let shards = partition(&store, &PartitionStrategy::Hash { parts: 2 });
        let owned = ShardedQueryEngine::from_shards(shards.clone(), EngineConfig::median_kd());
        let borrowed = ShardedQueryEngine::over_shards(&shards, EngineConfig::median_kd());
        for q in workload(&store, 10, 3) {
            assert_eq!(owned.range(&q), borrowed.range(&q));
        }
    }

    #[test]
    fn empty_database_serves_empty_results() {
        let sharded = ShardedQueryEngine::from_partition(
            &PointStore::new(),
            &PartitionStrategy::Hash { parts: 4 },
            EngineConfig::octree(),
        );
        assert_eq!(sharded.shard_count(), 0);
        assert!(sharded.is_empty());
        assert!(sharded
            .range(&Cube::new(0.0, 1.0, 0.0, 1.0, 0.0, 1.0))
            .is_empty());
        assert!(!sharded.has_kept_bitmap());
        assert!(sharded
            .range_kept(&Cube::new(0.0, 1.0, 0.0, 1.0, 0.0, 1.0))
            .is_none());
    }
}
