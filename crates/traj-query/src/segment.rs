//! The segment: the single unit of "answer over parts, then merge", and
//! the single implementation of [`QueryExecutor`].
//!
//! Every executor treats its database as an **ordered list of
//! segments** — a [`QueryEngine`] (one segment: all of it),
//! [`TrajDb`](crate::TrajDb) (one segment per snapshot or shard it
//! opened), the live [`GenerationalDb`](crate::GenerationalDb) (base
//! generation, sealed deltas, active delta) and the distributed
//! coordinator in `traj-serve` (one remote segment per shard process).
//! A [`Segment`] is a [`QueryEngine`] — indexed, or the
//! [`BackendKind::Scan`](crate::BackendKind) backend for small unindexed
//! data — plus an [`IdMap`] from segment-local to global trajectory ids
//! plus the bounding cube of its points.
//!
//! A [`Segment`] is a borrowed view. What a database keeps is a
//! `StoredSegment`: the same three things, owned and built once — the
//! engine's index, the id map and the bounds. `TrajDb` is a list of them,
//! and a live database keeps its base and every sealed delta as one;
//! only the active delta's view is assembled per call.
//!
//! Two functions carry the whole design: [`Segment::answer`] produces
//! one segment's *merge material* for a query, and [`merge`] turns the
//! [`Answer`]s of any number of segments into the [`QueryResult`] a
//! single store over the union would have returned. [`fan_out`] is the
//! two composed for in-process segments, and an in-process executor is
//! nothing but its segment list: the blanket impl over [`Segmented`]
//! below is the only `impl QueryExecutor` in the workspace. A remote
//! executor skips [`Segment::answer`] — the shard process already ran
//! it — and hands the decoded material to the same [`merge`].

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap, HashSet};

use trajectory::{AsColumns, Cube, KeptBitmap, PointStore, Simplification, StoreRef, TrajId};

use crate::db::{Query, QueryBatch, QueryExecutor, QueryResult};
use crate::engine::{
    build_backend, count_kept_hits, EngineConfig, KeptView, MaintainedWorkload, QueryEngine,
    QueryScratch,
};
use crate::knn::KnnQuery;
use crate::parallel::{par_map, par_map_with};
use crate::similarity::SimilarityQuery;

/// One segment's raw answer to one query, in **segment-local**
/// trajectory ids — what a shard process sends over the wire and what
/// [`merge`] consumes.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardResult {
    /// Range/similarity hits, local ids ascending.
    Ids(Vec<TrajId>),
    /// Kept-bitmap range hits; `None` when the segment has no bitmap.
    Kept(Option<Vec<TrajId>>),
    /// kNN candidates: finite `(distance, local id)` pairs sorted
    /// ascending by `(distance, id)`, truncated to the query's `k`,
    /// `-0.0`-normalized — the shape `knn_candidates` produces.
    Candidates(Vec<(f64, TrajId)>),
}

/// A segment's local → global trajectory id translation. Both forms
/// are strictly ascending, so segment-local result order is global
/// order.
#[derive(Debug, Clone, Copy)]
pub enum IdMap<'a> {
    /// Contiguous: local id `l` is global id `first + l`.
    Offset {
        /// Global id of the segment's first trajectory.
        first: TrajId,
        /// Trajectories in the segment.
        len: usize,
    },
    /// Sorted table: local id `l` is global id `table[l]`.
    Table(&'a [TrajId]),
}

impl IdMap<'_> {
    /// Trajectories in the segment.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            IdMap::Offset { len, .. } => *len,
            IdMap::Table(table) => table.len(),
        }
    }

    /// True when the segment holds no trajectories.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The global id of local id `local`; `None` when out of range.
    #[must_use]
    pub fn global(&self, local: TrajId) -> Option<TrajId> {
        match self {
            IdMap::Offset { first, len } => (local < *len).then(|| first + local),
            IdMap::Table(table) => table.get(local).copied(),
        }
    }

    /// The local id of global id `global`; `None` when the segment does
    /// not hold it.
    #[must_use]
    pub fn local(&self, global: TrajId) -> Option<TrajId> {
        match self {
            IdMap::Offset { first, len } => global.checked_sub(*first).filter(|l| l < len),
            IdMap::Table(table) => table.binary_search(&global).ok(),
        }
    }

    /// The segment's global ids, ascending.
    fn globals(&self) -> impl Iterator<Item = TrajId> + '_ {
        (0..self.len()).map(|l| self.global(l).expect("local id in range"))
    }
}

/// One part of a database: an engine over its columns, the id map that
/// places its trajectories in the global id space, and the smallest
/// cube covering its points. A cheap view — executors assemble their
/// segment list per call from whatever owns the engines.
#[derive(Clone, Copy)]
pub struct Segment<'a> {
    /// Executes queries over the segment's columns, in local ids.
    pub engine: &'a QueryEngine<'a>,
    /// Local → global trajectory ids.
    pub ids: IdMap<'a>,
    /// Bounding cube of the segment's points (the pruning bounds).
    pub bounds: Cube,
}

/// What one segment contributes to one query's [`merge`].
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// The segment executed the query.
    Material(ShardResult),
    /// [`query_touches_bounds`] proved the segment contributes nothing:
    /// it was not asked, stays in the kNN fill universe, and vouches
    /// for its kept bitmap through `has_kept`.
    Pruned {
        /// Whether the segment carries a kept bitmap.
        has_kept: bool,
    },
    /// The segment could not be reached and the caller chose to answer
    /// without it: its trajectories leave the database being answered
    /// over.
    Missing,
}

/// A segment's material that [`merge`] cannot use: the wrong
/// [`ShardResult`] variant for the query's kind, or a local id outside
/// the segment's [`IdMap`]. In-process segments never produce one; a
/// remote executor reports it against the shard that sent it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeError {
    /// Index of the offending segment in the list given to [`merge`].
    pub segment: usize,
    /// What was wrong with its material.
    pub reason: &'static str,
}

impl<'a> Segment<'a> {
    /// **The** per-segment answer: prunes by bounds, otherwise executes
    /// `q` over the segment's engine. `parallel` lets the engine use
    /// its internal data parallelism — t2vec kNN scoring; every other
    /// arm, refined EDR kNN and similarity included, runs on the calling
    /// thread (see [`QueryEngine::material`]); batch workers pass
    /// `false` so a batch stays one level of parallelism deep. `scratch`
    /// is the calling worker's, reused across the segments and the
    /// queries it walks.
    #[must_use]
    pub fn answer(&self, q: &Query, parallel: bool, scratch: &mut QueryScratch) -> Answer {
        if !query_touches_bounds(q, &self.bounds) {
            return Answer::Pruned {
                has_kept: self.engine.kept_bitmap().is_some(),
            };
        }
        Answer::Material(self.engine.material(q, parallel, scratch))
    }
}

/// Where a [`StoredSegment`]'s trajectories sit in the global id space:
/// the owned form of an [`IdMap`].
pub(crate) enum Ids {
    /// Contiguous, starting at this global id.
    From(TrajId),
    /// A shard's global ids, strictly ascending.
    Table(Vec<TrajId>),
}

/// What a [`StoredSegment`] is built from: its columns, its ids and the
/// kept bitmap over its points, if it serves one.
pub(crate) type Part = (StoreRef<'static>, Ids, Option<KeptBitmap>);

/// A segment owned and built once: its engine (the configured backend,
/// and the kept bitmap with D′'s own index), its ids and its bounding
/// cube. [`Segment`] views of it cost nothing to hand out.
pub(crate) struct StoredSegment {
    pub(crate) engine: QueryEngine<'static>,
    pub(crate) ids: Ids,
    pub(crate) bounds: Cube,
}

impl StoredSegment {
    /// **The** constructor core: every part's index build and bounds pass,
    /// and the build of every kept bitmap's D′ index as a task of its
    /// own, run in parallel via [`par_map`]; then each store moves into
    /// its engine — no column is copied.
    pub(crate) fn build_all(parts: Vec<Part>, config: EngineConfig) -> Vec<StoredSegment> {
        // D's builds first, one per part, then D′'s, in part order.
        let with_kept = parts.iter().enumerate().filter(|(_, p)| p.2.is_some());
        let tasks: Vec<(usize, bool)> = (0..parts.len())
            .map(|i| (i, false))
            .chain(with_kept.map(|(i, _)| (i, true)))
            .collect();
        let mut built = par_map(&tasks, |&(i, is_kept)| {
            let (store, _, kept) = &parts[i];
            if is_kept {
                (build_backend(store, config, kept.as_ref()), Cube::empty())
            } else {
                (build_backend(store, config, None), store.bounding_cube())
            }
        })
        .into_iter();
        let main: Vec<_> = built.by_ref().take(parts.len()).collect();
        parts
            .into_iter()
            .zip(main)
            .map(|((store, ids, kept), (backend, bounds))| {
                let kept = kept.map(|bitmap| (bitmap, built.next().expect("a D′ build").0));
                StoredSegment {
                    engine: QueryEngine::from_backend(store, config, backend, kept),
                    ids,
                    bounds,
                }
            })
            .collect()
    }

    /// [`StoredSegment::build_all`] of one part.
    pub(crate) fn build(part: Part, config: EngineConfig) -> StoredSegment {
        let mut built = Self::build_all(vec![part], config);
        built.pop().expect("one part, one segment")
    }

    /// Unindexed columns whose bounds are already known: the scan backend
    /// builds nothing, so this is O(1).
    pub(crate) fn scan(store: PointStore, first: TrajId, bounds: Cube) -> StoredSegment {
        StoredSegment {
            engine: QueryEngine::from_store(store, EngineConfig::scan()),
            ids: Ids::From(first),
            bounds,
        }
    }

    /// The segment as the fan-out sees it.
    pub(crate) fn segment(&self) -> Segment<'_> {
        let ids = match &self.ids {
            Ids::From(first) => IdMap::Offset {
                first: *first,
                len: self.engine.store().len(),
            },
            Ids::Table(table) => IdMap::Table(table),
        };
        Segment {
            engine: &self.engine,
            ids,
            bounds: self.bounds,
        }
    }
}

/// True when `q` can contribute results from a segment whose points all
/// lie inside `bounds` — the single definition of the pruning rules,
/// shared by [`Segment::answer`] and by a distributed coordinator
/// deciding which shard *processes* to send a query to at all:
///
/// - **range / range-kept**: the query cube must intersect the bounds
///   (a hit is a sampled point inside both).
/// - **kNN**: a segment temporally disjoint from a *non-empty* query
///   window cannot score finite. With an empty window every trajectory
///   scores finite (the both-empty convention), so nothing prunes.
/// - **similarity**: only the time axis prunes — interpolation makes
///   spatial pruning unsound, but a candidate in a segment disjoint
///   from `[ts, te]` always fails the matcher's window-overlap test.
///
/// A `false` here guarantees the segment's contribution is empty, so
/// skipping it cannot change the merged answer.
#[must_use]
pub fn query_touches_bounds(q: &Query, bounds: &Cube) -> bool {
    match q {
        Query::Range(c) | Query::RangeKept(c) => bounds.intersects(c),
        Query::Knn(k) => {
            k.query_window().is_empty() || !(bounds.t_max < k.ts || bounds.t_min > k.te)
        }
        Query::Similarity(s) => !(bounds.t_max < s.ts || bounds.t_min > s.te),
    }
}

/// **The** merge: combines one [`Answer`] per segment (each with the
/// segment's [`IdMap`], in segment order) into the result a single
/// store over the surviving segments would return for `q`.
///
/// - range / similarity: local hits remap to global ids and merge
///   ascending;
/// - kNN: remapped candidate streams merge through
///   [`merge_knn_candidates`], then [`knn_take_fill`] fills from the
///   surviving universe — `0..total` when no segment is
///   [`Answer::Missing`] (pruned segments' trajectories are still part
///   of the database), the survivors' ids otherwise;
/// - range-kept: `Some` only when at least one segment survives and
///   every survivor has a kept bitmap — answering segments say so
///   in-band, pruned ones through [`Answer::Pruned`].
pub fn merge(q: &Query, parts: Vec<(IdMap<'_>, Answer)>) -> Result<QueryResult, MergeError> {
    match q {
        Query::Range(_) => merge_hits(parts).map(QueryResult::Range),
        Query::Similarity(_) => merge_hits(parts).map(QueryResult::Similarity),
        Query::Knn(k) => {
            let missing = |a: &Answer| matches!(a, Answer::Missing);
            // Only a degraded answer needs its universe spelled out.
            let survivors = parts.iter().any(|(_, a)| missing(a)).then(|| {
                let alive = parts.iter().filter(|(_, a)| !missing(a));
                let mut ids: Vec<TrajId> = alive.flat_map(|(m, _)| m.globals()).collect();
                ids.sort_unstable();
                ids
            });
            let total: usize = parts.iter().map(|(m, _)| m.len()).sum();
            let merged = merge_candidates(k.k, parts)?;
            Ok(QueryResult::Knn(match survivors {
                Some(universe) => knn_take_fill(k.k, &merged, universe),
                None => knn_take_fill(k.k, &merged, 0..total),
            }))
        }
        Query::RangeKept(_) => {
            let mut hits = Vec::new();
            let (mut survivors, mut all_kept) = (0usize, true);
            for (segment, (ids, answer)) in parts.into_iter().enumerate() {
                match answer {
                    Answer::Missing => continue,
                    Answer::Pruned { has_kept } => all_kept &= has_kept,
                    Answer::Material(ShardResult::Kept(Some(local))) => {
                        remap_into(&mut hits, &ids, local, segment)?;
                    }
                    Answer::Material(ShardResult::Kept(None)) => all_kept = false,
                    Answer::Material(_) => {
                        return Err(MergeError {
                            segment,
                            reason: "expected kept hits",
                        })
                    }
                }
                survivors += 1;
            }
            hits.sort_unstable();
            Ok(QueryResult::RangeKept(
                (survivors > 0 && all_kept).then_some(hits),
            ))
        }
    }
}

/// Appends `local` ids to `out` as global ids. The first list to arrive
/// is remapped where it lies and becomes `out` — all there is to do for
/// a one-segment list, or when one segment holds every hit.
fn remap_into(
    out: &mut Vec<TrajId>,
    ids: &IdMap<'_>,
    mut local: Vec<TrajId>,
    segment: usize,
) -> Result<(), MergeError> {
    for l in &mut local {
        *l = ids.global(*l).ok_or(MergeError {
            segment,
            reason: "segment-local id out of range",
        })?;
    }
    if out.is_empty() {
        *out = local;
    } else {
        out.extend(local);
    }
    Ok(())
}

/// The range/similarity arm of [`merge`].
fn merge_hits(parts: Vec<(IdMap<'_>, Answer)>) -> Result<Vec<TrajId>, MergeError> {
    let mut hits = Vec::new();
    for (segment, (ids, answer)) in parts.into_iter().enumerate() {
        match answer {
            Answer::Material(ShardResult::Ids(local)) => {
                remap_into(&mut hits, &ids, local, segment)?
            }
            Answer::Material(_) => {
                return Err(MergeError {
                    segment,
                    reason: "expected id hits",
                })
            }
            Answer::Pruned { .. } | Answer::Missing => {}
        }
    }
    hits.sort_unstable();
    Ok(hits)
}

/// The candidate half of the kNN arm of [`merge`]: remaps every
/// answering segment's stream to global ids and merges the global best
/// `k` — itself in `knn_candidates` shape, so a whole multi-segment
/// database can answer as one remote segment.
fn merge_candidates(
    k: usize,
    parts: Vec<(IdMap<'_>, Answer)>,
) -> Result<Vec<(f64, TrajId)>, MergeError> {
    let mut streams = Vec::with_capacity(parts.len());
    for (segment, (ids, answer)) in parts.into_iter().enumerate() {
        match answer {
            Answer::Material(ShardResult::Candidates(mut cands)) => {
                for entry in &mut cands {
                    entry.1 = ids.global(entry.1).ok_or(MergeError {
                        segment,
                        reason: "segment-local id out of range",
                    })?;
                }
                streams.push(cands);
            }
            Answer::Material(_) => {
                return Err(MergeError {
                    segment,
                    reason: "expected knn candidates",
                })
            }
            Answer::Pruned { .. } | Answer::Missing => {}
        }
    }
    Ok(merge_knn_candidates(k, &streams))
}

// ---------------------------------------------------------------------
// In-process fan-out over a segment list.
// ---------------------------------------------------------------------

const WELL_FORMED: &str = "in-process segments answer in kind with in-range ids";

/// `f` over every segment: one after the other on the caller's
/// `scratch`, or — `parallel` — side by side, each worker on a scratch
/// of its own.
fn per_segment<'a, R: Send>(
    segments: &[Segment<'a>],
    parallel: bool,
    scratch: &mut QueryScratch,
    f: impl Fn(&Segment<'a>, &mut QueryScratch) -> R + Sync,
) -> Vec<R> {
    if parallel {
        par_map_with(segments, QueryScratch::new, |scratch, seg| f(seg, scratch))
    } else {
        segments.iter().map(|seg| f(seg, scratch)).collect()
    }
}

/// Every segment's [`Answer`] to `q`.
fn answers<'a>(
    segments: &[Segment<'a>],
    q: &Query,
    parallel: bool,
    scratch: &mut QueryScratch,
) -> Vec<(IdMap<'a>, Answer)> {
    per_segment(segments, parallel, scratch, |seg, scratch| {
        (seg.ids, seg.answer(q, parallel, scratch))
    })
}

/// **The** fan-out: answers `q` over every segment and merges. With
/// `parallel` a single query uses the whole machine (segments side by
/// side, engines with what internal parallelism their arm has); a batch
/// worker passes `false` and its own `scratch`, and stays sequential.
#[must_use]
pub fn fan_out(
    segments: &[Segment<'_>],
    q: &Query,
    parallel: bool,
    scratch: &mut QueryScratch,
) -> QueryResult {
    merge(q, answers(segments, q, parallel, scratch)).expect(WELL_FORMED)
}

/// The ids of a result of any kind but `RangeKept`.
fn ids(result: QueryResult) -> Vec<TrajId> {
    result
        .into_ids()
        .expect("range, kNN and similarity results carry ids")
}

/// The whole segment list answering `q` as *one* segment of a larger
/// database: merged material in global ids, no kNN fill.
fn material(
    segments: &[Segment<'_>],
    q: &Query,
    parallel: bool,
    scratch: &mut QueryScratch,
) -> ShardResult {
    match q {
        Query::Range(_) | Query::Similarity(_) => {
            ShardResult::Ids(ids(fan_out(segments, q, parallel, scratch)))
        }
        Query::Knn(k) => {
            let parts = answers(segments, q, parallel, scratch);
            ShardResult::Candidates(merge_candidates(k.k, parts).expect(WELL_FORMED))
        }
        Query::RangeKept(_) => {
            ShardResult::Kept(fan_out(segments, q, parallel, scratch).into_ids())
        }
    }
}

/// Range query against a global [`Simplification`], read through each
/// segment's id map (no per-segment copy of the kept lists).
fn range_simplified(
    segments: &[Segment<'_>],
    simp: &Simplification,
    q: &Cube,
    parallel: bool,
    scratch: &mut QueryScratch,
) -> Vec<TrajId> {
    let hits = per_segment(segments, parallel, scratch, |seg, scratch| {
        if !seg.bounds.intersects(q) {
            return Vec::new();
        }
        let kept = KeptView::new(simp, seg.ids);
        let local = seg.engine.range_simplified_view(kept, q, scratch);
        local.into_iter().map(|l| kept.global(l)).collect()
    });
    let mut out: Vec<TrajId> = hits.into_iter().flatten().collect();
    out.sort_unstable();
    out
}

/// An executor that *is* a segment list: implementing this one method
/// provides the whole [`QueryExecutor`] surface through the shared
/// fan-out — a one-shot query runs its segments side by side, a batch
/// runs its queries side by side with each worker walking the segments
/// sequentially on its own [`QueryScratch`] (one level of parallelism,
/// not `cores²` threads; one hit buffer per worker, not per query).
pub trait Segmented: Sync {
    /// Runs `f` over the segment list. Everything `f` does sees one
    /// consistent list (a live database holds its read lock for it).
    fn with_segments<R>(&self, f: impl FnOnce(&[Segment<'_>]) -> R) -> R;
}

/// One query on the calling thread: `f` over the segment list with a
/// scratch of its own.
fn one_query<T: Segmented, R>(
    exec: &T,
    f: impl FnOnce(&[Segment<'_>], &mut QueryScratch) -> R,
) -> R {
    exec.with_segments(|segments| f(segments, &mut QueryScratch::new()))
}

/// One data-parallel pass over `items` and one segment list: every
/// item — whatever it costs — is a work item of a single work-stealing
/// loop, `f` runs it sequentially on its worker's scratch, and results
/// come back in submission order.
fn batch_pass<T: Segmented, I: Sync, R: Send>(
    exec: &T,
    items: &[I],
    f: impl Fn(&[Segment<'_>], &I, &mut QueryScratch) -> R + Sync,
) -> Vec<R> {
    exec.with_segments(|segments| {
        par_map_with(items, QueryScratch::new, |scratch, item| {
            f(segments, item, scratch)
        })
    })
}

/// A homogeneous batch: [`batch_pass`] over `items`, each wrapped into
/// its typed [`Query`] by `query`.
fn typed_batch<T: Segmented, I: Sync>(
    exec: &T,
    items: &[I],
    query: impl Fn(&I) -> Query + Sync,
) -> Vec<Vec<TrajId>> {
    batch_pass(exec, items, |segments, item, scratch| {
        ids(fan_out(segments, &query(item), false, scratch))
    })
}

/// **The** implementation of the query surface, for every executor in
/// the workspace.
impl<T: Segmented> QueryExecutor for T {
    fn len(&self) -> usize {
        self.with_segments(|segments| segments.iter().map(|seg| seg.ids.len()).sum())
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn total_points(&self) -> usize {
        self.with_segments(|segments| {
            let points = |seg: &Segment<'_>| seg.engine.store().total_points();
            segments.iter().map(points).sum()
        })
    }

    /// # Panics
    /// Panics when no segment holds `id`.
    fn trajectory(&self, id: TrajId) -> trajectory::Trajectory {
        self.with_segments(|segments| {
            segments
                .iter()
                .find_map(|seg| seg.ids.local(id).map(|l| seg.engine.store().view(l)))
                .expect("trajectory id out of range")
                .to_trajectory()
        })
    }

    fn bounding_cube(&self) -> Cube {
        self.with_segments(|segments| {
            let mut all = Cube::empty();
            for seg in segments {
                all.union_with(&seg.bounds);
            }
            all
        })
    }

    fn range(&self, q: &Cube) -> Vec<TrajId> {
        ids(self.execute(&Query::Range(*q)))
    }

    fn range_batch(&self, queries: &[Cube]) -> Vec<Vec<TrajId>> {
        typed_batch(self, queries, |q| Query::Range(*q))
    }

    fn knn(&self, q: &KnnQuery) -> Vec<TrajId> {
        ids(self.execute(&Query::Knn(q.clone())))
    }

    fn knn_batch(&self, queries: &[KnnQuery]) -> Vec<Vec<TrajId>> {
        typed_batch(self, queries, |q| Query::Knn(q.clone()))
    }

    /// The global best `k` finite candidates — the whole segment list
    /// answering as one remote segment.
    fn knn_candidates(&self, q: &KnnQuery) -> Vec<(f64, TrajId)> {
        match self.shard_result(&Query::Knn(q.clone())) {
            ShardResult::Candidates(candidates) => candidates,
            _ => unreachable!("kNN material is a candidate list"),
        }
    }

    fn similarity(&self, q: &SimilarityQuery) -> Vec<TrajId> {
        ids(self.execute(&Query::Similarity(q.clone())))
    }

    fn similarity_batch(&self, queries: &[SimilarityQuery]) -> Vec<Vec<TrajId>> {
        typed_batch(self, queries, |q| Query::Similarity(q.clone()))
    }

    /// True when there is a segment and every segment carries a kept
    /// bitmap — the [`merge`] rule for `RangeKept`, asked up front.
    fn has_kept_bitmap(&self) -> bool {
        self.with_segments(|segments| {
            !segments.is_empty()
                && segments
                    .iter()
                    .all(|seg| seg.engine.kept_bitmap().is_some())
        })
    }

    fn range_kept(&self, q: &Cube) -> Option<Vec<TrajId>> {
        self.execute(&Query::RangeKept(*q)).into_ids()
    }

    fn range_simplified(&self, simp: &Simplification, q: &Cube) -> Vec<TrajId> {
        one_query(self, |segments, scratch| {
            range_simplified(segments, simp, q, true, scratch)
        })
    }

    fn range_simplified_batch(&self, simp: &Simplification, queries: &[Cube]) -> Vec<Vec<TrajId>> {
        batch_pass(self, queries, |segments, q, scratch| {
            range_simplified(segments, simp, q, false, scratch)
        })
    }

    /// Ground truth from the fan-out, kept-point hit counts from the one
    /// counting routine, all in global ids.
    fn maintained_workload(&self, queries: Vec<Cube>, simp: &Simplification) -> MaintainedWorkload {
        let (truth, counts) = batch_pass(self, &queries, |segments, q, scratch| {
            let truth = ids(fan_out(segments, &Query::Range(*q), false, scratch));
            let mut counts = HashMap::new();
            // Kept points inside q lie inside their segment's bounds.
            for seg in segments.iter().filter(|seg| seg.bounds.intersects(q)) {
                let kept = KeptView::new(simp, seg.ids);
                count_kept_hits(seg.engine.store(), kept, q, &mut counts);
            }
            (truth, counts)
        })
        .into_iter()
        .unzip();
        MaintainedWorkload::from_parts(queries, truth, counts)
    }

    fn shard_result(&self, q: &Query) -> ShardResult {
        one_query(self, |segments, scratch| {
            material(segments, q, true, scratch)
        })
    }

    /// One segment list for the whole frame, as for
    /// [`QueryExecutor::execute_batch`]: a live shard answers a
    /// coordinator's frame from one state, never straddling an ingest
    /// or a fold.
    fn shard_batch(&self, batch: &QueryBatch) -> Vec<ShardResult> {
        batch_pass(self, batch.queries(), |segments, q, scratch| {
            material(segments, q, false, scratch)
        })
    }

    fn execute_one(&self, q: &Query) -> QueryResult {
        one_query(self, |segments, scratch| {
            fan_out(segments, q, false, scratch)
        })
    }

    fn execute(&self, q: &Query) -> QueryResult {
        one_query(self, |segments, scratch| {
            fan_out(segments, q, true, scratch)
        })
    }

    /// One segment list for the whole batch: every query of the plan
    /// sees the same consistent snapshot.
    fn execute_batch(&self, batch: &QueryBatch) -> Vec<QueryResult> {
        batch_pass(self, batch.queries(), |segments, q, scratch| {
            fan_out(segments, q, false, scratch)
        })
    }
}

// ---------------------------------------------------------------------
// kNN merge kernels.
// ---------------------------------------------------------------------

/// Merges per-stream kNN candidate lists into the global best `k`,
/// still sorted ascending by `(distance, id)`. Each input stream must
/// be sorted ascending by `(distance, id)` with finite,
/// `-0.0`-normalized distances and globally unique ids — the shape of
/// [`ShardResult::Candidates`].
#[must_use]
pub fn merge_knn_candidates(k: usize, per_stream: &[Vec<(f64, TrajId)>]) -> Vec<(f64, TrajId)> {
    // Global k-heap: a best-first k-way merge over the sorted
    // per-stream lists. Ties on distance break by id, exactly like the
    // single-store sort.
    let mut heap: BinaryHeap<std::cmp::Reverse<KnnHeapEntry>> = BinaryHeap::new();
    for (stream, list) in per_stream.iter().enumerate() {
        if let Some(&(d, id)) = list.first() {
            heap.push(std::cmp::Reverse(KnnHeapEntry {
                d,
                id,
                stream,
                pos: 0,
            }));
        }
    }
    // `k` comes off the wire unchecked: size by what can be returned.
    let available: usize = per_stream.iter().map(Vec::len).sum();
    let mut merged: Vec<(f64, TrajId)> = Vec::with_capacity(k.min(available));
    while merged.len() < k {
        let Some(std::cmp::Reverse(e)) = heap.pop() else {
            break;
        };
        merged.push((e.d, e.id));
        if let Some(&(d, id)) = per_stream[e.stream].get(e.pos + 1) {
            heap.push(std::cmp::Reverse(KnnHeapEntry {
                d,
                id,
                stream: e.stream,
                pos: e.pos + 1,
            }));
        }
    }
    merged
}

/// Applies the single-store take-`k` / infinite-fill policy to a
/// [`merge_knn_candidates`] result: take the candidate ids and, when
/// fewer than `k` trajectories scored finite, fill with ids from
/// `universe` not already present, then sort ascending. `universe`
/// must yield the servable trajectory ids in ascending order —
/// `0..total` for a complete database, the surviving segments' global
/// ids for a degraded one.
///
/// When `merged.len() < k` the k-heap above exhausted every stream, so
/// `merged` alone lists *all* finite-distance ids and the fill can
/// skip exactly those.
#[must_use]
pub fn knn_take_fill(
    k: usize,
    merged: &[(f64, TrajId)],
    universe: impl IntoIterator<Item = TrajId>,
) -> Vec<TrajId> {
    let mut ids: Vec<TrajId> = merged.iter().map(|&(_, id)| id).collect();
    if ids.len() < k {
        let finite: HashSet<TrajId> = ids.iter().copied().collect();
        for id in universe {
            if finite.contains(&id) {
                continue;
            }
            ids.push(id);
            if ids.len() == k {
                break;
            }
        }
    }
    ids.sort_unstable();
    ids
}

/// Heap entry of the global kNN merge: ordered by `(distance, global
/// id)`; `stream`/`pos` locate the successor in that stream. Distances
/// are finite and `-0.0`-normalized, so `total_cmp` agrees with the
/// single-store sort's `partial_cmp`.
struct KnnHeapEntry {
    d: f64,
    id: TrajId,
    stream: usize,
    pos: usize,
}

impl PartialEq for KnnHeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for KnnHeapEntry {}

impl PartialOrd for KnnHeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for KnnHeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.d
            .total_cmp(&other.d)
            .then(self.id.cmp(&other.id))
            .then(self.stream.cmp(&other.stream))
    }
}
