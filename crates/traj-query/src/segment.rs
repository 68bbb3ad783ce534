//! The segment: the single unit of "answer over parts, then merge".
//!
//! Every executor that serves more than one set of columns treats its
//! database as an **ordered list of segments** — the in-process
//! [`ShardedQueryEngine`](crate::ShardedQueryEngine) (one segment per
//! shard), the live [`GenerationalDb`](crate::GenerationalDb) (base
//! generation, sealed deltas, active delta) and the distributed
//! coordinator in `traj-serve` (one remote segment per shard process).
//! A [`Segment`] is a [`QueryEngine`] — indexed, or the zero-cost
//! [`BackendKind::Scan`](crate::BackendKind) backend for small unindexed
//! data — plus an [`IdMap`] from segment-local to global trajectory ids
//! plus the bounding cube of its points.
//!
//! Two functions carry the whole design: [`Segment::answer`] produces
//! one segment's *merge material* for a query, and [`merge`] turns the
//! [`Answer`]s of any number of segments into the [`QueryResult`] a
//! single store over the union would have returned. [`fan_out`] is the
//! two composed for in-process segments, and an in-process executor is
//! nothing but its segment list ([`Segmented`]); a remote executor skips
//! [`Segment::answer`] — the shard process already ran it — and hands
//! the decoded material to the same [`merge`].

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap, HashSet};

use trajectory::{AsColumns, Cube, Simplification, TrajId};

use crate::db::{Query, QueryBatch, QueryExecutor, QueryResult};
use crate::engine::{count_kept_hits, KeptView, MaintainedWorkload, QueryEngine};
use crate::knn::KnnQuery;
use crate::parallel::par_map;
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
    /// its internal data parallelism (kNN scoring, similarity checks);
    /// batch workers pass `false` so a batch stays one level of
    /// parallelism deep.
    #[must_use]
    pub fn answer(&self, q: &Query, parallel: bool) -> Answer {
        if !query_touches_bounds(q, &self.bounds) {
            return Answer::Pruned {
                has_kept: self.engine.has_kept_bitmap(),
            };
        }
        Answer::Material(self.engine.material(q, parallel))
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

/// Appends `local` ids to `out` as global ids.
fn remap_into(
    out: &mut Vec<TrajId>,
    ids: &IdMap<'_>,
    local: Vec<TrajId>,
    segment: usize,
) -> Result<(), MergeError> {
    out.reserve(local.len());
    for l in local {
        out.push(ids.global(l).ok_or(MergeError {
            segment,
            reason: "segment-local id out of range",
        })?);
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

/// Every segment's [`Answer`] to `q`, side by side when `parallel`.
fn answers<'a>(segments: &[Segment<'a>], q: &Query, parallel: bool) -> Vec<(IdMap<'a>, Answer)> {
    let answer = |seg: &Segment<'a>| (seg.ids, seg.answer(q, parallel));
    if parallel {
        par_map(segments, answer)
    } else {
        segments.iter().map(answer).collect()
    }
}

/// **The** fan-out: answers `q` over every segment and merges. With
/// `parallel` a single query uses the whole machine (segments side by
/// side, engines with their internal parallelism); a batch worker
/// passes `false` and stays sequential.
#[must_use]
pub fn fan_out(segments: &[Segment<'_>], q: &Query, parallel: bool) -> QueryResult {
    merge(q, answers(segments, q, parallel)).expect(WELL_FORMED)
}

/// [`fan_out`] for the kinds that always answer with ids (every kind
/// but `RangeKept`).
fn fan_out_ids(segments: &[Segment<'_>], q: &Query, parallel: bool) -> Vec<TrajId> {
    fan_out(segments, q, parallel)
        .into_ids()
        .expect("range, kNN and similarity results carry ids")
}

/// The whole segment list answering `q` as *one* segment of a larger
/// database: merged material in global ids, no kNN fill — what
/// [`QueryExecutor::shard_result`] returns for it.
fn material(segments: &[Segment<'_>], q: &Query, parallel: bool) -> ShardResult {
    match q {
        Query::Range(_) | Query::Similarity(_) => {
            ShardResult::Ids(fan_out_ids(segments, q, parallel))
        }
        Query::Knn(k) => {
            let parts = answers(segments, q, parallel);
            ShardResult::Candidates(merge_candidates(k.k, parts).expect(WELL_FORMED))
        }
        Query::RangeKept(_) => ShardResult::Kept(fan_out(segments, q, parallel).into_ids()),
    }
}

/// Range query against a global [`Simplification`], read through each
/// segment's id map (no per-segment copy of the kept lists).
fn range_simplified(
    segments: &[Segment<'_>],
    simp: &Simplification,
    q: &Cube,
    parallel: bool,
) -> Vec<TrajId> {
    let hits = |seg: &Segment<'_>| -> Vec<TrajId> {
        if !seg.bounds.intersects(q) {
            return Vec::new();
        }
        let kept = KeptView::new(simp, seg.ids);
        let local = seg.engine.range_simplified_view(kept, q);
        local.into_iter().map(|l| kept.global(l)).collect()
    };
    let mut out: Vec<TrajId> = if parallel {
        par_map(segments, hits).into_iter().flatten().collect()
    } else {
        segments.iter().flat_map(hits).collect()
    };
    out.sort_unstable();
    out
}

/// An executor that *is* a segment list: implementing this one method
/// provides the whole [`QueryExecutor`] surface through the shared
/// fan-out — a one-shot query runs its segments side by side, a batch
/// runs its queries side by side with each walking the segments
/// sequentially (one level of parallelism, not `cores²` threads).
pub trait Segmented: Sync {
    /// Runs `f` over the segment list. Everything `f` does sees one
    /// consistent list (a live database holds its read lock for it).
    fn with_segments<R>(&self, f: impl FnOnce(&[Segment<'_>]) -> R) -> R;
}

impl<T: Segmented> QueryExecutor for T {
    fn len(&self) -> usize {
        self.with_segments(|segments| segments.iter().map(|seg| seg.ids.len()).sum())
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
                .find_map(|seg| seg.ids.local(id).map(|l| seg.engine.trajectory(l)))
                .expect("trajectory id out of range")
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
        self.with_segments(|segments| fan_out_ids(segments, &Query::Range(*q), true))
    }

    fn range_batch(&self, queries: &[Cube]) -> Vec<Vec<TrajId>> {
        self.with_segments(|segments| {
            par_map(queries, |q| fan_out_ids(segments, &Query::Range(*q), false))
        })
    }

    fn knn(&self, q: &KnnQuery) -> Vec<TrajId> {
        self.with_segments(|segments| fan_out_ids(segments, &Query::Knn(q.clone()), true))
    }

    fn knn_batch(&self, queries: &[KnnQuery]) -> Vec<Vec<TrajId>> {
        self.with_segments(|segments| {
            par_map(queries, |q| {
                fan_out_ids(segments, &Query::Knn(q.clone()), false)
            })
        })
    }

    /// The global best `k` finite candidates — the whole segment list
    /// answering as one remote segment.
    fn knn_candidates(&self, q: &KnnQuery) -> Vec<(f64, TrajId)> {
        self.with_segments(|segments| {
            let parts = answers(segments, &Query::Knn(q.clone()), true);
            merge_candidates(q.k, parts).expect(WELL_FORMED)
        })
    }

    fn similarity(&self, q: &SimilarityQuery) -> Vec<TrajId> {
        self.with_segments(|segments| fan_out_ids(segments, &Query::Similarity(q.clone()), true))
    }

    fn similarity_batch(&self, queries: &[SimilarityQuery]) -> Vec<Vec<TrajId>> {
        self.with_segments(|segments| {
            par_map(queries, |q| {
                fan_out_ids(segments, &Query::Similarity(q.clone()), false)
            })
        })
    }

    /// True when there is a segment and every segment carries a kept
    /// bitmap — the [`merge`] rule for `RangeKept`, asked up front.
    fn has_kept_bitmap(&self) -> bool {
        self.with_segments(|segments| {
            !segments.is_empty() && segments.iter().all(|seg| seg.engine.has_kept_bitmap())
        })
    }

    fn range_kept(&self, q: &Cube) -> Option<Vec<TrajId>> {
        self.execute(&Query::RangeKept(*q)).into_ids()
    }

    fn range_simplified(&self, simp: &Simplification, q: &Cube) -> Vec<TrajId> {
        self.with_segments(|segments| range_simplified(segments, simp, q, true))
    }

    fn range_simplified_batch(&self, simp: &Simplification, queries: &[Cube]) -> Vec<Vec<TrajId>> {
        self.with_segments(|segments| {
            par_map(queries, |q| range_simplified(segments, simp, q, false))
        })
    }

    /// Ground truth from the fan-out, kept-point hit counts from the one
    /// counting routine, all in global ids.
    fn maintained_workload(&self, queries: Vec<Cube>, simp: &Simplification) -> MaintainedWorkload {
        self.with_segments(|segments| {
            let truth = par_map(&queries, |q| {
                fan_out_ids(segments, &Query::Range(*q), false)
            });
            let counts = par_map(&queries, |q| {
                let mut counts = HashMap::new();
                // Kept points inside q lie inside their segment's bounds.
                for seg in segments.iter().filter(|seg| seg.bounds.intersects(q)) {
                    let kept = KeptView::new(simp, seg.ids);
                    count_kept_hits(seg.engine.store(), kept, q, &mut counts);
                }
                counts
            });
            MaintainedWorkload::from_parts(queries, truth, counts)
        })
    }

    fn execute_one(&self, q: &Query) -> QueryResult {
        self.with_segments(|segments| fan_out(segments, q, false))
    }

    fn execute(&self, q: &Query) -> QueryResult {
        self.with_segments(|segments| fan_out(segments, q, true))
    }

    /// One segment list for the whole batch: every query of the plan
    /// sees the same consistent snapshot.
    fn execute_batch(&self, batch: &QueryBatch) -> Vec<QueryResult> {
        self.with_segments(|segments| par_map(batch.queries(), |q| fan_out(segments, q, false)))
    }

    /// One segment list for the whole frame, as for
    /// [`QueryExecutor::execute_batch`]: a live shard answers a
    /// coordinator's frame from one state, never straddling an ingest
    /// or a fold.
    fn shard_batch(&self, batch: &QueryBatch) -> Vec<ShardResult> {
        self.with_segments(|segments| par_map(batch.queries(), |q| material(segments, q, false)))
    }
}

// ---------------------------------------------------------------------
// kNN merge kernels.
// ---------------------------------------------------------------------

/// Merges per-stream kNN candidate lists into the global best `k`,
/// still sorted ascending by `(distance, id)`. Each input stream must
/// be sorted ascending by `(distance, id)` with finite,
/// `-0.0`-normalized distances and globally unique ids — the shape
/// [`QueryEngine::knn_candidates`] returns.
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
