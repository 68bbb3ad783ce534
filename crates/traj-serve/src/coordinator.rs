//! The distributed query coordinator: routes a [`QueryBatch`] to the
//! shard *processes* whose bounds can contribute, fans the sub-batches
//! out over the wire, and hands the raw per-shard answers to the same
//! [`merge`] every in-process executor uses — each shard process is one
//! remote segment of the database.
//!
//! The shard manifest doubles as the placement map: each
//! [`ShardEntry`](trajectory::shard::ShardEntry) carries an optional
//! `addr=` token naming the `shardd` process serving that shard's
//! snapshot, and a `bounds=` token with the shard's bounding cube.
//! [`Placement::from_manifest`] reads both, [`Coordinator::connect`]
//! dials every shard *in parallel* (with a bounded connect timeout)
//! and cross-checks each one's [`ShardInfo`]
//! handshake against the placement map — trajectory count *and*
//! bounding cube must agree — and [`Coordinator::execute_batch`] runs
//! the fan-out:
//!
//! - **bound-pruned routing**: each shard receives a sub-batch of only
//!   the queries whose answer can involve its data, decided by the
//!   same [`query_touches_bounds`] predicate an in-process sharded
//!   `TrajDb` prunes its segments with. A shard every query prunes away
//!   gets *no frame at all* for that round — a dead shard the routing
//!   never touches cannot degrade the answer;
//! - sub-batches travel as id-tagged
//!   [`Message::ShardRequest`](crate::wire::Message) frames over a
//!   small per-shard connection pool, so several coalesced rounds stay
//!   in flight concurrently while every reply is still paired with its
//!   request by the echoed id;
//! - every query's per-shard [`Answer`]s — the decoded material of the
//!   shards that answered, [`Answer::Pruned`] (with the `has_kept` the
//!   shard declared at handshake) for shards the query was routed away
//!   from, [`Answer::Missing`] for shards degraded away — go through
//!   [`merge`] with the placement map's id tables, so the result is
//!   byte-identical to the in-process fan-out. Pruned (but healthy)
//!   shards stay in the kNN fill universe: pruning is result-neutral,
//!   only *failures* shrink it.
//!
//! Failures are first-class: per-shard connect/request timeouts,
//! bounded retries with linear backoff and reconnection, and a
//! per-request [`FailurePolicy`] — [`FailurePolicy::FailFast`] turns
//! any shard failure into a typed [`CoordinatorError::ShardFailed`],
//! while [`FailurePolicy::Degrade`] answers from the surviving shards
//! and reports [`ResponseStatus::Degraded`] with the missing shard
//! indexes (a *correct* answer over the reachable subset — the kNN
//! infinite-fill universe shrinks to the survivors' ids — never a
//! silently wrong one). Pooled connections are reused across rounds
//! and re-dialed transparently after a failure.
//!
//! [`SharedCoordinator`] puts the admission queue the in-process
//! [`Server`](crate::Server) uses in front of the fan-out: many threads
//! submit batches concurrently, the leader among them runs everything
//! that arrived together as one wire round per shard, and each submitter
//! gets its slice of the merged answer back. [`Coordinator::stats`]
//! reports how well that works: coalesced rounds, queries per round, and
//! frames sent vs pruned per shard.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use traj_query::{merge, query_touches_bounds, Answer, IdMap, Query, QueryBatch, QueryResult};
use trajectory::shard::ShardSet;
use trajectory::{Cube, TrajId};

use crate::admission::{split, Admission, BatchConfig, Refused};
use crate::client::{Client, ClientConfig};
use crate::wire::{ShardInfo, ShardResult, WireError};

/// Idle connections kept per shard. Concurrency beyond the cap still
/// works — extra connections are dialed on demand and dropped on
/// check-in instead of pooled.
const POOL_CAP: usize = 8;

/// Where one shard of a distributed database lives: the address of the
/// process serving it, the global trajectory ids it holds (strictly
/// ascending — shard-local order is global order), and its bounding
/// cube when the manifest records one (used to prune routing; `None`
/// routes every query to the shard).
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementShard {
    /// `host:port` of the serving process.
    pub addr: String,
    /// `global_ids[local]` = global trajectory id.
    pub global_ids: Vec<TrajId>,
    /// The shard's bounding cube from the manifest, if recorded.
    pub bounds: Option<Cube>,
}

/// The placement map: one [`PlacementShard`] per shard, together
/// covering global ids `0..total_trajs` exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    shards: Vec<PlacementShard>,
    total_trajs: usize,
}

impl Placement {
    /// Reads a [`ShardSet`] manifest as a placement map. Every entry
    /// must carry an `addr=` assignment (see `ShardSet::set_addrs`);
    /// id-level validity (sorted, disjoint, covering) was already
    /// enforced by `ShardSet::load`. `bounds=` tokens, when present,
    /// become the shards' routing bounds and are cross-checked against
    /// each shard's handshake at connect time.
    pub fn from_manifest(set: &ShardSet) -> Result<Placement, CoordinatorError> {
        let mut shards = Vec::with_capacity(set.len());
        for e in set.entries() {
            let addr = e
                .addr
                .clone()
                .ok_or_else(|| CoordinatorError::MissingAddr {
                    file: e.file.clone(),
                })?;
            shards.push(PlacementShard {
                addr,
                global_ids: e.global_ids.clone(),
                bounds: e.bounds,
            });
        }
        Ok(Placement {
            shards,
            total_trajs: set.total_trajs(),
        })
    }

    /// Builds a placement from explicit `(addr, global_ids)` parts,
    /// validating what `ShardSet::load` would: ids strictly ascending
    /// per shard, disjoint across shards, covering `0..total` exactly,
    /// and pairwise-distinct addresses. Shards get no manifest bounds;
    /// the coordinator adopts whatever bounds each shard declares in
    /// its handshake.
    pub fn from_parts(parts: Vec<(String, Vec<TrajId>)>) -> Result<Placement, CoordinatorError> {
        let total: usize = parts.iter().map(|(_, ids)| ids.len()).sum();
        let mut seen = vec![false; total];
        for (i, (addr, ids)) in parts.iter().enumerate() {
            if parts[..i].iter().any(|(prev, _)| prev == addr) {
                return Err(CoordinatorError::BadPlacement {
                    reason: format!("address {addr} assigned to more than one shard"),
                });
            }
            if ids.windows(2).any(|w| w[0] >= w[1]) {
                return Err(CoordinatorError::BadPlacement {
                    reason: format!("shard {i} ids are not strictly ascending"),
                });
            }
            for &id in ids {
                if id >= total || seen[id] {
                    return Err(CoordinatorError::BadPlacement {
                        reason: format!("global id {id} out of range or doubly assigned"),
                    });
                }
                seen[id] = true;
            }
        }
        Ok(Placement {
            shards: parts
                .into_iter()
                .map(|(addr, global_ids)| PlacementShard {
                    addr,
                    global_ids,
                    bounds: None,
                })
                .collect(),
            total_trajs: total,
        })
    }

    /// The shards, in shard order.
    #[must_use]
    pub fn shards(&self) -> &[PlacementShard] {
        &self.shards
    }

    /// Total trajectories across all shards.
    #[must_use]
    pub fn total_trajs(&self) -> usize {
        self.total_trajs
    }
}

/// What the coordinator does when a shard fails a request (after
/// exhausting its retries).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailurePolicy {
    /// The whole batch fails with [`CoordinatorError::ShardFailed`].
    FailFast,
    /// Answer from the surviving shards and report the missing ones in
    /// [`ResponseStatus::Degraded`]. Still fails when *no* shard
    /// survives.
    Degrade,
}

/// Coordinator tuning: deadlines, retry budget, default failure policy.
#[derive(Debug, Clone, Copy)]
pub struct CoordinatorOptions {
    /// Deadline for dialing one shard.
    pub connect_timeout: Duration,
    /// Deadline for each socket read/write of one shard request.
    pub request_timeout: Duration,
    /// Retries per shard per batch after the first attempt fails. Each
    /// retry reconnects (the old connection is presumed poisoned).
    pub retries: u32,
    /// Backoff before retry `n` is `backoff * n` (linear).
    pub backoff: Duration,
    /// Failure policy used by [`Coordinator::execute_batch`];
    /// [`Coordinator::execute_batch_with`] overrides it per request.
    pub policy: FailurePolicy,
}

impl Default for CoordinatorOptions {
    fn default() -> Self {
        CoordinatorOptions {
            connect_timeout: Duration::from_secs(1),
            request_timeout: Duration::from_secs(5),
            retries: 2,
            backoff: Duration::from_millis(50),
            policy: FailurePolicy::FailFast,
        }
    }
}

/// Everything that can go wrong coordinating a distributed batch.
#[derive(Debug, Clone)]
pub enum CoordinatorError {
    /// A manifest entry has no `addr=` assignment, so it cannot serve
    /// as a placement map.
    MissingAddr {
        /// The address-less shard file.
        file: String,
    },
    /// The placement parts do not form a valid shard cover.
    BadPlacement {
        /// What is wrong.
        reason: String,
    },
    /// A shard could not be reached or did not answer (after retries).
    ShardFailed {
        /// Shard index in placement order.
        shard: usize,
        /// The address dialed.
        addr: String,
        /// The final wire-level failure.
        source: WireError,
    },
    /// A shard answered with well-formed frames that violate the
    /// shard protocol (wrong result variant, out-of-range local id).
    Protocol {
        /// Shard index in placement order.
        shard: usize,
        /// The shard's address.
        addr: String,
        /// What it did wrong.
        reason: &'static str,
    },
    /// The [`SharedCoordinator`] was shut down while this batch was
    /// queued or in flight.
    Closed,
    /// The coalesced round this batch rode in panicked. Its riders get
    /// this; the [`SharedCoordinator`] keeps serving.
    RoundFailed,
}

impl fmt::Display for CoordinatorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoordinatorError::MissingAddr { file } => {
                write!(f, "shard {file} has no address in the manifest")
            }
            CoordinatorError::BadPlacement { reason } => {
                write!(f, "bad placement: {reason}")
            }
            CoordinatorError::ShardFailed {
                shard,
                addr,
                source,
            } => write!(f, "shard {shard} ({addr}) failed: {source}"),
            CoordinatorError::Protocol {
                shard,
                addr,
                reason,
            } => write!(f, "shard {shard} ({addr}) broke protocol: {reason}"),
            CoordinatorError::Closed => {
                write!(f, "the shared coordinator is shut down")
            }
            CoordinatorError::RoundFailed => {
                write!(f, "the coalesced round answering this batch failed")
            }
        }
    }
}

impl std::error::Error for CoordinatorError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoordinatorError::ShardFailed { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Whether a [`DistributedResponse`] covered every shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResponseStatus {
    /// Every shard the routing needed answered; results are
    /// byte-identical to in-process execution over the whole database.
    Complete,
    /// Some contacted shards were unreachable; results are correct
    /// over the surviving shards only.
    Degraded {
        /// Placement indexes of the shards that did not answer.
        missing_shards: Vec<usize>,
    },
}

/// A merged distributed answer plus how complete it is.
#[derive(Debug, Clone)]
pub struct DistributedResponse {
    /// Merged results, in submission order.
    pub results: Vec<QueryResult>,
    /// Complete, or degraded with the missing shard indexes.
    pub status: ResponseStatus,
    /// The wire-level failure behind each missing shard (empty when
    /// complete).
    pub failures: Vec<(usize, WireError)>,
}

/// Frame counters for one shard, snapshotted by [`Coordinator::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardFrameStats {
    /// Rounds in which this shard was sent a sub-batch frame.
    pub frames_sent: u64,
    /// Rounds in which bound-pruned routing skipped this shard
    /// entirely — no frame on the wire.
    pub frames_pruned: u64,
}

/// A point-in-time snapshot of a coordinator's counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoordinatorStats {
    /// Fan-out rounds run ([`Coordinator::execute_batch`] calls —
    /// coalesced rounds when driven by a [`SharedCoordinator`]).
    pub rounds: u64,
    /// Queries across all rounds.
    pub queries: u64,
    /// Per-shard frame counters, in placement order.
    pub shards: Vec<ShardFrameStats>,
}

impl CoordinatorStats {
    /// Mean queries per fan-out round (0 when none ran) — the coalesced
    /// batch size when a [`SharedCoordinator`] feeds the rounds.
    #[must_use]
    pub fn mean_coalesced_batch(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.queries as f64 / self.rounds as f64
        }
    }

    /// Total sub-batch frames sent across all shards.
    #[must_use]
    pub fn frames_sent(&self) -> u64 {
        self.shards.iter().map(|s| s.frames_sent).sum()
    }

    /// Total shard rounds skipped by bound-pruned routing.
    #[must_use]
    pub fn frames_pruned(&self) -> u64 {
        self.shards.iter().map(|s| s.frames_pruned).sum()
    }
}

struct ShardConn {
    addr: String,
    global_ids: Vec<TrajId>,
    /// Routing bounds: the manifest's when recorded, else adopted from
    /// the shard's handshake. `None` (an empty shard) routes nothing
    /// away — every query is sent.
    bounds: Option<Cube>,
    /// Kept-bitmap presence from the handshake; consulted for queries
    /// routed away from this shard when merging `RangeKept`.
    has_kept: bool,
    /// Idle pooled connections; concurrent rounds check out distinct
    /// connections so several id-tagged frames stay in flight at once.
    pool: Mutex<Vec<Client>>,
    frames_sent: AtomicU64,
    frames_pruned: AtomicU64,
}

impl ShardConn {
    fn checkout(&self) -> Option<Client> {
        self.pool.lock().expect("pool lock").pop()
    }

    fn checkin(&self, client: Client) {
        let mut pool = self.pool.lock().expect("pool lock");
        if pool.len() < POOL_CAP {
            pool.push(client);
        }
    }
}

/// How one shard's part of a fan-out round went.
enum Round {
    /// Its answers, in route order.
    Answered(std::vec::IntoIter<ShardResult>),
    /// Never contacted, so it can neither answer nor fail — its (empty)
    /// contribution is known from bounds.
    Pruned,
    /// Failed after retries and was degraded away.
    Failed,
}

/// A connected distributed database: a connection pool per shard plus
/// the placement map. Shared by reference — every method takes `&self`,
/// so one coordinator serves any number of concurrent callers (see
/// [`SharedCoordinator`] for the coalescing front). See the
/// [module docs](self) for the routing, merge, and failure semantics.
pub struct Coordinator {
    shards: Vec<ShardConn>,
    total_trajs: usize,
    opts: CoordinatorOptions,
    next_id: AtomicU64,
    rounds: AtomicU64,
    queries: AtomicU64,
}

impl Coordinator {
    /// Dials every shard in the placement map — in parallel, one
    /// thread per shard — and verifies each handshake
    /// ([`Client::hello`]) against it: a shard serving a different
    /// trajectory count, or declaring different bounds than the
    /// manifest records, is a connect-time error, not a silently wrong
    /// (or wrongly pruned) merge later.
    pub fn connect(
        placement: Placement,
        opts: CoordinatorOptions,
    ) -> Result<Coordinator, CoordinatorError> {
        let dialed: Vec<Result<(Client, ShardInfo), WireError>> = std::thread::scope(|scope| {
            let opts = &opts;
            let handles: Vec<_> = placement
                .shards
                .iter()
                .map(|p| {
                    scope.spawn(move || {
                        dial_shard(&p.addr, p.global_ids.len(), p.bounds.as_ref(), opts)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard connect thread panicked"))
                .collect()
        });

        let mut shards = Vec::with_capacity(placement.shards.len());
        for (i, (p, dial)) in placement.shards.into_iter().zip(dialed).enumerate() {
            let (client, info) = dial.map_err(|source| CoordinatorError::ShardFailed {
                shard: i,
                addr: p.addr.clone(),
                source,
            })?;
            shards.push(ShardConn {
                addr: p.addr,
                global_ids: p.global_ids,
                bounds: p.bounds.or(info.bounds),
                has_kept: info.has_kept,
                pool: Mutex::new(vec![client]),
                frames_sent: AtomicU64::new(0),
                frames_pruned: AtomicU64::new(0),
            });
        }
        Ok(Coordinator {
            shards,
            total_trajs: placement.total_trajs,
            opts,
            next_id: AtomicU64::new(0),
            rounds: AtomicU64::new(0),
            queries: AtomicU64::new(0),
        })
    }

    /// Number of shards in the placement.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total trajectories across all shards.
    #[must_use]
    pub fn total_trajs(&self) -> usize {
        self.total_trajs
    }

    /// The routing bounds per shard (manifest, or adopted from the
    /// handshake), in placement order.
    #[must_use]
    pub fn shard_bounds(&self) -> Vec<Option<Cube>> {
        self.shards.iter().map(|s| s.bounds).collect()
    }

    /// Current counters: rounds, queries, frames sent vs pruned.
    #[must_use]
    pub fn stats(&self) -> CoordinatorStats {
        CoordinatorStats {
            rounds: self.rounds.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
            shards: self
                .shards
                .iter()
                .map(|s| ShardFrameStats {
                    frames_sent: s.frames_sent.load(Ordering::Relaxed),
                    frames_pruned: s.frames_pruned.load(Ordering::Relaxed),
                })
                .collect(),
        }
    }

    /// Executes a batch with the configured default
    /// [`CoordinatorOptions::policy`].
    pub fn execute_batch(
        &self,
        batch: &QueryBatch,
    ) -> Result<DistributedResponse, CoordinatorError> {
        self.execute_batch_with(batch, self.opts.policy)
    }

    /// Executes a batch under an explicit per-request failure policy:
    /// each shard receives — in parallel, on a pooled connection — a
    /// sub-batch of only the queries its bounds can answer (none ⇒ no
    /// frame at all), encoded straight from `batch`; the calling
    /// thread runs one routed shard's exchange itself and spawns a
    /// thread for each of the others. Each shard retries independently
    /// (with backoff + reconnect), and the per-shard answers merge
    /// exactly as the in-process fan-out does.
    pub fn execute_batch_with(
        &self,
        batch: &QueryBatch,
        policy: FailurePolicy,
    ) -> Result<DistributedResponse, CoordinatorError> {
        self.rounds.fetch_add(1, Ordering::Relaxed);
        self.queries
            .fetch_add(batch.len() as u64, Ordering::Relaxed);

        // Route: for each shard, the batch indexes whose answer can
        // involve that shard's data — the same pruning rules the
        // in-process engine applies, so skipping the rest cannot
        // change answers.
        let routes: Vec<Vec<usize>> = self
            .shards
            .iter()
            .map(|conn| match &conn.bounds {
                Some(b) => batch
                    .queries()
                    .iter()
                    .enumerate()
                    .filter(|(_, q)| query_touches_bounds(q, b))
                    .map(|(qi, _)| qi)
                    .collect(),
                None => (0..batch.len()).collect(),
            })
            .collect();

        // `None` = pruned (no frame sent); `Some(outcome)` = contacted.
        let mut outcomes: Vec<Option<Result<Vec<ShardResult>, WireError>>> =
            vec![None; self.shards.len()];
        let mut routed = Vec::with_capacity(self.shards.len());
        for (s, (conn, route)) in self.shards.iter().zip(&routes).enumerate() {
            if route.is_empty() {
                conn.frames_pruned.fetch_add(1, Ordering::Relaxed);
            } else {
                conn.frames_sent.fetch_add(1, Ordering::Relaxed);
                routed.push(s);
            }
        }
        // This thread would only wait for the round, so it runs one
        // routed shard's share itself; threads are spawned for the
        // others alone — none when routing leaves a single shard.
        if let Some((&own, others)) = routed.split_last() {
            let round = |s: usize| {
                let id = self.next_id.fetch_add(1, Ordering::Relaxed);
                shard_round(&self.shards[s], batch.queries(), &routes[s], &self.opts, id)
            };
            std::thread::scope(|scope| {
                let round = &round;
                let handles: Vec<_> = others
                    .iter()
                    .map(|&s| (s, scope.spawn(move || round(s))))
                    .collect();
                outcomes[own] = Some(round(own));
                for (s, h) in handles {
                    outcomes[s] = Some(h.join().expect("shard fan-out thread panicked"));
                }
            });
        }

        let mut shard_rounds: Vec<Round> = Vec::with_capacity(outcomes.len());
        let mut failures: Vec<(usize, WireError)> = Vec::new();
        for (i, outcome) in outcomes.into_iter().enumerate() {
            match outcome {
                None => shard_rounds.push(Round::Pruned),
                Some(Ok(results)) => shard_rounds.push(Round::Answered(results.into_iter())),
                Some(Err(source)) => match policy {
                    FailurePolicy::FailFast => {
                        return Err(CoordinatorError::ShardFailed {
                            shard: i,
                            addr: self.shards[i].addr.clone(),
                            source,
                        })
                    }
                    FailurePolicy::Degrade => {
                        failures.push((i, source));
                        shard_rounds.push(Round::Failed);
                    }
                },
            }
        }
        // Degrading to an empty shard set would answer every query with
        // nothing — that is an outage, not a degraded answer. (Pruned
        // shards count as survivors: their contribution is known.)
        if !self.shards.is_empty() && failures.len() == self.shards.len() {
            let (shard, source) = failures.swap_remove(0);
            return Err(CoordinatorError::ShardFailed {
                shard,
                addr: self.shards[shard].addr.clone(),
                source,
            });
        }

        // Merge: each shard is one remote segment. Routes are ascending
        // batch indexes, so walking the batch in order consumes every
        // shard's answers in the order it sent them.
        let mut routes: Vec<_> = routes.iter().map(|r| r.iter().peekable()).collect();
        let mut results = Vec::with_capacity(batch.len());
        for (qi, q) in batch.queries().iter().enumerate() {
            let parts = self
                .shards
                .iter()
                .enumerate()
                .map(|(s, conn)| {
                    let routed_here = routes[s].next_if_eq(&&qi).is_some();
                    let answer = match &mut shard_rounds[s] {
                        Round::Failed => Answer::Missing,
                        Round::Answered(sent) if routed_here => {
                            // The client checked one result per routed query.
                            Answer::Material(sent.next().expect("one answer per routed query"))
                        }
                        // Routed away — this query, or the whole round.
                        _ => Answer::Pruned {
                            has_kept: conn.has_kept,
                        },
                    };
                    (IdMap::Table(&conn.global_ids), answer)
                })
                .collect();
            // A wrong variant or an out-of-range local id is a shard
            // breaking protocol, never a panic or a silently wrong merge.
            results.push(merge(q, parts).map_err(|e| CoordinatorError::Protocol {
                shard: e.segment,
                addr: self.shards[e.segment].addr.clone(),
                reason: e.reason,
            })?);
        }

        let missing_shards: Vec<usize> = failures.iter().map(|&(i, _)| i).collect();
        let status = if missing_shards.is_empty() {
            ResponseStatus::Complete
        } else {
            ResponseStatus::Degraded { missing_shards }
        };
        Ok(DistributedResponse {
            results,
            status,
            failures,
        })
    }
}

/// Dials one shard and runs the handshake, verifying the shard serves
/// exactly the trajectory count — and, when `expected_bounds` is known,
/// exactly the bounding cube — the placement map assigns to it.
fn dial_shard(
    addr: &str,
    expected_trajs: usize,
    expected_bounds: Option<&Cube>,
    opts: &CoordinatorOptions,
) -> Result<(Client, ShardInfo), WireError> {
    let cfg = ClientConfig {
        connect_timeout: Some(opts.connect_timeout),
        read_timeout: Some(opts.request_timeout),
        write_timeout: Some(opts.request_timeout),
    };
    let mut client = Client::connect_with(addr, &cfg)?;
    let info = client.hello()?;
    if info.trajs as usize != expected_trajs {
        return Err(WireError::Malformed {
            reason: "shard serves a different trajectory count than the placement map assigns",
        });
    }
    if let Some(expected) = expected_bounds {
        if info.bounds.as_ref() != Some(expected) {
            return Err(WireError::Malformed {
                reason: "shard declares different bounds than the placement map assigns",
            });
        }
    }
    Ok((client, info))
}

/// One shard's share of a round: check a connection out of the pool
/// (or dial a fresh one, re-verifying the handshake), send the
/// id-tagged sub-batch — the queries of the caller's batch at the
/// `route` indexes, encoded from where they lie — and on failure retry
/// with linear backoff on a fresh connection (the old one is presumed
/// poisoned — half-written frames desynchronize the stream). A healthy
/// connection goes back into the pool for the next round.
fn shard_round(
    conn: &ShardConn,
    queries: &[Query],
    route: &[usize],
    opts: &CoordinatorOptions,
    id: u64,
) -> Result<Vec<ShardResult>, WireError> {
    let mut attempt = 0u32;
    loop {
        let client = match conn.checkout() {
            Some(client) => Ok(client),
            None => dial_shard(
                &conn.addr,
                conn.global_ids.len(),
                conn.bounds.as_ref(),
                opts,
            )
            .map(|(client, _)| client),
        };
        let result = client.and_then(|mut client| {
            let sub = route.iter().map(|&qi| &queries[qi]);
            client.execute_shard_batch(sub, id).map(|r| (client, r))
        });
        match result {
            Ok((client, results)) => {
                conn.checkin(client);
                return Ok(results);
            }
            Err(e) => {
                if attempt >= opts.retries {
                    return Err(e);
                }
                attempt += 1;
                std::thread::sleep(opts.backoff * attempt);
            }
        }
    }
}

/// The coalescing front of a [`Coordinator`]: N concurrent callers
/// submit batches; the leader among them coalesces everything that
/// arrived together into *one* wire round per shard (amortizing framing,
/// syscalls, and shard-side engine passes), runs it on its own thread and
/// routes each caller its slice of the merged answer. More than one
/// executor keeps several rounds in flight, pipelined over the per-shard
/// connection pools. Shared by reference ([`SharedCoordinator::execute_batch`]
/// takes `&self`); it owns no thread, so dropping it is all the shutdown
/// there is.
pub struct SharedCoordinator {
    coordinator: Coordinator,
    admission: Admission<Result<DistributedResponse, CoordinatorError>>,
}

impl SharedCoordinator {
    /// Wraps a connected coordinator in an admission queue that lets
    /// `executors` coalesced rounds run at once (at least one). `cfg`
    /// bounds the batch as it does for [`Server`](crate::Server); callers
    /// being anonymous threads, a round that is not full lingers its
    /// whole window for one more.
    #[must_use]
    pub fn start(
        coordinator: Coordinator,
        cfg: BatchConfig,
        executors: usize,
    ) -> SharedCoordinator {
        SharedCoordinator {
            coordinator,
            admission: Admission::new(cfg, executors, false),
        }
    }

    /// Submits a batch and blocks until its slice of a coalesced round
    /// comes back. Status and failures reflect the whole round the
    /// batch rode in (a degraded round degrades every rider).
    pub fn execute_batch(
        &self,
        batch: &QueryBatch,
    ) -> Result<DistributedResponse, CoordinatorError> {
        // Each rider is replied its slice under the round's status.
        let round = |batch: &_, lens: &[usize]| match self.coordinator.execute_batch(batch) {
            Ok(resp) => split(resp.results, lens)
                .into_iter()
                .map(|results| {
                    Ok(DistributedResponse {
                        results,
                        status: resp.status.clone(),
                        failures: resp.failures.clone(),
                    })
                })
                .collect(),
            Err(e) => lens.iter().map(|_| Err(e.clone())).collect(),
        };
        self.admission
            .submit(batch.queries().to_vec(), round)
            .unwrap_or_else(|refused| {
                Err(match refused {
                    Refused::Closed => CoordinatorError::Closed,
                    Refused::PassFailed => CoordinatorError::RoundFailed,
                })
            })
    }

    /// The wrapped coordinator (for stats and placement introspection).
    #[must_use]
    pub fn coordinator(&self) -> &Coordinator {
        &self.coordinator
    }

    /// Current counters of the wrapped coordinator.
    #[must_use]
    pub fn stats(&self) -> CoordinatorStats {
        self.coordinator.stats()
    }

    /// Drops the front and the coordinator's pooled connections. Callers
    /// borrow the front while they ride, so none can be queued here.
    pub fn shutdown(self) {}
}
