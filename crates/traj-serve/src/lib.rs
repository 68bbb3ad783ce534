//! Wire-format query serving for the RL4QDTS reproduction: the network
//! boundary the typed `Query`/`QueryResult`/`QueryBatch` plans were
//! designed for.
//!
//! The layers:
//!
//! - [`wire`] — a versioned, length-prefixed, checksummed little-endian
//!   frame format carrying whole batch plans and their results, with a
//!   typed [`WireError`] for every corruption class (mirroring the
//!   snapshot codec's discipline, and reusing its encode primitives).
//!   A connection owns one frame buffer: a frame is read into it as its
//!   bytes arrive — never to the length a header merely declares — and
//!   hashed where it lies, and the reply is encoded into the same
//!   allocation at its exact size;
//! - [`server`] — a multi-threaded TCP server sharing one database
//!   (an immutable [`TrajDb`](traj_query::TrajDb) or a live
//!   [`GenerationalDb`](traj_query::GenerationalDb)) across all
//!   connections, whose **admission queue** ([`BatchConfig`]) coalesces
//!   queries arriving concurrently on many connections into single
//!   heterogeneous work-stealing engine passes. The queue owns no
//!   thread: the connection that finds fewer than
//!   [`ServeOptions::executors`] passes running leads the next one on
//!   its own thread and hands the others their slices, and it lingers
//!   only for connections that have queried before, are neither queued
//!   nor riding, and were set free by a pass less than the window ago —
//!   a lone client pays no admission tax. A coordinator's shard
//!   frame bypasses the queue and is one such pass by itself
//!   ([`QueryExecutor::shard_batch`](traj_query::QueryExecutor::shard_batch)):
//!   parallel across the frame's queries with sequential inner loops,
//!   over one segment list. A pass that panics is contained: its own
//!   riders get a typed [`ERR_PASS_FAILED`] frame, the lead is handed
//!   on and the queue keeps serving;
//! - [`client`] — a blocking client speaking the same frames (with
//!   optional connect/read/write deadlines);
//! - [`coordinator`] — the distributed layer: a fleet of `shardd`
//!   processes each serving one shard's snapshot, a [`Placement`] map
//!   read from the shard manifest's `addr=`/`bounds=` assignments, and
//!   a [`Coordinator`] that routes each batch to only the shards whose
//!   bounds can contribute (a fully-pruned shard gets no frame at
//!   all), fans the sub-batches out in parallel over pooled id-tagged
//!   connections (frames encoded from borrows of the caller's batch,
//!   one routed shard's exchange on the calling thread and a scoped
//!   thread for each of the others), and hands the per-shard material
//!   to the one [`merge`](traj_query::merge) every in-process executor
//!   uses — each shard process is a remote segment — with timeouts, bounded
//!   retries, and a per-request [`FailurePolicy`] for typed degraded
//!   answers. A [`SharedCoordinator`] puts the server's admission queue
//!   in front so concurrent submissions coalesce into one wire round
//!   per shard, run by whichever caller leads it;
//! - [`fault`] — a byte-level fault-injecting TCP proxy ([`FaultProxy`])
//!   used by the test suites to prove every injected failure surfaces
//!   as a typed error or a correct degraded answer, never a wrong one.
//!
//! ```no_run
//! use traj_query::{DbOptions, QueryBatch, TrajDb};
//! use traj_serve::{Client, ServeOptions, Server};
//! use trajectory::Cube;
//!
//! let db = TrajDb::open("points.csv", DbOptions::new())?;
//! let server = Server::start(db, "127.0.0.1:0", ServeOptions::batched())?;
//! let mut client = Client::connect(server.local_addr())?;
//! let mut batch = QueryBatch::new();
//! batch.push_range(Cube::new(0.0, 1000.0, 0.0, 1000.0, 0.0, 3600.0));
//! let results = client.execute_batch(&batch)?;
//! # let _ = results;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod admission;
pub mod client;
pub mod coordinator;
pub mod fault;
pub mod server;
pub mod wire;

pub use client::{Client, ClientConfig};
pub use coordinator::{
    Coordinator, CoordinatorError, CoordinatorOptions, CoordinatorStats, DistributedResponse,
    FailurePolicy, Placement, PlacementShard, ResponseStatus, ShardFrameStats, SharedCoordinator,
};
pub use fault::{Fault, FaultDirection, FaultProxy};
pub use server::{
    BatchConfig, ServeDb, ServeOptions, Server, ServerStats, ERR_INGEST_FAILED, ERR_PASS_FAILED,
    ERR_READ_ONLY,
};
pub use wire::{
    decode_message, encode_message, read_message, write_message, IngestAck, Message, ShardInfo,
    ShardResult, WireError, MAGIC, MAX_PAYLOAD, SHARD_INFO_VERSION, VERSION,
};

/// The byte-level wire format specification (`docs/WIRE_FORMAT.md`),
/// included here so its examples compile and run as doc-tests.
#[doc = include_str!("../../../docs/WIRE_FORMAT.md")]
pub mod format_spec {}
