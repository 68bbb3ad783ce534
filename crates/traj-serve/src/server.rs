//! Multi-threaded TCP server fronting one shared database.
//!
//! One listener thread accepts connections; each connection gets a
//! handler thread that reads framed requests into its own frame buffer
//! and writes framed responses from it. What happens *between* read and
//! write is the point of this module — the admission/batching layer
//! (`admission.rs`): handler threads enqueue their queries, and one
//! of them, the leader, runs everything that arrived concurrently —
//! across *all* connections — as one heterogeneous `QueryBatch` in a
//! single work-stealing `execute_batch` pass on its own thread, then
//! routes each waiting connection its results. A bounded batch size and
//! a microsecond-scale linger window ([`BatchConfig`]) trade a little
//! queueing delay for much better per-query overhead; a lone client
//! pays neither the window nor a wake-up.
//!
//! The database is opened once and shared (`TrajDb` is `Send + Sync`;
//! the static assertion below keeps that honest), so every layout the
//! façade auto-detects — CSV, snapshot, quantized snapshot, shard
//! directory — serves over the wire unchanged, as does a live
//! [`GenerationalDb`].

use std::collections::HashMap;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use traj_query::{
    DbOptions, GenerationalDb, IngestReport, QueryExecutor, QueryResult, TrajDb, TrajDbError,
};
use trajectory::Trajectory;

pub use crate::admission::BatchConfig;
use crate::admission::{split, Admission, Refused};
use crate::wire::{read_frame, write_frame, IngestAck, Message, ShardInfo, WireError};

// The database must stay shareable across connection handler threads;
// if a future backend loses Send/Sync this fails to compile right here
// instead of deep inside a thread spawn.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<TrajDb>();
    assert_send_sync::<ServeDb>();
};

/// Error code sent to clients when their frame could not be decoded.
pub const ERR_BAD_REQUEST: u16 = 1;
/// Error code sent to clients when the message kind is not a request.
pub const ERR_NOT_A_REQUEST: u16 = 2;
/// Error code sent to clients that send `Ingest` to a server fronting
/// an immutable snapshot (no WAL-backed delta store to append to).
pub const ERR_READ_ONLY: u16 = 3;
/// Error code sent when a live server's ingest failed durably (WAL
/// write or sync error); nothing from the batch was acknowledged.
pub const ERR_INGEST_FAILED: u16 = 4;
/// Error code sent when the engine pass a request rode in panicked. The
/// request was not answered; the connection and the server keep serving.
pub const ERR_PASS_FAILED: u16 = 5;

/// The database behind a server: either an immutable snapshot-backed
/// [`TrajDb`] (queries only) or a live, WAL-backed [`GenerationalDb`]
/// that additionally accepts `Ingest` frames concurrently with queries.
///
/// `From` impls let [`Server::start`] take either directly, so existing
/// `Server::start(db, …)` call sites keep compiling.
pub enum ServeDb {
    /// Read-only store; `Ingest` frames are answered with
    /// [`ERR_READ_ONLY`].
    Static(TrajDb),
    /// Live generational database: writes are WAL-durable and visible
    /// to queries before the ack frame goes out.
    Live(Arc<GenerationalDb>),
}

impl From<TrajDb> for ServeDb {
    fn from(db: TrajDb) -> ServeDb {
        ServeDb::Static(db)
    }
}

impl From<Arc<GenerationalDb>> for ServeDb {
    fn from(db: Arc<GenerationalDb>) -> ServeDb {
        ServeDb::Live(db)
    }
}

impl From<GenerationalDb> for ServeDb {
    fn from(db: GenerationalDb) -> ServeDb {
        ServeDb::Live(Arc::new(db))
    }
}

impl ServeDb {
    /// The read-path executor — both layouts serve the identical
    /// [`QueryExecutor`] surface.
    fn executor(&self) -> &dyn QueryExecutor {
        match self {
            ServeDb::Static(db) => db,
            ServeDb::Live(db) => db.as_ref(),
        }
    }

    /// Appends a batch: `None` when this database is read-only,
    /// otherwise the delta store's report (or the I/O error).
    fn ingest(&self, trajs: &[Trajectory]) -> Option<std::io::Result<IngestReport>> {
        match self {
            ServeDb::Static(_) => None,
            ServeDb::Live(db) => Some(db.ingest(trajs)),
        }
    }
}

/// Server configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// Admission tuning: coalesced batch bound and linger window.
    pub batch: BatchConfig,
    /// Passes that may run at once, each on the connection thread that
    /// leads it. Usually 1: each pass is already internally parallel via
    /// the engine's work-stealing `par_map`.
    pub executors: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            batch: BatchConfig::default(),
            executors: 1,
        }
    }
}

impl ServeOptions {
    /// Batched admission with default tuning.
    #[must_use]
    pub fn batched() -> Self {
        ServeOptions::default()
    }
}

/// A point-in-time snapshot of the server's counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerStats {
    /// Requests answered.
    pub requests: u64,
    /// Queries executed.
    pub queries: u64,
    /// Engine passes run: coalesced admission batches plus shard
    /// frames (each frame is one pass).
    pub batches: u64,
    /// Queries that went through those passes.
    pub batched_queries: u64,
    /// Ingest frames answered with an ack (live servers only).
    pub ingests: u64,
    /// Trajectories accepted across all acked ingest frames.
    pub ingested_trajs: u64,
}

impl ServerStats {
    /// Mean queries per batched engine pass (0 when none ran).
    #[must_use]
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_queries as f64 / self.batches as f64
        }
    }
}

struct Shared {
    db: ServeDb,
    admission: Admission<Vec<QueryResult>>,
    shutting_down: AtomicBool,
    requests: AtomicU64,
    queries: AtomicU64,
    batches: AtomicU64,
    batched_queries: AtomicU64,
    ingests: AtomicU64,
    ingested_trajs: AtomicU64,
    /// A duplicate handle on every *live* connection's socket, keyed by
    /// connection number, so shutdown can unblock handlers parked in a
    /// read. A handler removes its own entry when it returns.
    conns: Mutex<HashMap<u64, TcpStream>>,
    /// Handler threads not yet joined; finished ones are reaped on the
    /// next accept, the rest at shutdown.
    handlers: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    /// Counts one engine pass over `queries` queries — a coalesced
    /// admission batch or a coordinator's shard frame.
    fn count_pass(&self, queries: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_queries
            .fetch_add(queries as u64, Ordering::Relaxed);
    }
}

/// A running wire-format query server. Dropping it shuts it down.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    done: bool,
}

impl Server {
    /// Opens the store at `path` (CSV / snapshot / quantized snapshot /
    /// shard directory, auto-detected by [`TrajDb::open`]) and serves
    /// it on `addr`.
    pub fn open(
        path: impl AsRef<Path>,
        db_opts: DbOptions,
        addr: impl ToSocketAddrs,
        opts: ServeOptions,
    ) -> Result<Server, TrajDbError> {
        let db = TrajDb::open(path, db_opts)?;
        Server::start(db, addr, opts).map_err(TrajDbError::Io)
    }

    /// Starts serving an already-open database on `addr`. Accepts an
    /// immutable [`TrajDb`] or a live [`GenerationalDb`] (see
    /// [`ServeDb`]). Bind to port 0 to let the OS pick;
    /// [`Server::local_addr`] reports the result.
    pub fn start(
        db: impl Into<ServeDb>,
        addr: impl ToSocketAddrs,
        opts: ServeOptions,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared {
            db: db.into(),
            admission: Admission::new(opts.batch, opts.executors, true),
            shutting_down: AtomicBool::new(false),
            requests: AtomicU64::new(0),
            queries: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batched_queries: AtomicU64::new(0),
            ingests: AtomicU64::new(0),
            ingested_trajs: AtomicU64::new(0),
            conns: Mutex::new(HashMap::new()),
            handlers: Mutex::new(Vec::new()),
        });

        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::spawn(move || accept_loop(&listener, &accept_shared));

        Ok(Server {
            shared,
            addr: local,
            accept: Some(accept),
            done: false,
        })
    }

    /// The address the server is listening on.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            requests: self.shared.requests.load(Ordering::Relaxed),
            queries: self.shared.queries.load(Ordering::Relaxed),
            batches: self.shared.batches.load(Ordering::Relaxed),
            batched_queries: self.shared.batched_queries.load(Ordering::Relaxed),
            ingests: self.shared.ingests.load(Ordering::Relaxed),
            ingested_trajs: self.shared.ingested_trajs.load(Ordering::Relaxed),
        }
    }

    /// Stops accepting, answers what is queued, closes every connection
    /// and joins all threads. Idempotent; also runs on drop.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if self.done {
            return;
        }
        self.done = true;
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        self.shared.admission.close();
        // Unblock handler threads blocked in a read.
        for conn in self.shared.conns.lock().expect("conns lock").values() {
            let _ = conn.shutdown(Shutdown::Both);
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let handlers = std::mem::take(&mut *self.shared.handlers.lock().expect("handlers lock"));
        for h in handlers {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for conn_id in 0u64.. {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.shutting_down.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        let _ = stream.set_nodelay(true);
        if let Ok(clone) = stream.try_clone() {
            shared
                .conns
                .lock()
                .expect("conns lock")
                .insert(conn_id, clone);
        }
        let handler_shared = Arc::clone(shared);
        let handle =
            std::thread::spawn(move || handle_connection(stream, conn_id, &handler_shared));
        let mut handlers = shared.handlers.lock().expect("handlers lock");
        // Reap the handlers of connections that have closed since, so a
        // long-lived server holds handles only for live connections.
        let (finished, live): (Vec<_>, Vec<_>) =
            handlers.drain(..).partition(JoinHandle::is_finished);
        *handlers = live;
        handlers.push(handle);
        drop(handlers);
        for h in finished {
            let _ = h.join();
        }
    }
}

fn handle_connection(mut stream: TcpStream, conn_id: u64, shared: &Arc<Shared>) {
    // A shard frame's pass runs on this thread uncaught. If it panics
    // the connection is lost, but not its registry entry's descriptor.
    let _ = catch_unwind(AssertUnwindSafe(|| serve_connection(&mut stream, shared)));
    // Drop the registry's duplicate fd with the connection, then shut
    // the socket down so the peer sees end-of-stream even if shutdown
    // raced us and still holds a clone.
    shared.conns.lock().expect("conns lock").remove(&conn_id);
    let _ = stream.shutdown(Shutdown::Both);
}

fn serve_connection(stream: &mut TcpStream, shared: &Arc<Shared>) {
    // Every request is read into this buffer, every reply encoded into it.
    let mut frame = Vec::new();
    // Set by the first `Request` frame: passes linger for peers only, so
    // never for an ingest-only writer or a coordinator's shard connection.
    let mut peer = None;
    loop {
        if shared.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        let reply = match read_frame(stream, &mut frame) {
            Ok(Some(Message::Request(batch))) => {
                shared
                    .queries
                    .fetch_add(batch.len() as u64, Ordering::Relaxed);
                peer.get_or_insert_with(|| shared.admission.join());
                // One engine pass per coalesced batch — here, if this
                // connection leads it — each rider replied its slice.
                let pass = |batch: &_, lens: &_| {
                    let results = shared.db.executor().execute_batch(batch);
                    shared.count_pass(batch.len());
                    split(results, lens)
                };
                match shared.admission.submit(batch.into_queries(), pass) {
                    Ok(results) => Message::Response(results),
                    // The queue closed under us: the server is going down.
                    Err(Refused::Closed) => return,
                    Err(Refused::PassFailed) => Message::Error {
                        code: ERR_PASS_FAILED,
                        message: "the engine pass answering this request failed".to_owned(),
                    },
                }
            }
            // Distributed-serving frames bypass the admission queue: the
            // coordinator already coalesced its callers into one frame
            // per shard, and shard results (scored kNN candidates, raw
            // local hits) are not the `QueryResult`s a pass routes.
            Ok(Some(Message::Hello)) => {
                // Bounds come from the decoded store, so for quantized
                // snapshots they match the manifest's `bounds=` lines
                // bitwise (both are computed post-decode).
                let db = shared.db.executor();
                let bounds = (db.total_points() > 0).then(|| db.bounding_cube());
                Message::ShardInfo(ShardInfo {
                    trajs: db.len() as u64,
                    points: db.total_points() as u64,
                    has_kept: db.has_kept_bitmap(),
                    bounds,
                })
            }
            Ok(Some(Message::ShardRequest { id, batch })) => {
                shared
                    .queries
                    .fetch_add(batch.len() as u64, Ordering::Relaxed);
                // This whole database answers as one segment of the
                // coordinator's: raw material in its own ids, merged
                // there. A frame is one engine pass, like a coalesced
                // batch: parallel across its queries with sequential
                // inner loops, over one segment list (a live shard
                // answers it from one state).
                let results = shared.db.executor().shard_batch(&batch);
                shared.count_pass(batch.len());
                Message::ShardResponse { id, results }
            }
            // Writes bypass the admission queue: the delta store already
            // coalesces a whole frame into one WAL sync, and an ack must
            // not wait behind a read linger window.
            Ok(Some(Message::Ingest(trajs))) => match shared.db.ingest(&trajs) {
                None => Message::Error {
                    code: ERR_READ_ONLY,
                    message: "server fronts an immutable snapshot; ingest needs a live database"
                        .to_owned(),
                },
                Some(Ok(report)) => {
                    shared.ingests.fetch_add(1, Ordering::Relaxed);
                    shared
                        .ingested_trajs
                        .fetch_add(u64::from(report.accepted), Ordering::Relaxed);
                    Message::IngestAck(IngestAck {
                        accepted: report.accepted,
                        rejected: report.rejected,
                        first_id: report.first_id,
                        total_trajs: report.total_trajs,
                        total_points: report.total_points,
                    })
                }
                Some(Err(e)) => Message::Error {
                    code: ERR_INGEST_FAILED,
                    message: e.to_string(),
                },
            },
            Ok(Some(_)) => {
                // A server only accepts request-side frames; anything
                // else ends the conversation after a typed error frame.
                let refusal = Message::Error {
                    code: ERR_NOT_A_REQUEST,
                    message: "expected a request frame".to_owned(),
                };
                let _ = write_frame(stream, &refusal, &mut frame);
                return;
            }
            Ok(None) | Err(WireError::Io(_)) => return,
            Err(e) => {
                // Corrupt frame. The stream may be desynchronized, so
                // answer with a typed error and close.
                let refusal = Message::Error {
                    code: ERR_BAD_REQUEST,
                    message: e.to_string(),
                };
                let _ = write_frame(stream, &refusal, &mut frame);
                return;
            }
        };
        shared.requests.fetch_add(1, Ordering::Relaxed);
        if write_frame(stream, &reply, &mut frame).is_err() {
            return;
        }
        let _ = stream.flush();
    }
}
