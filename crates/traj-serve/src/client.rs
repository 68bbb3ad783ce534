//! Blocking client for the wire protocol: one TCP connection, framed
//! request/response pairs, with optional connect/read/write deadlines
//! so a dead or stalled peer surfaces as a typed
//! [`WireError::Timeout`] instead of blocking forever.

use std::io::{self, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use traj_query::{Query, QueryBatch, QueryResult};
use trajectory::Trajectory;

use crate::wire::{
    encode_ingest, encode_message, encode_request, encode_shard_request, read_frame, IngestAck,
    Message, ShardInfo, ShardResult, WireError,
};

/// Socket deadlines for a [`Client`]. `None` everywhere (the default)
/// blocks indefinitely — fine for tests and trusted loopback peers;
/// a distributed coordinator always sets all three.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClientConfig {
    /// Deadline for establishing the TCP connection.
    pub connect_timeout: Option<Duration>,
    /// Deadline for each socket read while waiting for a response.
    pub read_timeout: Option<Duration>,
    /// Deadline for each socket write while sending a request.
    pub write_timeout: Option<Duration>,
}

/// A connected client. Plain request frames are strict
/// request/response — one in flight at a time; open more clients for
/// concurrency. *Shard* frames carry a request id
/// ([`Client::execute_shard_batch`]), which a coordinator's connection
/// pool uses to keep several rounds in flight across its pooled
/// connections and still pair every reply with its request.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
}

/// `SO_RCVTIMEO`/`SO_SNDTIMEO` expiry surfaces as `WouldBlock` or
/// `TimedOut` depending on the platform; both mean "deadline expired".
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

fn map_io(during: &'static str, e: io::Error) -> WireError {
    if is_timeout(&e) {
        WireError::Timeout { during }
    } else {
        WireError::Io(e)
    }
}

fn map_timeout<T>(during: &'static str, r: Result<T, WireError>) -> Result<T, WireError> {
    r.map_err(|e| match e {
        WireError::Io(io) if is_timeout(&io) => WireError::Timeout { during },
        other => other,
    })
}

impl Client {
    /// Connects to a [`Server`](crate::Server) with no deadlines.
    /// Enables `TCP_NODELAY` so microsecond-scale frames are not held
    /// back by Nagle.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    /// [`Client::connect`] with deadlines: the connect attempt itself is
    /// bounded by `config.connect_timeout`, and every subsequent
    /// request honors the read/write deadlines — an unresponsive peer
    /// yields [`WireError::Timeout`] instead of hanging the caller.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        config: &ClientConfig,
    ) -> Result<Client, WireError> {
        let stream = match config.connect_timeout {
            None => TcpStream::connect(addr).map_err(|e| map_io("connect", e))?,
            Some(limit) => {
                // `TcpStream::connect_timeout` takes a single resolved
                // address; try each resolution like `connect` would.
                let addrs = addr.to_socket_addrs()?;
                let mut last: Option<io::Error> = None;
                let mut connected = None;
                for a in addrs {
                    match TcpStream::connect_timeout(&a, limit) {
                        Ok(s) => {
                            connected = Some(s);
                            break;
                        }
                        Err(e) => last = Some(e),
                    }
                }
                match connected {
                    Some(s) => s,
                    None => {
                        let e = last.unwrap_or_else(|| {
                            io::Error::new(
                                io::ErrorKind::InvalidInput,
                                "address resolved to no socket addresses",
                            )
                        });
                        return Err(map_io("connect", e));
                    }
                }
            }
        };
        stream.set_nodelay(true)?;
        stream.set_read_timeout(config.read_timeout)?;
        stream.set_write_timeout(config.write_timeout)?;
        Ok(Client { stream })
    }

    /// Executes a whole batch plan remotely, returning results in
    /// submission order — the wire twin of
    /// [`QueryExecutor::execute_batch`](traj_query::QueryExecutor::execute_batch).
    pub fn execute_batch(&mut self, batch: &QueryBatch) -> Result<Vec<QueryResult>, WireError> {
        self.request(batch.queries())
    }

    /// Executes one query remotely.
    pub fn execute(&mut self, query: &Query) -> Result<QueryResult, WireError> {
        let mut results = self.request(std::slice::from_ref(query))?;
        results.pop().ok_or(WireError::Malformed {
            reason: "empty response to a single-query request",
        })
    }

    /// One request/response exchange over the caller's queries, encoded
    /// where they lie.
    fn request(&mut self, queries: &[Query]) -> Result<Vec<QueryResult>, WireError> {
        match self.exchange(encode_request(queries))? {
            Message::Response(results) => {
                if results.len() != queries.len() {
                    return Err(WireError::Malformed {
                        reason: "response count does not match request",
                    });
                }
                Ok(results)
            }
            Message::Error { code, message } => Err(WireError::Remote { code, message }),
            _ => Err(WireError::Malformed {
                reason: "peer answered a request with the wrong frame kind",
            }),
        }
    }

    /// The coordinator handshake: asks the shard server to identify
    /// itself (trajectory/point counts, kept-bitmap presence) so the
    /// placement map can be cross-checked before queries flow.
    pub fn hello(&mut self) -> Result<ShardInfo, WireError> {
        match self.exchange(encode_message(&Message::Hello))? {
            Message::ShardInfo(info) => Ok(info),
            Message::Error { code, message } => Err(WireError::Remote { code, message }),
            _ => Err(WireError::Malformed {
                reason: "peer answered hello with the wrong frame kind",
            }),
        }
    }

    /// Executes a batch as one *shard* of a distributed database: the
    /// server returns raw per-shard material ([`ShardResult`] per
    /// query — local hits, kept hits, scored kNN candidates) for the
    /// coordinator to merge globally. `queries` is a `&QueryBatch` or
    /// any exact-size run of borrowed queries that can be walked twice —
    /// once to size the frame, once to write it (a coordinator sends the
    /// routed part of its caller's batch without copying it). The
    /// caller-chosen `id` is sent on the request and verified against
    /// the response's echo — a mismatched echo means the connection
    /// lost request/response pairing and is reported as
    /// [`WireError::Malformed`] (callers drop the connection and retry
    /// on a fresh one).
    pub fn execute_shard_batch<'a, I>(
        &mut self,
        queries: I,
        id: u64,
    ) -> Result<Vec<ShardResult>, WireError>
    where
        I: IntoIterator<Item = &'a Query>,
        I::IntoIter: ExactSizeIterator + Clone,
    {
        let queries = queries.into_iter();
        let sent = queries.len();
        match self.exchange(encode_shard_request(id, queries))? {
            Message::ShardResponse {
                id: echoed,
                results,
            } => {
                if echoed != id {
                    return Err(WireError::Malformed {
                        reason: "shard response echoes a different request id",
                    });
                }
                if results.len() != sent {
                    return Err(WireError::Malformed {
                        reason: "shard response count does not match request",
                    });
                }
                Ok(results)
            }
            Message::Error { code, message } => Err(WireError::Remote { code, message }),
            _ => Err(WireError::Malformed {
                reason: "peer answered a shard request with the wrong frame kind",
            }),
        }
    }

    /// Appends trajectories to a live server. The returned
    /// [`IngestAck`] means the batch is WAL-durable *and* already
    /// visible to queries — an immediately following range query on the
    /// same server sees the new ids. A server fronting an immutable
    /// snapshot answers with a typed [`WireError::Remote`] carrying
    /// [`ERR_READ_ONLY`](crate::server::ERR_READ_ONLY).
    pub fn ingest(&mut self, trajs: &[Trajectory]) -> Result<IngestAck, WireError> {
        match self.exchange(encode_ingest(trajs))? {
            Message::IngestAck(ack) => Ok(ack),
            Message::Error { code, message } => Err(WireError::Remote { code, message }),
            _ => Err(WireError::Malformed {
                reason: "peer answered an ingest with the wrong frame kind",
            }),
        }
    }

    /// One exchange: writes the encoded request (one `write_all` call)
    /// and reads the reply into the same allocation, where it is checked
    /// and decoded.
    fn exchange(&mut self, mut frame: Vec<u8>) -> Result<Message, WireError> {
        self.stream
            .write_all(&frame)
            .map_err(|e| map_io("write", e))?;
        match map_timeout("read", read_frame(&mut self.stream, &mut frame))? {
            Some(msg) => Ok(msg),
            None => Err(WireError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection before answering",
            ))),
        }
    }
}
