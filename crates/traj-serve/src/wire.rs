//! The framed wire format: versioned, length-prefixed, checksummed
//! little-endian messages carrying [`QueryBatch`] requests and
//! [`QueryResult`] responses.
//!
//! The format mirrors the snapshot codec's discipline — explicit magic,
//! version gate, the same XXH64 checksum
//! ([`trajectory::snapshot::xxh64`]), typed errors for every corruption
//! class — and reuses its little-endian primitives
//! ([`trajectory::snapshot::put_u32`] and friends), so the network and
//! disk layers speak the same byte order from the same helpers. The
//! byte-level layout is specified (and doc-tested) in
//! `docs/WIRE_FORMAT.md`; see [`crate::format_spec`].
//!
//! A result's trajectory ids cost what they carry: each is the varint of
//! the zigzag of its difference from the id before it, so an ascending
//! list over a thousand trajectories takes a byte or two an id, and any
//! list — kNN rank order, repeats — round-trips exactly.
//!
//! Decoding never panics and never allocates ahead of the bytes that
//! back an allocation: counts are validated against the remaining
//! payload length before any `Vec` is sized, oversized length prefixes
//! are rejected before a read is attempted, a frame buffer grows with
//! the bytes *received* (never to the length a header merely declares),
//! and the checksum is verified before the payload is parsed.
//!
//! A kNN or similarity query travels as the samples its answer reads —
//! its window plus one neighbour on each side
//! ([`KnnQuery::answer_points`]) — not as its whole trajectory: the
//! decoded query answers exactly what the sent one would. The decoder
//! takes any valid trajectory, so a peer that sends whole trajectories is
//! still understood.
//!
//! A connection owns one frame buffer (`read_frame` / `write_frame`):
//! a frame is read into it and hashed where it lies, the reply is encoded
//! into the same allocation at its exact size, and nothing is zeroed or
//! copied on the way. [`read_message`] / [`write_message`] are the same
//! two functions over a buffer of their own.

use std::fmt;
use std::io::{Read, Write};

use traj_query::{Dissimilarity, KnnQuery, Query, QueryBatch, QueryResult, SimilarityQuery};
use trajectory::snapshot::{get_u32, get_u64, put_u32, unzigzag, xxh64, zigzag};
use trajectory::{Cube, Point, TrajId, Trajectory};

use traj_query::T2vecEmbedder;

/// Frame magic: `b"QWIR"`.
pub const MAGIC: [u8; 4] = *b"QWIR";
/// The wire version, and the only one a decoder accepts. Version 2
/// replaced version 1's FNV-1a trailer by XXH64 and its fixed 8-byte ids
/// by varint deltas.
pub const VERSION: u16 = 2;
/// Fixed frame header size: magic (4) + version (2) + kind (1) +
/// reserved (1) + payload length (4).
pub const HEADER_LEN: usize = 12;
/// Trailing checksum size (XXH64 over header + payload).
pub const CHECKSUM_LEN: usize = 8;
/// Largest accepted payload. Frames declaring more are rejected with
/// [`WireError::Oversized`] before any buffer is allocated.
pub const MAX_PAYLOAD: usize = 64 << 20;
/// Largest accepted t2vec embedding dimension (keeps a decoded query
/// from committing the server to arbitrarily large per-trajectory
/// embedding work).
pub const MAX_T2VEC_DIM: usize = 1 << 16;

/// Frame kind byte for a [`Message::Request`].
pub const KIND_REQUEST: u8 = 1;
/// Frame kind byte for a [`Message::Response`].
pub const KIND_RESPONSE: u8 = 2;
/// Frame kind byte for a [`Message::Error`].
pub const KIND_ERROR: u8 = 3;
/// Frame kind byte for a [`Message::Hello`] (coordinator → shard
/// handshake probe).
pub const KIND_HELLO: u8 = 4;
/// Frame kind byte for a [`Message::ShardInfo`] (handshake reply).
pub const KIND_SHARD_INFO: u8 = 5;
/// Frame kind byte for a [`Message::ShardRequest`] (a batch to execute
/// as one shard of a distributed database).
pub const KIND_SHARD_REQUEST: u8 = 6;
/// Frame kind byte for a [`Message::ShardResponse`].
pub const KIND_SHARD_RESPONSE: u8 = 7;
/// Frame kind byte for a [`Message::Ingest`] (client → server: append
/// trajectories to a live, WAL-backed database).
pub const KIND_INGEST: u8 = 8;
/// Frame kind byte for a [`Message::IngestAck`] (server → client:
/// the writes are durable — WAL-synced — and queryable).
pub const KIND_INGEST_ACK: u8 = 9;

/// Everything that can go wrong speaking the wire format. Corruption is
/// always reported as a typed variant — decoding never panics.
#[derive(Debug)]
pub enum WireError {
    /// Underlying socket / stream error.
    Io(std::io::Error),
    /// The frame does not start with [`MAGIC`].
    BadMagic {
        /// The four bytes found instead.
        found: [u8; 4],
    },
    /// The frame's version is not [`VERSION`].
    UnsupportedVersion {
        /// Version found in the frame.
        found: u16,
        /// Version this build speaks.
        supported: u16,
    },
    /// The frame's kind byte names no known message kind.
    UnknownKind {
        /// The kind byte found.
        kind: u8,
    },
    /// The declared payload length exceeds [`MAX_PAYLOAD`].
    Oversized {
        /// Declared payload length.
        len: usize,
        /// The accepted maximum.
        max: usize,
    },
    /// The frame (or a field inside it) ends before its declared size.
    Truncated {
        /// Bytes needed to continue.
        needed: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// The trailing checksum does not match the frame bytes.
    ChecksumMismatch {
        /// Checksum stored in the frame.
        stored: u64,
        /// Checksum computed over the received bytes.
        computed: u64,
    },
    /// The frame is structurally valid but its payload is not (bad
    /// enum tag, invalid trajectory, trailing bytes, …).
    Malformed {
        /// What was wrong.
        reason: &'static str,
    },
    /// The peer answered with an error frame instead of a response.
    Remote {
        /// Application error code.
        code: u16,
        /// Human-readable message from the peer.
        message: String,
    },
    /// A read, write, or connect deadline expired before the peer
    /// answered — the typed form of `WouldBlock`/`TimedOut` socket
    /// errors, so callers can distinguish a slow peer from a broken one.
    Timeout {
        /// The operation that timed out (`"connect"`, `"read"`,
        /// `"write"`).
        during: &'static str,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o error: {e}"),
            WireError::BadMagic { found } => {
                write!(f, "bad wire magic {found:?} (expected {MAGIC:?})")
            }
            WireError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "unsupported wire version {found} (supported: {supported})"
                )
            }
            WireError::UnknownKind { kind } => write!(f, "unknown frame kind {kind}"),
            WireError::Oversized { len, max } => {
                write!(f, "declared payload of {len} bytes exceeds maximum {max}")
            }
            WireError::Truncated { needed, got } => {
                write!(f, "truncated frame: needed {needed} bytes, got {got}")
            }
            WireError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            WireError::Malformed { reason } => write!(f, "malformed payload: {reason}"),
            WireError::Remote { code, message } => {
                write!(f, "remote error {code}: {message}")
            }
            WireError::Timeout { during } => write!(f, "timed out during {during}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

// `std::io::Error` is not `Clone`, but a coalescing coordinator must
// hand one round's failure to every request that rode it. The clone
// preserves the `ErrorKind` (what callers match on) and the message.
impl Clone for WireError {
    fn clone(&self) -> Self {
        match self {
            WireError::Io(e) => WireError::Io(std::io::Error::new(e.kind(), e.to_string())),
            WireError::BadMagic { found } => WireError::BadMagic { found: *found },
            WireError::UnsupportedVersion { found, supported } => WireError::UnsupportedVersion {
                found: *found,
                supported: *supported,
            },
            WireError::UnknownKind { kind } => WireError::UnknownKind { kind: *kind },
            WireError::Oversized { len, max } => WireError::Oversized {
                len: *len,
                max: *max,
            },
            WireError::Truncated { needed, got } => WireError::Truncated {
                needed: *needed,
                got: *got,
            },
            WireError::ChecksumMismatch { stored, computed } => WireError::ChecksumMismatch {
                stored: *stored,
                computed: *computed,
            },
            WireError::Malformed { reason } => WireError::Malformed { reason },
            WireError::Remote { code, message } => WireError::Remote {
                code: *code,
                message: message.clone(),
            },
            WireError::Timeout { during } => WireError::Timeout { during },
        }
    }
}

/// Version of the [`ShardInfo`] *payload* layout (independent of the
/// frame [`VERSION`]). Version 2 added the leading version field itself
/// plus the optional bounding cube; peers speaking a different payload
/// version are rejected with a typed [`WireError::Malformed`] at
/// handshake time — before any query flows.
pub const SHARD_INFO_VERSION: u16 = 2;

/// What a shard server reports about itself during the coordinator
/// handshake — enough for the coordinator to cross-check the placement
/// map before trusting the shard with queries, and (since payload
/// version 2) the bounding cube the coordinator routes with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardInfo {
    /// Trajectories the shard serves.
    pub trajs: u64,
    /// Points the shard serves.
    pub points: u64,
    /// True when the shard carries a persisted kept bitmap (can answer
    /// `RangeKept` with `Some`).
    pub has_kept: bool,
    /// Smallest cube covering every point the shard serves, as decoded
    /// from its snapshot — what the coordinator's bound-pruned routing
    /// tests queries against. `None` when the shard serves no points.
    pub bounds: Option<Cube>,
}

/// One shard's raw answer to one query — re-exported from
/// `traj-query`, where [`merge`](traj_query::merge) consumes it. A
/// shard process answers in its own trajectory ids (mapping
/// local→global is the coordinator's job via the placement map — see
/// `traj_serve::coordinator`).
pub use traj_query::ShardResult;

/// What a live server reports back for one [`Message::Ingest`] frame,
/// sent only after the delta store's WAL has been synced — an ack means
/// the accepted trajectories survive a crash *and* are already visible
/// to queries on the same server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestAck {
    /// Trajectories admitted (at least one point survived the online
    /// simplifier and validation).
    pub accepted: u32,
    /// Trajectories rejected outright (no admissible point).
    pub rejected: u32,
    /// Global id assigned to the first accepted trajectory; the rest
    /// follow contiguously. `None` when nothing was accepted.
    pub first_id: Option<TrajId>,
    /// Total trajectories the database serves after this batch.
    pub total_trajs: u64,
    /// Total points the database serves after this batch.
    pub total_points: u64,
}

/// One framed message, either direction.
#[derive(Debug, Clone)]
pub enum Message {
    /// Client → server: a batch plan to execute.
    Request(QueryBatch),
    /// Server → client: the results, in submission order.
    Response(Vec<QueryResult>),
    /// Server → client: the request could not be served.
    Error {
        /// Application error code (see `docs/WIRE_FORMAT.md`).
        code: u16,
        /// Human-readable description.
        message: String,
    },
    /// Coordinator → shard: identify yourself (handshake probe).
    Hello,
    /// Shard → coordinator: handshake reply.
    ShardInfo(ShardInfo),
    /// Coordinator → shard: execute this batch as one shard of a
    /// distributed database, returning raw per-shard material instead
    /// of finished answers. The `id` is echoed back on the matching
    /// [`Message::ShardResponse`], so a pipelined connection can carry
    /// several rounds in flight and pair replies with requests.
    ShardRequest {
        /// Caller-chosen request id, echoed on the response.
        id: u64,
        /// The batch to execute.
        batch: QueryBatch,
    },
    /// Shard → coordinator: one [`ShardResult`] per query, in
    /// submission order, echoing the request's `id`.
    ShardResponse {
        /// The id of the [`Message::ShardRequest`] this answers.
        id: u64,
        /// One result per query, in submission order.
        results: Vec<ShardResult>,
    },
    /// Client → server: append these trajectories to a live database.
    /// Every trajectory must already be wire-valid (non-empty, finite,
    /// time-sorted) — trajectory decoding rejects the whole frame
    /// otherwise; the server's online admission may still reject
    /// individual trajectories (reported in the ack's `rejected`
    /// count).
    Ingest(Vec<Trajectory>),
    /// Server → client: the ingest batch is WAL-durable and queryable.
    IngestAck(IngestAck),
}

impl Message {
    /// The frame kind byte this message serializes under.
    #[must_use]
    pub fn kind(&self) -> u8 {
        match self {
            Message::Request(_) => KIND_REQUEST,
            Message::Response(_) => KIND_RESPONSE,
            Message::Error { .. } => KIND_ERROR,
            Message::Hello => KIND_HELLO,
            Message::ShardInfo(_) => KIND_SHARD_INFO,
            Message::ShardRequest { .. } => KIND_SHARD_REQUEST,
            Message::ShardResponse { .. } => KIND_SHARD_RESPONSE,
            Message::Ingest(_) => KIND_INGEST,
            Message::IngestAck(_) => KIND_INGEST_ACK,
        }
    }
}

// ---------------------------------------------------------------------
// Payload reader: bounds-checked cursor over the (checksum-verified)
// payload bytes.
// ---------------------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn need(&self, n: usize) -> Result<(), WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                needed: n,
                got: self.remaining(),
            });
        }
        Ok(())
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        self.need(1)?;
        let v = self.buf[self.pos];
        self.pos += 1;
        Ok(v)
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        self.need(2)?;
        let v = u16::from_le_bytes([self.buf[self.pos], self.buf[self.pos + 1]]);
        self.pos += 2;
        Ok(v)
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        self.need(4)?;
        let v = get_u32(self.buf, self.pos);
        self.pos += 4;
        Ok(v)
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        self.need(8)?;
        let v = get_u64(self.buf, self.pos);
        self.pos += 8;
        Ok(v)
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// An unsigned LEB128 varint: seven bits a byte, low first, the high
    /// bit set on every byte but the last. Bytes running out is
    /// `Truncated`; a tenth byte carrying more than bit 63, or an
    /// eleventh byte, is `Malformed`.
    fn varint(&mut self) -> Result<u64, WireError> {
        let mut v = 0;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                if shift == 63 && b > 1 {
                    return Err(WireError::Malformed {
                        reason: "varint overflows 64 bits",
                    });
                }
                return Ok(v);
            }
        }
        Err(WireError::Malformed {
            reason: "varint longer than ten bytes",
        })
    }

    /// A `u32` element count whose elements occupy at least
    /// `elem_size` bytes each — validated against the remaining
    /// payload so a corrupt count can never size an allocation.
    fn count(&mut self, elem_size: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        let needed = n.saturating_mul(elem_size);
        if self.remaining() < needed {
            return Err(WireError::Truncated {
                needed,
                got: self.remaining(),
            });
        }
        Ok(n)
    }

    fn finish(self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::Malformed {
                reason: "trailing bytes after payload",
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Query / result payload encoding.
// ---------------------------------------------------------------------

const TAG_RANGE: u8 = 0;
const TAG_KNN: u8 = 1;
const TAG_SIMILARITY: u8 = 2;
const TAG_RANGE_KEPT: u8 = 3;

const MEASURE_EDR: u8 = 0;
const MEASURE_T2VEC: u8 = 1;

fn put_f64_vec(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_u32_vec(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64_vec(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn encode_cube(out: &mut Vec<u8>, c: &Cube) {
    put_f64_vec(out, c.x_min);
    put_f64_vec(out, c.x_max);
    put_f64_vec(out, c.y_min);
    put_f64_vec(out, c.y_max);
    put_f64_vec(out, c.t_min);
    put_f64_vec(out, c.t_max);
}

fn decode_cube(r: &mut Reader<'_>) -> Result<Cube, WireError> {
    let x_min = r.f64()?;
    let x_max = r.f64()?;
    let y_min = r.f64()?;
    let y_max = r.f64()?;
    let t_min = r.f64()?;
    let t_max = r.f64()?;
    // NaN fails every ordering, so this also rejects NaN bounds.
    if !(x_min <= x_max && y_min <= y_max && t_min <= t_max) {
        return Err(WireError::Malformed {
            reason: "cube bounds out of order",
        });
    }
    Ok(Cube {
        x_min,
        x_max,
        y_min,
        y_max,
        t_min,
        t_max,
    })
}

/// The trajectory sub-encoding over a run of points: every sample of an
/// ingested trajectory, the [answer points](KnnQuery::answer_points) of a
/// kNN or similarity query.
fn encode_points(out: &mut Vec<u8>, pts: &[Point]) {
    put_u32_vec(out, pts.len() as u32);
    for p in pts {
        put_f64_vec(out, p.x);
        put_f64_vec(out, p.y);
        put_f64_vec(out, p.t);
    }
}

/// A counted run of trajectories — the body of an ingest frame.
fn encode_trajectories(out: &mut Vec<u8>, trajs: &[Trajectory]) {
    put_u32_vec(out, trajs.len() as u32);
    for t in trajs {
        encode_points(out, t.points());
    }
}

fn decode_trajectory(r: &mut Reader<'_>) -> Result<Trajectory, WireError> {
    let n = r.count(24)?;
    let mut pts = Vec::with_capacity(n);
    for _ in 0..n {
        let x = r.f64()?;
        let y = r.f64()?;
        let t = r.f64()?;
        pts.push(Point { x, y, t });
    }
    Trajectory::new(pts).ok_or(WireError::Malformed {
        reason: "invalid trajectory (empty, non-finite, or time-unsorted)",
    })
}

/// Appends one [`Query`]'s wire encoding to `out`. A kNN or similarity
/// query writes its [answer points](KnnQuery::answer_points), not its
/// whole trajectory: the decoded query answers the same, and a peer that
/// sends the whole trajectory is still understood.
pub fn encode_query(out: &mut Vec<u8>, q: &Query) {
    match q {
        Query::Range(c) => {
            out.push(TAG_RANGE);
            encode_cube(out, c);
        }
        Query::Knn(k) => {
            out.push(TAG_KNN);
            encode_points(out, k.answer_points());
            put_f64_vec(out, k.ts);
            put_f64_vec(out, k.te);
            put_u64_vec(out, k.k as u64);
            match &k.measure {
                Dissimilarity::Edr { eps } => {
                    out.push(MEASURE_EDR);
                    put_f64_vec(out, *eps);
                }
                Dissimilarity::T2vec(e) => {
                    out.push(MEASURE_T2VEC);
                    put_f64_vec(out, e.cell_size);
                    put_u64_vec(out, e.dim as u64);
                }
            }
        }
        Query::Similarity(s) => {
            out.push(TAG_SIMILARITY);
            encode_points(out, s.answer_points());
            put_f64_vec(out, s.ts);
            put_f64_vec(out, s.te);
            put_f64_vec(out, s.delta);
            put_f64_vec(out, s.step);
        }
        Query::RangeKept(c) => {
            out.push(TAG_RANGE_KEPT);
            encode_cube(out, c);
        }
    }
}

/// A counted run of queries — the body of a request frame — from
/// wherever the sender holds them.
fn encode_queries<'a>(out: &mut Vec<u8>, queries: impl ExactSizeIterator<Item = &'a Query>) {
    put_u32_vec(out, queries.len() as u32);
    for q in queries {
        encode_query(out, q);
    }
}

fn decode_query(r: &mut Reader<'_>) -> Result<Query, WireError> {
    match r.u8()? {
        TAG_RANGE => Ok(Query::Range(decode_cube(r)?)),
        TAG_KNN => {
            let query = decode_trajectory(r)?;
            let ts = r.f64()?;
            let te = r.f64()?;
            let k = usize::try_from(r.u64()?).map_err(|_| WireError::Malformed {
                reason: "knn k exceeds usize",
            })?;
            let measure = match r.u8()? {
                MEASURE_EDR => Dissimilarity::Edr { eps: r.f64()? },
                MEASURE_T2VEC => {
                    let cell_size = r.f64()?;
                    let dim = usize::try_from(r.u64()?)
                        .ok()
                        .filter(|d| (1..=MAX_T2VEC_DIM).contains(d));
                    let dim = dim.ok_or(WireError::Malformed {
                        reason: "t2vec dimension out of range",
                    })?;
                    Dissimilarity::T2vec(T2vecEmbedder { cell_size, dim })
                }
                _ => {
                    return Err(WireError::Malformed {
                        reason: "unknown dissimilarity tag",
                    })
                }
            };
            Ok(Query::Knn(KnnQuery {
                query,
                ts,
                te,
                k,
                measure,
            }))
        }
        TAG_SIMILARITY => {
            let query = decode_trajectory(r)?;
            let ts = r.f64()?;
            let te = r.f64()?;
            let delta = r.f64()?;
            let step = r.f64()?;
            Ok(Query::Similarity(SimilarityQuery {
                query,
                ts,
                te,
                delta,
                step,
            }))
        }
        TAG_RANGE_KEPT => Ok(Query::RangeKept(decode_cube(r)?)),
        _ => Err(WireError::Malformed {
            reason: "unknown query tag",
        }),
    }
}

/// What an id list puts on the wire, one varint each: the zigzag of every
/// id's wrapping difference from the id before it, the first's from 0.
fn id_codes(ids: &[TrajId]) -> impl Iterator<Item = u64> + '_ {
    ids.iter().scan(0u64, |prev, &id| {
        let id = id as u64;
        let code = zigzag(id.wrapping_sub(*prev) as i64);
        *prev = id;
        Some(code)
    })
}

/// Bytes of `v`'s LEB128 varint: one per started seven bits, at least one.
fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

fn encode_ids(out: &mut Vec<u8>, ids: &[TrajId]) {
    put_u32_vec(out, ids.len() as u32);
    for mut code in id_codes(ids) {
        while code >= 0x80 {
            out.push(code as u8 | 0x80);
            code >>= 7;
        }
        out.push(code as u8);
    }
}

fn decode_ids(r: &mut Reader<'_>) -> Result<Vec<TrajId>, WireError> {
    // An id is at least one varint byte.
    let n = r.count(1)?;
    let mut ids = Vec::with_capacity(n);
    let mut prev = 0u64;
    for _ in 0..n {
        prev = prev.wrapping_add(unzigzag(r.varint()?) as u64);
        let id = usize::try_from(prev).map_err(|_| WireError::Malformed {
            reason: "trajectory id exceeds usize",
        })?;
        ids.push(id);
    }
    Ok(ids)
}

/// Appends one [`QueryResult`]'s wire encoding to `out`.
pub fn encode_result(out: &mut Vec<u8>, r: &QueryResult) {
    match r {
        QueryResult::Range(ids) => {
            out.push(TAG_RANGE);
            encode_ids(out, ids);
        }
        QueryResult::Knn(ids) => {
            out.push(TAG_KNN);
            encode_ids(out, ids);
        }
        QueryResult::Similarity(ids) => {
            out.push(TAG_SIMILARITY);
            encode_ids(out, ids);
        }
        QueryResult::RangeKept(ids) => {
            out.push(TAG_RANGE_KEPT);
            match ids {
                Some(ids) => {
                    out.push(1);
                    encode_ids(out, ids);
                }
                None => out.push(0),
            }
        }
    }
}

fn decode_result(r: &mut Reader<'_>) -> Result<QueryResult, WireError> {
    match r.u8()? {
        TAG_RANGE => Ok(QueryResult::Range(decode_ids(r)?)),
        TAG_KNN => Ok(QueryResult::Knn(decode_ids(r)?)),
        TAG_SIMILARITY => Ok(QueryResult::Similarity(decode_ids(r)?)),
        TAG_RANGE_KEPT => match r.u8()? {
            0 => Ok(QueryResult::RangeKept(None)),
            1 => Ok(QueryResult::RangeKept(Some(decode_ids(r)?))),
            _ => Err(WireError::Malformed {
                reason: "range-kept presence byte not 0/1",
            }),
        },
        _ => Err(WireError::Malformed {
            reason: "unknown result tag",
        }),
    }
}

const SHARD_TAG_IDS: u8 = 0;
const SHARD_TAG_KEPT: u8 = 1;
const SHARD_TAG_CANDIDATES: u8 = 2;

/// Appends one [`ShardResult`]'s wire encoding to `out`.
pub fn encode_shard_result(out: &mut Vec<u8>, r: &ShardResult) {
    match r {
        ShardResult::Ids(ids) => {
            out.push(SHARD_TAG_IDS);
            encode_ids(out, ids);
        }
        ShardResult::Kept(ids) => {
            out.push(SHARD_TAG_KEPT);
            match ids {
                Some(ids) => {
                    out.push(1);
                    encode_ids(out, ids);
                }
                None => out.push(0),
            }
        }
        ShardResult::Candidates(cands) => {
            out.push(SHARD_TAG_CANDIDATES);
            put_u32_vec(out, cands.len() as u32);
            for &(d, id) in cands {
                put_f64_vec(out, d);
                put_u64_vec(out, id as u64);
            }
        }
    }
}

fn decode_shard_result(r: &mut Reader<'_>) -> Result<ShardResult, WireError> {
    match r.u8()? {
        SHARD_TAG_IDS => Ok(ShardResult::Ids(decode_ids(r)?)),
        SHARD_TAG_KEPT => match r.u8()? {
            0 => Ok(ShardResult::Kept(None)),
            1 => Ok(ShardResult::Kept(Some(decode_ids(r)?))),
            _ => Err(WireError::Malformed {
                reason: "shard kept presence byte not 0/1",
            }),
        },
        SHARD_TAG_CANDIDATES => {
            let n = r.count(16)?;
            let mut cands: Vec<(f64, TrajId)> = Vec::with_capacity(n);
            for _ in 0..n {
                let d = r.f64()?;
                // The coordinator's k-heap merge assumes finite,
                // `-0.0`-normalized distances in sorted streams;
                // anything else would silently corrupt the global merge
                // order, so reject it here as malformed.
                if !d.is_finite() {
                    return Err(WireError::Malformed {
                        reason: "non-finite knn candidate distance",
                    });
                }
                if d == 0.0 && d.is_sign_negative() {
                    return Err(WireError::Malformed {
                        reason: "unnormalized -0.0 knn candidate distance",
                    });
                }
                let id = usize::try_from(r.u64()?).map_err(|_| WireError::Malformed {
                    reason: "trajectory id exceeds usize",
                })?;
                if let Some(&(pd, pid)) = cands.last() {
                    if d < pd || (d == pd && id <= pid) {
                        return Err(WireError::Malformed {
                            reason: "knn candidates out of (distance, id) order",
                        });
                    }
                }
                cands.push((d, id));
            }
            Ok(ShardResult::Candidates(cands))
        }
        _ => Err(WireError::Malformed {
            reason: "unknown shard result tag",
        }),
    }
}

// ---------------------------------------------------------------------
// Whole-message framing.
// ---------------------------------------------------------------------

/// Appends `msg`'s payload to `out`.
fn encode_payload(out: &mut Vec<u8>, msg: &Message) {
    match msg {
        Message::Request(batch) => encode_queries(out, batch.queries().iter()),
        Message::Response(results) => {
            put_u32_vec(out, results.len() as u32);
            for r in results {
                encode_result(out, r);
            }
        }
        Message::Error { code, message } => {
            out.extend_from_slice(&code.to_le_bytes());
            put_u32_vec(out, message.len() as u32);
            out.extend_from_slice(message.as_bytes());
        }
        Message::Hello => {}
        Message::ShardInfo(info) => {
            out.extend_from_slice(&SHARD_INFO_VERSION.to_le_bytes());
            put_u64_vec(out, info.trajs);
            put_u64_vec(out, info.points);
            out.push(u8::from(info.has_kept));
            match &info.bounds {
                Some(b) => {
                    out.push(1);
                    encode_cube(out, b);
                }
                None => out.push(0),
            }
        }
        Message::ShardRequest { id, batch } => {
            put_u64_vec(out, *id);
            encode_queries(out, batch.queries().iter());
        }
        Message::ShardResponse { id, results } => {
            put_u64_vec(out, *id);
            put_u32_vec(out, results.len() as u32);
            for r in results {
                encode_shard_result(out, r);
            }
        }
        Message::Ingest(trajs) => encode_trajectories(out, trajs),
        Message::IngestAck(ack) => {
            put_u32_vec(out, ack.accepted);
            put_u32_vec(out, ack.rejected);
            // `u64::MAX` is the "nothing accepted" sentinel: a real
            // first id can never reach it (ids count trajectories).
            put_u64_vec(out, ack.first_id.map_or(u64::MAX, |id| id as u64));
            put_u64_vec(out, ack.total_trajs);
            put_u64_vec(out, ack.total_points);
        }
    }
}

fn decode_payload(kind: u8, payload: &[u8]) -> Result<Message, WireError> {
    let mut r = Reader::new(payload);
    let msg = match kind {
        KIND_REQUEST => {
            // A query is at least a tag byte.
            let n = r.count(1)?;
            let mut queries = Vec::with_capacity(n);
            for _ in 0..n {
                queries.push(decode_query(&mut r)?);
            }
            Message::Request(QueryBatch::from_queries(queries))
        }
        KIND_RESPONSE => {
            let n = r.count(1)?;
            let mut results = Vec::with_capacity(n);
            for _ in 0..n {
                results.push(decode_result(&mut r)?);
            }
            Message::Response(results)
        }
        KIND_ERROR => {
            let code = r.u16()?;
            let len = r.count(1)?;
            r.need(len)?;
            let bytes = &r.buf[r.pos..r.pos + len];
            r.pos += len;
            let message = std::str::from_utf8(bytes)
                .map_err(|_| WireError::Malformed {
                    reason: "error message is not valid UTF-8",
                })?
                .to_owned();
            Message::Error { code, message }
        }
        KIND_HELLO => Message::Hello,
        KIND_SHARD_INFO => {
            // The payload carries its own version so the handshake —
            // which runs before any query — is where a coordinator and
            // a shard discover they speak different layouts, as a typed
            // error instead of silent misdecoding.
            let version = r.u16()?;
            if version != SHARD_INFO_VERSION {
                return Err(WireError::Malformed {
                    reason: "unsupported shard-info payload version",
                });
            }
            let trajs = r.u64()?;
            let points = r.u64()?;
            let has_kept = match r.u8()? {
                0 => false,
                1 => true,
                _ => {
                    return Err(WireError::Malformed {
                        reason: "shard-info kept byte not 0/1",
                    })
                }
            };
            let bounds = match r.u8()? {
                0 => None,
                1 => Some(decode_cube(&mut r)?),
                _ => {
                    return Err(WireError::Malformed {
                        reason: "shard-info bounds presence byte not 0/1",
                    })
                }
            };
            Message::ShardInfo(ShardInfo {
                trajs,
                points,
                has_kept,
                bounds,
            })
        }
        KIND_SHARD_REQUEST => {
            let id = r.u64()?;
            let n = r.count(1)?;
            let mut queries = Vec::with_capacity(n);
            for _ in 0..n {
                queries.push(decode_query(&mut r)?);
            }
            Message::ShardRequest {
                id,
                batch: QueryBatch::from_queries(queries),
            }
        }
        KIND_SHARD_RESPONSE => {
            let id = r.u64()?;
            let n = r.count(1)?;
            let mut results = Vec::with_capacity(n);
            for _ in 0..n {
                results.push(decode_shard_result(&mut r)?);
            }
            Message::ShardResponse { id, results }
        }
        KIND_INGEST => {
            // A trajectory is at least its 4-byte point count.
            let n = r.count(4)?;
            let mut trajs = Vec::with_capacity(n);
            for _ in 0..n {
                trajs.push(decode_trajectory(&mut r)?);
            }
            Message::Ingest(trajs)
        }
        KIND_INGEST_ACK => {
            let accepted = r.u32()?;
            let rejected = r.u32()?;
            let first_raw = r.u64()?;
            let first_id = if first_raw == u64::MAX {
                None
            } else {
                let id = usize::try_from(first_raw).map_err(|_| WireError::Malformed {
                    reason: "ingest-ack first id exceeds the address space",
                })?;
                Some(id)
            };
            if first_id.is_some() != (accepted > 0) {
                return Err(WireError::Malformed {
                    reason: "ingest-ack first id disagrees with accepted count",
                });
            }
            let total_trajs = r.u64()?;
            let total_points = r.u64()?;
            Message::IngestAck(IngestAck {
                accepted,
                rejected,
                first_id,
                total_trajs,
                total_points,
            })
        }
        kind => return Err(WireError::UnknownKind { kind }),
    };
    r.finish()?;
    Ok(msg)
}

// Encoded sizes, so a frame is reserved once at its exact length instead
// of doubling its way up and re-copying what it holds at each step; an id
// list is sized by a pass over its varint codes. `encode_frame` checks
// them against what the encoders wrote.

fn ids_len(ids: &[TrajId]) -> usize {
    4 + id_codes(ids).map(varint_len).sum::<usize>()
}

fn points_len(n: usize) -> usize {
    4 + 24 * n
}

fn query_len(q: &Query) -> usize {
    1 + match q {
        Query::Range(_) | Query::RangeKept(_) => 48,
        Query::Knn(k) => {
            let measure = match k.measure {
                Dissimilarity::Edr { .. } => 8,
                Dissimilarity::T2vec(_) => 16,
            };
            points_len(k.answer_points().len()) + 24 + 1 + measure
        }
        Query::Similarity(s) => points_len(s.answer_points().len()) + 32,
    }
}

fn queries_len<'a>(queries: impl Iterator<Item = &'a Query>) -> usize {
    4 + queries.map(query_len).sum::<usize>()
}

fn trajectories_len(trajs: &[Trajectory]) -> usize {
    4 + trajs.iter().map(|t| points_len(t.len())).sum::<usize>()
}

fn result_len(r: &QueryResult) -> usize {
    1 + match r {
        QueryResult::Range(ids) | QueryResult::Knn(ids) | QueryResult::Similarity(ids) => {
            ids_len(ids)
        }
        QueryResult::RangeKept(ids) => 1 + ids.as_deref().map_or(0, ids_len),
    }
}

fn shard_result_len(r: &ShardResult) -> usize {
    1 + match r {
        ShardResult::Ids(ids) => ids_len(ids),
        ShardResult::Kept(ids) => 1 + ids.as_deref().map_or(0, ids_len),
        ShardResult::Candidates(cands) => 4 + 16 * cands.len(),
    }
}

fn payload_len(msg: &Message) -> usize {
    match msg {
        Message::Request(batch) => queries_len(batch.queries().iter()),
        Message::Response(results) => 4 + results.iter().map(result_len).sum::<usize>(),
        Message::Error { message, .. } => 2 + 4 + message.len(),
        Message::Hello => 0,
        Message::ShardInfo(info) => 2 + 8 + 8 + 1 + 1 + info.bounds.map_or(0, |_| 48),
        Message::ShardRequest { batch, .. } => 8 + queries_len(batch.queries().iter()),
        Message::ShardResponse { results, .. } => {
            8 + 4 + results.iter().map(shard_result_len).sum::<usize>()
        }
        Message::Ingest(trajs) => trajectories_len(trajs),
        Message::IngestAck(_) => 4 + 4 + 8 + 8 + 8,
    }
}

/// One complete frame of `kind` (header + payload + checksum) left in
/// `frame`, whatever it held: the frame's size is reserved once, the
/// header is laid down and `payload` writes straight behind it, so no
/// byte is written twice; the payload length is patched in from what was
/// written and the checksum, computed over the bytes where they lie,
/// appended.
fn encode_frame(
    frame: &mut Vec<u8>,
    kind: u8,
    payload_len: usize,
    payload: impl FnOnce(&mut Vec<u8>),
) {
    frame.clear();
    frame.reserve(HEADER_LEN + payload_len + CHECKSUM_LEN);
    frame.extend_from_slice(&MAGIC);
    frame.extend_from_slice(&VERSION.to_le_bytes());
    frame.extend_from_slice(&[kind, 0]); // kind, reserved
    frame.extend_from_slice(&[0; 4]); // payload length, patched below
    payload(frame);
    let len = frame.len() - HEADER_LEN;
    debug_assert_eq!(len, payload_len, "size function out of step, kind {kind}");
    put_u32(frame, 8, len as u32);
    let checksum = xxh64(frame);
    frame.extend_from_slice(&checksum.to_le_bytes());
}

/// [`encode_frame`] into a buffer of its own.
fn new_frame(kind: u8, payload_len: usize, payload: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut frame = Vec::new();
    encode_frame(&mut frame, kind, payload_len, payload);
    frame
}

/// `msg`'s frame, left in `frame`.
fn encode_message_into(frame: &mut Vec<u8>, msg: &Message) {
    encode_frame(frame, msg.kind(), payload_len(msg), |out| {
        encode_payload(out, msg);
    });
}

/// Encodes `msg` into one complete frame (header + payload + checksum).
#[must_use]
pub fn encode_message(msg: &Message) -> Vec<u8> {
    let mut frame = Vec::new();
    encode_message_into(&mut frame, msg);
    frame
}

// The request-side frames a [`Client`](crate::Client) sends, encoded
// from what the caller already holds — a [`Message`] owns its contents,
// so building one just to encode it would deep-copy every query
// trajectory of the request. Same bytes as `encode_message` of the
// owned twin.

/// The [`Message::Request`] frame over `queries`.
pub(crate) fn encode_request(queries: &[Query]) -> Vec<u8> {
    new_frame(KIND_REQUEST, queries_len(queries.iter()), |out| {
        encode_queries(out, queries.iter());
    })
}

/// The [`Message::ShardRequest`] frame over `queries`.
pub(crate) fn encode_shard_request<'a>(
    id: u64,
    queries: impl ExactSizeIterator<Item = &'a Query> + Clone,
) -> Vec<u8> {
    new_frame(
        KIND_SHARD_REQUEST,
        8 + queries_len(queries.clone()),
        |out| {
            put_u64_vec(out, id);
            encode_queries(out, queries);
        },
    )
}

/// The [`Message::Ingest`] frame over `trajs`.
pub(crate) fn encode_ingest(trajs: &[Trajectory]) -> Vec<u8> {
    new_frame(KIND_INGEST, trajectories_len(trajs), |out| {
        encode_trajectories(out, trajs);
    })
}

/// Validates the 12-byte header, returning `(kind, payload_len)`.
fn decode_header(header: &[u8; HEADER_LEN]) -> Result<(u8, usize), WireError> {
    if header[0..4] != MAGIC {
        return Err(WireError::BadMagic {
            found: [header[0], header[1], header[2], header[3]],
        });
    }
    let version = u16::from_le_bytes([header[4], header[5]]);
    if version != VERSION {
        return Err(WireError::UnsupportedVersion {
            found: version,
            supported: VERSION,
        });
    }
    let kind = header[6];
    if !(KIND_REQUEST..=KIND_INGEST_ACK).contains(&kind) {
        return Err(WireError::UnknownKind { kind });
    }
    if header[7] != 0 {
        return Err(WireError::Malformed {
            reason: "reserved header byte is not zero",
        });
    }
    let len = get_u32(header, 8) as usize;
    if len > MAX_PAYLOAD {
        return Err(WireError::Oversized {
            len,
            max: MAX_PAYLOAD,
        });
    }
    Ok((kind, len))
}

/// Decodes exactly one frame from `buf`. The buffer must hold the whole
/// frame and nothing else — trailing bytes are [`WireError::Malformed`].
pub fn decode_message(buf: &[u8]) -> Result<Message, WireError> {
    if buf.len() < HEADER_LEN {
        return Err(WireError::Truncated {
            needed: HEADER_LEN,
            got: buf.len(),
        });
    }
    let header: [u8; HEADER_LEN] = buf[..HEADER_LEN].try_into().expect("length checked");
    let (kind, len) = decode_header(&header)?;
    let total = HEADER_LEN + len + CHECKSUM_LEN;
    if buf.len() < total {
        return Err(WireError::Truncated {
            needed: total,
            got: buf.len(),
        });
    }
    if buf.len() > total {
        return Err(WireError::Malformed {
            reason: "trailing bytes after frame",
        });
    }
    let stored = get_u64(buf, HEADER_LEN + len);
    let computed = xxh64(&buf[..HEADER_LEN + len]);
    if stored != computed {
        return Err(WireError::ChecksumMismatch { stored, computed });
    }
    decode_payload(kind, &buf[HEADER_LEN..HEADER_LEN + len])
}

/// Writes one frame to `w` (one `write_all` call; pair with
/// `TCP_NODELAY` for low latency).
pub fn write_message(w: &mut impl Write, msg: &Message) -> Result<(), WireError> {
    write_frame(w, msg, &mut Vec::new())
}

/// [`write_message`] through the connection's frame buffer: `msg` is
/// encoded into `frame` (replacing what it held, keeping its allocation)
/// and written from there.
pub(crate) fn write_frame(
    w: &mut impl Write,
    msg: &Message,
    frame: &mut Vec<u8>,
) -> Result<(), WireError> {
    encode_message_into(frame, msg);
    w.write_all(frame)?;
    Ok(())
}

/// Reads one frame from `r`. Returns `Ok(None)` on a clean end of
/// stream at a frame boundary; end-of-stream inside a frame is an
/// [`WireError::Io`] with `UnexpectedEof`. Header fields are validated
/// before the payload is read, so a bad magic or an oversized length
/// prefix never commits the reader to a large read.
pub fn read_message(r: &mut impl Read) -> Result<Option<Message>, WireError> {
    read_frame(r, &mut Vec::new())
}

/// [`read_message`] through the connection's frame buffer. The frame is
/// read into `frame` (replacing what it held, keeping its allocation)
/// through a reader limited to the declared length, so the buffer grows
/// with the bytes that arrive — a header declaring [`MAX_PAYLOAD`] costs
/// its sender's peer twelve bytes until the payload follows — and the
/// checksum is computed over header and payload where they lie.
pub(crate) fn read_frame(
    r: &mut impl Read,
    frame: &mut Vec<u8>,
) -> Result<Option<Message>, WireError> {
    frame.clear();
    frame.resize(HEADER_LEN, 0);
    // First byte separately: a clean close before any byte is not an
    // error, it is the end of the conversation.
    loop {
        match r.read(&mut frame[..1]) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    r.read_exact(&mut frame[1..])?;
    let header: &[u8; HEADER_LEN] = frame[..].try_into().expect("resized to the header");
    let (kind, len) = decode_header(header)?;
    let rest = len + CHECKSUM_LEN;
    if r.by_ref().take(rest as u64).read_to_end(frame)? < rest {
        return Err(WireError::Io(std::io::ErrorKind::UnexpectedEof.into()));
    }
    let body = &frame[..HEADER_LEN + len];
    let stored = get_u64(frame, body.len());
    let computed = xxh64(body);
    if stored != computed {
        return Err(WireError::ChecksumMismatch { stored, computed });
    }
    decode_payload(kind, &body[HEADER_LEN..]).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The borrowed request encoders write byte for byte the frames
    /// `encode_message` writes for the owned message.
    #[test]
    fn borrowed_encoders_write_the_owned_messages_frames() {
        let traj = Trajectory::new(vec![Point::new(1.0, 2.0, 3.0), Point::new(4.0, 5.0, 6.0)])
            .expect("valid trajectory");
        let queries = [
            Query::Range(Cube::new(0.0, 1.0, 0.0, 1.0, 0.0, 1.0)),
            Query::Knn(KnnQuery {
                query: traj.clone(),
                ts: 0.0,
                te: 9.0,
                k: 3,
                measure: Dissimilarity::Edr { eps: 10.0 },
            }),
            Query::Similarity(SimilarityQuery {
                query: traj.clone(),
                ts: 0.0,
                te: 9.0,
                delta: 5.0,
                step: 1.0,
            }),
            Query::RangeKept(Cube::new(0.0, 1.0, 0.0, 1.0, 0.0, 1.0)),
        ];
        for n in [0, 1, queries.len()] {
            let batch = QueryBatch::from_queries(queries[..n].to_vec());
            assert_eq!(
                encode_request(batch.queries()),
                encode_message(&Message::Request(batch.clone()))
            );
            assert_eq!(
                encode_shard_request(7, batch.queries().iter()),
                encode_message(&Message::ShardRequest { id: 7, batch })
            );
        }
        // A routed sub-batch: every other query, borrowed in place.
        let routed = [0usize, 2];
        let sub = QueryBatch::from_queries(routed.iter().map(|&i| queries[i].clone()).collect());
        assert_eq!(
            encode_shard_request(u64::MAX, routed.iter().map(|&i| &queries[i])),
            encode_message(&Message::ShardRequest {
                id: u64::MAX,
                batch: sub
            })
        );
        let trajs = [traj.clone(), traj];
        for n in 0..=trajs.len() {
            assert_eq!(
                encode_ingest(&trajs[..n]),
                encode_message(&Message::Ingest(trajs[..n].to_vec()))
            );
        }
    }

    /// A header is a promise, not bytes: one declaring the largest
    /// payload, followed by 1 KiB and end-of-stream, is an unexpected EOF
    /// that has committed the connection's buffer to what arrived — not
    /// to the 64 MiB declared (the parent zeroed all of it up front).
    #[test]
    fn a_declared_length_commits_no_memory_until_its_bytes_arrive() {
        let mut stream = encode_message(&Message::Hello)[..HEADER_LEN].to_vec();
        put_u32(&mut stream, 8, MAX_PAYLOAD as u32);
        stream.extend_from_slice(&[0xAB; 1024]);
        let mut frame = Vec::new();
        match read_frame(&mut stream.as_slice(), &mut frame) {
            Err(WireError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof),
            other => panic!("expected an unexpected EOF, got {other:?}"),
        }
        assert!(
            frame.capacity() < 64 << 10,
            "{} bytes committed to 1 KiB received",
            frame.capacity()
        );
        // One byte more than the maximum is refused at the header.
        put_u32(&mut stream, 8, MAX_PAYLOAD as u32 + 1);
        assert!(matches!(
            read_frame(&mut stream.as_slice(), &mut frame),
            Err(WireError::Oversized { .. })
        ));
    }

    /// A reader that is interrupted at every turn — before the first
    /// byte too, which the parent retried by recursion — still yields the
    /// frame; and a buffer that held a longer frame yields the shorter
    /// one that follows, then the clean end of stream.
    #[test]
    fn interrupted_reads_are_retried_and_the_buffer_is_reused() {
        struct Stutter<'a>(&'a [u8], bool);
        impl Read for Stutter<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                self.1 = !self.1;
                if self.1 {
                    return Err(std::io::ErrorKind::Interrupted.into());
                }
                // A few bytes at a time, as a socket may.
                let n = buf.len().min(7);
                self.0.read(&mut buf[..n])
            }
        }
        let long = Message::Error {
            code: 7,
            message: "x".repeat(4096),
        };
        let short = Message::Hello;
        let mut bytes = encode_message(&long);
        bytes.extend(encode_message(&short));
        let mut stream = Stutter(&bytes, false);
        let mut frame = Vec::new();
        for want in [&long, &short] {
            let got = read_frame(&mut stream, &mut frame)
                .expect("frame")
                .expect("not EOF");
            assert_eq!(encode_message(&got), encode_message(want));
        }
        assert!(read_frame(&mut stream, &mut frame)
            .expect("clean EOF")
            .is_none());
    }

    /// Every frame is reserved once at its exact size: the size functions
    /// agree with the encoders on every message kind (`encode_frame`
    /// asserts it in debug builds; this holds it in release too), and a
    /// reply encoded into a connection's buffer is the one-shot frame.
    #[test]
    fn frames_are_reserved_at_their_exact_size() {
        let traj = Trajectory::new(vec![Point::new(1.0, 2.0, 3.0), Point::new(4.0, 5.0, 6.0)])
            .expect("valid trajectory");
        let cube = Cube::new(0.0, 1.0, 0.0, 1.0, 0.0, 1.0);
        let batch = QueryBatch::from_queries(vec![
            Query::Range(cube),
            Query::RangeKept(cube),
            Query::Knn(KnnQuery {
                query: traj.clone(),
                ts: 0.0,
                te: 9.0,
                k: 3,
                measure: Dissimilarity::Edr { eps: 10.0 },
            }),
            Query::Knn(KnnQuery {
                query: traj.clone(),
                ts: 0.0,
                te: 9.0,
                k: 3,
                measure: Dissimilarity::T2vec(T2vecEmbedder {
                    cell_size: 5.0,
                    dim: 8,
                }),
            }),
            Query::Similarity(SimilarityQuery {
                query: traj.clone(),
                ts: 0.0,
                te: 9.0,
                delta: 5.0,
                step: 1.0,
            }),
        ]);
        let messages = [
            Message::Request(batch.clone()),
            Message::Request(QueryBatch::new()),
            Message::Response(vec![
                QueryResult::Range(vec![1, 2, 3]),
                QueryResult::Knn(vec![]),
                QueryResult::Similarity(vec![9]),
                QueryResult::RangeKept(None),
                QueryResult::RangeKept(Some(vec![4, 5])),
            ]),
            Message::Error {
                code: 3,
                message: "why".to_owned(),
            },
            Message::Hello,
            Message::ShardInfo(ShardInfo {
                trajs: 1,
                points: 2,
                has_kept: true,
                bounds: Some(cube),
            }),
            Message::ShardInfo(ShardInfo {
                trajs: 0,
                points: 0,
                has_kept: false,
                bounds: None,
            }),
            Message::ShardRequest { id: 5, batch },
            Message::ShardResponse {
                id: 5,
                results: vec![
                    ShardResult::Ids(vec![1]),
                    ShardResult::Kept(None),
                    ShardResult::Kept(Some(vec![2, 3])),
                    ShardResult::Candidates(vec![(0.5, 1), (1.5, 0)]),
                ],
            },
            Message::Ingest(vec![traj.clone(), traj]),
            Message::IngestAck(IngestAck {
                accepted: 2,
                rejected: 0,
                first_id: Some(4),
                total_trajs: 6,
                total_points: 12,
            }),
        ];
        let mut connection = vec![0xFF; 3];
        for msg in &messages {
            let frame = encode_message(msg);
            assert_eq!(
                frame.len(),
                HEADER_LEN + payload_len(msg) + CHECKSUM_LEN,
                "kind {}",
                msg.kind()
            );
            assert_eq!(frame.capacity(), frame.len(), "kind {} grew", msg.kind());
            let mut sink = Vec::new();
            write_frame(&mut sink, msg, &mut connection).expect("in-memory write");
            assert_eq!(sink, frame, "kind {}", msg.kind());
            assert_eq!(connection, frame, "kind {}", msg.kind());
        }
    }
}
