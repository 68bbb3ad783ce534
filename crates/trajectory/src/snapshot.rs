//! Zero-copy snapshot persistence for columnar trajectory databases.
//!
//! A *snapshot* is the on-disk twin of a [`PointStore`]: the four plain
//! column runs (`xs`/`ys`/`ts`/`offsets`) written little-endian into one
//! file behind a fixed 128-byte header, every section 64-byte aligned, an
//! optional [`KeptBitmap`] section for simplified databases, and a
//! trailing [`xxh64`] checksum (version 1 files, whose checksum is
//! [`fnv1a64`], still open). Because the in-memory layout already is
//! "plain `f64` runs, no interior pointers", the file needs no
//! deserialization step at all — three access paths share the format:
//!
//! - [`write_snapshot`] / [`write_snapshot_with`]: store → file;
//! - [`read_snapshot`]: file → owned [`Snapshot`] (heap copy, works
//!   everywhere);
//! - [`MappedStore::open`]: file → queryable store whose columns are
//!   backed by a **read-only `mmap`**. No bytes are copied or decoded;
//!   the only full-file pass at open is the checksum verification (one
//!   sequential read at memory bandwidth), after which the query engine
//!   reads pages on demand.
//!
//! The byte-level specification lives in `docs/SNAPSHOT_FORMAT.md`
//! (doc-tested against this implementation via
//! [`format_spec`]). All load paths reject malformed
//! input with a typed [`SnapshotError`] instead of panicking, mirroring
//! the CSV reader's [`ReadError`](crate::io::ReadError) style.
//!
//! ```
//! use trajectory::gen::{generate, DatasetSpec, Scale};
//! use trajectory::snapshot::{read_snapshot, write_snapshot, MappedStore};
//! use trajectory::AsColumns;
//!
//! let store = generate(&DatasetSpec::geolife(Scale::Smoke), 1).to_store();
//! let path = std::env::temp_dir().join("snapshot_doc_example.snap");
//! write_snapshot(&store, &path).unwrap();
//!
//! // Owned load: a heap copy, byte-identical columns.
//! let owned = read_snapshot(&path).unwrap();
//! assert_eq!(owned.store, store);
//!
//! // Zero-copy load: the same columns served straight from the mapping.
//! let mapped = MappedStore::open(&path).unwrap();
//! assert_eq!(mapped.xs(), store.xs());
//! assert_eq!(mapped.offsets(), store.offsets());
//! # std::fs::remove_file(&path).ok();
//! ```

use std::fs::File;
#[cfg(not(unix))]
use std::io::Read;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use crate::store::{AsColumns, KeptBitmap, PointStore};

/// The byte-level format specification, doc-tested against this module.
///
/// The module exists so `docs/SNAPSHOT_FORMAT.md` — the human-readable
/// spec — compiles and runs as part of `cargo test`: its examples assert
/// the exact header bytes [`write_snapshot`] produces, so the book cannot
/// drift from the implementation.
#[doc = include_str!("../../../docs/SNAPSHOT_FORMAT.md")]
pub mod format_spec {}

/// Magic bytes opening every snapshot file.
pub const MAGIC: [u8; 8] = *b"QDTSNAP\0";

/// Format version the writers produce: 2, whose checksum is [`xxh64`].
/// Readers also open version 1, the same layout checksummed by
/// [`fnv1a64`].
pub const VERSION: u32 = 2;

/// Header flag bit: the file carries a kept-point bitmap section.
pub const FLAG_KEPT_BITMAP: u32 = 1;

/// Header flag bit: the coordinate columns are stored **quantized**
/// (delta + uniform quantization with a stored max-error bound, PPQ
/// style) instead of as raw `f64` runs. Readers that predate this flag
/// reject such files with [`SnapshotError::UnknownFlags`] rather than
/// misreading the section geometry.
pub const FLAG_QUANTIZED: u32 = 2;

/// Fixed header length in bytes; the first section starts here.
pub const HEADER_LEN: usize = 128;

/// Alignment of every section start, in bytes. 64 keeps `f64` loads
/// aligned from any page-aligned mapping base and starts each column on
/// its own cache line.
pub const SECTION_ALIGN: usize = 64;

/// All flag bits this version understands; anything else is rejected.
const KNOWN_FLAGS: u32 = FLAG_KEPT_BITMAP | FLAG_QUANTIZED;

/// Byte length of the quantization-metadata section: `max_error` plus
/// `(min, step, width)` for each of the three coordinate columns.
const QMETA_LEN: usize = 8 + 3 * 24;

/// Largest quantized grid index the encoder accepts. Indices stay far
/// below 2^53 so `q as f64` is exact and the reconstruction error keeps
/// the stored bound; a range/error-bound combination that would exceed
/// this is rejected at encode time.
const MAX_Q: f64 = (1u64 << 51) as f64;

/// Rounds `n` up to the next multiple of [`SECTION_ALIGN`].
#[inline]
fn align_up(n: usize) -> usize {
    n.div_ceil(SECTION_ALIGN) * SECTION_ALIGN
}

// ---------------------------------------------------------------------
// Errors.
// ---------------------------------------------------------------------

/// Typed failure modes of the snapshot load paths.
///
/// Every corrupt-file condition maps to a distinct variant so callers can
/// distinguish "not a snapshot at all" from "a snapshot from the future"
/// from "bit rot" — the same philosophy as the CSV reader's line-numbered
/// [`ReadError`](crate::io::ReadError).
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying I/O failure (open, read, map).
    Io(io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic {
        /// The first 8 bytes actually found.
        found: [u8; 8],
    },
    /// The file's format version is not supported by this build.
    UnsupportedVersion {
        /// Version stored in the file.
        found: u32,
        /// Newest version this build reads, and the one it writes.
        supported: u32,
    },
    /// The header carries flag bits this version does not understand.
    UnknownFlags {
        /// The offending flag word.
        flags: u32,
    },
    /// The file is shorter than a structurally valid snapshot.
    Truncated {
        /// Actual file length in bytes.
        len: u64,
        /// Minimum length implied by the header (or the fixed header
        /// size, when even that is missing).
        needed: u64,
    },
    /// A section's offset/length lands outside the file or breaks the
    /// required [`SECTION_ALIGN`] alignment.
    SectionOutOfBounds {
        /// Which section ("xs", "ys", "ts", "offsets", "kept").
        section: &'static str,
        /// Byte offset stored in the header.
        offset: u64,
        /// Section length in bytes implied by the counts.
        len: u64,
        /// Actual file length.
        file_len: u64,
    },
    /// The trailing checksum does not match the file contents.
    ChecksumMismatch {
        /// Checksum stored in the file.
        stored: u64,
        /// Checksum recomputed over the file bytes.
        computed: u64,
    },
    /// The offset table violates a store invariant (not starting at 0,
    /// decreasing, empty trajectory, or not ending at the point count).
    InvalidOffsets {
        /// Human-readable description of the violated invariant.
        reason: String,
    },
    /// The kept-bitmap section has bits set at positions past the point
    /// count (the format requires tail padding bits to be zero).
    InvalidKeptBitmap {
        /// Number of points the bitmap should cover.
        points: u64,
    },
    /// Counts in the header exceed what a [`PointStore`] can address
    /// (`u32` global point ids) or what this platform can map.
    TooLarge {
        /// The offending point count.
        points: u64,
    },
    /// The quantization metadata or input is invalid: a non-finite or
    /// non-positive error bound/step, a width outside `{1, 2, 4, 8}`, a
    /// non-finite input coordinate, or a value range too wide for the
    /// requested error bound.
    InvalidQuantization {
        /// Human-readable description of the violated constraint.
        reason: String,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "io error: {e}"),
            SnapshotError::BadMagic { found } => {
                write!(f, "bad magic {found:?} (not a snapshot file)")
            }
            SnapshotError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "unsupported snapshot version {found} (supported: {supported})"
                )
            }
            SnapshotError::UnknownFlags { flags } => {
                write!(f, "unknown header flags {flags:#x}")
            }
            SnapshotError::Truncated { len, needed } => {
                write!(f, "truncated snapshot: {len} bytes, need {needed}")
            }
            SnapshotError::SectionOutOfBounds {
                section,
                offset,
                len,
                file_len,
            } => write!(
                f,
                "section {section} ({len} bytes at offset {offset}) exceeds or misaligns \
                 within the {file_len}-byte file"
            ),
            SnapshotError::ChecksumMismatch { stored, computed } => {
                write!(
                    f,
                    "checksum mismatch: stored {stored:#x}, computed {computed:#x}"
                )
            }
            SnapshotError::InvalidOffsets { reason } => {
                write!(f, "invalid offset table: {reason}")
            }
            SnapshotError::InvalidKeptBitmap { points } => {
                write!(f, "kept bitmap has bits set past the point count {points}")
            }
            SnapshotError::TooLarge { points } => {
                write!(f, "snapshot too large: {points} points exceed u32 ids")
            }
            SnapshotError::InvalidQuantization { reason } => {
                write!(f, "invalid quantization: {reason}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

// ---------------------------------------------------------------------
// Checksum.
// ---------------------------------------------------------------------

/// FNV-1a 64-bit over `bytes`: dependency-free and byte-order
/// independent, but a byte at a time through a serial multiply chain
/// (~1.3 ns/B), so it no longer guards frames or snapshots — [`xxh64`]
/// does. It remains the verifier of version-1 snapshots, the WAL's
/// per-record checksum (records of 9–33 bytes), and the fingerprint the
/// fixture tests print.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// XXH64 (seed 0) over `bytes` — the checksum of version-2 snapshots and
/// of every QWIR frame. Four independent 64-bit multiply-rotate lanes
/// take 32 bytes a step, so it runs ~15× faster than [`fnv1a64`] in
/// portable safe Rust, the same on every build and byte order.
#[must_use]
pub fn xxh64(bytes: &[u8]) -> u64 {
    // One piece: whole stripes straight from `bytes`, then the tail.
    let body = bytes.len() - bytes.len() % 32;
    let mut lanes = XXH_LANES;
    xxh_stripes(&mut lanes, &bytes[..body]);
    xxh_digest(lanes, bytes.len() as u64, &bytes[body..])
}

const P1: u64 = 0x9e37_79b1_85eb_ca87;
const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const P3: u64 = 0x1656_67b1_9e37_79f9;
const P4: u64 = 0x85eb_ca77_c2b2_ae63;
const P5: u64 = 0x27d4_eb2f_1656_67c5;

/// The four lanes before any stripe (seed 0).
const XXH_LANES: [u64; 4] = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];

#[inline(always)]
fn xxh_round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

#[inline(always)]
fn xxh_word(b: &[u8]) -> u64 {
    u64::from_le_bytes(b.try_into().expect("8-byte chunk"))
}

/// Runs the four lanes over whole 32-byte stripes.
#[inline(always)]
fn xxh_stripes(lanes: &mut [u64; 4], stripes: &[u8]) {
    let mut v = *lanes;
    for stripe in stripes.chunks_exact(32) {
        for (acc, lane) in v.iter_mut().zip(stripe.chunks_exact(8)) {
            *acc = xxh_round(*acc, xxh_word(lane));
        }
    }
    *lanes = v;
}

/// The hash of `total` bytes whose whole stripes left `lanes` and whose
/// last `tail.len() < 32` bytes are `tail`.
fn xxh_digest(v: [u64; 4], total: u64, mut tail: &[u8]) -> u64 {
    #[inline(always)]
    fn merge(acc: u64, v: u64) -> u64 {
        (acc ^ xxh_round(0, v)).wrapping_mul(P1).wrapping_add(P4)
    }
    let mut h = if total >= 32 {
        let h = v[0]
            .rotate_left(1)
            .wrapping_add(v[1].rotate_left(7))
            .wrapping_add(v[2].rotate_left(12))
            .wrapping_add(v[3].rotate_left(18));
        v.iter().fold(h, |h, &v| merge(h, v))
    } else {
        P5
    };
    h = h.wrapping_add(total);
    while tail.len() >= 8 {
        h ^= xxh_round(0, xxh_word(&tail[..8]));
        h = h.rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
        tail = &tail[8..];
    }
    if tail.len() >= 4 {
        let half = u32::from_le_bytes(tail[..4].try_into().expect("4-byte chunk"));
        h ^= u64::from(half).wrapping_mul(P1);
        h = h.rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
        tail = &tail[4..];
    }
    for &b in tail {
        h ^= u64::from(b).wrapping_mul(P5);
        h = h.rotate_left(11).wrapping_mul(P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// [`xxh64`] fed in pieces: any split of a buffer over [`Xxh64::update`]
/// calls, then [`Xxh64::finish`], gives the hash of the whole. A partial
/// 32-byte stripe waits in a small buffer for the next piece, so a
/// writer can seal bytes as it streams them without holding an image.
#[derive(Debug, Clone)]
pub struct Xxh64 {
    lanes: [u64; 4],
    /// The bytes of the stripe in progress (`pending` of them).
    stripe: [u8; 32],
    pending: usize,
    total: u64,
}

impl Default for Xxh64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Xxh64 {
    /// The state before any byte.
    #[must_use]
    pub fn new() -> Self {
        Self {
            lanes: XXH_LANES,
            stripe: [0; 32],
            pending: 0,
            total: 0,
        }
    }

    /// Feeds the next `bytes`.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.total += bytes.len() as u64;
        if self.pending > 0 {
            let take = bytes.len().min(32 - self.pending);
            self.stripe[self.pending..self.pending + take].copy_from_slice(&bytes[..take]);
            self.pending += take;
            bytes = &bytes[take..];
            if self.pending < 32 {
                return;
            }
            xxh_stripes(&mut self.lanes, &self.stripe);
        }
        let body = bytes.len() - bytes.len() % 32;
        xxh_stripes(&mut self.lanes, &bytes[..body]);
        self.stripe[..bytes.len() - body].copy_from_slice(&bytes[body..]);
        self.pending = bytes.len() - body;
    }

    /// The hash of every byte fed so far.
    #[must_use]
    pub fn finish(&self) -> u64 {
        xxh_digest(self.lanes, self.total, &self.stripe[..self.pending])
    }
}

// ---------------------------------------------------------------------
// Little-endian (de)serialization helpers.
// ---------------------------------------------------------------------

/// Writes `v` little-endian at `buf[off..off + 4]`. Shared by the
/// snapshot codec and the wire protocol (`traj-serve`), so both speak
/// the same byte order from the same primitives.
pub fn put_u32(buf: &mut [u8], off: usize, v: u32) {
    buf[off..off + 4].copy_from_slice(&v.to_le_bytes());
}

/// Writes `v` little-endian at `buf[off..off + 8]` (see [`put_u32`]).
pub fn put_u64(buf: &mut [u8], off: usize, v: u64) {
    buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
}

/// Reads a little-endian `u32` at `buf[off..off + 4]` (see [`put_u32`]).
/// Panics if out of bounds — callers length-check frames first.
#[must_use]
pub fn get_u32(buf: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(buf[off..off + 4].try_into().expect("bounds checked"))
}

/// Reads a little-endian `u64` at `buf[off..off + 8]` (see [`get_u32`]).
#[must_use]
pub fn get_u64(buf: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(buf[off..off + 8].try_into().expect("bounds checked"))
}

/// Copies `src` into `dst` as little-endian bytes. On little-endian
/// targets this is one `memcpy`; big-endian targets byte-swap per element.
fn copy_u32s_le(dst: &mut [u8], src: &[u32]) {
    debug_assert_eq!(dst.len(), src.len() * 4);
    if cfg!(target_endian = "little") {
        // SAFETY: u32 has no padding; reinterpreting its memory as bytes
        // is always valid, and on LE targets the bytes are already in
        // file order.
        let bytes = unsafe { std::slice::from_raw_parts(src.as_ptr().cast::<u8>(), src.len() * 4) };
        dst.copy_from_slice(bytes);
    } else {
        for (chunk, v) in dst.chunks_exact_mut(4).zip(src) {
            chunk.copy_from_slice(&v.to_le_bytes());
        }
    }
}

/// [`copy_u32s_le`] for `u64` runs.
fn copy_u64s_le(dst: &mut [u8], src: &[u64]) {
    debug_assert_eq!(dst.len(), src.len() * 8);
    if cfg!(target_endian = "little") {
        // SAFETY: as in `copy_u32s_le`.
        let bytes = unsafe { std::slice::from_raw_parts(src.as_ptr().cast::<u8>(), src.len() * 8) };
        dst.copy_from_slice(bytes);
    } else {
        for (chunk, v) in dst.chunks_exact_mut(8).zip(src) {
            chunk.copy_from_slice(&v.to_le_bytes());
        }
    }
}

fn read_f64s_le(bytes: &[u8]) -> Vec<f64> {
    bytes
        .chunks_exact(8)
        .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("chunked by 8"))))
        .collect()
}

fn read_u32s_le(bytes: &[u8]) -> Vec<u32> {
    bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("chunked by 4")))
        .collect()
}

fn read_u64s_le(bytes: &[u8]) -> Vec<u64> {
    bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("chunked by 8")))
        .collect()
}

/// Writes `v` as little-endian IEEE-754 bits at `buf[off..off + 8]` —
/// bit-exact round-trips, NaN payloads included (see [`put_u32`]).
pub fn put_f64(buf: &mut [u8], off: usize, v: f64) {
    put_u64(buf, off, v.to_bits());
}

/// Reads a little-endian IEEE-754 `f64` at `buf[off..off + 8]`.
#[must_use]
pub fn get_f64(buf: &[u8], off: usize) -> f64 {
    f64::from_bits(get_u64(buf, off))
}

// ---------------------------------------------------------------------
// Quantized column codec (delta + uniform quantization, PPQ style).
// ---------------------------------------------------------------------

/// Quantization parameters of one coordinate column: values are stored
/// as zigzag-encoded deltas of grid indices `q`, reconstructed as
/// `min + q * step`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ColQuant {
    min: f64,
    step: f64,
    /// Bytes per stored delta: 1, 2, 4, or 8.
    width: usize,
}

/// The decoded quantization-metadata section: the shared error bound
/// plus per-column parameters for xs, ys, ts.
#[derive(Debug, Clone, Copy, PartialEq)]
struct QuantMeta {
    max_error: f64,
    cols: [ColQuant; 3],
}

/// Zigzag-encodes a signed delta so small magnitudes of either sign map to
/// small codes (0, -1, 1, -2, … → 0, 1, 2, 3, …). Shared by the quantized
/// columns and the wire's id lists, like [`put_u32`].
#[inline]
#[must_use]
pub fn zigzag(d: i64) -> u64 {
    ((d << 1) ^ (d >> 63)) as u64
}

/// The inverse of [`zigzag`].
#[inline]
#[must_use]
pub fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

/// Quantizes one column onto the uniform grid `min + q * step` with
/// `step = 2 * max_error` (the widest grid whose nearest point is always
/// within `max_error`), returning the column parameters and the
/// zigzag-encoded index deltas in point order.
fn quantize_column(
    values: &[f64],
    max_error: f64,
    name: &'static str,
) -> Result<(ColQuant, Vec<u64>), SnapshotError> {
    let step = 2.0 * max_error;
    let mut min = f64::INFINITY;
    for &v in values {
        if !v.is_finite() {
            return Err(SnapshotError::InvalidQuantization {
                reason: format!("column {name} contains non-finite value {v}"),
            });
        }
        min = min.min(v);
    }
    if values.is_empty() {
        min = 0.0;
    }
    let mut deltas = Vec::with_capacity(values.len());
    let mut prev: i64 = 0;
    let mut max_z: u64 = 0;
    for &v in values {
        let raw = (v - min) / step;
        if raw > MAX_Q {
            return Err(SnapshotError::InvalidQuantization {
                reason: format!(
                    "column {name}: range {:.3e} needs more than 2^51 grid steps at \
                     max_error {max_error:.3e}",
                    v - min
                ),
            });
        }
        // Nearest grid index, then a one-step correction against the
        // actual f64 reconstruction so the stored bound survives the
        // division's rounding even near half-step boundaries.
        let mut q = raw.round() as i64;
        let mut best_err = (min + q as f64 * step - v).abs();
        for cand in [q - 1, q + 1] {
            if cand >= 0 {
                let e = (min + cand as f64 * step - v).abs();
                if e < best_err {
                    q = cand;
                    best_err = e;
                }
            }
        }
        let z = zigzag(q - prev);
        prev = q;
        max_z = max_z.max(z);
        deltas.push(z);
    }
    let width = match max_z {
        z if z <= 0xFF => 1,
        z if z <= 0xFFFF => 2,
        z if z <= 0xFFFF_FFFF => 4,
        _ => 8,
    };
    Ok((ColQuant { min, step, width }, deltas))
}

/// Writes zigzag deltas as fixed-width little-endian integers.
fn write_quantized(dst: &mut [u8], deltas: &[u64], width: usize) {
    debug_assert_eq!(dst.len(), deltas.len() * width);
    for (chunk, &z) in dst.chunks_exact_mut(width).zip(deltas) {
        chunk.copy_from_slice(&z.to_le_bytes()[..width]);
    }
}

/// Reconstructs one column from its fixed-width zigzag delta section.
/// The accumulator wraps instead of panicking so checksum-valid but
/// hand-crafted delta streams degrade to garbage values, never aborts.
fn dequantize_column(bytes: &[u8], n: usize, c: &ColQuant) -> Vec<f64> {
    let mut out = Vec::with_capacity(n);
    let mut acc: i64 = 0;
    for chunk in bytes.chunks_exact(c.width).take(n) {
        let mut raw = [0u8; 8];
        raw[..c.width].copy_from_slice(chunk);
        acc = acc.wrapping_add(unzigzag(u64::from_le_bytes(raw)));
        out.push(c.min + acc as f64 * c.step);
    }
    out
}

// ---------------------------------------------------------------------
// Layout resolution + validation.
// ---------------------------------------------------------------------

/// Resolved section geometry of a validated snapshot: element counts plus
/// byte offsets, everything bounds- and alignment-checked against the
/// actual file length.
#[derive(Debug, Clone, Copy)]
struct Layout {
    traj_count: usize,
    point_count: usize,
    xs_off: usize,
    ys_off: usize,
    ts_off: usize,
    offsets_off: usize,
    /// Byte offset of the kept-bitmap section, when present.
    kept_off: Option<usize>,
    /// Number of `u64` words in the kept section.
    kept_words: usize,
    checksum_off: usize,
    /// Quantization parameters, for files carrying [`FLAG_QUANTIZED`].
    /// The coordinate sections then hold fixed-width zigzag deltas
    /// instead of raw `f64` runs.
    quant: Option<QuantMeta>,
}

impl Layout {
    /// Computes the layout a store of `m` trajectories / `n` points (and
    /// optionally a kept bitmap) serializes to.
    fn plan(m: usize, n: usize, with_kept: bool) -> Layout {
        Layout::plan_impl(m, n, with_kept, None)
    }

    /// [`Layout::plan`] for quantized files: a qmeta section follows the
    /// header, and each coordinate section is `n * width` bytes.
    fn plan_quantized(m: usize, n: usize, with_kept: bool, quant: QuantMeta) -> Layout {
        Layout::plan_impl(m, n, with_kept, Some(quant))
    }

    fn plan_impl(m: usize, n: usize, with_kept: bool, quant: Option<QuantMeta>) -> Layout {
        let kept_words = if with_kept { n.div_ceil(64) } else { 0 };
        let col_bytes = |i: usize| match &quant {
            Some(q) => n * q.cols[i].width,
            None => n * 8,
        };
        let xs_off = match quant {
            Some(_) => align_up(HEADER_LEN + QMETA_LEN),
            None => HEADER_LEN,
        };
        let ys_off = align_up(xs_off + col_bytes(0));
        let ts_off = align_up(ys_off + col_bytes(1));
        let offsets_off = align_up(ts_off + col_bytes(2));
        let offsets_end = offsets_off + (m + 1) * 4;
        let (kept_off, kept_end) = if with_kept {
            let off = align_up(offsets_end);
            (Some(off), off + kept_words * 8)
        } else {
            (None, offsets_end)
        };
        // The checksum needs only 8-byte alignment, but aligning it like a
        // section keeps the rule uniform ("everything after the header
        // starts on a 64-byte boundary").
        let checksum_off = align_up(kept_end);
        Layout {
            traj_count: m,
            point_count: n,
            xs_off,
            ys_off,
            ts_off,
            offsets_off,
            kept_off,
            kept_words,
            checksum_off,
            quant,
        }
    }

    /// Total file size in bytes.
    fn file_len(&self) -> usize {
        self.checksum_off + 8
    }
}

/// Reads and sanity-checks the quantization-metadata section at
/// [`HEADER_LEN`].
fn read_qmeta(bytes: &[u8]) -> Result<QuantMeta, SnapshotError> {
    let max_error = get_f64(bytes, HEADER_LEN);
    if !(max_error.is_finite() && max_error > 0.0) {
        return Err(SnapshotError::InvalidQuantization {
            reason: format!("stored max_error {max_error} is not finite and positive"),
        });
    }
    let mut cols = [ColQuant {
        min: 0.0,
        step: 1.0,
        width: 1,
    }; 3];
    for (i, col) in cols.iter_mut().enumerate() {
        let base = HEADER_LEN + 8 + i * 24;
        let min = get_f64(bytes, base);
        let step = get_f64(bytes, base + 8);
        let width = get_u64(bytes, base + 16);
        if !(min.is_finite() && step.is_finite() && step > 0.0) {
            return Err(SnapshotError::InvalidQuantization {
                reason: format!("column {i}: min {min} / step {step} out of domain"),
            });
        }
        if !matches!(width, 1 | 2 | 4 | 8) {
            return Err(SnapshotError::InvalidQuantization {
                reason: format!("column {i}: width {width} not in {{1, 2, 4, 8}}"),
            });
        }
        *col = ColQuant {
            min,
            step,
            width: width as usize,
        };
    }
    Ok(QuantMeta { max_error, cols })
}

/// Validates the full byte image of a snapshot: magic, version, flags,
/// section geometry, checksum, and offset-table invariants. Returns the
/// resolved [`Layout`] on success.
fn validate(bytes: &[u8]) -> Result<Layout, SnapshotError> {
    if bytes.len() < HEADER_LEN + 8 {
        return Err(SnapshotError::Truncated {
            len: bytes.len() as u64,
            needed: (HEADER_LEN + 8) as u64,
        });
    }
    let mut found = [0u8; 8];
    found.copy_from_slice(&bytes[0..8]);
    if found != MAGIC {
        return Err(SnapshotError::BadMagic { found });
    }
    let version = get_u32(bytes, 8);
    if !(1..=VERSION).contains(&version) {
        return Err(SnapshotError::UnsupportedVersion {
            found: version,
            supported: VERSION,
        });
    }
    let flags = get_u32(bytes, 12);
    if flags & !KNOWN_FLAGS != 0 {
        return Err(SnapshotError::UnknownFlags { flags });
    }
    let traj_count = get_u64(bytes, 16);
    let point_count = get_u64(bytes, 24);
    if point_count >= u64::from(u32::MAX) || traj_count >= u64::from(u32::MAX) {
        return Err(SnapshotError::TooLarge {
            points: point_count,
        });
    }
    let m = traj_count as usize;
    let n = point_count as usize;
    let with_kept = flags & FLAG_KEPT_BITMAP != 0;
    let with_quant = flags & FLAG_QUANTIZED != 0;

    // The header's stored offsets must agree with the canonical layout
    // for these counts — the format admits exactly one geometry per
    // (m, n, flags, quantization widths), which is what makes blind
    // mapping safe.
    let layout = if with_quant {
        let needed = (HEADER_LEN + QMETA_LEN + 8) as u64;
        if (bytes.len() as u64) < needed {
            return Err(SnapshotError::Truncated {
                len: bytes.len() as u64,
                needed,
            });
        }
        let qmeta_off = get_u64(bytes, 80);
        if qmeta_off != HEADER_LEN as u64 {
            return Err(SnapshotError::InvalidQuantization {
                reason: format!("qmeta_off {qmeta_off}, expected {HEADER_LEN}"),
            });
        }
        Layout::plan_quantized(m, n, with_kept, read_qmeta(bytes)?)
    } else {
        Layout::plan(m, n, with_kept)
    };
    let col_len = |i: usize| match &layout.quant {
        Some(q) => n as u64 * q.cols[i].width as u64,
        None => n as u64 * 8,
    };
    let file_len = bytes.len() as u64;
    let stored = [
        ("xs", get_u64(bytes, 32), layout.xs_off, col_len(0)),
        ("ys", get_u64(bytes, 40), layout.ys_off, col_len(1)),
        ("ts", get_u64(bytes, 48), layout.ts_off, col_len(2)),
        (
            "offsets",
            get_u64(bytes, 56),
            layout.offsets_off,
            (m as u64 + 1) * 4,
        ),
        (
            "kept",
            get_u64(bytes, 64),
            layout.kept_off.unwrap_or(0),
            layout.kept_words as u64 * 8,
        ),
    ];
    for (section, got, expect, sec_len) in stored {
        if got != expect as u64
            || got % SECTION_ALIGN as u64 != 0
            || got.checked_add(sec_len).is_none_or(|end| end > file_len)
        {
            return Err(SnapshotError::SectionOutOfBounds {
                section,
                offset: got,
                len: sec_len,
                file_len,
            });
        }
    }
    let checksum_off = get_u64(bytes, 72);
    if checksum_off != layout.checksum_off as u64 || layout.file_len() as u64 != file_len {
        return Err(SnapshotError::Truncated {
            len: file_len,
            needed: layout.file_len() as u64,
        });
    }

    let stored_sum = get_u64(bytes, layout.checksum_off);
    let covered = &bytes[..layout.checksum_off];
    // Version 1 differs from 2 only in its checksum; files outlive builds.
    let computed = if version == 1 {
        fnv1a64(covered)
    } else {
        xxh64(covered)
    };
    if stored_sum != computed {
        return Err(SnapshotError::ChecksumMismatch {
            stored: stored_sum,
            computed,
        });
    }

    // Offset-table invariants: starts at 0, monotone, ends at N. These
    // are what every downstream `view()` slice relies on.
    let offs = &bytes[layout.offsets_off..layout.offsets_off + (m + 1) * 4];
    let mut prev = 0u32;
    for (i, c) in offs.chunks_exact(4).enumerate() {
        let o = u32::from_le_bytes(c.try_into().expect("chunked by 4"));
        if i == 0 && o != 0 {
            return Err(SnapshotError::InvalidOffsets {
                reason: format!("offsets[0] = {o}, expected 0"),
            });
        }
        if o < prev {
            return Err(SnapshotError::InvalidOffsets {
                reason: format!("offsets[{i}] = {o} decreases below {prev}"),
            });
        }
        if i > 0 && o == prev {
            // Every store API (push_points, push_view, end_traj, gather)
            // refuses zero-length trajectories; a file containing one
            // would panic kNN windowing and mis-anchor kept bitmaps.
            return Err(SnapshotError::InvalidOffsets {
                reason: format!(
                    "trajectory {} is empty (offsets[{i}] == offsets[{}])",
                    i - 1,
                    i - 1
                ),
            });
        }
        prev = o;
    }
    if prev as usize != n {
        return Err(SnapshotError::InvalidOffsets {
            reason: format!("offsets end at {prev}, expected point count {n}"),
        });
    }
    // Kept-bitmap tail padding must be zero, so KeptBitmap::from_words
    // can never panic downstream — corrupt bitmaps are a typed error
    // here, not an abort during serving.
    if let Some(off) = layout.kept_off {
        if !n.is_multiple_of(64) && layout.kept_words > 0 {
            let last_off = off + (layout.kept_words - 1) * 8;
            let last = get_u64(bytes, last_off);
            if last >> (n % 64) != 0 {
                return Err(SnapshotError::InvalidKeptBitmap { points: n as u64 });
            }
        }
    }
    Ok(layout)
}

// ---------------------------------------------------------------------
// Writing.
// ---------------------------------------------------------------------

/// The 128-byte header of a file laid out as `layout`: magic, version,
/// flags (from the layout's optional sections), counts and section
/// offsets; reserved bytes are zero.
fn header(layout: &Layout) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    let flags = if layout.kept_off.is_some() {
        FLAG_KEPT_BITMAP
    } else {
        0
    } | if layout.quant.is_some() {
        FLAG_QUANTIZED
    } else {
        0
    };
    h[0..8].copy_from_slice(&MAGIC);
    put_u32(&mut h, 8, VERSION);
    put_u32(&mut h, 12, flags);
    put_u64(&mut h, 16, layout.traj_count as u64);
    put_u64(&mut h, 24, layout.point_count as u64);
    put_u64(&mut h, 32, layout.xs_off as u64);
    put_u64(&mut h, 40, layout.ys_off as u64);
    put_u64(&mut h, 48, layout.ts_off as u64);
    put_u64(&mut h, 56, layout.offsets_off as u64);
    put_u64(&mut h, 64, layout.kept_off.unwrap_or(0) as u64);
    put_u64(&mut h, 72, layout.checksum_off as u64);
    if layout.quant.is_some() {
        put_u64(&mut h, 80, HEADER_LEN as u64); // qmeta_off
    }
    h
}

/// A snapshot on its way to `out`: every byte is hashed as it passes,
/// and `pos` is its file offset, which the section padding aims at.
struct SealingWriter<W: Write> {
    out: W,
    hash: Xxh64,
    pos: usize,
}

impl<W: Write> SealingWriter<W> {
    /// Bytes hashed and handed on per step: small enough to stay in
    /// cache between the two passes, large enough that a column costs a
    /// few dozen `write` calls.
    const CHUNK: usize = 256 << 10;

    fn put(&mut self, bytes: &[u8]) -> io::Result<()> {
        for chunk in bytes.chunks(Self::CHUNK) {
            self.hash.update(chunk);
            self.out.write_all(chunk)?;
        }
        self.pos += bytes.len();
        Ok(())
    }

    /// Zero bytes up to file offset `off`.
    fn pad_to(&mut self, off: usize) -> io::Result<()> {
        debug_assert!(self.pos <= off);
        self.put(&[0u8; SECTION_ALIGN][..off - self.pos])
    }

    /// A run of `f64`/`u32`/`u64` words, little-endian: the words' own
    /// memory on little-endian targets, converted through a stack buffer
    /// (`to_le`) elsewhere. `T` must be one of those three: plain words
    /// with no padding.
    fn put_words<T: Copy, const N: usize>(
        &mut self,
        src: &[T],
        to_le: fn(T) -> [u8; N],
    ) -> io::Result<()> {
        debug_assert_eq!(std::mem::size_of::<T>(), N);
        if cfg!(target_endian = "little") {
            // SAFETY: `T` is a padding-free word type (see above), so
            // every byte of `src` is initialized, and on little-endian
            // targets its bytes already are in file order.
            let bytes = unsafe {
                std::slice::from_raw_parts(src.as_ptr().cast::<u8>(), std::mem::size_of_val(src))
            };
            return self.put(bytes);
        }
        let mut buf = [0u8; 4096];
        for words in src.chunks(buf.len() / N) {
            for (dst, &w) in buf.chunks_exact_mut(N).zip(words) {
                dst.copy_from_slice(&to_le(w));
            }
            self.put(&buf[..words.len() * N])?;
        }
        Ok(())
    }

    /// Appends the checksum of everything written and returns the sink.
    fn seal(mut self) -> io::Result<W> {
        let sum = self.hash.finish();
        self.out.write_all(&sum.to_le_bytes())?;
        Ok(self.out)
    }
}

/// Streams the snapshot of `parts`, concatenated in order, into `out`:
/// header, padded sections, then the checksum, written and hashed as
/// they go — the output never exists as a whole in memory. Trajectory
/// ids run through the parts in order (the concatenated store's ids),
/// and `kept`, when given, covers the points of all parts. The bytes
/// equal those of a snapshot of the concatenated store; this is the one
/// writer behind [`snapshot_bytes`], [`write_snapshot_with`] and a live
/// database's compaction fold. Returns `out`, unflushed.
///
/// # Panics
/// When `kept` covers a different number of points than the parts hold.
pub fn write_snapshot_to<S, W>(parts: &[&S], kept: Option<&KeptBitmap>, out: W) -> io::Result<W>
where
    S: AsColumns + ?Sized,
    W: Write,
{
    let m: usize = parts.iter().map(|p| p.len()).sum();
    let n: usize = parts.iter().map(|p| p.total_points()).sum();
    if let Some(k) = kept {
        assert_eq!(
            k.len(),
            n,
            "kept bitmap covers {} points, store has {n}",
            k.len()
        );
    }
    let layout = Layout::plan(m, n, kept.is_some());
    let mut w = SealingWriter {
        out,
        hash: Xxh64::new(),
        pos: 0,
    };
    w.put(&header(&layout))?;
    for (off, column) in [
        (layout.xs_off, AsColumns::xs as fn(&S) -> &[f64]),
        (layout.ys_off, AsColumns::ys),
        (layout.ts_off, AsColumns::ts),
    ] {
        w.pad_to(off)?;
        for part in parts {
            w.put_words(column(part), f64::to_le_bytes)?;
        }
    }
    // One leading zero, then each part's ends shifted by the points
    // before it.
    w.pad_to(layout.offsets_off)?;
    w.put_words(&[0u32], u32::to_le_bytes)?;
    let mut before = 0u32;
    for part in parts {
        let ends = &part.offsets()[1..];
        if before == 0 {
            w.put_words(ends, u32::to_le_bytes)?;
        } else {
            let mut buf = [0u32; 1024];
            for chunk in ends.chunks(buf.len()) {
                for (dst, &end) in buf.iter_mut().zip(chunk) {
                    *dst = end + before;
                }
                w.put_words(&buf[..chunk.len()], u32::to_le_bytes)?;
            }
        }
        before += part.total_points() as u32;
    }
    if let (Some(off), Some(k)) = (layout.kept_off, kept) {
        w.pad_to(off)?;
        w.put_words(k.words(), u64::to_le_bytes)?;
    }
    w.pad_to(layout.checksum_off)?;
    w.seal()
}

/// The full byte image of a snapshot (header, padded sections, trailing
/// checksum): [`write_snapshot_to`] over a `Vec<u8>`, for in-memory
/// round trips and tests.
///
/// # Panics
/// When `kept` covers a different number of points than `store` holds.
#[must_use]
pub fn snapshot_bytes<S: AsColumns + ?Sized>(store: &S, kept: Option<&KeptBitmap>) -> Vec<u8> {
    let len = Layout::plan(store.len(), store.total_points(), kept.is_some()).file_len();
    write_snapshot_to(&[store], kept, Vec::with_capacity(len)).expect("writing to a Vec")
}

/// Writes `store` as a snapshot file at `path` (no kept bitmap).
pub fn write_snapshot<S, P>(store: &S, path: P) -> Result<(), SnapshotError>
where
    S: AsColumns + ?Sized,
    P: AsRef<Path>,
{
    write_snapshot_with(store, None, path)
}

/// Writes `store` plus an optional kept-point bitmap — the persisted form
/// of a simplified database: the full columns stay addressable (so error
/// measures and re-simplification still see `D`), while query serving
/// reads `D'` straight off the bitmap. The file is streamed through one
/// buffered writer ([`write_snapshot_to`]).
///
/// # Panics
/// When `kept` covers a different number of points than `store` holds.
pub fn write_snapshot_with<S, P>(
    store: &S,
    kept: Option<&KeptBitmap>,
    path: P,
) -> Result<(), SnapshotError>
where
    S: AsColumns + ?Sized,
    P: AsRef<Path>,
{
    let file = BufWriter::new(File::create(path)?);
    write_snapshot_to(&[store], kept, file)?
        .into_inner()
        .map_err(io::IntoInnerError::into_error)?;
    Ok(())
}

/// Serializes the full byte image of a **quantized** snapshot: each
/// coordinate column is delta-plus-uniform-quantized onto a grid of
/// spacing `2 * max_error` (so the nearest grid point is always within
/// `max_error`), and the grid-index deltas are zigzag-encoded at the
/// narrowest fixed width (1/2/4/8 bytes) that fits the column. The file
/// carries [`FLAG_QUANTIZED`] plus a qmeta section holding the error
/// bound and per-column parameters; readers that predate the flag
/// reject it instead of misreading.
///
/// Fails with [`SnapshotError::InvalidQuantization`] when `max_error`
/// is not finite and positive, a coordinate is non-finite, or the value
/// range needs more than 2^51 grid steps at this bound.
///
/// # Panics
/// When `kept` covers a different number of points than `store` holds.
pub fn quantized_snapshot_bytes<S: AsColumns + ?Sized>(
    store: &S,
    kept: Option<&KeptBitmap>,
    max_error: f64,
) -> Result<Vec<u8>, SnapshotError> {
    if !(max_error.is_finite() && max_error > 0.0) {
        return Err(SnapshotError::InvalidQuantization {
            reason: format!("max_error {max_error} is not finite and positive"),
        });
    }
    let m = store.len();
    let n = store.total_points();
    if let Some(k) = kept {
        assert_eq!(
            k.len(),
            n,
            "kept bitmap covers {} points, store has {n}",
            k.len()
        );
    }
    let (qx, zx) = quantize_column(store.xs(), max_error, "xs")?;
    let (qy, zy) = quantize_column(store.ys(), max_error, "ys")?;
    let (qt, zt) = quantize_column(store.ts(), max_error, "ts")?;
    let quant = QuantMeta {
        max_error,
        cols: [qx, qy, qt],
    };
    let layout = Layout::plan_quantized(m, n, kept.is_some(), quant);
    let mut buf = vec![0u8; layout.file_len()];
    buf[..HEADER_LEN].copy_from_slice(&header(&layout));

    put_f64(&mut buf, HEADER_LEN, max_error);
    for (i, col) in quant.cols.iter().enumerate() {
        let base = HEADER_LEN + 8 + i * 24;
        put_f64(&mut buf, base, col.min);
        put_f64(&mut buf, base + 8, col.step);
        put_u64(&mut buf, base + 16, col.width as u64);
    }

    write_quantized(
        &mut buf[layout.xs_off..layout.xs_off + n * qx.width],
        &zx,
        qx.width,
    );
    write_quantized(
        &mut buf[layout.ys_off..layout.ys_off + n * qy.width],
        &zy,
        qy.width,
    );
    write_quantized(
        &mut buf[layout.ts_off..layout.ts_off + n * qt.width],
        &zt,
        qt.width,
    );
    copy_u32s_le(
        &mut buf[layout.offsets_off..layout.offsets_off + (m + 1) * 4],
        store.offsets(),
    );
    if let (Some(off), Some(k)) = (layout.kept_off, kept) {
        copy_u64s_le(&mut buf[off..off + layout.kept_words * 8], k.words());
    }

    let sum = xxh64(&buf[..layout.checksum_off]);
    put_u64(&mut buf, layout.checksum_off, sum);
    Ok(buf)
}

/// Writes `store` as a **quantized** snapshot file at `path` — the
/// compressed sibling of [`write_snapshot_with`]. Both load paths
/// ([`read_snapshot`] and [`MappedStore::open`]) decode it back to
/// plain `f64` columns transparently, each coordinate within
/// `max_error` of its original value.
pub fn write_snapshot_quantized<S, P>(
    store: &S,
    kept: Option<&KeptBitmap>,
    max_error: f64,
    path: P,
) -> Result<(), SnapshotError>
where
    S: AsColumns + ?Sized,
    P: AsRef<Path>,
{
    let bytes = quantized_snapshot_bytes(store, kept, max_error)?;
    std::fs::write(path, bytes)?;
    Ok(())
}

// ---------------------------------------------------------------------
// Owned reading.
// ---------------------------------------------------------------------

/// Quantization facts of a snapshot load: present when the file stored
/// quantized columns, reporting the error bound the decoded coordinates
/// honor and the per-column delta widths the encoder chose.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantInfo {
    /// Every decoded coordinate is within this distance of the value the
    /// snapshot was written from (per axis).
    pub max_error: f64,
    /// Bytes per stored delta for xs, ys, ts (each 1, 2, 4, or 8).
    pub widths: [u8; 3],
}

/// An owned, heap-backed snapshot load: the store plus the kept bitmap
/// when the file carries one.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// The reconstructed columnar database.
    pub store: PointStore,
    /// The kept-point bitmap, for files written by
    /// [`write_snapshot_with`].
    pub kept: Option<KeptBitmap>,
    /// Quantization parameters, for files written by
    /// [`write_snapshot_quantized`]; `None` for raw snapshots.
    pub quant: Option<QuantInfo>,
}

/// Decodes a validated byte image into owned columns.
fn decode(bytes: &[u8], layout: &Layout) -> Snapshot {
    let n = layout.point_count;
    let m = layout.traj_count;
    let (xs, ys, ts) = match &layout.quant {
        Some(q) => (
            dequantize_column(
                &bytes[layout.xs_off..layout.xs_off + n * q.cols[0].width],
                n,
                &q.cols[0],
            ),
            dequantize_column(
                &bytes[layout.ys_off..layout.ys_off + n * q.cols[1].width],
                n,
                &q.cols[1],
            ),
            dequantize_column(
                &bytes[layout.ts_off..layout.ts_off + n * q.cols[2].width],
                n,
                &q.cols[2],
            ),
        ),
        None => (
            read_f64s_le(&bytes[layout.xs_off..layout.xs_off + n * 8]),
            read_f64s_le(&bytes[layout.ys_off..layout.ys_off + n * 8]),
            read_f64s_le(&bytes[layout.ts_off..layout.ts_off + n * 8]),
        ),
    };
    let offsets = read_u32s_le(&bytes[layout.offsets_off..layout.offsets_off + (m + 1) * 4]);
    let kept = layout.kept_off.map(|off| {
        KeptBitmap::from_words(read_u64s_le(&bytes[off..off + layout.kept_words * 8]), n)
    });
    Snapshot {
        store: PointStore::from_raw_columns(xs, ys, ts, offsets),
        kept,
        quant: layout.quant.map(|q| QuantInfo {
            max_error: q.max_error,
            widths: [
                q.cols[0].width as u8,
                q.cols[1].width as u8,
                q.cols[2].width as u8,
            ],
        }),
    }
}

/// Reads a snapshot file into owned memory, validating magic, version,
/// section geometry, checksum, and offset-table invariants. Use
/// [`MappedStore::open`] instead when the file should be served in place.
pub fn read_snapshot<P: AsRef<Path>>(path: P) -> Result<Snapshot, SnapshotError> {
    let bytes = std::fs::read(path)?;
    let layout = validate(&bytes)?;
    Ok(decode(&bytes, &layout))
}

/// [`read_snapshot`] over an in-memory byte image (the writer's
/// round-trip twin; useful for tests and network transports).
pub fn read_snapshot_bytes(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
    let layout = validate(bytes)?;
    Ok(decode(bytes, &layout))
}

/// True when the file at `path` starts with the snapshot [`MAGIC`] — the
/// cheap format sniff database-open auto-detection uses to distinguish a
/// snapshot file from a CSV before committing to a full parse. A positive
/// answer does **not** validate the file; the subsequent
/// [`read_snapshot`] / [`MappedStore::open`] still runs every check.
pub fn is_snapshot_file<P: AsRef<Path>>(path: P) -> std::io::Result<bool> {
    use std::io::Read;
    let mut head = [0u8; 8];
    let mut file = std::fs::File::open(path)?;
    match file.read_exact(&mut head) {
        Ok(()) => Ok(head == MAGIC),
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => Ok(false),
        Err(e) => Err(e),
    }
}

// ---------------------------------------------------------------------
// Zero-copy mapping.
// ---------------------------------------------------------------------

/// The bytes behind a [`MappedStore`]: a real `mmap` on unix targets, an
/// 8-byte-aligned heap copy elsewhere (same API, one extra read).
#[derive(Debug)]
enum Backing {
    #[cfg(unix)]
    Map(Mmap),
    #[allow(dead_code)] // the only variant on non-unix targets
    Heap(AlignedBytes),
}

impl Backing {
    #[inline]
    fn bytes(&self) -> &[u8] {
        match self {
            #[cfg(unix)]
            Backing::Map(m) => m.bytes(),
            Backing::Heap(h) => h.bytes(),
        }
    }
}

/// A read-only `mmap` of a whole file, unmapped on drop. Declared against
/// the raw libc symbols of [`crate::pagebuf`]'s `sys` block — this
/// workspace builds offline, so no `libc`/`memmap2` crates.
#[cfg(unix)]
#[derive(Debug)]
struct Mmap {
    ptr: *mut std::ffi::c_void,
    len: usize,
}

#[cfg(unix)]
use crate::pagebuf::sys;

#[cfg(unix)]
impl Mmap {
    fn map(file: &File, len: usize) -> Result<Self, SnapshotError> {
        use std::os::unix::io::AsRawFd;
        // SAFETY: a fresh private read-only mapping of `len` bytes over an
        // open fd; the pointer is checked against MAP_FAILED before use.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr == sys::MAP_FAILED {
            return Err(SnapshotError::Io(io::Error::last_os_error()));
        }
        Ok(Self { ptr, len })
    }

    #[inline]
    fn bytes(&self) -> &[u8] {
        // SAFETY: the mapping is valid for `len` bytes for the lifetime of
        // `self` (munmap happens only in Drop), and PROT_READ makes it
        // immutable through this pointer.
        unsafe { std::slice::from_raw_parts(self.ptr.cast::<u8>(), self.len) }
    }
}

#[cfg(unix)]
impl Drop for Mmap {
    fn drop(&mut self) {
        // SAFETY: `ptr`/`len` came from a successful mmap and are
        // unmapped exactly once.
        unsafe {
            sys::munmap(self.ptr, self.len);
        }
    }
}

// SAFETY: the mapping is read-only (PROT_READ, private) for its whole
// lifetime; shared references to immutable memory are Send + Sync. The
// usual mmap caveat applies and is documented on `MappedStore`: external
// truncation of the underlying file turns reads into SIGBUS, as with any
// memory-mapped I/O.
#[cfg(unix)]
unsafe impl Send for Mmap {}
#[cfg(unix)]
unsafe impl Sync for Mmap {}

/// A heap buffer guaranteed 8-byte aligned (backed by `Vec<u64>`), so the
/// same zero-copy column casts work where `mmap` is unavailable.
#[derive(Debug)]
struct AlignedBytes {
    words: Vec<u64>,
    len: usize,
}

impl AlignedBytes {
    #[cfg(not(unix))]
    fn from_file(file: &mut File, len: usize) -> Result<Self, SnapshotError> {
        let mut words = vec![0u64; len.div_ceil(8)];
        // SAFETY: the Vec<u64> allocation is valid for words.len() * 8
        // bytes and u64 has no invalid bit patterns, so filling it through
        // a &mut [u8] view is sound.
        let buf = unsafe {
            std::slice::from_raw_parts_mut(words.as_mut_ptr().cast::<u8>(), words.len() * 8)
        };
        file.read_exact(&mut buf[..len])?;
        Ok(Self { words, len })
    }

    #[inline]
    fn bytes(&self) -> &[u8] {
        // SAFETY: the Vec<u64> allocation is valid for at least `len`
        // bytes (len <= words.len() * 8 by construction).
        unsafe { std::slice::from_raw_parts(self.words.as_ptr().cast::<u8>(), self.len) }
    }
}

/// A [`PointStore`]-shaped database whose columns live in a **read-only
/// file mapping** instead of the heap. Opening copies and decodes
/// nothing; the one full-file pass is the mandatory checksum
/// verification (a sequential read at memory bandwidth — at the 349k-
/// point bench scale the whole open is ~25x faster than a CSV parse),
/// after which pages are faulted in as queries touch them.
///
/// `MappedStore` implements [`AsColumns`], so everything generic over
/// columns — `TrajView`s, octree/kd-tree construction, the whole
/// `QueryEngine` — runs over it unchanged, and a simplified database
/// written with [`write_snapshot_with`] serves queries with zero
/// deserialization. [`StoreRef`](crate::store::StoreRef) is the
/// non-generic handle for code that must own "either kind of store".
///
/// On non-unix targets the "mapping" degrades to one aligned heap read of
/// the file; the API and validation are identical. On big-endian targets
/// the columns are decoded (the format is little-endian), again behind
/// the same API.
///
/// # File stability
/// As with all memory-mapped I/O, the file must not be truncated while
/// the store is open — the OS would deliver `SIGBUS` on a fault into the
/// removed range. Writing snapshots to a temp path and `rename(2)`-ing
/// them into place (what [`write_snapshot`] callers should do for live
/// republishing) avoids the hazard.
#[derive(Debug)]
pub struct MappedStore {
    backing: Backing,
    xs_off: usize,
    ys_off: usize,
    ts_off: usize,
    offsets_off: usize,
    kept_off: Option<usize>,
    kept_words: usize,
    traj_count: usize,
    point_count: usize,
}

impl MappedStore {
    /// Opens and validates a snapshot file, backing the columns by a
    /// read-only mapping. All of [`read_snapshot`]'s rejection cases
    /// apply (bad magic, version mismatch, truncation, section bounds,
    /// checksum, offset invariants) — corruption is caught here, once,
    /// not during query execution.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, SnapshotError> {
        let file = File::open(path)?;
        let file_len = file.metadata()?.len();
        if file_len < (HEADER_LEN + 8) as u64 {
            return Err(SnapshotError::Truncated {
                len: file_len,
                needed: (HEADER_LEN + 8) as u64,
            });
        }
        let len = usize::try_from(file_len).map_err(|_| SnapshotError::TooLarge {
            points: file_len / 24,
        })?;

        #[cfg(unix)]
        let backing = Backing::Map(Mmap::map(&file, len)?);
        #[cfg(not(unix))]
        let backing = {
            let mut file = file;
            Backing::Heap(AlignedBytes::from_file(&mut file, len)?)
        };

        let layout = validate(backing.bytes())?;

        if layout.quant.is_some() || cfg!(target_endian = "big") {
            // Quantized files (and any file on a big-endian host) cannot
            // be served in place: decode once into a native-order aligned
            // heap image with the canonical *raw* section layout, so the
            // zero-copy accessors stay correct and every caller sees
            // plain f64 columns regardless of the on-disk codec.
            let snap = decode(backing.bytes(), &layout);
            let raw = Layout::plan(
                layout.traj_count,
                layout.point_count,
                layout.kept_off.is_some(),
            );
            let native = snapshot_bytes_native(&snap.store, snap.kept.as_ref(), &raw);
            return Ok(Self::from_parts(Backing::Heap(native), &raw));
        }
        Ok(Self::from_parts(backing, &layout))
    }

    fn from_parts(backing: Backing, layout: &Layout) -> Self {
        Self {
            backing,
            xs_off: layout.xs_off,
            ys_off: layout.ys_off,
            ts_off: layout.ts_off,
            offsets_off: layout.offsets_off,
            kept_off: layout.kept_off,
            kept_words: layout.kept_words,
            traj_count: layout.traj_count,
            point_count: layout.point_count,
        }
    }

    /// Casts the mapped byte range at `off` into a typed column slice.
    #[inline]
    fn typed<T>(&self, off: usize, count: usize) -> &[T] {
        let bytes = &self.backing.bytes()[off..off + count * std::mem::size_of::<T>()];
        debug_assert_eq!(bytes.as_ptr() as usize % std::mem::align_of::<T>(), 0);
        // SAFETY: `validate` proved the range lies inside the file and
        // starts 64-byte aligned; the mapping base is page aligned (and
        // the heap fallback 8-byte aligned), so the cast pointer is
        // aligned for T ∈ {f64, u32, u64}, all of which accept any bit
        // pattern. The slice borrows `self`, which owns the mapping.
        unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<T>(), count) }
    }

    /// The x column, served from the mapping.
    #[inline]
    #[must_use]
    pub fn xs(&self) -> &[f64] {
        self.typed(self.xs_off, self.point_count)
    }

    /// The y column, served from the mapping.
    #[inline]
    #[must_use]
    pub fn ys(&self) -> &[f64] {
        self.typed(self.ys_off, self.point_count)
    }

    /// The t column, served from the mapping.
    #[inline]
    #[must_use]
    pub fn ts(&self) -> &[f64] {
        self.typed(self.ts_off, self.point_count)
    }

    /// The offset table, served from the mapping.
    #[inline]
    #[must_use]
    pub fn offsets(&self) -> &[u32] {
        self.typed(self.offsets_off, self.traj_count + 1)
    }

    /// The kept-bitmap words, served from the mapping — `None` when the
    /// snapshot was written without one.
    #[must_use]
    pub fn kept_words(&self) -> Option<&[u64]> {
        self.kept_off.map(|off| self.typed(off, self.kept_words))
    }

    /// An owned [`KeptBitmap`] copy of the kept section, for APIs that
    /// need one (`QueryExecutor::range_kept`). O(N/64) words copied — tiny
    /// next to the columns, which stay mapped.
    #[must_use]
    pub fn kept_bitmap(&self) -> Option<KeptBitmap> {
        self.kept_words()
            .map(|w| KeptBitmap::from_words(w.to_vec(), self.point_count))
    }
}

impl AsColumns for MappedStore {
    #[inline]
    fn xs(&self) -> &[f64] {
        MappedStore::xs(self)
    }

    #[inline]
    fn ys(&self) -> &[f64] {
        MappedStore::ys(self)
    }

    #[inline]
    fn ts(&self) -> &[f64] {
        MappedStore::ts(self)
    }

    #[inline]
    fn offsets(&self) -> &[u32] {
        MappedStore::offsets(self)
    }
}

/// Re-encodes a decoded snapshot into a native-endian aligned heap image
/// with the given layout — the big-endian fallback for [`MappedStore`].
fn snapshot_bytes_native(
    store: &PointStore,
    kept: Option<&KeptBitmap>,
    layout: &Layout,
) -> AlignedBytes {
    let len = layout.file_len();
    let mut words = vec![0u64; len.div_ceil(8)];
    // SAFETY: as in `AlignedBytes::from_file` — a u64 allocation viewed
    // as bytes.
    let buf =
        unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr().cast::<u8>(), words.len() * 8) };
    let n = layout.point_count;
    let m = layout.traj_count;
    let copy_native = |dst: &mut [u8], src: *const u8, bytes: usize| {
        // SAFETY: caller passes a live slice pointer with `bytes` valid.
        dst.copy_from_slice(unsafe { std::slice::from_raw_parts(src, bytes) });
    };
    copy_native(
        &mut buf[layout.xs_off..layout.xs_off + n * 8],
        store.xs().as_ptr().cast(),
        n * 8,
    );
    copy_native(
        &mut buf[layout.ys_off..layout.ys_off + n * 8],
        store.ys().as_ptr().cast(),
        n * 8,
    );
    copy_native(
        &mut buf[layout.ts_off..layout.ts_off + n * 8],
        store.ts().as_ptr().cast(),
        n * 8,
    );
    copy_native(
        &mut buf[layout.offsets_off..layout.offsets_off + (m + 1) * 4],
        store.offsets().as_ptr().cast(),
        (m + 1) * 4,
    );
    if let (Some(off), Some(k)) = (layout.kept_off, kept) {
        copy_native(
            &mut buf[off..off + layout.kept_words * 8],
            k.words().as_ptr().cast(),
            layout.kept_words * 8,
        );
    }
    AlignedBytes { words, len }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Simplification;
    use crate::gen::{generate, DatasetSpec, Scale};

    fn sample_store() -> PointStore {
        generate(&DatasetSpec::geolife(Scale::Smoke), 99).to_store()
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("qdts_snapshot_tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name)
    }

    #[test]
    fn owned_round_trip_is_identity() {
        let store = sample_store();
        let path = temp_path("owned_round_trip.snap");
        write_snapshot(&store, &path).unwrap();
        let snap = read_snapshot(&path).unwrap();
        assert_eq!(snap.store, store);
        assert_eq!(snap.kept, None);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mapped_round_trip_matches_columns_and_views() {
        let store = sample_store();
        let path = temp_path("mapped_round_trip.snap");
        write_snapshot(&store, &path).unwrap();
        let mapped = MappedStore::open(&path).unwrap();
        assert_eq!(mapped.xs(), store.xs());
        assert_eq!(mapped.ys(), store.ys());
        assert_eq!(mapped.ts(), store.ts());
        assert_eq!(mapped.offsets(), store.offsets());
        assert_eq!(AsColumns::len(&mapped), store.len());
        assert_eq!(AsColumns::total_points(&mapped), store.total_points());
        for id in 0..store.len() {
            let (a, b) = (AsColumns::view(&mapped, id), store.view(id));
            assert_eq!(a.xs, b.xs);
            assert_eq!(a.ys, b.ys);
            assert_eq!(a.ts, b.ts);
        }
        assert_eq!(mapped.kept_words(), None);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn kept_bitmap_round_trips() {
        let store = sample_store();
        let mut simp = Simplification::most_simplified_store(&store);
        for (id, t) in store.iter() {
            for idx in (0..t.len() as u32).step_by(4) {
                simp.insert(id, idx);
            }
        }
        let bitmap = simp.to_bitmap(&store);
        let path = temp_path("kept_round_trip.snap");
        write_snapshot_with(&store, Some(&bitmap), &path).unwrap();

        let snap = read_snapshot(&path).unwrap();
        assert_eq!(snap.kept.as_ref(), Some(&bitmap));

        let mapped = MappedStore::open(&path).unwrap();
        assert_eq!(mapped.kept_bitmap().as_ref(), Some(&bitmap));
        assert_eq!(mapped.kept_words(), Some(bitmap.words()));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_store_round_trips() {
        let store = PointStore::new();
        let bytes = snapshot_bytes(&store, None);
        let snap = read_snapshot_bytes(&bytes).unwrap();
        assert_eq!(snap.store, store);

        let path = temp_path("empty.snap");
        write_snapshot(&store, &path).unwrap();
        let mapped = MappedStore::open(&path).unwrap();
        assert_eq!(AsColumns::len(&mapped), 0);
        assert_eq!(AsColumns::total_points(&mapped), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sections_are_aligned_and_header_is_exact() {
        let store = sample_store();
        let bytes = snapshot_bytes(&store, None);
        assert_eq!(&bytes[0..8], &MAGIC);
        assert_eq!(get_u32(&bytes, 8), VERSION);
        assert_eq!(get_u32(&bytes, 12), 0);
        assert_eq!(get_u64(&bytes, 16), store.len() as u64);
        assert_eq!(get_u64(&bytes, 24), store.total_points() as u64);
        for field in [32, 40, 48, 56] {
            assert_eq!(get_u64(&bytes, field) % SECTION_ALIGN as u64, 0);
        }
        assert_eq!(get_u64(&bytes, 32), HEADER_LEN as u64);
        // Reserved region stays zero.
        assert!(bytes[80..128].iter().all(|&b| b == 0));
        // Trailing checksum self-verifies.
        let sum_off = get_u64(&bytes, 72) as usize;
        assert_eq!(get_u64(&bytes, sum_off), xxh64(&bytes[..sum_off]));
        assert_eq!(bytes.len(), sum_off + 8);
    }

    #[test]
    fn rejects_bad_magic() {
        let store = sample_store();
        let mut bytes = snapshot_bytes(&store, None);
        bytes[0] = b'X';
        assert!(matches!(
            read_snapshot_bytes(&bytes),
            Err(SnapshotError::BadMagic { .. })
        ));
    }

    #[test]
    fn rejects_future_version() {
        let store = sample_store();
        let mut bytes = snapshot_bytes(&store, None);
        put_u32(&mut bytes, 8, VERSION + 1);
        assert!(matches!(
            read_snapshot_bytes(&bytes),
            Err(SnapshotError::UnsupportedVersion { found, supported })
                if found == VERSION + 1 && supported == VERSION
        ));
    }

    #[test]
    fn rejects_unknown_flags() {
        let store = sample_store();
        let mut bytes = snapshot_bytes(&store, None);
        put_u32(&mut bytes, 12, 0x80);
        assert!(matches!(
            read_snapshot_bytes(&bytes),
            Err(SnapshotError::UnknownFlags { flags: 0x80 })
        ));
    }

    #[test]
    fn rejects_truncation_at_every_boundary() {
        let store = sample_store();
        let bytes = snapshot_bytes(&store, None);
        for cut in [0, 7, HEADER_LEN - 1, HEADER_LEN + 8, bytes.len() - 1] {
            let err = read_snapshot_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated { .. } | SnapshotError::SectionOutOfBounds { .. }
                ),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn rejects_out_of_bounds_section() {
        let store = sample_store();
        let mut bytes = snapshot_bytes(&store, None);
        let huge = (bytes.len() as u64) * 2;
        put_u64(&mut bytes, 48, huge); // ts offset past EOF
        assert!(matches!(
            read_snapshot_bytes(&bytes),
            Err(SnapshotError::SectionOutOfBounds { section: "ts", .. })
        ));
    }

    #[test]
    fn rejects_flipped_payload_bits() {
        let store = sample_store();
        let mut bytes = snapshot_bytes(&store, None);
        let mid = HEADER_LEN + (bytes.len() - HEADER_LEN) / 2;
        bytes[mid] ^= 0x40;
        assert!(matches!(
            read_snapshot_bytes(&bytes),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn rejects_invalid_offset_table() {
        // Hand-build a store whose offsets we then corrupt (fixing up the
        // checksum so only the offset invariant can fail).
        let store = sample_store();
        let mut bytes = snapshot_bytes(&store, None);
        let offsets_off = get_u64(&bytes, 56) as usize;
        // offsets[1] := offsets[2] + 1 breaks monotonicity for any store
        // with at least 2 trajectories.
        let o2 = get_u32(&bytes, offsets_off + 8);
        put_u32(&mut bytes, offsets_off + 4, o2 + 1);
        let sum_off = get_u64(&bytes, 72) as usize;
        let sum = xxh64(&bytes[..sum_off]);
        put_u64(&mut bytes, sum_off, sum);
        assert!(matches!(
            read_snapshot_bytes(&bytes),
            Err(SnapshotError::InvalidOffsets { .. })
        ));
    }

    #[test]
    fn rejects_empty_trajectories_in_offset_table() {
        // No store API can produce a zero-length trajectory, so a file
        // claiming one is corrupt — and must not reach kNN windowing
        // (first()/last() on an empty view) or bitmap anchoring.
        let store = sample_store();
        let mut bytes = snapshot_bytes(&store, None);
        let offsets_off = get_u64(&bytes, 56) as usize;
        // offsets[1] := offsets[0] (= 0) empties trajectory 0 while
        // keeping the table monotone.
        put_u32(&mut bytes, offsets_off + 4, 0);
        let sum_off = get_u64(&bytes, 72) as usize;
        let sum = xxh64(&bytes[..sum_off]);
        put_u64(&mut bytes, sum_off, sum);
        assert!(matches!(
            read_snapshot_bytes(&bytes),
            Err(SnapshotError::InvalidOffsets { .. })
        ));
    }

    #[test]
    fn rejects_kept_bitmap_tail_bits_without_panicking() {
        // A checksum-valid file whose kept bitmap sets a bit past N must
        // come back as a typed error from BOTH load paths — never the
        // KeptBitmap::from_words panic.
        let store = sample_store();
        let n = store.total_points();
        assert_ne!(n % 64, 0, "sample store must leave tail padding bits");
        let kept = KeptBitmap::zeros(n);
        let mut bytes = snapshot_bytes(&store, Some(&kept));
        let kept_off = get_u64(&bytes, 64) as usize;
        let words = n.div_ceil(64);
        let last_off = kept_off + (words - 1) * 8;
        put_u64(&mut bytes, last_off, 1u64 << 63); // bit 63 of last word > n
        let sum_off = get_u64(&bytes, 72) as usize;
        let sum = xxh64(&bytes[..sum_off]);
        put_u64(&mut bytes, sum_off, sum);

        assert!(matches!(
            read_snapshot_bytes(&bytes),
            Err(SnapshotError::InvalidKeptBitmap { .. })
        ));
        let path = temp_path("tail_bits.snap");
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            MappedStore::open(&path),
            Err(SnapshotError::InvalidKeptBitmap { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mapped_open_rejects_corrupt_files_with_typed_errors() {
        let store = sample_store();
        let ok = snapshot_bytes(&store, None);

        let cases: Vec<(&str, Vec<u8>)> = vec![
            ("empty", Vec::new()),
            ("short", ok[..64].to_vec()),
            ("bad_magic", {
                let mut b = ok.clone();
                b[3] = 0;
                b
            }),
            ("bit_rot", {
                let mut b = ok.clone();
                let last = b.len() - 9; // inside checksummed range
                b[last] ^= 1;
                b
            }),
        ];
        for (name, data) in cases {
            let path = temp_path(&format!("corrupt_{name}.snap"));
            std::fs::write(&path, &data).unwrap();
            let err = MappedStore::open(&path).unwrap_err();
            assert!(
                !matches!(err, SnapshotError::Io(_)),
                "{name}: expected typed rejection, got {err}"
            );
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn store_ref_serves_all_four_backends_identically() {
        use crate::store::StoreRef;
        let store = sample_store();
        let path = temp_path("store_ref.snap");
        write_snapshot(&store, &path).unwrap();
        let mapped = MappedStore::open(&path).unwrap();
        let mapped2 = MappedStore::open(&path).unwrap();
        let refs = [
            StoreRef::Owned(store.clone()),
            StoreRef::Borrowed(&store),
            StoreRef::Mapped(mapped),
            StoreRef::MappedRef(&mapped2),
        ];
        for r in &refs {
            assert_eq!(r.xs(), store.xs());
            assert_eq!(r.offsets(), store.offsets());
            assert_eq!(r.bounding_cube(), PointStore::bounding_cube(&store));
        }
        assert!(refs[0].as_point_store().is_some());
        assert!(refs[2].as_mapped().is_some());
        assert!(refs[2].as_point_store().is_none());
        std::fs::remove_file(&path).ok();
    }

    /// Max per-axis deviation between two stores' columns.
    fn max_axis_error(a: &PointStore, b: &PointStore) -> f64 {
        let pairs = a
            .xs()
            .iter()
            .zip(b.xs())
            .chain(a.ys().iter().zip(b.ys()))
            .chain(a.ts().iter().zip(b.ts()));
        pairs.map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
    }

    #[test]
    fn quantized_round_trip_is_within_bound() {
        let store = sample_store();
        let max_error = 1e-3;
        let raw = snapshot_bytes(&store, None);
        let q = quantized_snapshot_bytes(&store, None, max_error).unwrap();
        assert!(q.len() < raw.len());

        let snap = read_snapshot_bytes(&q).unwrap();
        assert_eq!(snap.store.offsets(), store.offsets());
        assert_eq!(snap.kept, None);
        let info = snap.quant.expect("quantized load reports QuantInfo");
        assert_eq!(info.max_error, max_error);
        assert!(info.widths.iter().all(|w| matches!(w, 1 | 2 | 4 | 8)));
        let err = max_axis_error(&snap.store, &store);
        assert!(
            err <= max_error * 1.000_001,
            "decoded error {err} exceeds bound {max_error}"
        );
    }

    #[test]
    fn quantized_snapshot_is_measurably_smaller_at_meter_bound() {
        // Half-meter accuracy (GPS noise scale) narrows the coordinate
        // deltas below the raw 8-byte lanes by a wide margin.
        let store = sample_store();
        let raw = snapshot_bytes(&store, None);
        let q = quantized_snapshot_bytes(&store, None, 0.5).unwrap();
        assert!(
            q.len() * 2 < raw.len(),
            "quantized {} bytes vs raw {} — expected at least 2x smaller",
            q.len(),
            raw.len()
        );
        let snap = read_snapshot_bytes(&q).unwrap();
        assert!(max_axis_error(&snap.store, &store) <= 0.5 * 1.000_001);
    }

    #[test]
    fn quantized_decode_preserves_time_order() {
        let store = sample_store();
        let q = quantized_snapshot_bytes(&store, None, 0.5).unwrap();
        let snap = read_snapshot_bytes(&q).unwrap();
        for id in 0..snap.store.len() {
            let ts = snap.store.view(id).ts;
            assert!(
                ts.windows(2).all(|w| w[0] <= w[1]),
                "trajectory {id} decoded out of time order"
            );
        }
    }

    #[test]
    fn quantized_mapped_open_decodes_transparently() {
        let store = sample_store();
        let mut simp = Simplification::most_simplified_store(&store);
        for (id, t) in store.iter() {
            for idx in (0..t.len() as u32).step_by(3) {
                simp.insert(id, idx);
            }
        }
        let bitmap = simp.to_bitmap(&store);
        let path = temp_path("quantized_mapped.snap");
        write_snapshot_quantized(&store, Some(&bitmap), 1e-3, &path).unwrap();

        let snap = read_snapshot(&path).unwrap();
        let mapped = MappedStore::open(&path).unwrap();
        // The mapped view serves the same decoded columns as the owned
        // load — downstream consumers never see the codec.
        assert_eq!(mapped.xs(), snap.store.xs());
        assert_eq!(mapped.ys(), snap.store.ys());
        assert_eq!(mapped.ts(), snap.store.ts());
        assert_eq!(mapped.offsets(), store.offsets());
        assert_eq!(mapped.kept_bitmap().as_ref(), Some(&bitmap));
        assert!(max_axis_error(&snap.store, &store) <= 1e-3 * 1.000_001);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn quantized_empty_store_round_trips() {
        let store = PointStore::new();
        let q = quantized_snapshot_bytes(&store, None, 1.0).unwrap();
        let snap = read_snapshot_bytes(&q).unwrap();
        assert_eq!(snap.store, store);
        assert!(snap.quant.is_some());
    }

    #[test]
    fn quantized_rejects_bad_bounds_and_nonfinite_input() {
        let store = sample_store();
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                quantized_snapshot_bytes(&store, None, bad),
                Err(SnapshotError::InvalidQuantization { .. })
            ));
        }
        let nan_store = PointStore::from_raw_columns(
            vec![0.0, f64::NAN],
            vec![0.0, 1.0],
            vec![0.0, 1.0],
            vec![0, 2],
        );
        assert!(matches!(
            quantized_snapshot_bytes(&nan_store, None, 0.1),
            Err(SnapshotError::InvalidQuantization { .. })
        ));
        // A range needing more than 2^51 grid steps at the bound.
        let wide = PointStore::from_raw_columns(
            vec![0.0, 1e18],
            vec![0.0, 1.0],
            vec![0.0, 1.0],
            vec![0, 2],
        );
        assert!(matches!(
            quantized_snapshot_bytes(&wide, None, 1e-6),
            Err(SnapshotError::InvalidQuantization { .. })
        ));
    }

    #[test]
    fn quantized_header_carries_flag_and_qmeta_offset() {
        let store = sample_store();
        let bytes = quantized_snapshot_bytes(&store, None, 1e-3).unwrap();
        assert_eq!(get_u32(&bytes, 12) & FLAG_QUANTIZED, FLAG_QUANTIZED);
        assert_eq!(get_u64(&bytes, 80), HEADER_LEN as u64);
        // Remaining reserved region stays zero.
        assert!(bytes[88..128].iter().all(|&b| b == 0));
        // Stored max_error opens the qmeta section.
        assert_eq!(get_f64(&bytes, HEADER_LEN), 1e-3);
    }

    #[test]
    fn quantized_corruption_is_rejected_with_typed_errors() {
        let store = sample_store();
        let good = quantized_snapshot_bytes(&store, None, 1e-3).unwrap();

        // Bit rot in the delta stream.
        let mut rot = good.clone();
        let mid = 256 + (good.len() - 256) / 2;
        rot[mid] ^= 0x10;
        assert!(matches!(
            read_snapshot_bytes(&rot),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));

        // Truncation.
        assert!(matches!(
            read_snapshot_bytes(&good[..good.len() - 1]),
            Err(SnapshotError::Truncated { .. } | SnapshotError::SectionOutOfBounds { .. })
        ));

        // A width outside {1, 2, 4, 8} with a fixed-up checksum.
        let mut bad_width = good.clone();
        put_u64(&mut bad_width, HEADER_LEN + 8 + 16, 3);
        let sum_off = get_u64(&bad_width, 72) as usize;
        let sum = xxh64(&bad_width[..sum_off]);
        put_u64(&mut bad_width, sum_off, sum);
        assert!(matches!(
            read_snapshot_bytes(&bad_width),
            Err(SnapshotError::InvalidQuantization { .. })
                | Err(SnapshotError::SectionOutOfBounds { .. })
        ));
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn xxh64_matches_reference_vectors() {
        // Published XXH64 (seed 0) test vectors; the last one is 39 bytes,
        // so it runs the 32-byte lane loop, then the 4-byte and the
        // single-byte tails.
        assert_eq!(xxh64(b""), 0xef46_db37_51d8_e999);
        assert_eq!(xxh64(b"a"), 0xd24e_c4f1_a98c_6e5b);
        assert_eq!(xxh64(b"abc"), 0x44bc_2cf5_ad77_0999);
        assert_eq!(
            xxh64(b"Nobody inspects the spammish repetition"),
            0xfbce_a83c_8a37_8bf1
        );
    }
}
