//! Partitioning a database into shards, and persisting the result.
//!
//! A *shard* is an ordinary [`PointStore`] holding a subset of the
//! database's trajectories — whole trajectories, never split — together
//! with the sorted list of *global* trajectory ids its local ids map back
//! to. Because a shard is just a store, everything downstream (snapshot
//! files, mmap serving, index builds, query engines) works on it
//! unchanged; the sharding layer only adds the partitioning policy, the
//! manifest that ties a directory of snapshot files back into one
//! database, and the id translation.
//!
//! The one [`PartitionStrategy`] is **time**: equal-width ranges over
//! the database's time span, a trajectory going to the range containing
//! its start time. Each shard then covers one stretch of time, so a
//! query's time window prunes the shards it cannot touch.
//!
//! Persistence ([`ShardSet`]) writes one snapshot file per shard
//! (spec-compatible with `docs/SNAPSHOT_FORMAT.md`, including optional
//! per-shard kept bitmaps for simplified databases) plus a small text
//! manifest recording each shard's global ids. All load paths validate
//! the manifest with typed [`ShardSetError`]s — missing or duplicate
//! shard files, overlapping or non-covering trajectory ids — instead of
//! panicking, mirroring [`SnapshotError`].

use std::io::{self, Write};
use std::path::{Path, PathBuf};

use crate::bbox::Cube;
use crate::db::TrajId;
use crate::snapshot::{
    read_snapshot, write_snapshot_quantized, write_snapshot_with, MappedStore, SnapshotError,
};
use crate::store::{AsColumns, KeptBitmap, PointStore};

/// First line of every shard-set manifest.
pub const MANIFEST_MAGIC: &str = "QDTSHARDSET v1";

/// File name of the manifest inside a shard-set directory.
pub const MANIFEST_FILE: &str = "shardset.manifest";

// ---------------------------------------------------------------------
// Partitioning.
// ---------------------------------------------------------------------

/// How a database is split into shards. The strategy assigns each
/// trajectory to exactly one shard (trajectories are never split across
/// shards — a split trajectory would break kNN windowing and kept-bitmap
/// anchoring).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionStrategy {
    /// `parts` equal-width temporal ranges over the store's time span;
    /// assignment by the trajectory's start time.
    Time {
        /// Number of temporal ranges.
        parts: usize,
    },
}

/// One shard of a partitioned database: a self-contained [`PointStore`]
/// plus the mapping from shard-local trajectory ids back to global ones.
#[derive(Debug, Clone, PartialEq)]
pub struct Shard {
    /// The shard's trajectories, re-packed as a dense store (local ids
    /// `0..store.len()`).
    pub store: PointStore,
    /// `global_ids[local]` = the trajectory's id in the unsharded
    /// database. Strictly ascending, so local id order equals global id
    /// order within a shard.
    pub global_ids: Vec<TrajId>,
}

impl Shard {
    /// Smallest cube covering the shard's points — the bound the fan-out
    /// router prunes with.
    #[must_use]
    pub fn bounds(&self) -> Cube {
        self.store.bounding_cube()
    }
}

/// A shard of [`partition`] as an open shard served from memory: its
/// store and ids, and no kept bitmap.
impl From<Shard> for OpenShard<PointStore> {
    fn from(shard: Shard) -> Self {
        OpenShard {
            store: shard.store,
            global_ids: shard.global_ids,
            kept: None,
        }
    }
}

/// Splits `store` into shards according to `strategy`. Whole trajectories
/// stay intact; every trajectory lands in exactly one shard; shards that
/// would be empty are dropped, so every returned shard is non-empty and
/// the union of all `global_ids` is exactly `0..store.len()` in order.
#[must_use]
pub fn partition(store: &PointStore, strategy: &PartitionStrategy) -> Vec<Shard> {
    if store.is_empty() {
        return Vec::new();
    }
    let PartitionStrategy::Time { parts } = *strategy;
    let parts = parts.max(1);
    let (t_min, t_max) = store.time_span();
    let mut buckets: Vec<Vec<TrajId>> = vec![Vec::new(); parts];
    for (id, view) in store.iter() {
        buckets[cell_of(view.ts[0], t_min, t_max, parts)].push(id);
    }
    buckets
        .into_iter()
        .filter(|ids| !ids.is_empty())
        .map(|ids| Shard {
            store: store.gather_trajs(&ids),
            global_ids: ids,
        })
        .collect()
}

/// Index of the cell containing `v` when `[lo, hi]` is split into `n`
/// equal cells; degenerate extents collapse to cell 0, and `v == hi`
/// clamps into the last cell.
fn cell_of(v: f64, lo: f64, hi: f64, n: usize) -> usize {
    let extent = hi - lo;
    if extent <= 0.0 || !extent.is_finite() {
        return 0;
    }
    (((v - lo) / extent * n as f64) as usize).min(n - 1)
}

// ---------------------------------------------------------------------
// Errors.
// ---------------------------------------------------------------------

/// Typed failure modes of shard-set persistence and reopening.
#[derive(Debug)]
pub enum ShardSetError {
    /// Underlying I/O failure (create, read, write).
    Io(io::Error),
    /// The manifest's first line is not [`MANIFEST_MAGIC`] or the header
    /// line is malformed.
    BadManifest {
        /// Human-readable description of what is wrong.
        reason: String,
    },
    /// A manifest line failed to parse.
    Parse {
        /// 1-based line number inside the manifest.
        line: usize,
        /// Human-readable description of the parse failure.
        reason: String,
    },
    /// The manifest references a shard file that does not exist in the
    /// shard-set directory.
    MissingShardFile {
        /// The missing file name as written in the manifest.
        file: String,
    },
    /// The manifest references the same shard file twice.
    DuplicateShardFile {
        /// The duplicated file name.
        file: String,
    },
    /// A shard's network address is not a well-formed `host:port` pair.
    MalformedShardAddr {
        /// The shard file the address was attached to.
        file: String,
        /// The offending address string.
        addr: String,
        /// What is wrong with it.
        reason: String,
    },
    /// Two shards claim the same network address (a placement map must
    /// dial a distinct endpoint per shard).
    DuplicateShardAddr {
        /// The doubly-assigned address.
        addr: String,
    },
    /// A shard's `bounds=` token is not six finite, ordered
    /// comma-separated numbers — or appears twice on one line.
    MalformedShardBounds {
        /// The shard file the bounds were attached to.
        file: String,
        /// The offending bounds string.
        bounds: String,
        /// What is wrong with it.
        reason: String,
    },
    /// Some shard lines carry `bounds=` and others do not. A routing
    /// coordinator must either prune against every shard or none — a
    /// partial set would silently disable pruning for some shards and
    /// make coverage bugs invisible.
    MissingShardBounds {
        /// A shard file with no bounds while others have them.
        file: String,
    },
    /// The manifest's `generation=` line is not a single unsigned
    /// integer — or appears more than once. The generation is the
    /// placement epoch live compaction and re-sharding bump, so a
    /// corrupt value must be a typed error, never a silent zero.
    MalformedGeneration {
        /// The offending generation string.
        value: String,
        /// What is wrong with it.
        reason: String,
    },
    /// A shard's id list is not strictly ascending (the fan-out merge
    /// relies on local order equalling global order).
    UnsortedTrajIds {
        /// The offending shard file.
        file: String,
    },
    /// Two shards both claim the same global trajectory id.
    OverlappingTrajIds {
        /// The doubly-assigned global trajectory id.
        id: TrajId,
    },
    /// The union of all shards' ids is not exactly `0..trajs` as declared
    /// by the header (a gap or out-of-range id).
    IncompleteCover {
        /// Trajectory count the header declares.
        expected: usize,
        /// Distinct in-range ids the shard lines actually cover.
        found: usize,
    },
    /// A shard snapshot holds a different number of trajectories than the
    /// manifest assigns to it.
    TrajCountMismatch {
        /// The shard file.
        file: String,
        /// Ids the manifest lists for it.
        manifest: usize,
        /// Trajectories the snapshot actually holds.
        snapshot: usize,
    },
    /// Opening a shard snapshot failed (corruption, version mismatch, …).
    Snapshot {
        /// The shard file.
        file: String,
        /// The underlying snapshot error.
        source: SnapshotError,
    },
}

impl std::fmt::Display for ShardSetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardSetError::Io(e) => write!(f, "io error: {e}"),
            ShardSetError::BadManifest { reason } => write!(f, "bad manifest: {reason}"),
            ShardSetError::Parse { line, reason } => {
                write!(f, "manifest line {line}: {reason}")
            }
            ShardSetError::MissingShardFile { file } => {
                write!(f, "manifest references missing shard file {file}")
            }
            ShardSetError::DuplicateShardFile { file } => {
                write!(f, "manifest references shard file {file} twice")
            }
            ShardSetError::MalformedShardAddr { file, addr, reason } => {
                write!(f, "shard {file}: malformed address {addr:?}: {reason}")
            }
            ShardSetError::DuplicateShardAddr { addr } => {
                write!(f, "address {addr} is assigned to more than one shard")
            }
            ShardSetError::MalformedShardBounds {
                file,
                bounds,
                reason,
            } => {
                write!(f, "shard {file}: malformed bounds {bounds:?}: {reason}")
            }
            ShardSetError::MissingShardBounds { file } => {
                write!(f, "shard {file} has no bounds= token while other shards do")
            }
            ShardSetError::MalformedGeneration { value, reason } => {
                write!(f, "malformed generation {value:?}: {reason}")
            }
            ShardSetError::UnsortedTrajIds { file } => {
                write!(f, "shard {file} lists trajectory ids out of order")
            }
            ShardSetError::OverlappingTrajIds { id } => {
                write!(f, "trajectory id {id} is assigned to more than one shard")
            }
            ShardSetError::IncompleteCover { expected, found } => {
                write!(
                    f,
                    "shards cover {found} of {expected} declared trajectories"
                )
            }
            ShardSetError::TrajCountMismatch {
                file,
                manifest,
                snapshot,
            } => write!(
                f,
                "shard {file}: manifest assigns {manifest} trajectories, snapshot holds {snapshot}"
            ),
            ShardSetError::Snapshot { file, source } => {
                write!(f, "shard {file}: {source}")
            }
        }
    }
}

impl std::error::Error for ShardSetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ShardSetError::Io(e) => Some(e),
            ShardSetError::Snapshot { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<io::Error> for ShardSetError {
    fn from(e: io::Error) -> Self {
        ShardSetError::Io(e)
    }
}

// ---------------------------------------------------------------------
// The manifest.
// ---------------------------------------------------------------------

/// One manifest entry: a shard snapshot file plus the global ids of the
/// trajectories it holds (in shard-local order, strictly ascending).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardEntry {
    /// File name of the shard snapshot, relative to the shard-set
    /// directory.
    pub file: String,
    /// Network address (`host:port`) of the process serving this shard,
    /// when the manifest doubles as a distributed placement map (the
    /// optional `addr=` manifest token). `None` for purely local sets.
    pub addr: Option<String>,
    /// Bounding cube of the shard's points as the *reopened* snapshot
    /// decodes them (the optional `bounds=` manifest token). A
    /// distributed coordinator prunes its fan-out with these, so for
    /// quantized sets they are computed from the decoded store — not the
    /// pre-quantization input — and match bitwise what the serving
    /// process reports in its handshake. `None` in pre-bounds manifests.
    pub bounds: Option<Cube>,
    /// `global_ids[local]` = global trajectory id.
    pub global_ids: Vec<TrajId>,
}

/// A reopened shard: the store (owned [`PointStore`] or zero-copy
/// [`MappedStore`]), its global id mapping, and the kept bitmap when the
/// shard snapshot was written with one (a simplified database).
#[derive(Debug)]
pub struct OpenShard<S> {
    /// The shard's columns.
    pub store: S,
    /// Shard-local → global trajectory id mapping (strictly ascending).
    pub global_ids: Vec<TrajId>,
    /// Per-shard kept-point bitmap for simplified shard sets.
    pub kept: Option<KeptBitmap>,
}

/// A sharded database on disk: a directory of per-shard snapshot files
/// plus the manifest tying them back together. [`ShardSet::write`]
/// persists a partition; [`ShardSet::load`] validates a manifest (typed
/// errors, never panics); [`ShardSet::open_owned`] /
/// [`ShardSet::open_mapped`] reopen every shard heap-backed or
/// mmap-backed respectively.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSet {
    dir: PathBuf,
    trajs: usize,
    /// Placement epoch (the optional `generation=` manifest line; 0 when
    /// absent). Bumped whenever the set's composition changes — live
    /// compaction folding a delta in, or a future re-sharding — so
    /// cached routing decisions can be invalidated by comparing epochs.
    generation: u64,
    entries: Vec<ShardEntry>,
}

impl ShardSet {
    /// Writes `shards` as one snapshot file each (no kept bitmaps) plus
    /// the manifest into `dir` (created if absent).
    pub fn write(dir: impl AsRef<Path>, shards: &[Shard]) -> Result<ShardSet, ShardSetError> {
        Self::write_impl(dir.as_ref(), shards, None, None)
    }

    /// [`ShardSet::write`] with one kept-point bitmap per shard — the
    /// persisted form of a *sharded simplified* database. Each bitmap
    /// must cover its shard's points (the snapshot writer enforces it).
    pub fn write_with(
        dir: impl AsRef<Path>,
        shards: &[Shard],
        kept: &[KeptBitmap],
    ) -> Result<ShardSet, ShardSetError> {
        assert_eq!(
            shards.len(),
            kept.len(),
            "one kept bitmap per shard required"
        );
        Self::write_impl(dir.as_ref(), shards, Some(kept), None)
    }

    /// [`ShardSet::write`] / [`ShardSet::write_with`] storing every
    /// shard snapshot **quantized** at the given error bound (see
    /// [`write_snapshot_quantized`]). The manifest is unchanged, and
    /// [`ShardSet::open_owned`] / [`ShardSet::open_mapped`] reopen the
    /// set transparently — every decoded coordinate within `max_error`
    /// of the value it was written from.
    pub fn write_quantized(
        dir: impl AsRef<Path>,
        shards: &[Shard],
        kept: Option<&[KeptBitmap]>,
        max_error: f64,
    ) -> Result<ShardSet, ShardSetError> {
        if let Some(kept) = kept {
            assert_eq!(
                shards.len(),
                kept.len(),
                "one kept bitmap per shard required"
            );
        }
        Self::write_impl(dir.as_ref(), shards, kept, Some(max_error))
    }

    fn write_impl(
        dir: &Path,
        shards: &[Shard],
        kept: Option<&[KeptBitmap]>,
        quantize: Option<f64>,
    ) -> Result<ShardSet, ShardSetError> {
        std::fs::create_dir_all(dir)?;
        let trajs: usize = shards.iter().map(|s| s.global_ids.len()).sum();
        let mut entries = Vec::with_capacity(shards.len());
        for (i, shard) in shards.iter().enumerate() {
            debug_assert_eq!(shard.store.len(), shard.global_ids.len());
            let file = format!("shard-{i:04}.snap");
            let bitmap = kept.map(|ks| &ks[i]);
            let path = dir.join(&file);
            match quantize {
                Some(max_error) => write_snapshot_quantized(&shard.store, bitmap, max_error, &path),
                None => write_snapshot_with(&shard.store, bitmap, &path),
            }
            .map_err(|source| ShardSetError::Snapshot {
                file: file.clone(),
                source,
            })?;
            // The manifest's bounds must cover the shard as a *reader*
            // will see it. Quantization shifts every coordinate within
            // the error bound, so for quantized sets the bounds come
            // from reading the snapshot back — decoding is
            // deterministic, so these match what the serving process
            // computes, bitwise.
            let bounds = match quantize {
                Some(_) => read_snapshot(&path)
                    .map_err(|source| ShardSetError::Snapshot {
                        file: file.clone(),
                        source,
                    })?
                    .store
                    .bounding_cube(),
                None => shard.bounds(),
            };
            entries.push(ShardEntry {
                file,
                addr: None,
                bounds: Some(bounds),
                global_ids: shard.global_ids.clone(),
            });
        }
        std::fs::write(
            dir.join(MANIFEST_FILE),
            render_manifest(trajs, 0, &entries)?,
        )?;
        Ok(ShardSet {
            dir: dir.to_path_buf(),
            trajs,
            generation: 0,
            entries,
        })
    }

    /// Assigns one network address (`host:port`) per shard, in shard
    /// order — turning the manifest into the placement map a
    /// distributed coordinator dials. Addresses must be well-formed and
    /// pairwise distinct (typed errors otherwise); nothing is assigned
    /// on failure. Persist with [`ShardSet::save_manifest`].
    ///
    /// # Panics
    /// Panics when `addrs.len() != self.len()`.
    pub fn set_addrs<S: AsRef<str>>(&mut self, addrs: &[S]) -> Result<(), ShardSetError> {
        assert_eq!(
            addrs.len(),
            self.entries.len(),
            "one address per shard required"
        );
        for (e, addr) in self.entries.iter().zip(addrs) {
            let addr = addr.as_ref();
            if let Err(reason) = validate_addr(addr) {
                return Err(ShardSetError::MalformedShardAddr {
                    file: e.file.clone(),
                    addr: addr.to_string(),
                    reason,
                });
            }
        }
        for (i, addr) in addrs.iter().enumerate() {
            if addrs[..i].iter().any(|prev| prev.as_ref() == addr.as_ref()) {
                return Err(ShardSetError::DuplicateShardAddr {
                    addr: addr.as_ref().to_string(),
                });
            }
        }
        for (e, addr) in self.entries.iter_mut().zip(addrs) {
            e.addr = Some(addr.as_ref().to_string());
        }
        Ok(())
    }

    /// Rewrites the manifest in the set's directory, persisting address
    /// assignments made since the set was written or loaded. Shard
    /// snapshot files are untouched.
    pub fn save_manifest(&self) -> Result<(), ShardSetError> {
        std::fs::write(
            self.dir.join(MANIFEST_FILE),
            render_manifest(self.trajs, self.generation, &self.entries)?,
        )?;
        Ok(())
    }

    /// Parses and validates the manifest in `dir`. Rejects — with typed
    /// errors — manifests referencing missing or duplicate shard files,
    /// shards with overlapping or unsorted trajectory ids, and id sets
    /// that do not cover exactly `0..trajs`. Shard snapshots themselves
    /// are opened (and further validated) by [`ShardSet::open_owned`] /
    /// [`ShardSet::open_mapped`].
    pub fn load(dir: impl AsRef<Path>) -> Result<ShardSet, ShardSetError> {
        let dir = dir.as_ref();
        let text = std::fs::read_to_string(dir.join(MANIFEST_FILE))?;
        let mut lines = text.lines().enumerate();

        let (_, magic) = lines.next().ok_or_else(|| ShardSetError::BadManifest {
            reason: "empty manifest".into(),
        })?;
        if magic.trim_end() != MANIFEST_MAGIC {
            return Err(ShardSetError::BadManifest {
                reason: format!("first line {magic:?} is not {MANIFEST_MAGIC:?}"),
            });
        }
        let (_, header) = lines.next().ok_or_else(|| ShardSetError::BadManifest {
            reason: "missing header line".into(),
        })?;
        let header_fields: Vec<&str> = header.split_whitespace().collect();
        let (shard_count, trajs) = match header_fields.as_slice() {
            ["shards", s, "trajs", m] => match (s.parse::<usize>(), m.parse::<usize>()) {
                (Ok(s), Ok(m)) => (s, m),
                _ => {
                    return Err(ShardSetError::BadManifest {
                        reason: format!("unparseable header counts in {header:?}"),
                    })
                }
            },
            _ => {
                return Err(ShardSetError::BadManifest {
                    reason: format!("malformed header line {header:?}"),
                })
            }
        };

        // Counts from the header are still untrusted here: nothing is
        // allocated from them until they have been cross-checked against
        // what the manifest actually contains, so a corrupt header cannot
        // trigger a huge allocation (it must fail with a typed error).
        let mut entries = Vec::new();
        let mut generation: Option<u64> = None;
        for (lineno, line) in lines {
            if line.trim().is_empty() {
                continue;
            }
            let mut fields = line.split_whitespace();
            match fields.next() {
                Some("shard") => {}
                Some(tok) if tok.starts_with("generation=") => {
                    let value = tok["generation=".len()..].to_string();
                    if generation.is_some() {
                        return Err(ShardSetError::MalformedGeneration {
                            value,
                            reason: "duplicate generation= line".into(),
                        });
                    }
                    if fields.next().is_some() {
                        return Err(ShardSetError::MalformedGeneration {
                            value,
                            reason: "trailing tokens after generation= line".into(),
                        });
                    }
                    let parsed =
                        value
                            .parse::<u64>()
                            .map_err(|_| ShardSetError::MalformedGeneration {
                                value: value.clone(),
                                reason: "not an unsigned integer".into(),
                            })?;
                    generation = Some(parsed);
                    continue;
                }
                other => {
                    return Err(ShardSetError::Parse {
                        line: lineno + 1,
                        reason: format!("expected a `shard` line, found {other:?}"),
                    })
                }
            }
            let file = fields
                .next()
                .ok_or_else(|| ShardSetError::Parse {
                    line: lineno + 1,
                    reason: "missing shard file name".into(),
                })?
                .to_string();
            if file.contains(['/', '\\']) || file == ".." {
                // Writers only emit bare file names; a manifest pointing
                // outside its own directory is hostile or corrupt.
                return Err(ShardSetError::Parse {
                    line: lineno + 1,
                    reason: format!("shard file name {file:?} escapes the shard-set directory"),
                });
            }
            let mut fields = fields.peekable();
            let mut addr = None;
            let mut bounds = None;
            // `addr=` and `bounds=` may appear in either order before
            // the id list, each at most once.
            while let Some(tok) = fields.peek() {
                if let Some(a) = tok.strip_prefix("addr=") {
                    if addr.is_some() {
                        return Err(ShardSetError::Parse {
                            line: lineno + 1,
                            reason: "duplicate addr= token".into(),
                        });
                    }
                    if let Err(reason) = validate_addr(a) {
                        return Err(ShardSetError::MalformedShardAddr {
                            file,
                            addr: a.to_string(),
                            reason,
                        });
                    }
                    addr = Some(a.to_string());
                } else if let Some(b) = tok.strip_prefix("bounds=") {
                    if bounds.is_some() {
                        return Err(ShardSetError::MalformedShardBounds {
                            file,
                            bounds: b.to_string(),
                            reason: "duplicate bounds= token".into(),
                        });
                    }
                    bounds = Some(parse_bounds(&file, b)?);
                } else {
                    break;
                }
                fields.next();
            }
            let mut global_ids = Vec::new();
            for tok in fields {
                let id: TrajId = tok.parse().map_err(|_| ShardSetError::Parse {
                    line: lineno + 1,
                    reason: format!("unparseable trajectory id {tok:?}"),
                })?;
                global_ids.push(id);
            }
            entries.push(ShardEntry {
                file,
                addr,
                bounds,
                global_ids,
            });
        }
        if entries.len() != shard_count {
            return Err(ShardSetError::BadManifest {
                reason: format!(
                    "header declares {shard_count} shards, manifest lists {}",
                    entries.len()
                ),
            });
        }

        // Bounds are all-or-none: a routing coordinator either prunes
        // against every shard or falls back to full fan-out. A manifest
        // where only some shards carry bounds is corrupt.
        if entries.iter().any(|e| e.bounds.is_some()) {
            if let Some(e) = entries.iter().find(|e| e.bounds.is_none()) {
                return Err(ShardSetError::MissingShardBounds {
                    file: e.file.clone(),
                });
            }
        }

        // File-level validation: every referenced file exists, none
        // twice, and no network address is claimed by two shards.
        for (i, e) in entries.iter().enumerate() {
            if entries[..i].iter().any(|prev| prev.file == e.file) {
                return Err(ShardSetError::DuplicateShardFile {
                    file: e.file.clone(),
                });
            }
            if !dir.join(&e.file).is_file() {
                return Err(ShardSetError::MissingShardFile {
                    file: e.file.clone(),
                });
            }
            if let Some(addr) = &e.addr {
                if entries[..i]
                    .iter()
                    .any(|prev| prev.addr.as_deref() == Some(addr.as_str()))
                {
                    return Err(ShardSetError::DuplicateShardAddr { addr: addr.clone() });
                }
            }
        }

        // Id-level validation: sorted within shards, disjoint across
        // shards, covering exactly 0..trajs. The header's `trajs` is
        // bounded by the ids the manifest actually lists before it sizes
        // an allocation — an inflated header count is a typed error, not
        // an out-of-memory abort.
        let listed: usize = entries.iter().map(|e| e.global_ids.len()).sum();
        if trajs > listed {
            return Err(ShardSetError::IncompleteCover {
                expected: trajs,
                found: listed,
            });
        }
        let mut seen = vec![false; trajs];
        let mut covered = 0usize;
        for e in &entries {
            if e.global_ids.windows(2).any(|w| w[0] >= w[1]) {
                return Err(ShardSetError::UnsortedTrajIds {
                    file: e.file.clone(),
                });
            }
            for &id in &e.global_ids {
                if id >= trajs {
                    return Err(ShardSetError::IncompleteCover {
                        expected: trajs,
                        found: covered,
                    });
                }
                if seen[id] {
                    return Err(ShardSetError::OverlappingTrajIds { id });
                }
                seen[id] = true;
                covered += 1;
            }
        }
        if covered != trajs {
            return Err(ShardSetError::IncompleteCover {
                expected: trajs,
                found: covered,
            });
        }

        Ok(ShardSet {
            dir: dir.to_path_buf(),
            trajs,
            generation: generation.unwrap_or(0),
            entries,
        })
    }

    /// The set's placement epoch (the `generation=` manifest line;
    /// 0 for manifests written before generations existed).
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Sets the placement epoch. Persist with [`ShardSet::save_manifest`].
    pub fn set_generation(&mut self, generation: u64) {
        self.generation = generation;
    }

    /// The shard-set directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Total trajectories across all shards.
    #[must_use]
    pub fn total_trajs(&self) -> usize {
        self.trajs
    }

    /// Number of shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the set holds no shards.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The manifest entries.
    #[must_use]
    pub fn entries(&self) -> &[ShardEntry] {
        &self.entries
    }

    /// Opens every shard as an owned, heap-backed store (plus its kept
    /// bitmap when present), validating that each snapshot's trajectory
    /// count matches the manifest. Shard files are independent, so the
    /// opens (an XXH64 checksum pass and a decode each) run in parallel.
    pub fn open_owned(&self) -> Result<Vec<OpenShard<PointStore>>, ShardSetError> {
        crate::parallel::par_map(&self.entries, |e| {
            let snap = read_snapshot(self.dir.join(&e.file)).map_err(|source| {
                ShardSetError::Snapshot {
                    file: e.file.clone(),
                    source,
                }
            })?;
            check_traj_count(&e.file, e.global_ids.len(), snap.store.len())?;
            Ok(OpenShard {
                store: snap.store,
                global_ids: e.global_ids.clone(),
                kept: snap.kept,
            })
        })
        .into_iter()
        .collect()
    }

    /// Opens every shard zero-copy behind a read-only mapping (plus its
    /// kept bitmap when present) — the serving path: no column is copied
    /// or decoded, each file's one full pass is its XXH64 checksum
    /// verification, and the per-file opens run in parallel.
    pub fn open_mapped(&self) -> Result<Vec<OpenShard<MappedStore>>, ShardSetError> {
        crate::parallel::par_map(&self.entries, |e| {
            let mapped = MappedStore::open(self.dir.join(&e.file)).map_err(|source| {
                ShardSetError::Snapshot {
                    file: e.file.clone(),
                    source,
                }
            })?;
            check_traj_count(&e.file, e.global_ids.len(), AsColumns::len(&mapped))?;
            let kept = mapped.kept_bitmap();
            Ok(OpenShard {
                store: mapped,
                global_ids: e.global_ids.clone(),
                kept,
            })
        })
        .into_iter()
        .collect()
    }

    /// Reassembles the unsharded database: one store with every
    /// trajectory back at its global id. The inverse of [`partition`],
    /// used by audits.
    pub fn unify(&self) -> Result<PointStore, ShardSetError> {
        let shards = self.open_owned()?;
        let parts: Vec<(&PointStore, &[TrajId])> = shards
            .iter()
            .map(|s| (&s.store, s.global_ids.as_slice()))
            .collect();
        Ok(unify_parts(&parts))
    }
}

/// Serializes the manifest: magic, header, the `generation=` epoch line
/// (omitted at epoch 0 so pre-generation manifests stay byte-identical),
/// then one `shard` line per entry (with the optional `addr=` placement
/// and `bounds=` pruning tokens before the id list).
fn render_manifest(trajs: usize, generation: u64, entries: &[ShardEntry]) -> io::Result<Vec<u8>> {
    let mut manifest = Vec::new();
    writeln!(manifest, "{MANIFEST_MAGIC}")?;
    writeln!(manifest, "shards {} trajs {trajs}", entries.len())?;
    if generation != 0 {
        writeln!(manifest, "generation={generation}")?;
    }
    for e in entries {
        write!(manifest, "shard {}", e.file)?;
        if let Some(addr) = &e.addr {
            write!(manifest, " addr={addr}")?;
        }
        if let Some(b) = &e.bounds {
            // `{}` on f64 prints the shortest string that parses back to
            // the same bits, so bounds round-trip bitwise through text.
            write!(
                manifest,
                " bounds={},{},{},{},{},{}",
                b.x_min, b.x_max, b.y_min, b.y_max, b.t_min, b.t_max
            )?;
        }
        for id in &e.global_ids {
            write!(manifest, " {id}")?;
        }
        writeln!(manifest)?;
    }
    Ok(manifest)
}

/// Parses a `bounds=` token body: six comma-separated finite `f64`s,
/// each minimum no greater than its maximum.
fn parse_bounds(file: &str, text: &str) -> Result<Cube, ShardSetError> {
    let malformed = |reason: String| ShardSetError::MalformedShardBounds {
        file: file.to_string(),
        bounds: text.to_string(),
        reason,
    };
    let mut vals = [0.0f64; 6];
    let parts: Vec<&str> = text.split(',').collect();
    if parts.len() != 6 {
        return Err(malformed(format!(
            "expected 6 numbers, found {}",
            parts.len()
        )));
    }
    for (v, tok) in vals.iter_mut().zip(&parts) {
        *v = tok
            .parse::<f64>()
            .map_err(|_| malformed(format!("unparseable number {tok:?}")))?;
        if !v.is_finite() {
            return Err(malformed(format!("non-finite bound {tok:?}")));
        }
    }
    let [x_min, x_max, y_min, y_max, t_min, t_max] = vals;
    if x_min > x_max || y_min > y_max || t_min > t_max {
        return Err(malformed("min bound exceeds max bound".to_string()));
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

/// A shard address must be a dialable `host:port` pair: non-empty host,
/// port a valid `u16`. (Hostnames are allowed — resolution happens at
/// connect time — so this does not require a literal IP.)
fn validate_addr(addr: &str) -> Result<(), String> {
    let Some((host, port)) = addr.rsplit_once(':') else {
        return Err("missing `:port`".to_string());
    };
    if host.is_empty() {
        return Err("empty host".to_string());
    }
    if port.parse::<u16>().is_err() {
        return Err(format!("unparseable port {port:?}"));
    }
    Ok(())
}

fn check_traj_count(file: &str, manifest: usize, snapshot: usize) -> Result<(), ShardSetError> {
    if manifest != snapshot {
        return Err(ShardSetError::TrajCountMismatch {
            file: file.to_string(),
            manifest,
            snapshot,
        });
    }
    Ok(())
}

/// Merges shards back into one store with trajectories at their global
/// ids. Panics (via indexing) when ids do not cover `0..M` exactly —
/// guaranteed by [`partition`] and by [`ShardSet::load`] validation.
#[must_use]
pub fn unify_shards(shards: &[Shard]) -> PointStore {
    let parts: Vec<(&PointStore, &[TrajId])> = shards
        .iter()
        .map(|s| (&s.store, s.global_ids.as_slice()))
        .collect();
    unify_parts(&parts)
}

/// Layout-agnostic core of [`unify_shards`]: merges `(store, global_ids)`
/// pairs without cloning any shard's columns — the stores may be owned or
/// mapped, borrowed straight from wherever they already live.
fn unify_parts<S: AsColumns>(parts: &[(&S, &[TrajId])]) -> PointStore {
    let total: usize = parts.iter().map(|(_, ids)| ids.len()).sum();
    let points: usize = parts.iter().map(|(s, _)| s.total_points()).sum();
    // locate[global] = (shard, local).
    let mut locate = vec![(0usize, 0usize); total];
    for (si, (_, ids)) in parts.iter().enumerate() {
        for (local, &global) in ids.iter().enumerate() {
            locate[global] = (si, local);
        }
    }
    let mut out = PointStore::with_capacity(total, points);
    for &(si, local) in &locate {
        let _ = out.push_view(parts[si].0.view(local));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, DatasetSpec, Scale};
    use crate::Point;

    fn sample_store() -> PointStore {
        generate(&DatasetSpec::geolife(Scale::Smoke), 77).to_store()
    }

    fn all_strategies() -> [PartitionStrategy; 3] {
        [1, 3, 4].map(|parts| PartitionStrategy::Time { parts })
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("qdts_shard_tests")
            .join(format!("{}_{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn partition_covers_every_trajectory_exactly_once() {
        let store = sample_store();
        for strategy in all_strategies() {
            let shards = partition(&store, &strategy);
            assert!(!shards.is_empty(), "{strategy:?}");
            let mut seen = vec![false; store.len()];
            for shard in &shards {
                assert!(!shard.store.is_empty(), "empty shard survived");
                assert_eq!(shard.store.len(), shard.global_ids.len());
                assert!(
                    shard.global_ids.windows(2).all(|w| w[0] < w[1]),
                    "ids must stay sorted"
                );
                for (local, &global) in shard.global_ids.iter().enumerate() {
                    assert!(!seen[global], "trajectory {global} in two shards");
                    seen[global] = true;
                    // Whole trajectories, bit-identical columns.
                    let (a, b) = (shard.store.view(local), store.view(global));
                    assert_eq!(a.xs, b.xs);
                    assert_eq!(a.ys, b.ys);
                    assert_eq!(a.ts, b.ts);
                }
            }
            assert!(seen.iter().all(|&s| s), "{strategy:?} lost trajectories");
        }
    }

    #[test]
    fn unify_inverts_partition() {
        let store = sample_store();
        for strategy in all_strategies() {
            let shards = partition(&store, &strategy);
            assert_eq!(unify_shards(&shards), store, "{strategy:?}");
        }
    }

    /// Every trajectory of a shard falls in that shard's cell, and shards
    /// come in ascending cell order, one per non-empty cell.
    fn assert_one_cell_per_shard(shards: &[Shard], cells: usize, cell: impl Fn(usize) -> usize) {
        assert!(shards.len() > 1 && shards.len() <= cells);
        let mut previous = None;
        for shard in shards {
            let c = cell(shard.global_ids[0]);
            assert!(c < cells);
            assert!(shard.global_ids.iter().all(|&id| cell(id) == c));
            assert!(previous < Some(c), "cells out of order");
            previous = Some(c);
        }
    }

    #[test]
    fn time_partition_places_trajectories_by_their_start() {
        // Durations of 0, 400 and 800 s over a 1 900 s span: ranges by
        // start and ranges by end group the trajectories differently.
        let mut store = PointStore::new();
        for i in 0..12 {
            let (t0, step) = (100.0 * f64::from(i), 200.0 * f64::from(i % 3));
            let pts: Vec<Point> = (0..3)
                .map(|k| Point::new(f64::from(i + k), 0.0, t0 + step * f64::from(k)))
                .collect();
            store.push_points(&pts).unwrap();
        }
        let parts = 3;
        let shards = partition(&store, &PartitionStrategy::Time { parts });
        let bc = store.bounding_cube();
        let span = bc.t_max - bc.t_min;
        assert_one_cell_per_shard(&shards, parts, |id| {
            let start = store.view(id).ts[0];
            (((start - bc.t_min) / span * parts as f64).floor() as usize).min(parts - 1)
        });
    }

    #[test]
    fn one_part_is_the_whole_store() {
        // Zero parts is read as one: a partition never drops the store.
        let store = sample_store();
        for parts in [0, 1] {
            let shards = partition(&store, &PartitionStrategy::Time { parts });
            assert_eq!(shards.len(), 1, "parts={parts}");
            assert_eq!(shards[0].store, store);
            assert_eq!(shards[0].global_ids, (0..store.len()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn time_shards_come_in_start_time_order() {
        let store = sample_store();
        let start = |id: usize| store.view(id).ts[0];
        for parts in 2..=8 {
            let shards = partition(&store, &PartitionStrategy::Time { parts });
            assert!(shards.len() > 1 && shards.len() <= parts, "parts={parts}");
            for pair in shards.windows(2) {
                let last = pair[0].global_ids.iter().map(|&id| start(id));
                let first = pair[1].global_ids.iter().map(|&id| start(id));
                assert!(
                    last.fold(f64::MIN, f64::max) <= first.fold(f64::MAX, f64::min),
                    "parts={parts}: shards overlap in start time"
                );
            }
        }
    }

    #[test]
    fn a_start_at_the_span_end_lands_in_the_last_range() {
        // The latest start equals the span's end; it clamps into the last
        // of the ranges rather than opening one past it.
        let mut store = PointStore::new();
        for (t0, t1) in [(0.0, 10.0), (5.0, 20.0), (40.0, 40.0)] {
            store
                .push_points(&[Point::new(0.0, 0.0, t0), Point::new(1.0, 1.0, t1)])
                .unwrap();
        }
        let shards = partition(&store, &PartitionStrategy::Time { parts: 4 });
        let ids: Vec<Vec<usize>> = shards.iter().map(|s| s.global_ids.clone()).collect();
        assert_eq!(ids, vec![vec![0, 1], vec![2]]);
    }

    #[test]
    fn degenerate_time_span_collapses_to_one_shard() {
        let mut store = PointStore::new();
        for i in 0..5 {
            store
                .push_points(&[Point::new(f64::from(i), 0.0, 7.0)])
                .unwrap();
        }
        let shards = partition(&store, &PartitionStrategy::Time { parts: 3 });
        assert_eq!(shards.len(), 1);
        assert_eq!(shards[0].store, store);
    }

    #[test]
    fn empty_store_partitions_to_no_shards() {
        let store = PointStore::new();
        for strategy in all_strategies() {
            assert!(partition(&store, &strategy).is_empty());
        }
    }

    #[test]
    fn shard_set_round_trips_owned_and_mapped() {
        let store = sample_store();
        let shards = partition(&store, &PartitionStrategy::Time { parts: 3 });
        let dir = temp_dir("round_trip");
        let written = ShardSet::write(&dir, &shards).unwrap();
        assert_eq!(written.len(), shards.len());

        let set = ShardSet::load(&dir).unwrap();
        assert_eq!(set, written);
        assert_eq!(set.total_trajs(), store.len());

        let owned = set.open_owned().unwrap();
        for (shard, open) in shards.iter().zip(&owned) {
            assert_eq!(open.store, shard.store);
            assert_eq!(open.global_ids, shard.global_ids);
            assert_eq!(open.kept, None);
        }
        let mapped = set.open_mapped().unwrap();
        for (shard, open) in shards.iter().zip(&mapped) {
            assert_eq!(open.store.xs(), shard.store.xs());
            assert_eq!(open.store.offsets(), shard.store.offsets());
        }
        assert_eq!(set.unify().unwrap(), store);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quantized_shard_set_reopens_within_bound() {
        let store = sample_store();
        let shards = partition(&store, &PartitionStrategy::Time { parts: 3 });
        let max_error = 1e-3;
        let dir = temp_dir("quantized_set");
        let raw_dir = temp_dir("quantized_set_raw");
        ShardSet::write_quantized(&dir, &shards, None, max_error).unwrap();
        ShardSet::write(&raw_dir, &shards).unwrap();

        let dir_bytes = |d: &PathBuf| -> u64 {
            std::fs::read_dir(d)
                .unwrap()
                .map(|e| e.unwrap().metadata().unwrap().len())
                .sum()
        };
        assert!(dir_bytes(&dir) < dir_bytes(&raw_dir));
        // At a half-metre bound the set is under half the raw bytes.
        let coarse_dir = temp_dir("quantized_set_coarse");
        ShardSet::write_quantized(&coarse_dir, &shards, None, 0.5).unwrap();
        assert!(2 * dir_bytes(&coarse_dir) < dir_bytes(&raw_dir));

        let set = ShardSet::load(&dir).unwrap();
        let within = |xs: &[f64], ys: &[f64]| {
            xs.iter()
                .zip(ys)
                .all(|(a, b)| (a - b).abs() <= max_error * 1.000_001)
        };
        // Both reopen paths decode transparently, within the bound.
        for (shard, open) in shards.iter().zip(set.open_owned().unwrap()) {
            assert_eq!(open.store.offsets(), shard.store.offsets());
            assert!(within(open.store.xs(), shard.store.xs()));
            assert!(within(open.store.ys(), shard.store.ys()));
            assert!(within(open.store.ts(), shard.store.ts()));
        }
        for (shard, open) in shards.iter().zip(set.open_mapped().unwrap()) {
            assert_eq!(open.store.offsets(), shard.store.offsets());
            assert!(within(open.store.xs(), shard.store.xs()));
        }
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&raw_dir).ok();
        std::fs::remove_dir_all(&coarse_dir).ok();
    }

    #[test]
    fn missing_shard_file_is_a_typed_error() {
        let store = sample_store();
        let shards = partition(&store, &PartitionStrategy::Time { parts: 2 });
        let dir = temp_dir("missing_file");
        ShardSet::write(&dir, &shards).unwrap();
        std::fs::remove_file(dir.join("shard-0001.snap")).unwrap();
        assert!(matches!(
            ShardSet::load(&dir),
            Err(ShardSetError::MissingShardFile { file }) if file == "shard-0001.snap"
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn duplicate_and_overlapping_manifests_are_typed_errors() {
        let store = sample_store();
        let shards = partition(&store, &PartitionStrategy::Time { parts: 2 });
        let dir = temp_dir("dup_overlap");
        ShardSet::write(&dir, &shards).unwrap();
        let manifest_path = dir.join(MANIFEST_FILE);
        let original = std::fs::read_to_string(&manifest_path).unwrap();

        // Duplicate file reference.
        let dup = original.replace("shard-0001.snap", "shard-0000.snap");
        std::fs::write(&manifest_path, &dup).unwrap();
        assert!(matches!(
            ShardSet::load(&dir),
            Err(ShardSetError::DuplicateShardFile { .. })
        ));

        // Overlapping trajectory ids: make shard 1's line repeat shard
        // 0's ids (counts unchanged).
        let lines: Vec<&str> = original.lines().collect();
        let shard0_ids = lines[2]
            .split_whitespace()
            .skip(2)
            .collect::<Vec<_>>()
            .join(" ");
        let first = lines[3]
            .split_whitespace()
            .take(2)
            .collect::<Vec<_>>()
            .join(" ");
        let mut overlapped = lines[..3].join("\n");
        overlapped.push('\n');
        overlapped.push_str(&format!("{first} {shard0_ids}\n"));
        std::fs::write(&manifest_path, &overlapped).unwrap();
        assert!(matches!(
            ShardSet::load(&dir),
            Err(ShardSetError::OverlappingTrajIds { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_addrs_round_trip_through_the_manifest() {
        let store = sample_store();
        let shards = partition(&store, &PartitionStrategy::Time { parts: 2 });
        let dir = temp_dir("addrs");
        let mut set = ShardSet::write(&dir, &shards).unwrap();
        // A freshly written (or pre-addr) manifest loads with no addrs.
        assert!(ShardSet::load(&dir)
            .unwrap()
            .entries()
            .iter()
            .all(|e| e.addr.is_none()));

        set.set_addrs(&["127.0.0.1:7001", "db-host-2:7002"])
            .unwrap();
        set.save_manifest().unwrap();
        let reloaded = ShardSet::load(&dir).unwrap();
        assert_eq!(reloaded, set);
        assert_eq!(
            reloaded.entries()[1].addr.as_deref(),
            Some("db-host-2:7002")
        );

        // Malformed and duplicate assignments are typed errors and leave
        // the set untouched.
        assert!(matches!(
            set.set_addrs(&["127.0.0.1:7001", "no-port-here"]),
            Err(ShardSetError::MalformedShardAddr { .. })
        ));
        assert!(matches!(
            set.set_addrs(&[":7001", "db-host-2:7002"]),
            Err(ShardSetError::MalformedShardAddr { .. })
        ));
        assert!(matches!(
            set.set_addrs(&["host:99999", "db-host-2:7002"]),
            Err(ShardSetError::MalformedShardAddr { .. })
        ));
        assert!(matches!(
            set.set_addrs(&["same:1", "same:1"]),
            Err(ShardSetError::DuplicateShardAddr { .. })
        ));
        assert_eq!(set.entries()[0].addr.as_deref(), Some("127.0.0.1:7001"));

        // The same rejections apply to a manifest edited on disk.
        let manifest_path = dir.join(MANIFEST_FILE);
        let original = std::fs::read_to_string(&manifest_path).unwrap();
        let dup = original.replace("addr=db-host-2:7002", "addr=127.0.0.1:7001");
        std::fs::write(&manifest_path, dup).unwrap();
        assert!(matches!(
            ShardSet::load(&dir),
            Err(ShardSetError::DuplicateShardAddr { .. })
        ));
        let malformed = original.replace("addr=db-host-2:7002", "addr=db-host-2");
        std::fs::write(&manifest_path, malformed).unwrap();
        assert!(matches!(
            ShardSet::load(&dir),
            Err(ShardSetError::MalformedShardAddr { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn generation_round_trips_through_the_manifest() {
        let store = sample_store();
        let shards = partition(&store, &PartitionStrategy::Time { parts: 2 });
        let dir = temp_dir("generation");
        let mut set = ShardSet::write(&dir, &shards).unwrap();

        // Freshly written (and pre-generation) manifests load at epoch 0,
        // and epoch 0 emits no generation= line at all.
        assert_eq!(set.generation(), 0);
        assert_eq!(ShardSet::load(&dir).unwrap().generation(), 0);
        let manifest_path = dir.join(MANIFEST_FILE);
        assert!(!std::fs::read_to_string(&manifest_path)
            .unwrap()
            .contains("generation="));

        set.set_generation(7);
        set.save_manifest().unwrap();
        let reloaded = ShardSet::load(&dir).unwrap();
        assert_eq!(reloaded.generation(), 7);
        assert_eq!(reloaded, set);

        // Malformed generations are typed errors, never a silent zero.
        let original = std::fs::read_to_string(&manifest_path).unwrap();
        for (bad, what) in [
            ("generation=seven", "non-numeric"),
            ("generation=-3", "negative"),
            ("generation=", "empty"),
            ("generation=7 extra", "trailing tokens"),
            ("generation=7\ngeneration=8", "duplicate"),
        ] {
            let text = original.replace("generation=7", bad);
            std::fs::write(&manifest_path, text).unwrap();
            assert!(
                matches!(
                    ShardSet::load(&dir),
                    Err(ShardSetError::MalformedGeneration { .. })
                ),
                "{what} generation must be rejected"
            );
        }
        std::fs::write(&manifest_path, &original).unwrap();
        assert_eq!(ShardSet::load(&dir).unwrap().generation(), 7);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_bounds_round_trip_through_the_manifest() {
        let store = sample_store();
        let shards = partition(&store, &PartitionStrategy::Time { parts: 4 });
        let dir = temp_dir("bounds");
        let written = ShardSet::write(&dir, &shards).unwrap();

        // Written bounds are the per-shard bounding cubes, and they
        // reload bitwise-identically through the text manifest.
        let reloaded = ShardSet::load(&dir).unwrap();
        assert_eq!(reloaded, written);
        for (shard, e) in shards.iter().zip(reloaded.entries()) {
            assert_eq!(e.bounds, Some(shard.bounds()));
        }

        // Bounds and addr tokens coexist in either order.
        let mut set = written;
        let addrs: Vec<String> = (0..set.len())
            .map(|i| format!("127.0.0.1:{}", 7001 + i))
            .collect();
        set.set_addrs(&addrs).unwrap();
        set.save_manifest().unwrap();
        assert_eq!(ShardSet::load(&dir).unwrap(), set);
        let manifest_path = dir.join(MANIFEST_FILE);
        let original = std::fs::read_to_string(&manifest_path).unwrap();
        let swapped: String = original
            .lines()
            .map(|l| {
                let fields: Vec<&str> = l.split_whitespace().collect();
                if fields.len() > 3 && fields[2].starts_with("addr=") {
                    let mut out = vec![fields[0], fields[1], fields[3], fields[2]];
                    out.extend(&fields[4..]);
                    out.join(" ") + "\n"
                } else {
                    l.to_string() + "\n"
                }
            })
            .collect();
        assert_eq!(ShardSet::load(&dir).unwrap(), set);
        std::fs::write(&manifest_path, &swapped).unwrap();
        assert_eq!(ShardSet::load(&dir).unwrap(), set);
        std::fs::write(&manifest_path, &original).unwrap();

        // Corrupt bounds land typed errors: unparseable, wrong count,
        // non-finite, inverted, duplicated — and a manifest where only
        // some shards have bounds is rejected too.
        let first_bounds = original
            .split_whitespace()
            .find(|tok| tok.starts_with("bounds="))
            .unwrap()
            .to_string();
        let corrupt = |replacement: &str| {
            std::fs::write(
                &manifest_path,
                original.replacen(&first_bounds, replacement, 1),
            )
            .unwrap();
            ShardSet::load(&dir)
        };
        assert!(matches!(
            corrupt("bounds=a,b,c,d,e,f"),
            Err(ShardSetError::MalformedShardBounds { .. })
        ));
        assert!(matches!(
            corrupt("bounds=1,2,3"),
            Err(ShardSetError::MalformedShardBounds { .. })
        ));
        assert!(matches!(
            corrupt("bounds=1,2,3,4,5,NaN"),
            Err(ShardSetError::MalformedShardBounds { .. })
        ));
        assert!(matches!(
            corrupt("bounds=1,2,3,4,inf,inf"),
            Err(ShardSetError::MalformedShardBounds { .. })
        ));
        assert!(matches!(
            corrupt("bounds=2,1,3,4,5,6"),
            Err(ShardSetError::MalformedShardBounds { .. })
        ));
        assert!(matches!(
            corrupt(&format!("{first_bounds} {first_bounds}")),
            Err(ShardSetError::MalformedShardBounds { .. })
        ));
        assert!(matches!(
            corrupt(""),
            Err(ShardSetError::MissingShardBounds { .. })
        ));

        // A pre-bounds manifest (no bounds= anywhere) still loads.
        let stripped: String = original
            .lines()
            .map(|l| {
                l.split_whitespace()
                    .filter(|tok| !tok.starts_with("bounds="))
                    .collect::<Vec<_>>()
                    .join(" ")
                    + "\n"
            })
            .collect();
        std::fs::write(&manifest_path, stripped).unwrap();
        let legacy_set = ShardSet::load(&dir).unwrap();
        assert!(legacy_set.entries().iter().all(|e| e.bounds.is_none()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quantized_manifest_bounds_match_the_decoded_store() {
        let store = sample_store();
        let shards = partition(&store, &PartitionStrategy::Time { parts: 3 });
        let dir = temp_dir("quant_bounds");
        let set = ShardSet::write_quantized(&dir, &shards, None, 1e-3).unwrap();
        // The manifest's bounds must cover what a reader decodes —
        // bitwise — not the pre-quantization input.
        for (e, open) in set.entries().iter().zip(set.open_owned().unwrap()) {
            assert_eq!(e.bounds, Some(open.store.bounding_cube()));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn incomplete_cover_and_bad_headers_are_typed_errors() {
        let store = sample_store();
        let shards = partition(&store, &PartitionStrategy::Time { parts: 2 });
        let dir = temp_dir("cover");
        ShardSet::write(&dir, &shards).unwrap();
        let manifest_path = dir.join(MANIFEST_FILE);
        let original = std::fs::read_to_string(&manifest_path).unwrap();

        // Drop one shard line (header now over-declares).
        let mut lines: Vec<&str> = original.lines().collect();
        lines.pop();
        std::fs::write(&manifest_path, lines.join("\n")).unwrap();
        assert!(matches!(
            ShardSet::load(&dir),
            Err(ShardSetError::BadManifest { .. })
        ));

        // Claim one more trajectory than the shards cover.
        let inflated = original.replacen(
            &format!("trajs {}", store.len()),
            &format!("trajs {}", store.len() + 1),
            1,
        );
        std::fs::write(&manifest_path, inflated).unwrap();
        assert!(matches!(
            ShardSet::load(&dir),
            Err(ShardSetError::IncompleteCover { .. })
        ));

        // An absurd header count must come back as a typed error, not an
        // allocation abort.
        let huge = original.replacen(
            &format!("trajs {}", store.len()),
            &format!("trajs {}", u64::MAX),
            1,
        );
        std::fs::write(&manifest_path, huge).unwrap();
        assert!(matches!(
            ShardSet::load(&dir),
            Err(ShardSetError::IncompleteCover { .. })
        ));

        // A shard file name escaping the directory is rejected before any
        // file access.
        let escape = original.replacen("shard-0000.snap", "../outside.snap", 1);
        std::fs::write(&manifest_path, escape).unwrap();
        assert!(matches!(
            ShardSet::load(&dir),
            Err(ShardSetError::Parse { .. })
        ));

        // Garbage magic.
        std::fs::write(&manifest_path, "NOTASHARDSET\n").unwrap();
        assert!(matches!(
            ShardSet::load(&dir),
            Err(ShardSetError::BadManifest { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn traj_count_mismatch_is_detected_on_open() {
        let store = sample_store();
        let shards = partition(&store, &PartitionStrategy::Time { parts: 2 });
        let dir = temp_dir("count_mismatch");
        ShardSet::write(&dir, &shards).unwrap();
        // Overwrite shard 0's snapshot with a smaller, valid snapshot:
        // the manifest still lists the original ids.
        let tiny = store.gather_trajs(&[0]);
        crate::snapshot::write_snapshot(&tiny, dir.join("shard-0000.snap")).unwrap();
        let set = ShardSet::load(&dir).unwrap();
        assert!(matches!(
            set.open_owned(),
            Err(ShardSetError::TrajCountMismatch { .. })
        ));
        assert!(matches!(
            set.open_mapped(),
            Err(ShardSetError::TrajCountMismatch { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_shard_snapshot_surfaces_as_typed_error() {
        let store = sample_store();
        let shards = partition(&store, &PartitionStrategy::Time { parts: 2 });
        let dir = temp_dir("corrupt_shard");
        ShardSet::write(&dir, &shards).unwrap();
        let victim = dir.join("shard-0000.snap");
        let mut bytes = std::fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&victim, &bytes).unwrap();
        let set = ShardSet::load(&dir).unwrap();
        assert!(matches!(
            set.open_owned(),
            Err(ShardSetError::Snapshot { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn kept_bitmaps_round_trip_per_shard() {
        let store = sample_store();
        let shards = partition(&store, &PartitionStrategy::Time { parts: 2 });
        let kept: Vec<KeptBitmap> = shards
            .iter()
            .map(|s| {
                let mut b = KeptBitmap::zeros(s.store.total_points());
                for g in (0..s.store.total_points()).step_by(3) {
                    b.insert(g as u32);
                }
                b
            })
            .collect();
        let dir = temp_dir("kept");
        ShardSet::write_with(&dir, &shards, &kept).unwrap();
        let set = ShardSet::load(&dir).unwrap();
        for (open, expected) in set.open_owned().unwrap().iter().zip(&kept) {
            assert_eq!(open.kept.as_ref(), Some(expected));
        }
        for (open, expected) in set.open_mapped().unwrap().iter().zip(&kept) {
            assert_eq!(open.kept.as_ref(), Some(expected));
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
