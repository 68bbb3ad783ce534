//! Trajectory data substrate for the RL4QDTS reproduction.
//!
//! This crate provides everything the simplification algorithms and query
//! engine consume:
//!
//! - the data model: [`Point`], [`Trajectory`], [`Simplification`] (a
//!   database-level set of kept point indices);
//! - columnar storage ([`store`]): the struct-of-arrays [`PointStore`]
//!   with zero-copy [`TrajView`]s and the [`KeptBitmap`] face of a
//!   simplification — the **one layout** every index, query operator,
//!   simplifier and error measure is written against ([`AsColumns`]);
//! - one trajectory as an algorithm sees it ([`seq`]): [`PointSeq`],
//!   implemented by column views, owned trajectories and point slices,
//!   so each per-trajectory kernel is written once;
//! - the row-form builder ([`db`]): [`TrajectoryDb`], what generators,
//!   CSV readers and tests assemble row by row — its one exit is
//!   [`TrajectoryDb::to_store`], [`AsColumns::to_db`] the way back;
//! - the geometry kernel ([`geom`]): synchronized interpolation, segment
//!   projections, headings, speeds;
//! - the four error measures of the paper ([`error`]): SED, PED, DAD, SAD
//!   with the Eq. 1/Eq. 2 aggregations;
//! - synthetic dataset generators ([`gen`]) reproducing the statistical
//!   shape of Geolife / T-Drive / Chengdu / OSM (Table I);
//! - CSV I/O and dataset statistics ([`io`], [`stats`]);
//! - zero-copy persistence ([`snapshot`]): a versioned little-endian
//!   file format whose sections *are* the columns, with an owned loader
//!   and an mmap-backed [`MappedStore`] served through the same
//!   [`AsColumns`] abstraction as the in-memory store;
//! - sharding ([`shard`]): the time partitioner that splits a store
//!   into whole-trajectory shards, and the [`ShardSet`] manifest that
//!   persists a sharded database as a directory of snapshot files and
//!   reopens it owned or mmap-backed;
//! - live ingestion ([`delta`]): the WAL-guarded mutable [`DeltaStore`]
//!   accepting streaming `begin_traj`/`push_point` appends through a
//!   deterministic [`OnlineSimplifier`], crash-replayable via the same
//!   checksummed little-endian conventions as the snapshot format;
//! - index memory ([`pagebuf`]): [`PageBuf`], the growable array whose
//!   buffers of a megabyte or more are anonymous mappings of their own,
//!   so an index dropped at a compaction hands its pages straight back.
//!
//! The architecture across crates is documented in
//! `docs/ARCHITECTURE.md`; the snapshot format is specified byte-by-byte
//! in `docs/SNAPSHOT_FORMAT.md` (doc-tested, see [`snapshot::format_spec`]).
//!
//! # Example: ingest, snapshot, serve
//!
//! ```
//! use trajectory::io::read_csv_store;
//! use trajectory::snapshot::{write_snapshot, MappedStore};
//! use trajectory::AsColumns;
//!
//! // Streaming CSV ingestion straight into columns.
//! let csv = "traj_id,x,y,t\na,0.0,0.0,0.0\na,10.0,5.0,60.0\nb,3.0,4.0,0.0\n";
//! let store = read_csv_store(csv.as_bytes()).unwrap();
//! assert_eq!((store.len(), store.total_points()), (2, 3));
//!
//! // Persist once; serve forever with zero deserialization.
//! let path = std::env::temp_dir().join("trajectory_crate_doc.snap");
//! write_snapshot(&store, &path).unwrap();
//! let mapped = MappedStore::open(&path).unwrap();
//! assert_eq!(mapped.xs(), store.xs());
//! assert_eq!(AsColumns::view(&mapped, 0).last().t, 60.0);
//! # std::fs::remove_file(&path).ok();
//! ```

#![warn(missing_docs)]

pub mod bbox;
pub mod db;
pub mod delta;
pub mod error;
pub mod gen;
pub mod geom;
pub mod io;
pub mod pagebuf;
pub mod parallel;
pub mod point;
pub mod resample;
pub mod seq;
pub mod shard;
pub mod simd;
pub mod snapshot;
pub mod stats;
pub mod store;
pub mod traj;

pub use bbox::Cube;
pub use db::{Simplification, TrajId, TrajectoryDb};
pub use delta::{replay_wal, BoxedSimplifier, DeltaError, DeltaStore, KeepAll, OnlineSimplifier};
pub use error::ErrorMeasure;
pub use io::PointSink;
pub use pagebuf::PageBuf;
pub use point::Point;
pub use seq::PointSeq;
pub use shard::{partition, OpenShard, PartitionStrategy, Shard, ShardSet, ShardSetError};
pub use snapshot::{
    is_snapshot_file, read_snapshot, write_snapshot, write_snapshot_quantized, write_snapshot_with,
    MappedStore, QuantInfo, Snapshot, SnapshotError,
};
pub use stats::DatasetStats;
pub use store::{AsColumns, KeptBitmap, PointId, PointStore, StoreRef, TrajView};
pub use traj::Trajectory;
