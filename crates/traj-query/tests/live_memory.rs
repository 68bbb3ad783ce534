//! A live database's memory stays flat over many folds.
//!
//! Every compaction builds the next generation's index beside the served
//! one and then drops the old one. Its large buffers are anonymous
//! mappings of their own (`trajectory::PageBuf`), so dropping an index
//! hands its pages back to the kernel. On the heap, a retired index left
//! holes the next, slightly larger one did not fit, and the resident set
//! after each fold grew by more than the data did.
//!
//! Linux only (it reads `/proc/self/status` and `/proc/self/maps`), and
//! the only test of its binary, so no other test's allocations share the
//! process.
#![cfg(target_os = "linux")]

use std::path::{Path, PathBuf};

use traj_query::{DbOptions, GenerationalDb, SimpFactory};
use trajectory::gen::{generate, DatasetSpec, Scale};
use trajectory::{KeepAll, Trajectory};

/// Base trajectories: ~204 k points, so every index column is over the
/// 1 MiB cut-off.
const BASE_TRAJS: usize = 600;
/// Trajectories ingested before each fold (~13.6 k points).
const ROUND_TRAJS: usize = 40;
/// Folds after the first one.
const ROUNDS: usize = 8;
/// Resident bytes a served point may add: the mapped snapshot's columns
/// and the index's packed columns and nodes are under 100.
const BYTES_PER_POINT: u64 = 128;
/// Room for the readings' own noise.
const SLACK: u64 = 2 << 20;

fn keep_all() -> SimpFactory {
    Box::new(|| Box::new(KeepAll))
}

/// `VmRSS` of this process, in bytes.
fn rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .expect("a VmRSS line");
    let kib: u64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmRSS in kB");
    kib * 1024
}

/// The distinct `gen-*.snap` files of `dir` this process has mapped.
fn mapped_generations(dir: &Path) -> Vec<String> {
    let maps = std::fs::read_to_string("/proc/self/maps").expect("read /proc/self/maps");
    let mut names: Vec<String> = maps
        .lines()
        .filter_map(|l| l.split_whitespace().nth(5))
        .map(Path::new)
        .filter(|p| p.parent() == Some(dir))
        .filter_map(|p| p.file_name()?.to_str())
        .filter(|n| n.starts_with("gen-") && n.ends_with(".snap"))
        .map(str::to_owned)
        .collect();
    names.sort();
    names.dedup();
    names
}

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qdts_live_memory_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn rss_after_each_fold_grows_with_the_data_alone() {
    let dir = scratch_dir();
    let spec = DatasetSpec::tdrive(Scale::Small);
    let base = generate(&spec.clone().with_trajectories(BASE_TRAJS), 1).to_store();
    let stream: Vec<Trajectory> = generate(&spec.with_trajectories((ROUNDS + 1) * ROUND_TRAJS), 2)
        .trajectories()
        .to_vec();
    let db = GenerationalDb::create(&dir, &base, DbOptions::new(), keep_all()).unwrap();
    let mut points = base.total_points() as u64;
    drop(base);
    let dir = std::fs::canonicalize(&dir).unwrap();

    let mut first: Option<(u64, u64)> = None;
    let mut readings = Vec::new();
    for (round, batch) in stream.chunks(ROUND_TRAJS).enumerate() {
        db.ingest(batch).unwrap();
        points += batch.iter().map(|t| t.len() as u64).sum::<u64>();
        let report = db.compact().unwrap();
        let rss = rss_bytes();
        readings.push((report.generation, points, rss));

        let mapped = mapped_generations(&dir);
        assert_eq!(
            mapped,
            [format!("gen-{:06}.snap", report.generation)],
            "fold {round}: mapped snapshots"
        );

        let (rss0, points0) = *first.get_or_insert((rss, points));
        let allowed = rss0 + (points - points0) * BYTES_PER_POINT + SLACK;
        assert!(
            rss <= allowed,
            "fold {round}: RSS {rss} B over the first fold's {rss0} B plus {} B \
             for {} added points; readings (generation, points, RSS): {readings:?}",
            allowed - rss0,
            points - points0,
        );
    }
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}
