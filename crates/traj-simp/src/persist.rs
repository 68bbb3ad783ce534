//! Persisting simplified databases as kept-bitmap snapshots.
//!
//! The paper's output artifact is a *simplified database* `D'` that will
//! be queried many times. The snapshot format
//! ([`trajectory::snapshot`]) persists exactly that pairing: the full
//! columns of `D` plus a kept-point bitmap selecting `D'`. Serving then
//! opens the file with [`trajectory::MappedStore::open`] and queries the
//! bitmap in place (`QueryExecutor::range_kept`) — no CSV re-parse, no
//! materialization of `D'`, and the original columns stay addressable
//! for error measures or re-simplification under a different budget.
//!
//! Sharded databases get the same treatment per shard: the database
//! budget splits across shards proportional to their point counts
//! ([`per_shard_budgets`]), every shard simplifies independently — and
//! in parallel, since shards share nothing — and
//! [`write_simplified_shard_set`] persists one kept-bitmap snapshot per
//! shard plus the manifest, ready for a fan-out engine to serve `D'`
//! straight off the mappings.

use std::path::Path;

use trajectory::parallel;
use trajectory::shard::{Shard, ShardSet, ShardSetError};
use trajectory::snapshot::{write_snapshot_quantized, write_snapshot_with, SnapshotError};
use trajectory::{AsColumns, KeptBitmap, PointStore, Simplification};

use crate::Simplifier;

/// Writes `store` with `simp`'s kept-point bitmap as one snapshot file:
/// the persisted form of a simplified database.
///
/// The bitmap is derived with [`Simplification::to_bitmap`], so the file
/// stays valid for any store whose offsets `simp` was produced against —
/// including a [`trajectory::MappedStore`] being re-simplified in place.
pub fn write_simplified_snapshot<S, P>(
    store: &S,
    simp: &Simplification,
    path: P,
) -> Result<(), SnapshotError>
where
    S: AsColumns + ?Sized,
    P: AsRef<Path>,
{
    let bitmap = simp.to_bitmap(store);
    write_snapshot_with(store, Some(&bitmap), path)
}

/// [`write_simplified_snapshot`] with **quantized columns**: the full
/// columns are delta-encoded on a uniform grid of step `2·max_error`
/// (every decoded coordinate within `max_error` of the original), which
/// typically shrinks the file severalfold at metric-scale bounds. The
/// kept bitmap is stored exactly — the simplified *selection* is
/// lossless, only coordinates are rounded.
pub fn write_simplified_snapshot_quantized<S, P>(
    store: &S,
    simp: &Simplification,
    max_error: f64,
    path: P,
) -> Result<(), SnapshotError>
where
    S: AsColumns + ?Sized,
    P: AsRef<Path>,
{
    let bitmap = simp.to_bitmap(store);
    write_snapshot_quantized(store, Some(&bitmap), max_error, path)
}

/// One-shot pipeline: simplify `store` to `budget` points with
/// `simplifier`, then persist the result as a kept-bitmap snapshot.
/// Returns the simplification so callers can report its statistics.
pub fn simplify_to_snapshot<P: AsRef<Path>>(
    simplifier: &dyn Simplifier,
    store: &PointStore,
    budget: usize,
    path: P,
) -> Result<Simplification, SnapshotError> {
    let simp = simplifier.simplify_store(store, budget);
    write_simplified_snapshot(store, &simp, path)?;
    Ok(simp)
}

// ---------------------------------------------------------------------
// Sharded simplification.
// ---------------------------------------------------------------------

/// Splits a database-level point budget across shards proportional to
/// their point counts (largest-remainder rounding, total never exceeds
/// `budget`). Per-shard floors are left to the simplifiers themselves —
/// every algorithm already clamps to its endpoint minimum.
#[must_use]
pub fn per_shard_budgets(shards: &[Shard], budget: usize) -> Vec<usize> {
    let total: usize = shards.iter().map(|s| s.store.total_points()).sum();
    if total == 0 {
        return vec![0; shards.len()];
    }
    let mut budgets = Vec::with_capacity(shards.len());
    let mut fractional: Vec<(f64, usize)> = Vec::with_capacity(shards.len());
    let mut assigned = 0usize;
    for (i, shard) in shards.iter().enumerate() {
        let share = budget as f64 * shard.store.total_points() as f64 / total as f64;
        let whole = (share.floor() as usize).min(shard.store.total_points());
        budgets.push(whole);
        assigned += whole;
        fractional.push((share - whole as f64, i));
    }
    let mut leftover = budget.saturating_sub(assigned);
    fractional.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
    for (_, i) in fractional {
        if leftover == 0 {
            break;
        }
        if budgets[i] < shards[i].store.total_points() {
            budgets[i] += 1;
            leftover -= 1;
        }
    }
    budgets
}

/// Simplifies every shard independently with its proportional slice of
/// `budget`, in parallel across shards (shards share nothing, and
/// [`Simplifier`] is `Send + Sync`). Returns one shard-local
/// [`Simplification`] per shard, in shard order.
#[must_use]
pub fn simplify_shards(
    simplifier: &dyn Simplifier,
    shards: &[Shard],
    budget: usize,
) -> Vec<Simplification> {
    let budgets = per_shard_budgets(shards, budget);
    parallel::par_map_indexed(shards, |i, shard| {
        simplifier.simplify_store(&shard.store, budgets[i])
    })
}

/// Persists a sharded simplified database: one snapshot per shard
/// carrying that shard's full columns plus its kept bitmap, tied together
/// by the manifest. `simps[i]` must be shard-local (as produced by
/// [`simplify_shards`]).
pub fn write_simplified_shard_set(
    dir: impl AsRef<Path>,
    shards: &[Shard],
    simps: &[Simplification],
) -> Result<ShardSet, ShardSetError> {
    assert_eq!(
        shards.len(),
        simps.len(),
        "one simplification per shard required"
    );
    let kept: Vec<KeptBitmap> = shards
        .iter()
        .zip(simps)
        .map(|(shard, simp)| simp.to_bitmap(&shard.store))
        .collect();
    ShardSet::write_with(dir, shards, &kept)
}

/// One-shot sharded pipeline: simplify every shard to its proportional
/// budget slice (in parallel), then persist the whole set as kept-bitmap
/// snapshots. Returns the per-shard simplifications so callers can report
/// statistics.
pub fn simplify_to_shard_set(
    simplifier: &dyn Simplifier,
    shards: &[Shard],
    budget: usize,
    dir: impl AsRef<Path>,
) -> Result<Vec<Simplification>, ShardSetError> {
    let simps = simplify_shards(simplifier, shards, budget);
    write_simplified_shard_set(dir, shards, &simps)?;
    Ok(simps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Uniform;
    use trajectory::gen::{generate, DatasetSpec, Scale};
    use trajectory::snapshot::{read_snapshot, MappedStore};

    fn temp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("qdts_simp_persist_tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name)
    }

    #[test]
    fn sharded_simplify_respects_budget_and_round_trips() {
        use trajectory::shard::{partition, PartitionStrategy, ShardSet};

        let store = generate(&DatasetSpec::geolife(Scale::Smoke), 31).to_store();
        let shards = partition(&store, &PartitionStrategy::Time { parts: 3 });
        let budget = store.total_points() / 2;

        let budgets = per_shard_budgets(&shards, budget);
        assert_eq!(budgets.len(), shards.len());
        assert!(budgets.iter().sum::<usize>() <= budget);
        // Proportionality: bigger shards get bigger slices.
        for (a, b) in shards.iter().zip(&budgets) {
            assert!(*b <= a.store.total_points());
        }

        let dir = std::env::temp_dir()
            .join("qdts_simp_persist_tests")
            .join(format!("sharded_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let simps = simplify_to_shard_set(&Uniform, &shards, budget, &dir).unwrap();
        assert_eq!(simps.len(), shards.len());
        let kept_total: usize = simps.iter().map(Simplification::total_points).sum();
        assert!(
            kept_total <= budget + 2 * store.len(),
            "endpoint floors only"
        );

        // Reopen: every shard carries its bitmap, populations match.
        let set = ShardSet::load(&dir).unwrap();
        for (open, simp) in set.open_mapped().unwrap().iter().zip(&simps) {
            let bitmap = open.kept.as_ref().expect("kept bitmap persisted");
            assert_eq!(bitmap.count(), simp.total_points());
        }
        // Parallel per-shard simplify equals the sequential definition.
        let budgets = per_shard_budgets(&shards, budget);
        for (i, shard) in shards.iter().enumerate() {
            assert_eq!(simps[i], Uniform.simplify_store(&shard.store, budgets[i]));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quantized_shard_set_round_trips_bitmaps() {
        use trajectory::shard::{partition, PartitionStrategy, ShardSet};

        let store = generate(&DatasetSpec::geolife(Scale::Smoke), 13).to_store();
        let shards = partition(&store, &PartitionStrategy::Time { parts: 2 });
        let budget = store.total_points() / 2;
        let simps = simplify_shards(&Uniform, &shards, budget);
        let kept: Vec<KeptBitmap> = shards
            .iter()
            .zip(&simps)
            .map(|(shard, simp)| simp.to_bitmap(&shard.store))
            .collect();

        let dir = std::env::temp_dir()
            .join("qdts_simp_persist_tests")
            .join(format!("sharded_q_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        ShardSet::write_quantized(&dir, &shards, Some(&kept), 0.5).unwrap();

        let set = ShardSet::load(&dir).unwrap();
        let opened = set.open_mapped().unwrap();
        assert_eq!(opened.len(), shards.len());
        for ((open, simp), expected) in opened.iter().zip(&simps).zip(&kept) {
            let bitmap = open.kept.as_ref().expect("kept bitmap persisted");
            assert_eq!(bitmap.count(), simp.total_points());
            assert_eq!(bitmap, expected);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quantized_simplified_snapshot_keeps_bitmap_exact_and_bounds_coords() {
        let store = generate(&DatasetSpec::geolife(Scale::Smoke), 77).to_store();
        let budget = store.total_points() / 3;
        let max_error = 0.5;
        let raw_path = temp("simplified_raw.snap");
        let q_path = temp("simplified_quantized.snap");

        let simp = Uniform.simplify_store(&store, budget);
        let expected = simp.to_bitmap(&store);
        write_simplified_snapshot(&store, &simp, &raw_path).unwrap();
        write_simplified_snapshot_quantized(&store, &simp, max_error, &q_path).unwrap();

        let raw_len = std::fs::metadata(&raw_path).unwrap().len();
        let q_len = std::fs::metadata(&q_path).unwrap().len();
        assert!(
            q_len * 2 < raw_len,
            "quantized simplified snapshot should be at least 2x smaller: {q_len} vs {raw_len}"
        );

        // Bitmap exact, coordinates within the stored bound.
        let snap = read_snapshot(&q_path).unwrap();
        assert_eq!(snap.kept.as_ref(), Some(&expected));
        assert_eq!(snap.quant.map(|q| q.max_error), Some(max_error));
        assert_eq!(snap.store.offsets(), store.offsets());
        for (orig, dec) in [
            (store.xs(), snap.store.xs()),
            (store.ys(), snap.store.ys()),
            (store.ts(), snap.store.ts()),
        ] {
            for (a, b) in orig.iter().zip(dec) {
                assert!((a - b).abs() <= max_error * 1.000_001);
            }
        }

        // The mapped open serves the same decoded columns and bitmap.
        let mapped = MappedStore::open(&q_path).unwrap();
        assert_eq!(mapped.kept_bitmap().as_ref(), Some(&expected));
        assert_eq!(mapped.xs(), snap.store.xs());
        std::fs::remove_file(&raw_path).ok();
        std::fs::remove_file(&q_path).ok();
    }

    #[test]
    fn simplified_snapshot_round_trips_store_and_bitmap() {
        let store = generate(&DatasetSpec::geolife(Scale::Smoke), 21).to_store();
        let budget = store.total_points() / 3;
        let path = temp("uniform_simplified.snap");

        let simp = simplify_to_snapshot(&Uniform, &store, budget, &path).unwrap();
        let expected = simp.to_bitmap(&store);

        let snap = read_snapshot(&path).unwrap();
        assert_eq!(snap.store, store, "full columns persist alongside D'");
        assert_eq!(snap.kept.as_ref(), Some(&expected));

        let mapped = MappedStore::open(&path).unwrap();
        assert_eq!(mapped.kept_bitmap().as_ref(), Some(&expected));
        assert_eq!(
            mapped.kept_bitmap().unwrap().count(),
            simp.total_points(),
            "bitmap population = |D'|"
        );
        std::fs::remove_file(&path).ok();
    }
}
