//! Snapshots written before the version-2 bump still open. The two
//! fixtures under `tests/fixtures/` were written by the version-1 writer
//! (FNV-1a checksum) from [`fixture_store`]: `v1_plain_kept.snap` raw with
//! [`fixture_kept`]'s bitmap, `v1_quantized.snap` quantized at
//! `max_error = 0.25` without one. Both load paths must read from them
//! the columns and kept bits the version-2 writer's images of the same
//! store read — the images differ in the version field and the checksum
//! only — and a flipped bit must still be rejected.

use trajectory::snapshot::{
    get_u32, get_u64, quantized_snapshot_bytes, read_snapshot, read_snapshot_bytes, snapshot_bytes,
    xxh64, MappedStore, SnapshotError,
};
use trajectory::{AsColumns, KeptBitmap, Point, PointStore};

const PLAIN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/v1_plain_kept.snap"
);
const QUANTIZED: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/v1_quantized.snap"
);

/// Six trajectories of 24 to 49 points, from integer arithmetic only, so
/// every build computes the same bits.
fn fixture_store() -> PointStore {
    let mut store = PointStore::new();
    for i in 0..6u32 {
        let pts: Vec<Point> = (0..24 + 5 * i)
            .map(|j| {
                let (fi, fj) = (f64::from(i), f64::from(j));
                Point::new(
                    1_000.0 * fi + 37.5 * fj + f64::from(j * j % 7),
                    500.0 * fi - 12.25 * fj + f64::from(j % 5),
                    60.0 * fj + 15.0 * fi,
                )
            })
            .collect();
        store.push_points(&pts);
    }
    store
}

/// Each trajectory's endpoints and every third point from its first.
fn fixture_kept(store: &PointStore) -> KeptBitmap {
    let mut kept = KeptBitmap::zeros(store.total_points());
    for id in 0..store.len() {
        let range = store.global_range(id);
        let (first, last) = (range.start, range.end - 1);
        for g in range {
            if g == last || (g - first) % 3 == 0 {
                kept.insert(g as u32);
            }
        }
    }
    kept
}

/// `v1` is a version-1 file whose bytes differ from the version-2 image
/// `v2` only in the version field and the trailing checksum.
fn assert_v1_twin_of(v1: &[u8], v2: &[u8]) {
    assert_eq!(get_u32(v1, 8), 1, "a version-1 fixture");
    assert_eq!(get_u32(v2, 8), 2);
    assert_eq!(v1.len(), v2.len());
    let sum_off = v1.len() - 8;
    let differing: Vec<usize> = (0..v1.len()).filter(|&i| v1[i] != v2[i]).collect();
    assert!(
        differing.iter().all(|&i| i == 8 || i >= sum_off),
        "layouts differ at {differing:?}"
    );
}

#[test]
fn a_v1_file_with_a_kept_bitmap_reads_as_it_was_written() {
    let store = fixture_store();
    let kept = fixture_kept(&store);
    assert_v1_twin_of(
        &std::fs::read(PLAIN).unwrap(),
        &snapshot_bytes(&store, Some(&kept)),
    );

    let snap = read_snapshot(PLAIN).unwrap();
    assert_eq!(snap.store, store);
    assert_eq!(snap.kept.as_ref(), Some(&kept));
    assert_eq!(snap.quant, None);

    let mapped = MappedStore::open(PLAIN).unwrap();
    assert_eq!(mapped.xs(), store.xs());
    assert_eq!(mapped.ys(), store.ys());
    assert_eq!(mapped.ts(), store.ts());
    assert_eq!(mapped.offsets(), store.offsets());
    assert_eq!(mapped.kept_bitmap().as_ref(), Some(&kept));
}

#[test]
fn a_v1_quantized_file_decodes_as_its_v2_twin() {
    let store = fixture_store();
    let v2 = quantized_snapshot_bytes(&store, None, 0.25).unwrap();
    assert_v1_twin_of(&std::fs::read(QUANTIZED).unwrap(), &v2);

    let snap = read_snapshot(QUANTIZED).unwrap();
    assert_eq!(snap, read_snapshot_bytes(&v2).unwrap());
    assert_eq!(snap.store.offsets(), store.offsets());
    assert_eq!(snap.kept, None);

    let mapped = MappedStore::open(QUANTIZED).unwrap();
    assert_eq!(mapped.xs(), snap.store.xs());
    assert_eq!(mapped.ys(), snap.store.ys());
    assert_eq!(mapped.ts(), snap.store.ts());
    assert_eq!(AsColumns::len(&mapped), store.len());
    assert_eq!(mapped.kept_words(), None);
}

#[test]
fn a_flipped_bit_in_a_v1_file_is_still_rejected() {
    let dir = std::env::temp_dir().join("qdts_snapshot_v1");
    std::fs::create_dir_all(&dir).unwrap();
    for fixture in [PLAIN, QUANTIZED] {
        let good = std::fs::read(fixture).unwrap();
        let xs_off = get_u64(&good, 32) as usize;
        for pos in [xs_off + 3, good.len() / 2, good.len() - 9, good.len() - 1] {
            let mut bad = good.clone();
            bad[pos] ^= 0x08;
            assert!(
                matches!(
                    read_snapshot_bytes(&bad),
                    Err(SnapshotError::ChecksumMismatch { .. })
                ),
                "{fixture}: flip at {pos}"
            );
            let path = dir.join(format!("flip_{}_{pos}.snap", std::process::id()));
            std::fs::write(&path, &bad).unwrap();
            assert!(
                matches!(
                    MappedStore::open(&path),
                    Err(SnapshotError::ChecksumMismatch { .. })
                ),
                "{fixture}: flip at {pos}, mapped"
            );
            std::fs::remove_file(&path).ok();
        }
        // The version picks the checksum: a v1 file sealed with XXH64 is
        // as corrupt as a flipped bit.
        let mut resealed = good.clone();
        let sum_off = good.len() - 8;
        let xxh_sum = xxh64(&good[..sum_off]);
        resealed[sum_off..].copy_from_slice(&xxh_sum.to_le_bytes());
        assert!(matches!(
            read_snapshot_bytes(&resealed),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
    }
}
