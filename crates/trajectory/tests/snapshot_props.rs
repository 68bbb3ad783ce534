//! Property-based tests for the snapshot persistence layer: every store
//! round-trips byte-identically through both load paths (owned read and
//! zero-copy mapping), kept bitmaps survive alongside, and *any*
//! single-byte corruption is rejected with a typed error — never a panic,
//! never silently wrong data. The streaming writer produces the bytes of
//! a file-sized reference image, whole or from parts, and its incremental
//! XXH64 is the one-shot hash under any split.

use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use trajectory::snapshot::{
    put_f64, put_u32, put_u64, read_snapshot_bytes, snapshot_bytes, write_snapshot_to,
    write_snapshot_with, xxh64, MappedStore, SnapshotError, Xxh64, HEADER_LEN,
};
use trajectory::{AsColumns, KeptBitmap, Point, PointStore, Trajectory};

/// Strategy: a database of 1..8 trajectories with 1..30 points each
/// (bounded coordinates, non-decreasing times), as a columnar store.
fn arb_store() -> impl Strategy<Value = PointStore> {
    prop::collection::vec(
        prop::collection::vec((-1e5..1e5f64, -1e5..1e5f64, 0.0..60.0f64), 1..30),
        1..8,
    )
    .prop_map(|trajs| {
        trajs
            .into_iter()
            .map(|steps| {
                let mut t = 0.0;
                let pts = steps
                    .into_iter()
                    .map(|(x, y, dt)| {
                        t += dt;
                        Point::new(x, y, t)
                    })
                    .collect();
                Trajectory::new(pts).unwrap()
            })
            .collect()
    })
}

/// Strategy: a kept bitmap over `n` points with roughly the given keep
/// probability (endpoints not special-cased — the format does not care).
fn arb_bitmap(n: usize) -> impl Strategy<Value = KeptBitmap> {
    prop::collection::vec(any::<bool>(), n).prop_map(move |bits| {
        let mut b = KeptBitmap::zeros(n);
        for (i, keep) in bits.iter().enumerate() {
            if *keep {
                b.insert(i as u32);
            }
        }
        b
    })
}

/// A unique temp path per invocation so property cases never collide.
fn unique_temp(tag: &str) -> std::path::PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join("qdts_snapshot_props");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!(
        "{tag}_{}_{}.snap",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn owned_and_mapped_round_trips_are_byte_identical(store in arb_store()) {
        let bytes = snapshot_bytes(&store, None);

        // Owned path: full structural equality.
        let snap = read_snapshot_bytes(&bytes).unwrap();
        prop_assert_eq!(&snap.store, &store);
        prop_assert!(snap.kept.is_none());

        // Mapped path: identical columns, offsets, and per-trajectory
        // views straight off the file.
        let path = unique_temp("round_trip");
        std::fs::write(&path, &bytes).unwrap();
        let mapped = MappedStore::open(&path).unwrap();
        prop_assert_eq!(mapped.xs(), store.xs());
        prop_assert_eq!(mapped.ys(), store.ys());
        prop_assert_eq!(mapped.ts(), store.ts());
        prop_assert_eq!(mapped.offsets(), store.offsets());
        prop_assert_eq!(AsColumns::len(&mapped), store.len());
        for id in 0..store.len() {
            let (m, o) = (AsColumns::view(&mapped, id), store.view(id));
            prop_assert_eq!(m.xs, o.xs);
            prop_assert_eq!(m.ys, o.ys);
            prop_assert_eq!(m.ts, o.ts);
        }
        prop_assert_eq!(
            AsColumns::bounding_cube(&mapped),
            PointStore::bounding_cube(&store)
        );
        // Detaching the mapping yields the original store again.
        prop_assert_eq!(&mapped.to_point_store(), &store);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn kept_bitmaps_survive_both_load_paths(
        (store, bitmap) in arb_store().prop_flat_map(|s| {
            let n = s.total_points();
            (Just(s), arb_bitmap(n))
        })
    ) {
        let bytes = snapshot_bytes(&store, Some(&bitmap));
        let snap = read_snapshot_bytes(&bytes).unwrap();
        prop_assert_eq!(&snap.store, &store);
        prop_assert_eq!(snap.kept.as_ref(), Some(&bitmap));

        let path = unique_temp("kept");
        std::fs::write(&path, &bytes).unwrap();
        let mapped = MappedStore::open(&path).unwrap();
        let mapped_bitmap = mapped.kept_bitmap();
        prop_assert_eq!(mapped_bitmap.as_ref(), Some(&bitmap));
        // Membership agrees bit-for-bit through the mapped words.
        let roundtrip = mapped_bitmap.unwrap();
        for gid in 0..store.total_points() as u32 {
            prop_assert_eq!(roundtrip.contains(gid), bitmap.contains(gid));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_single_byte_flip_is_rejected_with_a_typed_error(
        (store, flip, bit) in (arb_store(), 0.0..1.0f64, 0u8..8)
    ) {
        // The checksum covers everything before it, and the header's
        // geometry is canonical — so flipping ANY bit of the file must
        // surface as a typed SnapshotError from both load paths.
        let mut bytes = snapshot_bytes(&store, None);
        let idx = ((bytes.len() - 1) as f64 * flip) as usize;
        bytes[idx] ^= 1 << bit;

        let owned = read_snapshot_bytes(&bytes);
        prop_assert!(owned.is_err(), "flip at {idx} accepted by owned read");
        prop_assert!(
            !matches!(owned.unwrap_err(), SnapshotError::Io(_)),
            "owned read surfaced corruption as Io"
        );

        let path = unique_temp("corrupt");
        std::fs::write(&path, &bytes).unwrap();
        let mapped = MappedStore::open(&path);
        prop_assert!(mapped.is_err(), "flip at {idx} accepted by mmap open");
        prop_assert!(
            !matches!(mapped.unwrap_err(), SnapshotError::Io(_)),
            "mmap open surfaced corruption as Io"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_truncation_is_rejected(
        (store, frac) in (arb_store(), 0.0..1.0f64)
    ) {
        let bytes = snapshot_bytes(&store, None);
        let cut = ((bytes.len() - 1) as f64 * frac) as usize;
        let err = read_snapshot_bytes(&bytes[..cut]).unwrap_err();
        prop_assert!(
            matches!(
                err,
                SnapshotError::Truncated { .. } | SnapshotError::SectionOutOfBounds { .. }
            ),
            "cut at {cut}/{} gave {err}",
            bytes.len()
        );
    }

    #[test]
    fn header_example_constants_hold_for_all_stores(store in arb_store()) {
        // The invariants the format spec documents: canonical section
        // offsets, 64-byte alignment, zero reserved region, trailing
        // checksum position.
        let bytes = snapshot_bytes(&store, None);
        let u64_at = |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().unwrap());
        prop_assert_eq!(u64_at(16) as usize, store.len());
        prop_assert_eq!(u64_at(24) as usize, store.total_points());
        prop_assert_eq!(u64_at(32) as usize, HEADER_LEN);
        for field in [32usize, 40, 48, 56, 72] {
            prop_assert_eq!(u64_at(field) % 64, 0, "field at {} misaligned", field);
        }
        prop_assert!(bytes[80..128].iter().all(|&b| b == 0));
        prop_assert_eq!(bytes.len(), u64_at(72) as usize + 8);
    }
}

/// The image the writer built before it streamed: a file-sized zeroed
/// buffer, every section put at its canonical offset (format spec), and
/// the checksum over everything before it. The reference the streamed
/// bytes must equal.
fn reference_image(store: &PointStore, kept: Option<&KeptBitmap>) -> Vec<u8> {
    let align = |n: usize| n.div_ceil(64) * 64;
    let (m, n) = (store.len(), store.total_points());
    let xs_off = HEADER_LEN;
    let ys_off = align(xs_off + 8 * n);
    let ts_off = align(ys_off + 8 * n);
    let offsets_off = align(ts_off + 8 * n);
    let offsets_end = offsets_off + 4 * (m + 1);
    let kept_off = kept.map(|_| align(offsets_end));
    let checksum_off = align(kept_off.map_or(offsets_end, |off| off + 8 * n.div_ceil(64)));
    let mut buf = vec![0u8; checksum_off + 8];
    buf[..8].copy_from_slice(b"QDTSNAP\0");
    put_u32(&mut buf, 8, 2);
    put_u32(&mut buf, 12, u32::from(kept.is_some()));
    for (at, v) in [
        (16, m),
        (24, n),
        (32, xs_off),
        (40, ys_off),
        (48, ts_off),
        (56, offsets_off),
        (64, kept_off.unwrap_or(0)),
        (72, checksum_off),
    ] {
        put_u64(&mut buf, at, v as u64);
    }
    for (off, column) in [
        (xs_off, store.xs()),
        (ys_off, store.ys()),
        (ts_off, store.ts()),
    ] {
        for (i, &v) in column.iter().enumerate() {
            put_f64(&mut buf, off + 8 * i, v);
        }
    }
    for (i, &o) in store.offsets().iter().enumerate() {
        put_u32(&mut buf, offsets_off + 4 * i, o);
    }
    if let (Some(off), Some(k)) = (kept_off, kept) {
        for (i, &w) in k.words().iter().enumerate() {
            put_u64(&mut buf, off + 8 * i, w);
        }
    }
    let sum = xxh64(&buf[..checksum_off]);
    put_u64(&mut buf, checksum_off, sum);
    buf
}

/// What [`write_snapshot_with`] leaves on disk.
fn streamed_file(store: &PointStore, kept: Option<&KeptBitmap>) -> Vec<u8> {
    let path = unique_temp("streamed");
    write_snapshot_with(store, kept, &path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    bytes
}

#[test]
fn the_empty_store_streams_the_reference_image() {
    let empty = PointStore::new();
    for kept in [None, Some(KeptBitmap::zeros(0))] {
        let expected = reference_image(&empty, kept.as_ref());
        assert_eq!(streamed_file(&empty, kept.as_ref()), expected);
        assert_eq!(snapshot_bytes(&empty, kept.as_ref()), expected);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn the_streamed_file_is_the_reference_image(
        (store, bitmap, with_kept) in arb_store().prop_flat_map(|s| {
            let n = s.total_points();
            (Just(s), arb_bitmap(n), any::<bool>())
        })
    ) {
        let kept = with_kept.then_some(&bitmap);
        let expected = reference_image(&store, kept);
        prop_assert_eq!(streamed_file(&store, kept), expected.clone());
        prop_assert_eq!(snapshot_bytes(&store, kept), expected);
    }

    #[test]
    fn a_k_part_write_is_the_write_of_the_concatenation(
        (store, bitmap, with_kept, cuts) in arb_store().prop_flat_map(|s| {
            let (n, m) = (s.total_points(), s.len());
            (
                Just(s),
                arb_bitmap(n),
                any::<bool>(),
                prop::collection::vec(0..=m, 0..5),
            )
        })
    ) {
        // Cut the trajectory list at `cuts` (sorted, repeats give empty
        // parts) into consecutive parts.
        let mut cuts = cuts;
        cuts.sort_unstable();
        let mut parts = Vec::new();
        let mut from = 0;
        for end in cuts.into_iter().chain([store.len()]) {
            let mut part = PointStore::new();
            for id in from..end {
                part.push_view(store.view(id));
            }
            parts.push(part);
            from = end;
        }
        let refs: Vec<&PointStore> = parts.iter().collect();
        let kept = with_kept.then_some(&bitmap);
        let written = write_snapshot_to(&refs, kept, Vec::new()).unwrap();
        prop_assert_eq!(written, snapshot_bytes(&store, kept), "{} parts", parts.len());
    }

    #[test]
    fn incremental_xxh64_equals_the_one_shot_hash_for_every_split(
        bytes in prop::collection::vec(any::<u8>(), 0..130)
    ) {
        // Every two-piece split, and every three-piece split — cuts
        // inside a 32-byte stripe and on its edges alike.
        let whole = xxh64(&bytes);
        for i in 0..=bytes.len() {
            let mut h = Xxh64::new();
            h.update(&bytes[..i]);
            h.update(&bytes[i..]);
            prop_assert_eq!(h.finish(), whole, "split at {}", i);
            for j in i..=bytes.len() {
                let mut h = Xxh64::new();
                h.update(&bytes[..i]);
                h.update(&bytes[i..j]);
                h.update(&bytes[j..]);
                prop_assert_eq!(h.finish(), whole, "split at {} and {}", i, j);
            }
        }
    }
}
