//! Property-based equality tests for the vectorized kernels: on every
//! input — including NaN lanes, empty slices, and lengths straddling the
//! lane width — the dispatching kernel must agree with the scalar
//! reference implementation it is defined against. Boolean and
//! selection kernels must agree *exactly*; floating-point accumulations
//! may differ only by reassociation error (lane accumulators summed
//! horizontally), bounded by a tight relative tolerance.
//!
//! The same file runs under three dispatch configurations: the default
//! build (AVX2/NEON when the CPU has it), `QDTS_FORCE_SCALAR=1` (CI's
//! scalar-only job), and `--no-default-features` (the `simd` feature
//! compiled out) — so the equality properties pin all backends to one
//! semantics, not just the one this machine happens to select.

use proptest::prelude::*;
use trajectory::bbox::Cube;
use trajectory::simd;

/// Strategy: a coordinate value, occasionally NaN so the "NaN is never
/// contained / NaN is ignored by bounds" contract is exercised.
fn arb_coord() -> impl Strategy<Value = f64> {
    prop_oneof![
        9 => -1e4..1e4f64,
        1 => Just(f64::NAN),
    ]
}

/// Strategy: three equal-length coordinate columns (0..130 points, so
/// lengths cross the 4-lane blocks and the 64-bit mask words).
fn arb_columns() -> impl Strategy<Value = (Vec<f64>, Vec<f64>, Vec<f64>)> {
    (0usize..130).prop_flat_map(|n| {
        (
            prop::collection::vec(arb_coord(), n),
            prop::collection::vec(arb_coord(), n),
            prop::collection::vec(arb_coord(), n),
        )
    })
}

/// Strategy: a cube small enough that containment is non-trivially
/// selective over `arb_coord`'s range.
fn arb_cube() -> impl Strategy<Value = Cube> {
    (
        -1e4..1e4f64,
        0.0..5e3f64,
        -1e4..1e4f64,
        0.0..5e3f64,
        -1e4..1e4f64,
        0.0..5e3f64,
    )
        .prop_map(|(x0, dx, y0, dy, t0, dt)| Cube {
            x_min: x0,
            x_max: x0 + dx,
            y_min: y0,
            y_max: y0 + dy,
            t_min: t0,
            t_max: t0 + dt,
        })
}

/// Strategy: a bitmap (as raw words) covering bits `[0, base + n)`, plus
/// the base offset — mirroring a trajectory's run inside a store-wide
/// kept bitmap. Bias toward all-zero and all-one words so the fast
/// skip/full-span paths are hit, not just the bit-by-bit path.
fn arb_mask(n: usize) -> impl Strategy<Value = (Vec<u64>, usize)> {
    (0usize..150).prop_flat_map(move |base| {
        let words = (base + n).div_ceil(64).max(1);
        (
            prop::collection::vec(
                prop_oneof![2 => Just(0u64), 2 => Just(!0u64), 3 => any::<u64>()],
                words,
            ),
            Just(base),
        )
    })
}

/// Reference for the masked kernels: bit `base + i` gates index `i`.
fn bit_set(words: &[u64], bit: usize) -> bool {
    words[bit / 64] >> (bit % 64) & 1 == 1
}

/// Relative-tolerance comparison for lane-reassociated float sums.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn any_in_cube_matches_scalar_exactly(
        (xs, ys, ts) in arb_columns(),
        cube in arb_cube(),
    ) {
        prop_assert_eq!(
            simd::any_in_cube(&xs, &ys, &ts, &cube),
            simd::scalar::any_in_cube(&xs, &ys, &ts, &cube)
        );
    }

    /// Chunked the way the range walkers chunk a leaf (≤ 64 points a
    /// call), the mask names exactly the contained points — NaN lanes and
    /// a final chunk of exactly 64 included.
    #[test]
    fn in_cube_mask_matches_scalar_exactly(
        (xs, ys, ts) in arb_columns(),
        cube in arb_cube(),
    ) {
        for base in (0..xs.len()).step_by(64) {
            let end = (base + 64).min(xs.len());
            let (x, y, t) = (&xs[base..end], &ys[base..end], &ts[base..end]);
            let mask = simd::in_cube_mask(x, y, t, &cube);
            prop_assert_eq!(mask, simd::scalar::in_cube_mask(x, y, t, &cube));
            for i in 0..64 {
                let inside = i < x.len() && cube.contains_xyz(x[i], y[i], t[i]);
                prop_assert_eq!(mask >> i & 1 == 1, inside, "bit {} of chunk at {}", i, base);
            }
        }
    }

    #[test]
    fn min_max_matches_scalar_exactly((xs, _, _) in arb_columns()) {
        // min/max are exact operations — no tolerance even across lanes,
        // and NaNs must be ignored identically.
        prop_assert_eq!(simd::min_max(&xs), simd::scalar::min_max(&xs));
    }

    #[test]
    fn min_max_brackets_every_finite_value((xs, _, _) in arb_columns()) {
        let (lo, hi) = simd::min_max(&xs);
        for &v in xs.iter().filter(|v| !v.is_nan()) {
            prop_assert!(lo <= v && v <= hi);
        }
    }

    #[test]
    fn distance_kernels_match_scalar_within_reassociation(
        (a, b, c) in arb_columns(),
    ) {
        // NaN-free inputs here: tolerance comparison is meaningless on NaN,
        // and the containment tests already pin NaN behaviour.
        let clean = |v: &[f64]| -> Vec<f64> {
            v.iter().map(|x| if x.is_nan() { 0.5 } else { *x }).collect()
        };
        let (a, b, c) = (clean(&a), clean(&b), clean(&c));
        prop_assert!(close(
            simd::squared_distance(&a, &b),
            simd::scalar::squared_distance(&a, &b)
        ));
        prop_assert!(close(simd::sum_squares(&a), simd::scalar::sum_squares(&a)));
        prop_assert!(close(
            simd::squared_distance_2d(&a, &b, &c, &a),
            simd::scalar::squared_distance(&a, &c)
                + simd::scalar::squared_distance(&b, &a)
        ));
    }

    #[test]
    fn masked_containment_matches_bit_by_bit_reference(
        ((xs, ys, ts), (words, base)) in arb_columns()
            .prop_flat_map(|cols| {
                let n = cols.0.len();
                (Just(cols), arb_mask(n))
            }),
        cube in arb_cube(),
    ) {
        let n = xs.len();
        let expected = (0..n).any(|i| {
            bit_set(&words, base + i) && cube.contains_xyz(xs[i], ys[i], ts[i])
        });
        prop_assert_eq!(
            simd::any_masked_in_cube(&xs, &ys, &ts, &words, base, &cube),
            expected
        );
    }

    #[test]
    fn gather_matches_index_order_reference(
        ((src, _, _), (words, base)) in arb_columns()
            .prop_flat_map(|cols| {
                let n = cols.0.len();
                (Just(cols), arb_mask(n))
            }),
    ) {
        let expected: Vec<f64> = (0..src.len())
            .filter(|&i| bit_set(&words, base + i))
            .map(|i| src[i])
            .collect();
        let mut out = vec![-1.0]; // pre-existing content must survive
        let appended = simd::gather_masked(&src, &words, base, &mut out);
        prop_assert_eq!(appended, expected.len());
        prop_assert_eq!(out[0].to_bits(), (-1.0f64).to_bits());
        // Bitwise comparison so gathered NaNs count as equal.
        let got: Vec<u64> = out[1..].iter().map(|v| v.to_bits()).collect();
        let want: Vec<u64> = expected.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn masked_containment_with_all_ones_equals_unmasked(
        (xs, ys, ts) in arb_columns(),
        cube in arb_cube(),
        base in 0usize..100,
    ) {
        let words = vec![!0u64; (base + xs.len()).div_ceil(64).max(1)];
        prop_assert_eq!(
            simd::any_masked_in_cube(&xs, &ys, &ts, &words, base, &cube),
            simd::any_in_cube(&xs, &ys, &ts, &cube)
        );
    }

    #[test]
    fn masked_containment_with_all_zeros_is_false(
        (xs, ys, ts) in arb_columns(),
        cube in arb_cube(),
        base in 0usize..100,
    ) {
        let words = vec![0u64; (base + xs.len()).div_ceil(64).max(1)];
        prop_assert!(!simd::any_masked_in_cube(&xs, &ys, &ts, &words, base, &cube));
    }
}

/// Forcing scalar dispatch at runtime must flip `simd_active()` off and
/// make every kernel bit-identical to the scalar reference — this is the
/// switch CI's scalar-only job relies on. Kept outside
/// `proptest!` and run on fixed vectors because it mutates global
/// dispatch state (concurrent equality properties stay valid under
/// either dispatch, since both sides of their assertions are
/// dispatch-agnostic or tolerance-compared).
#[test]
fn force_scalar_pins_dispatch_to_the_reference() {
    let xs: Vec<f64> = (0..257).map(|i| (i as f64).sin() * 1e3).collect();
    let ys: Vec<f64> = (0..257).map(|i| (i as f64).cos() * 1e3).collect();
    let ts: Vec<f64> = (0..257).map(|i| i as f64).collect();
    let cube = Cube {
        x_min: -500.0,
        x_max: 500.0,
        y_min: -500.0,
        y_max: 500.0,
        t_min: 0.0,
        t_max: 300.0,
    };
    simd::set_force_scalar(true);
    assert!(!simd::simd_active());
    assert_eq!(simd::active_backend(), "scalar");
    let forced = (
        simd::any_in_cube(&xs, &ys, &ts, &cube),
        simd::min_max(&xs),
        simd::squared_distance(&xs, &ys).to_bits(),
        simd::sum_squares(&ts).to_bits(),
        simd::in_cube_mask(&xs[..64], &ys[..64], &ts[..64], &cube),
    );
    simd::set_force_scalar(false);
    assert_eq!(forced.0, simd::scalar::any_in_cube(&xs, &ys, &ts, &cube));
    assert_eq!(forced.1, simd::scalar::min_max(&xs));
    assert_eq!(forced.2, simd::scalar::squared_distance(&xs, &ys).to_bits());
    assert_eq!(forced.3, simd::scalar::sum_squares(&ts).to_bits());
    assert_eq!(
        forced.4,
        simd::scalar::in_cube_mask(&xs[..64], &ys[..64], &ts[..64], &cube)
    );
}
