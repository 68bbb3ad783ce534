//! Runtime-dispatched SIMD kernels for the columnar hot loops.
//!
//! The storage layer is columnar end-to-end precisely so the hot loops
//! can vectorize: a range query is six lane-wide compares over
//! contiguous `xs`/`ys`/`ts` runs, a distance is a lane-wide
//! multiply-accumulate, a kept-bitmap scan is a word-skip over `u64`
//! words. This module provides those primitives once, with three
//! backends behind one dispatching API:
//!
//! - **AVX2** on `x86_64` (runtime-detected with
//!   [`is_x86_feature_detected!`]), 4 × `f64` lanes;
//! - **NEON** on `aarch64` (runtime-detected), 2 × `f64` lanes;
//! - **scalar** everywhere else — and always available as the
//!   [`scalar`] submodule, so property tests can pin `scalar == SIMD`
//!   without toggling global state.
//!
//! Dispatch is decided once per process (cached feature detection) and
//! can be overridden two ways, both of which force the scalar backend:
//! the `QDTS_FORCE_SCALAR=1` environment variable (read once at first
//! kernel call — how CI's scalar-only job runs the whole suite through
//! the fallback) and [`set_force_scalar`] (runtime toggle for tests and
//! benchmarks). Compiling the `trajectory` crate with
//! `--no-default-features` removes the vector backends entirely; the
//! API is unchanged and everything runs scalar.
//!
//! # Semantics
//!
//! Every kernel is defined by its scalar reference implementation, and
//! the vector backends match it exactly on the comparisons that decide
//! query results:
//!
//! - Containment tests use *ordered* compares: a NaN coordinate is
//!   never inside a cube, exactly like [`Cube::contains_xyz`].
//! - [`min_max`] ignores NaN values the way [`f64::min`] /
//!   [`f64::max`] do (an all-NaN or empty slice yields the identity
//!   `(∞, −∞)`).
//! - Accumulating kernels ([`squared_distance`], [`sum_squares`]) use
//!   per-lane partial sums, so their results may differ from the
//!   scalar sum in the last ulps (floating-point addition is not
//!   associative). Tests compare them with a relative tolerance;
//!   boolean and index-set kernels are bit-exact.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

use crate::bbox::Cube;

// ---------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------

/// Runtime override: when set, every kernel call takes the scalar path.
static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);

/// `QDTS_FORCE_SCALAR=1` in the environment pins the scalar backend for
/// the whole process (checked once).
fn env_forced() -> bool {
    static ENV: OnceLock<bool> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("QDTS_FORCE_SCALAR").is_ok_and(|v| v == "1" || v.eq_ignore_ascii_case("true"))
    })
}

/// Forces (or releases) the scalar backend at runtime. Affects every
/// subsequent kernel call in the process — benchmarks use it to measure
/// scalar vs. SIMD on identical inputs.
pub fn set_force_scalar(on: bool) {
    FORCE_SCALAR.store(on, Ordering::SeqCst);
}

/// True when kernel calls currently dispatch to a vector backend.
#[must_use]
pub fn simd_active() -> bool {
    !(env_forced() || FORCE_SCALAR.load(Ordering::Relaxed)) && vector_available()
}

/// The backend the next kernel call will use: `"avx2"`, `"neon"`, or
/// `"scalar"` — benchmark reports record it.
#[must_use]
pub fn active_backend() -> &'static str {
    if !simd_active() {
        return "scalar";
    }
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        return "avx2";
    }
    #[cfg(all(feature = "simd", target_arch = "aarch64"))]
    {
        return "neon";
    }
    #[allow(unreachable_code)]
    "scalar"
}

/// Cached CPU feature detection (one `cpuid` per process, then an
/// atomic load).
fn vector_available() -> bool {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        static AVX2: OnceLock<bool> = OnceLock::new();
        return *AVX2.get_or_init(|| is_x86_feature_detected!("avx2"));
    }
    #[cfg(all(feature = "simd", target_arch = "aarch64"))]
    {
        static NEON: OnceLock<bool> = OnceLock::new();
        return *NEON.get_or_init(|| std::arch::is_aarch64_feature_detected!("neon"));
    }
    #[allow(unreachable_code)]
    false
}

// ---------------------------------------------------------------------
// Public kernels (dispatching).
// ---------------------------------------------------------------------

/// True when any point `(xs[i], ys[i], ts[i])` lies inside `cube`
/// (inclusive bounds, NaN never contained) — the range-scan kernel.
/// All three slices must have equal length.
#[must_use]
pub fn any_in_cube(xs: &[f64], ys: &[f64], ts: &[f64], cube: &Cube) -> bool {
    debug_assert!(xs.len() == ys.len() && ys.len() == ts.len());
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if simd_active() {
        // SAFETY: dispatch guarantees AVX2 is available.
        return unsafe { avx2::any_in_cube(xs, ys, ts, cube) };
    }
    #[cfg(all(feature = "simd", target_arch = "aarch64"))]
    if simd_active() {
        // SAFETY: dispatch guarantees NEON is available.
        return unsafe { neon::any_in_cube(xs, ys, ts, cube) };
    }
    scalar::any_in_cube(xs, ys, ts, cube)
}

/// Containment of at most 64 points as a bit mask: bit `i` is set when
/// `(xs[i], ys[i], ts[i])` lies inside `cube` (inclusive bounds, NaN
/// never contained — the compares of [`any_in_cube`], without its early
/// exit). The boundary-leaf kernel of the range walkers: one call per
/// chunk of a leaf, whoever owns its points. All three slices must have
/// equal length, at most 64.
#[must_use]
pub fn in_cube_mask(xs: &[f64], ys: &[f64], ts: &[f64], cube: &Cube) -> u64 {
    debug_assert!(xs.len() == ys.len() && ys.len() == ts.len());
    debug_assert!(xs.len() <= 64);
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if simd_active() {
        // SAFETY: dispatch guarantees AVX2 is available.
        return unsafe { avx2::in_cube_mask(xs, ys, ts, cube) };
    }
    #[cfg(all(feature = "simd", target_arch = "aarch64"))]
    if simd_active() {
        // SAFETY: dispatch guarantees NEON is available.
        return unsafe { neon::in_cube_mask(xs, ys, ts, cube) };
    }
    scalar::in_cube_mask(xs, ys, ts, cube)
}

/// `(min, max)` of a slice, ignoring NaNs; `(∞, −∞)` when empty — the
/// bounds-precompute kernel behind per-leaf tight cubes and
/// [`bounding cube`](crate::store::AsColumns::bounding_cube) folds.
#[must_use]
pub fn min_max(values: &[f64]) -> (f64, f64) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if simd_active() {
        // SAFETY: dispatch guarantees AVX2 is available.
        return unsafe { avx2::min_max(values) };
    }
    #[cfg(all(feature = "simd", target_arch = "aarch64"))]
    if simd_active() {
        // SAFETY: dispatch guarantees NEON is available.
        return unsafe { neon::min_max(values) };
    }
    scalar::min_max(values)
}

/// Sum of squared differences `Σ (a[i] − b[i])²` over two equal-length
/// slices — the Euclidean / embedding distance kernel.
#[must_use]
pub fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if simd_active() {
        // SAFETY: dispatch guarantees AVX2 is available.
        return unsafe { avx2::squared_distance(a, b) };
    }
    #[cfg(all(feature = "simd", target_arch = "aarch64"))]
    if simd_active() {
        // SAFETY: dispatch guarantees NEON is available.
        return unsafe { neon::squared_distance(a, b) };
    }
    scalar::squared_distance(a, b)
}

/// Sum of squares `Σ v[i]²` — the normalization kernel.
#[must_use]
pub fn sum_squares(values: &[f64]) -> f64 {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if simd_active() {
        // SAFETY: dispatch guarantees AVX2 is available.
        return unsafe { avx2::sum_squares(values) };
    }
    #[cfg(all(feature = "simd", target_arch = "aarch64"))]
    if simd_active() {
        // SAFETY: dispatch guarantees NEON is available.
        return unsafe { neon::sum_squares(values) };
    }
    scalar::sum_squares(values)
}

/// Squared planar distance accumulation `Σ (ax[i]−bx[i])² + (ay[i]−by[i])²`
/// — the SED-style accumulation over matched x/y runs.
#[must_use]
pub fn squared_distance_2d(ax: &[f64], ay: &[f64], bx: &[f64], by: &[f64]) -> f64 {
    debug_assert!(ax.len() == ay.len() && ax.len() == bx.len() && ax.len() == by.len());
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if simd_active() {
        // SAFETY: dispatch guarantees AVX2 is available.
        return unsafe { avx2::squared_distance(ax, bx) + avx2::squared_distance(ay, by) };
    }
    #[cfg(all(feature = "simd", target_arch = "aarch64"))]
    if simd_active() {
        // SAFETY: dispatch guarantees NEON is available.
        return unsafe { neon::squared_distance(ax, bx) + neon::squared_distance(ay, by) };
    }
    scalar::squared_distance(ax, bx) + scalar::squared_distance(ay, by)
}

/// Containment over a span of at most 64 points restricted to the set
/// bits of `select` (bit `i` selects index `i`; bits at or above
/// `xs.len()` are ignored): true when any selected point lies inside
/// `cube`. This is the partial-bitmap-word kernel behind
/// [`any_masked_in_cube`] — the vector backends compare whole lanes and
/// AND the movemask-style containment bits against the selection bits,
/// instead of falling back to per-bit scalar tests.
#[must_use]
pub fn any_selected_in_cube(xs: &[f64], ys: &[f64], ts: &[f64], select: u64, cube: &Cube) -> bool {
    debug_assert!(xs.len() == ys.len() && ys.len() == ts.len());
    debug_assert!(xs.len() <= 64);
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if simd_active() {
        // SAFETY: dispatch guarantees AVX2 is available.
        return unsafe { avx2::any_selected_in_cube(xs, ys, ts, select, cube) };
    }
    #[cfg(all(feature = "simd", target_arch = "aarch64"))]
    if simd_active() {
        // SAFETY: dispatch guarantees NEON is available.
        return unsafe { neon::any_selected_in_cube(xs, ys, ts, select, cube) };
    }
    scalar::any_selected_in_cube(xs, ys, ts, select, cube)
}

/// Bitmap-masked containment: true when any point whose bit is set in
/// `words` lies inside `cube`. Bit `base + i` of the bitmap (word
/// `(base+i)/64`, bit `(base+i)%64`) corresponds to slice index `i` —
/// the layout of a trajectory's run inside a store-wide
/// [`KeptBitmap`](crate::store::KeptBitmap). Zero words are skipped
/// 64 points at a time; fully-set words run the vector containment
/// kernel; partial words run the lane-masked containment kernel
/// ([`any_selected_in_cube`]), so no word shape degrades to per-bit
/// scalar probing on the vector backends.
#[must_use]
pub fn any_masked_in_cube(
    xs: &[f64],
    ys: &[f64],
    ts: &[f64],
    words: &[u64],
    base: usize,
    cube: &Cube,
) -> bool {
    debug_assert!(xs.len() == ys.len() && ys.len() == ts.len());
    let n = xs.len();
    let mut i = 0usize;
    while i < n {
        let bit = base + i;
        let word = words[bit / 64];
        // Bits of this word that are still ahead of us.
        let remaining = word >> (bit % 64);
        let span = (64 - bit % 64).min(n - i);
        if remaining == 0 {
            i += span;
            continue;
        }
        let span_mask = if span == 64 {
            !0u64
        } else {
            (1u64 << span) - 1
        };
        let masked = remaining & span_mask;
        if masked == span_mask {
            // Every point in the span is kept: lane-wide containment.
            if any_in_cube(&xs[i..i + span], &ys[i..i + span], &ts[i..i + span], cube) {
                return true;
            }
        } else if any_selected_in_cube(
            &xs[i..i + span],
            &ys[i..i + span],
            &ts[i..i + span],
            masked,
            cube,
        ) {
            // Partial word: lane-wide containment AND the selection bits.
            return true;
        }
        i += span;
    }
    false
}

/// Bitmap-masked gather: appends to `out` every `src[i]` whose bit
/// `base + i` is set in `words`, in index order. Zero words skip 64
/// elements at a time, fully-set words copy their whole span; returns
/// the number of values appended.
pub fn gather_masked(src: &[f64], words: &[u64], base: usize, out: &mut Vec<f64>) -> usize {
    let n = src.len();
    let before = out.len();
    let mut i = 0usize;
    while i < n {
        let bit = base + i;
        let word = words[bit / 64];
        let remaining = word >> (bit % 64);
        let span = (64 - bit % 64).min(n - i);
        if remaining == 0 {
            i += span;
            continue;
        }
        let span_mask = if span == 64 {
            !0u64
        } else {
            (1u64 << span) - 1
        };
        let masked = remaining & span_mask;
        if masked == span_mask {
            out.extend_from_slice(&src[i..i + span]);
        } else {
            let mut bits = masked;
            while bits != 0 {
                out.push(src[i + bits.trailing_zeros() as usize]);
                bits &= bits - 1;
            }
        }
        i += span;
    }
    out.len() - before
}

// ---------------------------------------------------------------------
// Scalar reference backend.
// ---------------------------------------------------------------------

/// The scalar reference implementations the vector backends are defined
/// against. Public so equality tests can compare `scalar::k(..)` with
/// the dispatching `k(..)` directly, without mutating global dispatch
/// state from concurrently running tests.
pub mod scalar {
    use crate::bbox::Cube;

    /// Scalar [`any_in_cube`](super::any_in_cube).
    #[must_use]
    pub fn any_in_cube(xs: &[f64], ys: &[f64], ts: &[f64], cube: &Cube) -> bool {
        xs.iter()
            .zip(ys)
            .zip(ts)
            .any(|((&x, &y), &t)| cube.contains_xyz(x, y, t))
    }

    /// Scalar [`in_cube_mask`](super::in_cube_mask).
    #[must_use]
    pub fn in_cube_mask(xs: &[f64], ys: &[f64], ts: &[f64], cube: &Cube) -> u64 {
        let mut mask = 0u64;
        for (i, ((&x, &y), &t)) in xs.iter().zip(ys).zip(ts).enumerate() {
            mask |= u64::from(cube.contains_xyz(x, y, t)) << i;
        }
        mask
    }

    /// Scalar [`any_selected_in_cube`](super::any_selected_in_cube):
    /// probe exactly the set bits, lowest first.
    #[must_use]
    pub fn any_selected_in_cube(
        xs: &[f64],
        ys: &[f64],
        ts: &[f64],
        select: u64,
        cube: &Cube,
    ) -> bool {
        let n = xs.len();
        let mut bits = if n < 64 {
            select & ((1u64 << n) - 1)
        } else {
            select
        };
        while bits != 0 {
            let j = bits.trailing_zeros() as usize;
            if cube.contains_xyz(xs[j], ys[j], ts[j]) {
                return true;
            }
            bits &= bits - 1;
        }
        false
    }

    /// Scalar [`min_max`](super::min_max).
    #[must_use]
    pub fn min_max(values: &[f64]) -> (f64, f64) {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &v in values {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        (lo, hi)
    }

    /// Scalar [`squared_distance`](super::squared_distance).
    #[must_use]
    pub fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(&x, &y)| {
                let d = x - y;
                d * d
            })
            .sum()
    }

    /// Scalar [`sum_squares`](super::sum_squares).
    #[must_use]
    pub fn sum_squares(values: &[f64]) -> f64 {
        values.iter().map(|&v| v * v).sum()
    }
}

// ---------------------------------------------------------------------
// AVX2 backend (x86_64, 4 × f64 lanes).
// ---------------------------------------------------------------------

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod avx2 {
    use crate::bbox::Cube;
    use std::arch::x86_64::*;

    /// # Safety
    /// Caller must ensure AVX2 is available.
    #[target_feature(enable = "avx2")]
    pub unsafe fn any_in_cube(xs: &[f64], ys: &[f64], ts: &[f64], cube: &Cube) -> bool {
        let n = xs.len();
        let x_min = _mm256_set1_pd(cube.x_min);
        let x_max = _mm256_set1_pd(cube.x_max);
        let y_min = _mm256_set1_pd(cube.y_min);
        let y_max = _mm256_set1_pd(cube.y_max);
        let t_min = _mm256_set1_pd(cube.t_min);
        let t_max = _mm256_set1_pd(cube.t_max);
        let mut i = 0usize;
        while i + 4 <= n {
            let x = _mm256_loadu_pd(xs.as_ptr().add(i));
            let y = _mm256_loadu_pd(ys.as_ptr().add(i));
            let t = _mm256_loadu_pd(ts.as_ptr().add(i));
            // Ordered compares: any NaN lane yields false, like the
            // scalar chain in `Cube::contains_xyz`.
            let m = _mm256_and_pd(
                _mm256_and_pd(
                    _mm256_and_pd(
                        _mm256_cmp_pd::<_CMP_GE_OQ>(x, x_min),
                        _mm256_cmp_pd::<_CMP_LE_OQ>(x, x_max),
                    ),
                    _mm256_and_pd(
                        _mm256_cmp_pd::<_CMP_GE_OQ>(y, y_min),
                        _mm256_cmp_pd::<_CMP_LE_OQ>(y, y_max),
                    ),
                ),
                _mm256_and_pd(
                    _mm256_cmp_pd::<_CMP_GE_OQ>(t, t_min),
                    _mm256_cmp_pd::<_CMP_LE_OQ>(t, t_max),
                ),
            );
            if _mm256_movemask_pd(m) != 0 {
                return true;
            }
            i += 4;
        }
        super::scalar::any_in_cube(&xs[i..], &ys[i..], &ts[i..], cube)
    }

    /// # Safety
    /// Caller must ensure AVX2 is available.
    #[target_feature(enable = "avx2")]
    pub unsafe fn in_cube_mask(xs: &[f64], ys: &[f64], ts: &[f64], cube: &Cube) -> u64 {
        let n = xs.len();
        let x_min = _mm256_set1_pd(cube.x_min);
        let x_max = _mm256_set1_pd(cube.x_max);
        let y_min = _mm256_set1_pd(cube.y_min);
        let y_max = _mm256_set1_pd(cube.y_max);
        let t_min = _mm256_set1_pd(cube.t_min);
        let t_max = _mm256_set1_pd(cube.t_max);
        let mut mask = 0u64;
        let mut i = 0usize;
        while i + 4 <= n {
            let x = _mm256_loadu_pd(xs.as_ptr().add(i));
            let y = _mm256_loadu_pd(ys.as_ptr().add(i));
            let t = _mm256_loadu_pd(ts.as_ptr().add(i));
            // The ordered compares of `any_in_cube`.
            let m = _mm256_and_pd(
                _mm256_and_pd(
                    _mm256_and_pd(
                        _mm256_cmp_pd::<_CMP_GE_OQ>(x, x_min),
                        _mm256_cmp_pd::<_CMP_LE_OQ>(x, x_max),
                    ),
                    _mm256_and_pd(
                        _mm256_cmp_pd::<_CMP_GE_OQ>(y, y_min),
                        _mm256_cmp_pd::<_CMP_LE_OQ>(y, y_max),
                    ),
                ),
                _mm256_and_pd(
                    _mm256_cmp_pd::<_CMP_GE_OQ>(t, t_min),
                    _mm256_cmp_pd::<_CMP_LE_OQ>(t, t_max),
                ),
            );
            // `i + 4 <= n <= 64`: the shift is at most 60.
            mask |= (_mm256_movemask_pd(m) as u64) << i;
            i += 4;
        }
        if i < n {
            // A tail exists, so `i < 64` — a full chunk never shifts by 64.
            mask |= super::scalar::in_cube_mask(&xs[i..], &ys[i..], &ts[i..], cube) << i;
        }
        mask
    }

    /// # Safety
    /// Caller must ensure AVX2 is available.
    #[target_feature(enable = "avx2")]
    pub unsafe fn any_selected_in_cube(
        xs: &[f64],
        ys: &[f64],
        ts: &[f64],
        select: u64,
        cube: &Cube,
    ) -> bool {
        let n = xs.len();
        let x_min = _mm256_set1_pd(cube.x_min);
        let x_max = _mm256_set1_pd(cube.x_max);
        let y_min = _mm256_set1_pd(cube.y_min);
        let y_max = _mm256_set1_pd(cube.y_max);
        let t_min = _mm256_set1_pd(cube.t_min);
        let t_max = _mm256_set1_pd(cube.t_max);
        let mut i = 0usize;
        while i + 4 <= n {
            // Four selection bits for these lanes; skip wholly cleared
            // groups without touching the columns at all.
            let lane_sel = ((select >> i) & 0xF) as i32;
            if lane_sel != 0 {
                let x = _mm256_loadu_pd(xs.as_ptr().add(i));
                let y = _mm256_loadu_pd(ys.as_ptr().add(i));
                let t = _mm256_loadu_pd(ts.as_ptr().add(i));
                let m = _mm256_and_pd(
                    _mm256_and_pd(
                        _mm256_and_pd(
                            _mm256_cmp_pd::<_CMP_GE_OQ>(x, x_min),
                            _mm256_cmp_pd::<_CMP_LE_OQ>(x, x_max),
                        ),
                        _mm256_and_pd(
                            _mm256_cmp_pd::<_CMP_GE_OQ>(y, y_min),
                            _mm256_cmp_pd::<_CMP_LE_OQ>(y, y_max),
                        ),
                    ),
                    _mm256_and_pd(
                        _mm256_cmp_pd::<_CMP_GE_OQ>(t, t_min),
                        _mm256_cmp_pd::<_CMP_LE_OQ>(t, t_max),
                    ),
                );
                // Movemask turns per-lane containment into bits aligned
                // with the selection bits: a hit is their intersection.
                if _mm256_movemask_pd(m) & lane_sel != 0 {
                    return true;
                }
            }
            i += 4;
        }
        if i == n {
            // No tail — and `select >> 64` would overflow when n == 64.
            return false;
        }
        super::scalar::any_selected_in_cube(&xs[i..], &ys[i..], &ts[i..], select >> i, cube)
    }

    /// # Safety
    /// Caller must ensure AVX2 is available.
    #[target_feature(enable = "avx2")]
    pub unsafe fn min_max(values: &[f64]) -> (f64, f64) {
        let n = values.len();
        if n < 8 {
            return super::scalar::min_max(values);
        }
        let mut lo = _mm256_set1_pd(f64::INFINITY);
        let mut hi = _mm256_set1_pd(f64::NEG_INFINITY);
        let mut i = 0usize;
        while i + 4 <= n {
            let v = _mm256_loadu_pd(values.as_ptr().add(i));
            // Operand order makes a NaN lane in `v` yield the
            // accumulator (min_pd returns the second operand when
            // either is NaN) — matching `f64::min`'s NaN-ignoring fold.
            lo = _mm256_min_pd(v, lo);
            hi = _mm256_max_pd(v, hi);
            i += 4;
        }
        let mut lo4 = [0.0f64; 4];
        let mut hi4 = [0.0f64; 4];
        _mm256_storeu_pd(lo4.as_mut_ptr(), lo);
        _mm256_storeu_pd(hi4.as_mut_ptr(), hi);
        let (mut l, mut h) = super::scalar::min_max(&values[i..]);
        for k in 0..4 {
            l = l.min(lo4[k]);
            h = h.max(hi4[k]);
        }
        (l, h)
    }

    /// # Safety
    /// Caller must ensure AVX2 is available.
    #[target_feature(enable = "avx2")]
    pub unsafe fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len();
        let mut acc = _mm256_setzero_pd();
        let mut i = 0usize;
        while i + 4 <= n {
            let d = _mm256_sub_pd(
                _mm256_loadu_pd(a.as_ptr().add(i)),
                _mm256_loadu_pd(b.as_ptr().add(i)),
            );
            acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
            i += 4;
        }
        let mut lanes = [0.0f64; 4];
        _mm256_storeu_pd(lanes.as_mut_ptr(), acc);
        lanes.iter().sum::<f64>() + super::scalar::squared_distance(&a[i..], &b[i..])
    }

    /// # Safety
    /// Caller must ensure AVX2 is available.
    #[target_feature(enable = "avx2")]
    pub unsafe fn sum_squares(values: &[f64]) -> f64 {
        let n = values.len();
        let mut acc = _mm256_setzero_pd();
        let mut i = 0usize;
        while i + 4 <= n {
            let v = _mm256_loadu_pd(values.as_ptr().add(i));
            acc = _mm256_add_pd(acc, _mm256_mul_pd(v, v));
            i += 4;
        }
        let mut lanes = [0.0f64; 4];
        _mm256_storeu_pd(lanes.as_mut_ptr(), acc);
        lanes.iter().sum::<f64>() + super::scalar::sum_squares(&values[i..])
    }
}

// ---------------------------------------------------------------------
// NEON backend (aarch64, 2 × f64 lanes).
// ---------------------------------------------------------------------

#[cfg(all(feature = "simd", target_arch = "aarch64"))]
mod neon {
    use crate::bbox::Cube;
    use std::arch::aarch64::*;

    /// # Safety
    /// Caller must ensure NEON is available.
    #[target_feature(enable = "neon")]
    pub unsafe fn any_in_cube(xs: &[f64], ys: &[f64], ts: &[f64], cube: &Cube) -> bool {
        let n = xs.len();
        let x_min = vdupq_n_f64(cube.x_min);
        let x_max = vdupq_n_f64(cube.x_max);
        let y_min = vdupq_n_f64(cube.y_min);
        let y_max = vdupq_n_f64(cube.y_max);
        let t_min = vdupq_n_f64(cube.t_min);
        let t_max = vdupq_n_f64(cube.t_max);
        let mut i = 0usize;
        while i + 2 <= n {
            let x = vld1q_f64(xs.as_ptr().add(i));
            let y = vld1q_f64(ys.as_ptr().add(i));
            let t = vld1q_f64(ts.as_ptr().add(i));
            let m = vandq_u64(
                vandq_u64(
                    vandq_u64(vcgeq_f64(x, x_min), vcleq_f64(x, x_max)),
                    vandq_u64(vcgeq_f64(y, y_min), vcleq_f64(y, y_max)),
                ),
                vandq_u64(vcgeq_f64(t, t_min), vcleq_f64(t, t_max)),
            );
            if vgetq_lane_u64::<0>(m) != 0 || vgetq_lane_u64::<1>(m) != 0 {
                return true;
            }
            i += 2;
        }
        super::scalar::any_in_cube(&xs[i..], &ys[i..], &ts[i..], cube)
    }

    /// # Safety
    /// Caller must ensure NEON is available.
    #[target_feature(enable = "neon")]
    pub unsafe fn in_cube_mask(xs: &[f64], ys: &[f64], ts: &[f64], cube: &Cube) -> u64 {
        let n = xs.len();
        let x_min = vdupq_n_f64(cube.x_min);
        let x_max = vdupq_n_f64(cube.x_max);
        let y_min = vdupq_n_f64(cube.y_min);
        let y_max = vdupq_n_f64(cube.y_max);
        let t_min = vdupq_n_f64(cube.t_min);
        let t_max = vdupq_n_f64(cube.t_max);
        let mut mask = 0u64;
        let mut i = 0usize;
        while i + 2 <= n {
            let x = vld1q_f64(xs.as_ptr().add(i));
            let y = vld1q_f64(ys.as_ptr().add(i));
            let t = vld1q_f64(ts.as_ptr().add(i));
            let m = vandq_u64(
                vandq_u64(
                    vandq_u64(vcgeq_f64(x, x_min), vcleq_f64(x, x_max)),
                    vandq_u64(vcgeq_f64(y, y_min), vcleq_f64(y, y_max)),
                ),
                vandq_u64(vcgeq_f64(t, t_min), vcleq_f64(t, t_max)),
            );
            // A lane is all ones or all zeros; `i + 2 <= n <= 64`, so the
            // shift is at most 62.
            let pair = (vgetq_lane_u64::<0>(m) & 1) | (vgetq_lane_u64::<1>(m) & 2);
            mask |= pair << i;
            i += 2;
        }
        if i < n {
            // A tail exists, so `i < 64` — a full chunk never shifts by 64.
            mask |= super::scalar::in_cube_mask(&xs[i..], &ys[i..], &ts[i..], cube) << i;
        }
        mask
    }

    /// # Safety
    /// Caller must ensure NEON is available.
    #[target_feature(enable = "neon")]
    pub unsafe fn any_selected_in_cube(
        xs: &[f64],
        ys: &[f64],
        ts: &[f64],
        select: u64,
        cube: &Cube,
    ) -> bool {
        let n = xs.len();
        let x_min = vdupq_n_f64(cube.x_min);
        let x_max = vdupq_n_f64(cube.x_max);
        let y_min = vdupq_n_f64(cube.y_min);
        let y_max = vdupq_n_f64(cube.y_max);
        let t_min = vdupq_n_f64(cube.t_min);
        let t_max = vdupq_n_f64(cube.t_max);
        let mut i = 0usize;
        while i + 2 <= n {
            // Two selection bits for these lanes; skip cleared pairs.
            let lane_sel = (select >> i) & 0x3;
            if lane_sel != 0 {
                let x = vld1q_f64(xs.as_ptr().add(i));
                let y = vld1q_f64(ys.as_ptr().add(i));
                let t = vld1q_f64(ts.as_ptr().add(i));
                let m = vandq_u64(
                    vandq_u64(
                        vandq_u64(vcgeq_f64(x, x_min), vcleq_f64(x, x_max)),
                        vandq_u64(vcgeq_f64(y, y_min), vcleq_f64(y, y_max)),
                    ),
                    vandq_u64(vcgeq_f64(t, t_min), vcleq_f64(t, t_max)),
                );
                // Each lane's containment mask ANDs against its
                // selection bit (movemask-style intersection).
                if (lane_sel & 1 != 0 && vgetq_lane_u64::<0>(m) != 0)
                    || (lane_sel & 2 != 0 && vgetq_lane_u64::<1>(m) != 0)
                {
                    return true;
                }
            }
            i += 2;
        }
        if i == n {
            // No tail — and `select >> 64` would overflow when n == 64.
            return false;
        }
        super::scalar::any_selected_in_cube(&xs[i..], &ys[i..], &ts[i..], select >> i, cube)
    }

    /// # Safety
    /// Caller must ensure NEON is available.
    #[target_feature(enable = "neon")]
    pub unsafe fn min_max(values: &[f64]) -> (f64, f64) {
        let n = values.len();
        if n < 4 {
            return super::scalar::min_max(values);
        }
        let mut lo = vdupq_n_f64(f64::INFINITY);
        let mut hi = vdupq_n_f64(f64::NEG_INFINITY);
        let mut i = 0usize;
        while i + 2 <= n {
            let v = vld1q_f64(values.as_ptr().add(i));
            // vminnmq/vmaxnmq ignore NaN, matching `f64::min`/`max`.
            lo = vminnmq_f64(lo, v);
            hi = vmaxnmq_f64(hi, v);
            i += 2;
        }
        let (mut l, mut h) = super::scalar::min_max(&values[i..]);
        l = l.min(vminnmvq_f64(lo));
        h = h.max(vmaxnmvq_f64(hi));
        (l, h)
    }

    /// # Safety
    /// Caller must ensure NEON is available.
    #[target_feature(enable = "neon")]
    pub unsafe fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len();
        let mut acc = vdupq_n_f64(0.0);
        let mut i = 0usize;
        while i + 2 <= n {
            let d = vsubq_f64(vld1q_f64(a.as_ptr().add(i)), vld1q_f64(b.as_ptr().add(i)));
            acc = vfmaq_f64(acc, d, d);
            i += 2;
        }
        vaddvq_f64(acc) + super::scalar::squared_distance(&a[i..], &b[i..])
    }

    /// # Safety
    /// Caller must ensure NEON is available.
    #[target_feature(enable = "neon")]
    pub unsafe fn sum_squares(values: &[f64]) -> f64 {
        let n = values.len();
        let mut acc = vdupq_n_f64(0.0);
        let mut i = 0usize;
        while i + 2 <= n {
            let v = vld1q_f64(values.as_ptr().add(i));
            acc = vfmaq_f64(acc, v, v);
            i += 2;
        }
        vaddvq_f64(acc) + super::scalar::sum_squares(&values[i..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cube() -> Cube {
        Cube::new(-1.0, 1.0, -2.0, 2.0, 0.0, 10.0)
    }

    fn columns(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        // Simple deterministic pseudo-random columns spanning the cube
        // boundary on every axis.
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 * 8.0 - 4.0
        };
        let xs: Vec<f64> = (0..n).map(|_| next()).collect();
        let ys: Vec<f64> = (0..n).map(|_| next()).collect();
        let ts: Vec<f64> = (0..n).map(|_| next() + 5.0).collect();
        (xs, ys, ts)
    }

    #[test]
    fn dispatch_matches_scalar_on_containment() {
        for n in [0usize, 1, 3, 4, 5, 7, 8, 64, 129, 1000] {
            for seed in 1..6u64 {
                let (xs, ys, ts) = columns(n, seed);
                let q = cube();
                assert_eq!(
                    any_in_cube(&xs, &ys, &ts, &q),
                    scalar::any_in_cube(&xs, &ys, &ts, &q),
                    "n={n} seed={seed} backend={}",
                    active_backend()
                );
            }
        }
    }

    #[test]
    fn containment_treats_nan_as_outside() {
        let q = cube();
        let nan = f64::NAN;
        assert!(!any_in_cube(&[nan; 8], &[0.0; 8], &[5.0; 8], &q));
        assert!(!any_in_cube(&[0.0; 8], &[nan; 8], &[5.0; 8], &q));
        assert!(!any_in_cube(&[0.0; 8], &[0.0; 8], &[nan; 8], &q));
        // One valid lane among NaNs is still found.
        let mut xs = [nan; 8];
        xs[5] = 0.5;
        assert!(any_in_cube(&xs, &[0.0; 8], &[5.0; 8], &q));
    }

    #[test]
    fn containment_bounds_are_inclusive() {
        let q = cube();
        // Exactly on every face, padded so the vector path runs.
        let xs = [1.0, -1.0, 9.0, 9.0, 9.0, 9.0, 9.0, 9.0];
        let ys = [2.0, -2.0, 9.0, 9.0, 9.0, 9.0, 9.0, 9.0];
        let ts = [10.0, 0.0, 99.0, 99.0, 99.0, 99.0, 99.0, 99.0];
        assert!(any_in_cube(&xs, &ys, &ts, &q));
        assert!(any_in_cube(&xs[1..], &ys[1..], &ts[1..], &q));
    }

    /// The per-point reference `in_cube_mask` is defined by, written
    /// without the kernel's loop.
    fn mask_reference(xs: &[f64], ys: &[f64], ts: &[f64], q: &Cube) -> u64 {
        (0..xs.len())
            .filter(|&i| q.contains_xyz(xs[i], ys[i], ts[i]))
            .fold(0u64, |m, i| m | (1u64 << i))
    }

    /// Every length a chunk can have — the full 64 included, where a
    /// careless tail shifts by 64 — with NaN, ±∞ and on-the-face
    /// coordinates sprinkled over every lane position.
    #[test]
    fn containment_mask_is_bit_equal_to_the_reference_for_every_length() {
        let q = cube();
        let specials = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            q.x_min,
            q.x_max,
            -0.0,
        ];
        for n in 0..=64usize {
            for seed in 1..8u64 {
                let (mut xs, mut ys, mut ts) = columns(n, seed * 31 + n as u64);
                for i in 0..n {
                    let pick = (i as u64 * 7 + seed) % 11;
                    if let Some(&v) = specials.get(pick as usize) {
                        match (i + seed as usize) % 3 {
                            0 => xs[i] = v,
                            1 => ys[i] = v * 2.0,
                            _ => ts[i] = if v == q.x_min { q.t_min } else { v + 5.0 },
                        }
                    }
                }
                let want = mask_reference(&xs, &ys, &ts, &q);
                assert_eq!(in_cube_mask(&xs, &ys, &ts, &q), want, "n={n} seed={seed}");
                assert_eq!(
                    scalar::in_cube_mask(&xs, &ys, &ts, &q),
                    want,
                    "scalar n={n}"
                );
                assert_eq!(
                    want != 0,
                    scalar::any_in_cube(&xs, &ys, &ts, &q),
                    "mask and any disagree at n={n}"
                );
            }
            // All inside: exactly the low `n` bits, no more.
            let want = if n == 64 { !0u64 } else { (1u64 << n) - 1 };
            assert_eq!(
                in_cube_mask(&vec![0.0; n], &vec![0.0; n], &vec![5.0; n], &q),
                want
            );
            assert_eq!(
                in_cube_mask(&vec![f64::NAN; n], &vec![0.0; n], &vec![5.0; n], &q),
                0
            );
        }
    }

    #[test]
    fn min_max_matches_scalar() {
        for n in [0usize, 1, 5, 8, 9, 31, 256] {
            let (xs, _, _) = columns(n, 3);
            assert_eq!(min_max(&xs), scalar::min_max(&xs), "n={n}");
        }
        assert_eq!(min_max(&[]), (f64::INFINITY, f64::NEG_INFINITY));
    }

    #[test]
    fn min_max_ignores_nan() {
        let mut v = vec![f64::NAN; 16];
        v[3] = -7.0;
        v[12] = 9.0;
        assert_eq!(min_max(&v), (-7.0, 9.0));
    }

    #[test]
    fn distances_match_scalar_within_tolerance() {
        for n in [0usize, 1, 4, 7, 8, 100, 1001] {
            let (a, b, c) = columns(n, 9);
            let fast = squared_distance(&a, &b);
            let slow = scalar::squared_distance(&a, &b);
            assert!((fast - slow).abs() <= 1e-9 * slow.abs().max(1.0), "n={n}");
            let fast = sum_squares(&c);
            let slow = scalar::sum_squares(&c);
            assert!((fast - slow).abs() <= 1e-9 * slow.abs().max(1.0), "n={n}");
            let fast2 = squared_distance_2d(&a, &b, &c, &a);
            let slow2 = scalar::squared_distance(&a, &c) + scalar::squared_distance(&b, &a);
            assert!(
                (fast2 - slow2).abs() <= 1e-9 * slow2.abs().max(1.0),
                "n={n}"
            );
        }
    }

    #[test]
    fn masked_containment_honours_the_bitmap() {
        let n = 200usize;
        let (xs, ys, ts) = columns(n, 4);
        let q = cube();
        // Reference: scalar scan over set bits only.
        let reference = |words: &[u64], base: usize| {
            (0..n).any(|i| {
                let bit = base + i;
                (words[bit / 64] >> (bit % 64)) & 1 == 1 && q.contains_xyz(xs[i], ys[i], ts[i])
            })
        };
        for base in [0usize, 1, 63, 64, 100] {
            let total_bits = base + n;
            let mut all = vec![!0u64; total_bits.div_ceil(64)];
            assert_eq!(
                any_masked_in_cube(&xs, &ys, &ts, &all, base, &q),
                reference(&all, base),
                "all-set base={base}"
            );
            for w in all.iter_mut() {
                *w = 0;
            }
            assert!(!any_masked_in_cube(&xs, &ys, &ts, &all, base, &q));
            // Sparse pattern.
            let mut sparse = vec![0u64; total_bits.div_ceil(64)];
            for i in (0..n).step_by(7) {
                let bit = base + i;
                sparse[bit / 64] |= 1 << (bit % 64);
            }
            assert_eq!(
                any_masked_in_cube(&xs, &ys, &ts, &sparse, base, &q),
                reference(&sparse, base),
                "sparse base={base}"
            );
        }
    }

    #[test]
    fn masked_containment_finds_only_kept_hits() {
        // One in-cube point whose bit is cleared must not match.
        let xs = vec![100.0, 0.0, 100.0];
        let ys = vec![0.0, 0.0, 0.0];
        let ts = vec![5.0, 5.0, 5.0];
        let q = cube();
        let kept_out = vec![0b101u64]; // only the two out-of-cube points
        assert!(!any_masked_in_cube(&xs, &ys, &ts, &kept_out, 0, &q));
        let kept_in = vec![0b010u64];
        assert!(any_masked_in_cube(&xs, &ys, &ts, &kept_in, 0, &q));
    }

    #[test]
    fn selected_containment_matches_scalar() {
        let q = cube();
        for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 13, 31, 32, 33, 63, 64] {
            let (xs, ys, ts) = columns(n, 11);
            for select in [
                0u64,
                !0u64,
                0xAAAA_AAAA_AAAA_AAAA,
                0x5555_5555_5555_5555,
                1,
                1u64 << 63,
                0x00FF_00FF_00FF_00FF,
            ] {
                assert_eq!(
                    any_selected_in_cube(&xs, &ys, &ts, select, &q),
                    scalar::any_selected_in_cube(&xs, &ys, &ts, select, &q),
                    "n={n} select={select:#x} backend={}",
                    active_backend()
                );
            }
        }
    }

    #[test]
    fn selected_containment_ignores_bits_past_len() {
        let q = cube();
        // Three out-of-cube points; the only set bits are past the slice
        // end and must be ignored.
        let xs = vec![100.0, 100.0, 100.0];
        let ys = vec![0.0, 0.0, 0.0];
        let ts = vec![5.0, 5.0, 5.0];
        assert!(!any_selected_in_cube(&xs, &ys, &ts, !0u64 << 3, &q));
        // A set bit on an in-cube lane still matches.
        let xs_in = vec![100.0, 0.5, 100.0];
        assert!(any_selected_in_cube(&xs_in, &ys, &ts, 0b010, &q));
        assert!(!any_selected_in_cube(&xs_in, &ys, &ts, 0b101, &q));
    }

    #[test]
    fn gather_masked_selects_set_bits_in_order() {
        let src: Vec<f64> = (0..150).map(|i| i as f64).collect();
        for base in [0usize, 5, 64, 70] {
            let total_bits = base + src.len();
            let mut words = vec![0u64; total_bits.div_ceil(64)];
            for i in (0..src.len()).step_by(3) {
                let bit = base + i;
                words[bit / 64] |= 1 << (bit % 64);
            }
            let mut out = Vec::new();
            let appended = gather_masked(&src, &words, base, &mut out);
            let expected: Vec<f64> = (0..src.len()).step_by(3).map(|i| i as f64).collect();
            assert_eq!(out, expected, "base={base}");
            assert_eq!(appended, expected.len());
            // Full and empty masks.
            let full = vec![!0u64; total_bits.div_ceil(64)];
            out.clear();
            gather_masked(&src, &full, base, &mut out);
            assert_eq!(out, src);
            let empty = vec![0u64; total_bits.div_ceil(64)];
            out.clear();
            assert_eq!(gather_masked(&src, &empty, base, &mut out), 0);
            assert!(out.is_empty());
        }
    }

    #[test]
    fn force_scalar_switches_the_backend() {
        // `simd_active` honours the runtime toggle; with the toggle on,
        // the backend label is always "scalar".
        set_force_scalar(true);
        assert!(!simd_active());
        assert_eq!(active_backend(), "scalar");
        set_force_scalar(false);
        // Whatever the hardware, kernels still answer correctly.
        let (xs, ys, ts) = columns(64, 11);
        let q = cube();
        assert_eq!(
            any_in_cube(&xs, &ys, &ts, &q),
            scalar::any_in_cube(&xs, &ys, &ts, &q)
        );
    }
}
