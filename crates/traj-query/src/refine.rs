//! The two exact bounds the engine's EDR-kNN arm filters and refines with
//! (see [`QueryEngine::material`](crate::QueryEngine::material)): an
//! O(n + m) lower bound from the two sides' x/y boxes, and the EDR
//! recurrence restricted to what a running threshold τ leaves reachable.
//!
//! Both are stated against [`edr_seq`](crate::edr::edr_seq), the full
//! dynamic program, which stays the reference and knows nothing of them:
//! `edr_lower_bound ≤ edr_seq` always, and `edr_bounded(.., τ)` is
//! `Some(edr_seq)` exactly when `edr_seq ≤ τ`. Neither ever decides an
//! answer on its own — a bound only spares a DP whose result could not
//! have entered the top `k`.

use trajectory::{Point, PointSeq, TrajView};

use crate::edr::matches;

/// The x/y extent of one side of a comparison.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Extent {
    x: (f64, f64),
    y: (f64, f64),
}

impl Extent {
    pub(crate) fn of_points(points: &[Point]) -> Self {
        let (mut x, mut y) = (
            (f64::INFINITY, f64::NEG_INFINITY),
            (f64::INFINITY, f64::NEG_INFINITY),
        );
        for p in points {
            x = (x.0.min(p.x), x.1.max(p.x));
            y = (y.0.min(p.y), y.1.max(p.y));
        }
        Self { x, y }
    }

    fn of_view(v: TrajView<'_>) -> Self {
        Self {
            x: trajectory::simd::min_max(v.xs),
            y: trajectory::simd::min_max(v.ys),
        }
    }

    /// False only when `(x, y)` matches no point inside the extent under
    /// the kernel's predicate `(a.x − b.x).abs() <= eps` (and the same on
    /// y). The test is made with the kernel's own subtractions, not
    /// against a pre-expanded box: for a point `b` of the extent,
    /// `x − hi ≤ x − b.x` and `lo − x ≤ b.x − x` hold exactly, rounding
    /// is monotone and symmetric, so `fl(x − hi) > eps` (or
    /// `fl(lo − x) > eps`) implies `|fl(x − b.x)| > eps` for every such
    /// `b`. `lo − eps` rounds on its own and can exclude a point the
    /// kernel matches at the boundary. A NaN anywhere compares false and
    /// keeps the point — the conservative side.
    #[inline]
    fn may_match(&self, x: f64, y: f64, eps: f64) -> bool {
        !((x - self.x.1) > eps
            || (self.x.0 - x) > eps
            || (y - self.y.1) > eps
            || (self.y.0 - y) > eps)
    }
}

/// A lower bound on `edr_seq(a, b, eps)` in O(|a| + |b|), no DP:
/// `max(n, m) − min(a', b')`, where `a'` counts the points of `a` that
/// can match *some* point of `b` (decided against `b`'s x/y box) and
/// `b'` the converse.
///
/// An alignment with `s` substitutions of which `z` cost nothing costs
/// `n + m − s − z ≥ max(n, m) − z`, and every free substitution uses up
/// one point of each side that can match something, so `z ≤ min(a', b')`.
/// The bound is at least `|n − m|` (as `min(a', b') ≤ min(n, m)`) and is
/// exact when one side is empty.
#[must_use]
pub fn edr_lower_bound(a: &[Point], b: TrajView<'_>, eps: f64) -> u32 {
    lower_bound(a, &Extent::of_points(a), b, eps)
}

/// [`edr_lower_bound`] with `a`'s extent computed once per query.
pub(crate) fn lower_bound(a: &[Point], a_extent: &Extent, b: TrajView<'_>, eps: f64) -> u32 {
    let b_extent = Extent::of_view(b);
    let a_live = a
        .iter()
        .filter(|p| b_extent.may_match(p.x, p.y, eps))
        .count();
    let b_live = (b.xs.iter().zip(b.ys))
        .filter(|(&x, &y)| a_extent.may_match(x, y, eps))
        .count();
    (a.len().max(b.len()) - a_live.min(b_live)) as u32
}

/// A cell the band excludes: above every reachable cost, with room to
/// add one.
const OUT_OF_BAND: u32 = u32::MAX / 2;

/// `Some(edr_seq(a, b, eps))` when that distance is at most `tau`, `None`
/// otherwise — the recurrence of [`edr_seq`](crate::edr::edr_seq) over
/// the cells with `|i − j| ≤ tau` only, abandoned at the first row whose
/// minimum exceeds `tau`.
///
/// Every step off the diagonal costs one, so an alignment of cost at
/// most `tau` never leaves the band and every row of it holds a cell at
/// most `tau`: inside the band, values up to `tau` are the full
/// program's, and larger ones are only ever too large. `rows` are the
/// two DP rows, grown to `|b| + 1` on demand and otherwise reused as
/// they are (no cell is read before it is written).
pub fn edr_bounded<A: PointSeq + ?Sized, B: PointSeq + ?Sized>(
    a: &A,
    b: &B,
    eps: f64,
    tau: u32,
    rows: &mut [Vec<u32>; 2],
) -> Option<u32> {
    let (n, m) = (a.n_points(), b.n_points());
    let band = tau as usize;
    if n.abs_diff(m) > band {
        return None;
    }
    let [prev, curr] = rows;
    for row in [&mut *prev, &mut *curr] {
        if row.len() <= m {
            row.resize(m + 1, 0);
        }
    }
    // dp[0][j] = j; each row ends its band with a sentinel so the next
    // row's `prev[j]` at its own last cell reads "unreachable".
    let hi = m.min(band);
    for (j, cell) in prev[..=hi].iter_mut().enumerate() {
        *cell = j as u32;
    }
    if hi < m {
        prev[hi + 1] = OUT_OF_BAND;
    }
    for i in 1..=n {
        let lo = i.saturating_sub(band).max(1);
        let hi = m.min(i + band);
        // Column 0 (dp[i][0] = i) while the band still holds it, the
        // cell left of the band afterwards.
        curr[lo - 1] = if i <= band { i as u32 } else { OUT_OF_BAND };
        let mut row_min = curr[lo - 1];
        let pa = a.point_at(i - 1);
        for j in lo..=hi {
            let sub = u32::from(!matches(&pa, &b.point_at(j - 1), eps));
            let cell = (prev[j - 1] + sub).min(prev[j] + 1).min(curr[j - 1] + 1);
            curr[j] = cell;
            row_min = row_min.min(cell);
        }
        if row_min > tau {
            return None;
        }
        if hi < m {
            curr[hi + 1] = OUT_OF_BAND;
        }
        std::mem::swap(prev, curr);
    }
    (prev[m] <= tau).then_some(prev[m])
}
