//! t2vec-like trajectory embedding.
//!
//! The paper instantiates one kNN variant with t2vec (Li et al., ICDE 2018),
//! a GRU encoder trained on GPU to map trajectories to vectors whose
//! Euclidean distances reflect trajectory similarity. Training a deep
//! sequence encoder is outside this reproduction's offline budget, so we
//! substitute a deterministic embedding with the same *interface* and the
//! same sensitivity profile (nearby vectors for trajectories that share
//! cells, a moved vector for every dropped point):
//!
//! 1. discretize the trajectory into a sequence of spatial grid cells
//!    (t2vec's own preprocessing step),
//! 2. hash the cell k-grams (k = 1, 2, 3) into a fixed-dimension feature
//!    vector, weighting longer n-grams higher (they encode order), and
//! 3. L2-normalize, so the Euclidean distance is a cosine-like measure.
//!
//! Trajectories sharing cells and cell transitions embed nearby; dropping
//! points removes cells/transitions and moves the vector — exactly the
//! degradation signal kNN accuracy measurement needs.

use trajectory::{Point, PointSeq};

/// The embedder configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct T2vecEmbedder {
    /// Grid cell side length (meters). t2vec's "hot cell" size analog.
    pub cell_size: f64,
    /// Embedding dimension.
    pub dim: usize,
}

impl Default for T2vecEmbedder {
    fn default() -> Self {
        Self {
            cell_size: 250.0,
            dim: 64,
        }
    }
}

impl T2vecEmbedder {
    /// Embeds a point slice into a `dim`-dimensional unit vector.
    /// An empty sequence embeds to the zero vector.
    pub fn embed_points(&self, pts: &[Point]) -> Vec<f64> {
        self.embed_seq(pts)
    }

    /// Embeds any point sequence — slice or zero-copy column view. A
    /// `dim` of 0 embeds everything to the empty vector (all distances 0).
    pub fn embed_seq<S: PointSeq + ?Sized>(&self, pts: &S) -> Vec<f64> {
        let mut v = vec![0.0f64; self.dim];
        let cells = self.cell_sequence(pts);
        if cells.is_empty() || self.dim == 0 {
            return v;
        }
        for k in 1..=3usize {
            if cells.len() < k {
                break;
            }
            // Longer n-grams carry ordering information; weight them up.
            let w = k as f64;
            for gram in cells.windows(k) {
                let h = hash_gram(gram, k as u64);
                let slot = (h % self.dim as u64) as usize;
                // A second hash bit gives signed features, reducing the
                // bias of pure counting (standard feature hashing).
                let sign = if (h >> 32) & 1 == 0 { 1.0 } else { -1.0 };
                v[slot] += sign * w;
            }
        }
        l2_normalize(&mut v);
        v
    }

    /// Euclidean distance between two embeddings — the lane-wide
    /// squared-difference accumulation ([`trajectory::simd::squared_distance`]).
    pub fn distance(a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        trajectory::simd::squared_distance(a, b).sqrt()
    }

    /// The cell-token sequence of a point sequence, with consecutive
    /// repeats collapsed (a stationary object shouldn't dominate the
    /// embedding).
    fn cell_sequence<S: PointSeq + ?Sized>(&self, pts: &S) -> Vec<(i64, i64)> {
        let mut cells: Vec<(i64, i64)> = Vec::with_capacity(pts.n_points());
        for i in 0..pts.n_points() {
            let p = pts.point_at(i);
            let c = (
                (p.x / self.cell_size).floor() as i64,
                (p.y / self.cell_size).floor() as i64,
            );
            if cells.last() != Some(&c) {
                cells.push(c);
            }
        }
        cells
    }
}

/// FNV-1a over the gram's cell coordinates, salted by the gram length.
fn hash_gram(gram: &[(i64, i64)], salt: u64) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf29ce484222325;
    const FNV_PRIME: u64 = 0x100000001b3;
    let mut h = FNV_OFFSET ^ salt.wrapping_mul(FNV_PRIME);
    for &(cx, cy) in gram {
        for b in cx.to_le_bytes().into_iter().chain(cy.to_le_bytes()) {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
    }
    h
}

fn l2_normalize(v: &mut [f64]) {
    let norm: f64 = trajectory::simd::sum_squares(v).sqrt();
    if norm > 0.0 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trajectory::Trajectory;

    fn traj(coords: &[(f64, f64)]) -> Trajectory {
        Trajectory::new(
            coords
                .iter()
                .enumerate()
                .map(|(i, &(x, y))| Point::new(x, y, i as f64))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn embedding_is_unit_norm() {
        let e = T2vecEmbedder::default();
        let v = e.embed_points(traj(&[(0.0, 0.0), (300.0, 0.0), (600.0, 300.0)]).points());
        let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!((norm - 1.0).abs() < 1e-9);
    }

    #[test]
    fn identical_trajectories_embed_identically() {
        let e = T2vecEmbedder::default();
        let t = traj(&[(0.0, 0.0), (300.0, 100.0), (700.0, 300.0)]);
        assert_eq!(
            T2vecEmbedder::distance(&e.embed_points(t.points()), &e.embed_points(t.points())),
            0.0
        );
    }

    #[test]
    fn similar_beats_dissimilar() {
        let e = T2vecEmbedder::default();
        let base = traj(&[(0.0, 0.0), (300.0, 0.0), (600.0, 0.0), (900.0, 0.0)]);
        // Small perturbation, same cells mostly.
        let near = traj(&[(10.0, 10.0), (310.0, 5.0), (620.0, -10.0), (890.0, 12.0)]);
        // Entirely different area.
        let far = traj(&[
            (10_000.0, 10_000.0),
            (10_300.0, 10_300.0),
            (10_600.0, 10_600.0),
        ]);
        let vb = e.embed_points(base.points());
        let dn = T2vecEmbedder::distance(&vb, &e.embed_points(near.points()));
        let df = T2vecEmbedder::distance(&vb, &e.embed_points(far.points()));
        assert!(dn < df, "near {dn} should beat far {df}");
    }

    #[test]
    fn stationary_points_do_not_dominate() {
        let e = T2vecEmbedder::default();
        let moving = traj(&[(0.0, 0.0), (300.0, 0.0), (600.0, 0.0)]);
        // Same path but with the object parked at the start for a while.
        let parked = traj(&[
            (0.0, 0.0),
            (1.0, 0.0),
            (2.0, 0.0),
            (1.0, 1.0),
            (300.0, 0.0),
            (600.0, 0.0),
        ]);
        let d = T2vecEmbedder::distance(
            &e.embed_points(moving.points()),
            &e.embed_points(parked.points()),
        );
        assert!(
            d < 0.5,
            "parking noise should barely move the embedding: {d}"
        );
    }

    #[test]
    fn empty_sequence_embeds_to_zero() {
        let e = T2vecEmbedder::default();
        let v = e.embed_points(&[]);
        assert!(v.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn a_zero_dimension_embeds_to_the_empty_vector() {
        let e = T2vecEmbedder {
            cell_size: 250.0,
            dim: 0,
        };
        let a = e.embed_points(traj(&[(0.0, 0.0), (300.0, 0.0), (600.0, 300.0)]).points());
        let b = e.embed_points(traj(&[(9_000.0, 0.0), (9_300.0, 0.0)]).points());
        assert!(a.is_empty() && b.is_empty());
        assert_eq!(T2vecEmbedder::distance(&a, &b), 0.0);
    }

    #[test]
    fn simplification_degrades_gracefully() {
        // The embedding of a simplified trajectory should stay closer to its
        // own original than to an unrelated trajectory.
        let e = T2vecEmbedder::default();
        let orig = traj(&[
            (0.0, 0.0),
            (300.0, 100.0),
            (600.0, 150.0),
            (900.0, 300.0),
            (1200.0, 500.0),
        ]);
        let simp = traj(&[(0.0, 0.0), (600.0, 150.0), (1200.0, 500.0)]);
        let other = traj(&[
            (-5_000.0, 2_000.0),
            (-5_300.0, 2_300.0),
            (-5_600.0, 2_600.0),
        ]);
        let vo = e.embed_points(orig.points());
        assert!(
            T2vecEmbedder::distance(&vo, &e.embed_points(simp.points()))
                < T2vecEmbedder::distance(&vo, &e.embed_points(other.points()))
        );
    }
}
