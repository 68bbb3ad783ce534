//! Online feature whitening.
//!
//! The paper employs batch normalization "to avoid data scale issues".
//! In a replay-based DQN with tiny batches, batch statistics are noisy and
//! make the policy non-deterministic at inference; a running
//! (Welford) estimate of per-feature mean/variance provides the same scale
//! robustness deterministically. The ablation in this module's tests shows
//! it normalizes arbitrary scales to O(1) features.

/// Running per-feature mean/variance estimator used to whiten MDP states
/// before they reach the Q-network.
#[derive(Debug, Clone)]
pub struct Whitener {
    mean: Vec<f64>,
    m2: Vec<f64>,
    count: f64,
}

impl Whitener {
    /// A whitener for `dim`-dimensional features.
    pub fn new(dim: usize) -> Self {
        Self {
            mean: vec![0.0; dim],
            m2: vec![0.0; dim],
            count: 0.0,
        }
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    /// Number of observations folded in.
    pub fn count(&self) -> f64 {
        self.count
    }

    /// Folds one observation into the running statistics (Welford).
    pub fn observe(&mut self, x: &[f64]) {
        debug_assert_eq!(x.len(), self.mean.len());
        self.count += 1.0;
        for (i, &xi) in x.iter().enumerate() {
            let delta = xi - self.mean[i];
            self.mean[i] += delta / self.count;
            let delta2 = xi - self.mean[i];
            self.m2[i] += delta * delta2;
        }
    }

    /// Whitens `x` in place: `(x - mean) / (std + eps)`. Before any
    /// observation this is the identity.
    pub fn transform(&self, x: &mut [f64]) {
        if self.count < 2.0 {
            return;
        }
        for (i, xi) in x.iter_mut().enumerate() {
            let var = self.m2[i] / (self.count - 1.0);
            *xi = (*xi - self.mean[i]) / (var.sqrt() + 1e-6);
        }
    }

    /// Observes then whitens (the training-time path).
    pub fn observe_transform(&mut self, x: &mut [f64]) {
        self.observe(x);
        self.transform(x);
    }

    /// Raw statistics for serialization: `(mean, m2, count)`.
    pub fn raw(&self) -> (&[f64], &[f64], f64) {
        (&self.mean, &self.m2, self.count)
    }

    /// Rebuilds from serialized statistics.
    pub fn from_raw(mean: Vec<f64>, m2: Vec<f64>, count: f64) -> Self {
        assert_eq!(mean.len(), m2.len());
        Self { mean, m2, count }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn whitens_wildly_scaled_features_to_unit_scale() {
        let mut w = Whitener::new(2);
        let mut rng = StdRng::seed_from_u64(1);
        // Feature 0 in the millions, feature 1 in thousandths.
        for _ in 0..1000 {
            w.observe(&[
                1e6 + 1e5 * rng.gen_range(-1.0..1.0),
                1e-3 * rng.gen_range(-1.0..1.0),
            ]);
        }
        let mut x = [1e6, 0.0];
        w.transform(&mut x);
        assert!(x[0].abs() < 3.0, "feature 0 still unscaled: {}", x[0]);
        assert!(x[1].abs() < 3.0, "feature 1 still unscaled: {}", x[1]);
    }

    #[test]
    fn identity_before_enough_observations() {
        let w = Whitener::new(3);
        let mut x = [5.0, -2.0, 7.0];
        w.transform(&mut x);
        assert_eq!(x, [5.0, -2.0, 7.0]);
    }

    #[test]
    fn mean_and_variance_match_direct_computation() {
        let data = [[1.0, 10.0], [2.0, 20.0], [3.0, 30.0], [4.0, 40.0]];
        let mut w = Whitener::new(2);
        for d in &data {
            w.observe(d);
        }
        let (mean, m2, count) = w.raw();
        assert_eq!(count, 4.0);
        assert!((mean[0] - 2.5).abs() < 1e-12);
        assert!((mean[1] - 25.0).abs() < 1e-12);
        // Sample variance of [1,2,3,4] is 5/3.
        assert!((m2[0] / 3.0 - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn round_trips_through_raw() {
        let mut w = Whitener::new(1);
        for v in [1.0, 4.0, 9.0] {
            w.observe(&[v]);
        }
        let (mean, m2, count) = w.raw();
        let w2 = Whitener::from_raw(mean.to_vec(), m2.to_vec(), count);
        let mut a = [6.0];
        let mut b = [6.0];
        w.transform(&mut a);
        w2.transform(&mut b);
        assert_eq!(a, b);
    }
}
