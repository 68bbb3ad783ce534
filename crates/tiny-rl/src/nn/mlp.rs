//! Multi-layer perceptrons: tanh hidden layers, linear output.
//!
//! This matches the paper's network shapes exactly: Agent-Cube uses a
//! two-layer FNN with 25 tanh hidden units and a 9-way linear head;
//! Agent-Point the same with a `K`-way head.

use super::dense::{Dense, DenseGrad};
use rand::rngs::StdRng;

/// An MLP with tanh activations on all hidden layers and a linear output.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Dense>,
}

/// The two activation rows a forward pass ping-pongs between, held by the
/// caller so a loop of forward passes ([`Mlp::forward_rows`]) allocates on
/// its first pass only.
#[derive(Debug, Clone, Default)]
pub struct ForwardRows {
    current: Vec<f64>,
    next: Vec<f64>,
}

/// Per-layer gradient buffers for an [`Mlp`].
#[derive(Debug, Clone)]
pub struct MlpGrad {
    /// One gradient buffer per layer.
    pub layers: Vec<DenseGrad>,
}

impl Mlp {
    /// Builds an MLP with the given layer sizes, e.g. `[16, 25, 9]`.
    /// Requires at least an input and an output size.
    pub fn new(sizes: &[usize], rng: &mut StdRng) -> Self {
        assert!(sizes.len() >= 2, "need at least input and output sizes");
        let layers = sizes
            .windows(2)
            .map(|w| Dense::xavier(w[0], w[1], rng))
            .collect();
        Self { layers }
    }

    /// Constructs from explicit layers (deserialization).
    pub fn from_layers(layers: Vec<Dense>) -> Self {
        assert!(!layers.is_empty());
        Self { layers }
    }

    /// The layers (serialization).
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.layers[0].input
    }

    /// Output dimension.
    pub fn output_dim(&self) -> usize {
        self.layers[self.layers.len() - 1].output
    }

    /// Forward pass.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        let mut rows = ForwardRows::default();
        self.forward_rows(x, &mut rows);
        rows.current
    }

    /// Forward pass over the caller's two rows; the output borrows one of
    /// them. Each layer is [`Dense::forward_into`], so the sums run in the
    /// order [`Mlp::forward_trace`] runs them.
    pub fn forward_rows<'r>(&self, x: &[f64], rows: &'r mut ForwardRows) -> &'r [f64] {
        let ForwardRows {
            current: h,
            next: y,
        } = rows;
        let (first, rest) = self.layers.split_first().expect("an MLP has a layer");
        h.resize(first.output, 0.0);
        first.forward_into(x, h);
        for layer in rest {
            for v in h.iter_mut() {
                *v = v.tanh();
            }
            y.resize(layer.output, 0.0);
            layer.forward_into(h, y);
            std::mem::swap(h, y);
        }
        h
    }

    /// Forward pass keeping every layer's *post-activation* output
    /// (`activations[0]` is the input itself); needed for backprop.
    pub fn forward_trace(&self, x: &[f64]) -> Vec<Vec<f64>> {
        let mut acts = Vec::with_capacity(self.layers.len() + 1);
        acts.push(x.to_vec());
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            let mut y = layer.forward(acts.last().expect("non-empty"));
            if i != last {
                for v in &mut y {
                    *v = v.tanh();
                }
            }
            acts.push(y);
        }
        acts
    }

    /// Backpropagates `d_out` (gradient w.r.t. the network output) through
    /// the trace produced by [`Mlp::forward_trace`], accumulating into
    /// `grad`.
    pub fn backward(&self, acts: &[Vec<f64>], d_out: &[f64], grad: &mut MlpGrad) {
        debug_assert_eq!(acts.len(), self.layers.len() + 1);
        let mut dy = d_out.to_vec();
        for (i, layer) in self.layers.iter().enumerate().rev() {
            // acts[i] is the layer input; acts[i+1] its post-activation output.
            let dx = grad.layers[i].accumulate(layer, &acts[i], &dy);
            dy = dx;
            if i > 0 {
                // Undo the tanh of the previous layer: d tanh(z) = 1 - y².
                for (d, y) in dy.iter_mut().zip(&acts[i]) {
                    *d *= 1.0 - y * y;
                }
            }
        }
    }

    /// Mutable access for the optimizer.
    pub fn layers_mut(&mut self) -> &mut [Dense] {
        &mut self.layers
    }

    /// Total number of parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Dense::param_count).sum()
    }

    /// Zeroed gradients matching this network.
    pub fn zero_grad(&self) -> MlpGrad {
        MlpGrad {
            layers: self.layers.iter().map(DenseGrad::zeros_like).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn shapes_are_consistent() {
        let mut rng = StdRng::seed_from_u64(1);
        let net = Mlp::new(&[16, 25, 9], &mut rng);
        assert_eq!(net.input_dim(), 16);
        assert_eq!(net.output_dim(), 9);
        assert_eq!(net.param_count(), 16 * 25 + 25 + 25 * 9 + 9);
        assert_eq!(net.forward(&[0.1; 16]).len(), 9);
    }

    #[test]
    fn forward_rows_match_forward_and_keep_their_capacity() {
        let mut rng = StdRng::seed_from_u64(4);
        let net = Mlp::new(&[4, 25, 7, 3], &mut rng);
        let mut rows = ForwardRows::default();
        let mut warmed = None;
        for i in 0..1_000 {
            let x = [i as f64 * 0.01, -1.0, (i % 7) as f64, 0.5];
            let bits = |v: &[f64]| v.iter().map(|q| q.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(net.forward_rows(&x, &mut rows)),
                bits(&net.forward(&x))
            );
            assert_eq!(
                bits(&net.forward(&x)),
                bits(net.forward_trace(&x).last().unwrap())
            );
            let capacities = [rows.current.capacity(), rows.next.capacity()];
            assert_eq!(*warmed.get_or_insert(capacities), capacities, "pass {i}");
        }
    }

    #[test]
    fn forward_trace_matches_forward() {
        let mut rng = StdRng::seed_from_u64(2);
        let net = Mlp::new(&[4, 8, 3], &mut rng);
        let x = [0.5, -0.25, 1.0, 0.0];
        let acts = net.forward_trace(&x);
        assert_eq!(acts.len(), 3);
        assert_eq!(acts.last().unwrap(), &net.forward(&x));
    }

    /// Numerical gradient check: the backprop gradient of a scalar loss
    /// must match finite differences on every parameter of a small net.
    #[test]
    fn backprop_matches_numerical_gradient() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut net = Mlp::new(&[3, 5, 2], &mut rng);
        let x = [0.3, -0.7, 0.9];
        let target = [0.5, -1.0];

        let loss = |net: &Mlp| -> f64 {
            let y = net.forward(&x);
            y.iter()
                .zip(&target)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
        };

        // Analytic gradient.
        let acts = net.forward_trace(&x);
        let y = acts.last().unwrap().clone();
        let d_out: Vec<f64> = y.iter().zip(&target).map(|(a, b)| 2.0 * (a - b)).collect();
        let mut grad = net.zero_grad();
        net.backward(&acts, &d_out, &mut grad);

        // Compare against central finite differences.
        let eps = 1e-6;
        for l in 0..net.layers().len() {
            for wi in 0..net.layers()[l].w.len() {
                let orig = net.layers()[l].w[wi];
                net.layers_mut()[l].w[wi] = orig + eps;
                let up = loss(&net);
                net.layers_mut()[l].w[wi] = orig - eps;
                let down = loss(&net);
                net.layers_mut()[l].w[wi] = orig;
                let numeric = (up - down) / (2.0 * eps);
                let analytic = grad.layers[l].w[wi];
                assert!(
                    (numeric - analytic).abs() < 1e-5,
                    "layer {l} w[{wi}]: numeric {numeric} vs analytic {analytic}"
                );
            }
            for bi in 0..net.layers()[l].b.len() {
                let orig = net.layers()[l].b[bi];
                net.layers_mut()[l].b[bi] = orig + eps;
                let up = loss(&net);
                net.layers_mut()[l].b[bi] = orig - eps;
                let down = loss(&net);
                net.layers_mut()[l].b[bi] = orig;
                let numeric = (up - down) / (2.0 * eps);
                let analytic = grad.layers[l].b[bi];
                assert!(
                    (numeric - analytic).abs() < 1e-5,
                    "layer {l} b[{bi}]: numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "need at least input and output")]
    fn rejects_degenerate_shapes() {
        let mut rng = StdRng::seed_from_u64(4);
        let _ = Mlp::new(&[3], &mut rng);
    }
}
