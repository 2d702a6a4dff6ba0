//! Softmax-family ops and fused classification losses.
//!
//! All softmaxes operate over the last dimension and are numerically
//! stabilized by max-subtraction. The fused losses (softmax cross-entropy,
//! binary cross-entropy with logits) compute exact gradients without
//! materializing intermediate graphs, which keeps the adversarial training
//! loops cheap.

use std::sync::Arc;

use crate::shape::Shape;
use crate::tensor::Tensor;

/// Row softmax of an `(n, d)` buffer into a new one: the tape-free kernel,
/// so the taped softmaxes and `infer` share one implementation.
fn softmax_rows(data: &[f32], n: usize, d: usize) -> Vec<f32> {
    let mut out = data.to_vec();
    crate::infer::softmax_rows_inplace(&mut out, n, d);
    out
}

impl Tensor {
    /// Softmax over the last dimension.
    pub fn softmax_last(&self) -> Tensor {
        let d = self.shape().last_dim();
        let n = self.numel() / d;
        let data = softmax_rows(self.data(), n, d);
        let out = Arc::new(data.clone());
        Tensor::from_op(
            data,
            self.shape().clone(),
            vec![self.clone()],
            Box::new(move |g| {
                let mut gi = vec![0.0f32; n * d];
                for r in 0..n {
                    let o = &out[r * d..(r + 1) * d];
                    let gr = &g[r * d..(r + 1) * d];
                    let dot: f32 = o.iter().zip(gr).map(|(o, g)| o * g).sum();
                    for i in 0..d {
                        gi[r * d + i] = o[i] * (gr[i] - dot);
                    }
                }
                vec![gi]
            }),
        )
    }

    /// Log-softmax over the last dimension.
    pub fn log_softmax_last(&self) -> Tensor {
        let d = self.shape().last_dim();
        let n = self.numel() / d;
        let sm = softmax_rows(self.data(), n, d);
        let data: Vec<f32> = sm.iter().map(|p| p.max(1e-12).ln()).collect();
        let sm = Arc::new(sm);
        Tensor::from_op(
            data,
            self.shape().clone(),
            vec![self.clone()],
            Box::new(move |g| {
                let mut gi = vec![0.0f32; n * d];
                for r in 0..n {
                    let p = &sm[r * d..(r + 1) * d];
                    let gr = &g[r * d..(r + 1) * d];
                    let gsum: f32 = gr.iter().sum();
                    for i in 0..d {
                        gi[r * d + i] = gr[i] - p[i] * gsum;
                    }
                }
                vec![gi]
            }),
        )
    }

    /// Fused softmax cross-entropy between rank-2 logits `(B, C)` and class
    /// indices. Returns the mean loss (scalar). This is the matcher loss
    /// `L_M` of Eq. (4).
    pub fn cross_entropy_logits(&self, targets: &[usize]) -> Tensor {
        let (b, c) = self.shape().as_2d();
        assert_eq!(targets.len(), b, "cross_entropy: target count mismatch");
        for &t in targets {
            assert!(t < c, "cross_entropy: class index {t} out of {c}");
        }
        let probs = softmax_rows(self.data(), b, c);
        let mut loss = 0.0f32;
        for (r, &t) in targets.iter().enumerate() {
            loss -= probs[r * c + t].max(1e-12).ln();
        }
        loss /= b as f32;
        let probs = Arc::new(probs);
        let targets = Arc::new(targets.to_vec());
        Tensor::from_op(
            vec![loss],
            Shape::scalar(),
            vec![self.clone()],
            Box::new(move |g| {
                let scale = g[0] / b as f32;
                let mut gi = probs.as_ref().clone();
                for (r, &t) in targets.iter().enumerate() {
                    gi[r * c + t] -= 1.0;
                }
                for v in gi.iter_mut() {
                    *v *= scale;
                }
                vec![gi]
            }),
        )
    }

    /// Fused binary cross-entropy on logits: `self` is `(B,)` or `(B,1)`
    /// raw scores, `targets` are 0/1 floats. Returns the mean loss. This is
    /// the domain-classification loss `L_A` of Eq. (8).
    pub fn bce_with_logits(&self, targets: &[f32]) -> Tensor {
        let b = self.numel();
        assert_eq!(targets.len(), b, "bce_with_logits: target count mismatch");
        let mut loss = 0.0f32;
        let mut sig = Vec::with_capacity(b);
        for (&z, &t) in self.data().iter().zip(targets) {
            let s = 1.0 / (1.0 + (-z).exp());
            sig.push(s);
            // Numerically-stable formulation: max(z,0) - z*t + ln(1+e^{-|z|})
            loss += z.max(0.0) - z * t + (1.0 + (-z.abs()).exp()).ln();
        }
        loss /= b as f32;
        let sig = Arc::new(sig);
        let targets = Arc::new(targets.to_vec());
        Tensor::from_op(
            vec![loss],
            Shape::scalar(),
            vec![self.clone()],
            Box::new(move |g| {
                let scale = g[0] / b as f32;
                vec![sig
                    .iter()
                    .zip(targets.iter())
                    .map(|(s, t)| (s - t) * scale)
                    .collect()]
            }),
        )
    }

    /// Per-row softmax probabilities as plain data (no graph), for
    /// prediction and entropy-based active learning.
    pub fn softmax_probs(&self) -> Vec<f32> {
        let d = self.shape().last_dim();
        let n = self.numel() / d;
        softmax_rows(self.data(), n, d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::Param;

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], (2, 3));
        let y = x.softmax_last();
        for r in 0..2 {
            let s: f32 = y.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_invariant_to_shift() {
        let a = Tensor::from_vec(vec![1.0, 2.0], (1, 2)).softmax_last();
        let b = Tensor::from_vec(vec![101.0, 102.0], (1, 2)).softmax_last();
        assert!((a.get(0) - b.get(0)).abs() < 1e-6);
    }

    #[test]
    fn log_softmax_matches_log_of_softmax() {
        let x = Tensor::from_vec(vec![0.3, -0.7, 1.1], (1, 3));
        let a = x.softmax_last().to_vec();
        let b = x.log_softmax_last().to_vec();
        for (p, lp) in a.iter().zip(&b) {
            assert!((p.ln() - lp).abs() < 1e-5);
        }
    }

    #[test]
    fn cross_entropy_perfect_prediction_near_zero() {
        let logits = Tensor::from_vec(vec![10.0, -10.0, -10.0, 10.0], (2, 2));
        let loss = logits.cross_entropy_logits(&[0, 1]);
        assert!(loss.item() < 1e-4);
    }

    #[test]
    fn cross_entropy_gradient_is_probs_minus_onehot() {
        let p = Param::from_vec("l", vec![0.0, 0.0], (1, 2));
        let l = p.leaf();
        let loss = l.cross_entropy_logits(&[1]);
        let g = loss.backward();
        let gl = g.get(&l).unwrap();
        assert!((gl[0] - 0.5).abs() < 1e-6);
        assert!((gl[1] + 0.5).abs() < 1e-6);
    }

    #[test]
    fn cross_entropy_uniform_is_log_c() {
        let logits = Tensor::from_vec(vec![0.0; 4], (1, 4));
        let loss = logits.cross_entropy_logits(&[2]);
        assert!((loss.item() - 4.0f32.ln()).abs() < 1e-5);
    }

    #[test]
    fn bce_matches_manual() {
        let p = Param::from_vec("z", vec![0.0], 1usize);
        let z = p.leaf();
        let loss = z.bce_with_logits(&[1.0]);
        assert!((loss.item() - 2.0f32.ln()).abs() < 1e-6);
        let g = loss.backward();
        assert!((g.get(&z).unwrap()[0] + 0.5).abs() < 1e-6); // sigmoid(0)-1
    }

    #[test]
    fn bce_extreme_logits_stable() {
        let z = Tensor::from_vec(vec![100.0, -100.0], 2usize);
        let loss = z.bce_with_logits(&[1.0, 0.0]);
        assert!(loss.item().is_finite());
        assert!(loss.item() < 1e-4);
    }

    #[test]
    fn softmax_grad_finite_difference() {
        let v = vec![0.2f32, -0.4, 0.7];
        let f = |vals: &[f32]| {
            let t = Tensor::from_slice(vals, (1, 3));
            // scalar objective: weighted sum of softmax
            let w = [1.0f32, 2.0, 3.0];
            t.softmax_last()
                .to_vec()
                .iter()
                .zip(&w)
                .map(|(p, w)| p * w)
                .sum::<f32>()
        };
        let p = Param::from_vec("x", v.clone(), (1, 3));
        let x = p.leaf();
        let w = Tensor::from_vec(vec![1.0, 2.0, 3.0], (1, 3));
        let y = x.softmax_last().mul(&w).sum_all();
        let g = y.backward();
        let gx = g.get(&x).unwrap();
        for i in 0..3 {
            let mut vp = v.clone();
            vp[i] += 1e-3;
            let mut vm = v.clone();
            vm[i] -= 1e-3;
            let fd = (f(&vp) - f(&vm)) / 2e-3;
            assert!((gx[i] - fd).abs() < 1e-3, "dim {i}: {} vs {}", gx[i], fd);
        }
    }

    #[test]
    #[should_panic(expected = "class index")]
    fn cross_entropy_bad_target_panics() {
        Tensor::zeros((1, 2)).cross_entropy_logits(&[5]);
    }
}
