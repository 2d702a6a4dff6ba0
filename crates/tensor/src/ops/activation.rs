//! Pointwise nonlinearities: ReLU, LeakyReLU, sigmoid, tanh, GELU.
//!
//! The forwards call the tape-free kernels in [`crate::infer`], so taped
//! and tape-free activations are one function.

use std::sync::Arc;

use crate::infer;
use crate::tensor::Tensor;

/// `data` copied and mapped in place by `kernel`.
fn mapped(data: &[f32], kernel: fn(&mut [f32])) -> Vec<f32> {
    let mut out = data.to_vec();
    kernel(&mut out);
    out
}

impl Tensor {
    /// Rectified linear unit.
    pub fn relu(&self) -> Tensor {
        let data = mapped(self.data(), infer::relu_inplace);
        let a_data = self.data_arc();
        Tensor::from_op(
            data,
            self.shape().clone(),
            vec![self.clone()],
            Box::new(move |g| {
                vec![g
                    .iter()
                    .zip(a_data.iter())
                    .map(|(g, a)| if *a > 0.0 { *g } else { 0.0 })
                    .collect()]
            }),
        )
    }

    /// Leaky ReLU with negative slope `alpha` (the paper's InvGAN
    /// discriminator uses LeakyReLU).
    pub fn leaky_relu(&self, alpha: f32) -> Tensor {
        let data: Vec<f32> = self
            .data()
            .iter()
            .map(|a| if *a > 0.0 { *a } else { alpha * a })
            .collect();
        let a_data = self.data_arc();
        Tensor::from_op(
            data,
            self.shape().clone(),
            vec![self.clone()],
            Box::new(move |g| {
                vec![g
                    .iter()
                    .zip(a_data.iter())
                    .map(|(g, a)| if *a > 0.0 { *g } else { alpha * g })
                    .collect()]
            }),
        )
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&self) -> Tensor {
        let data = mapped(self.data(), infer::sigmoid_inplace);
        let out = Arc::new(data.clone());
        Tensor::from_op(
            data,
            self.shape().clone(),
            vec![self.clone()],
            Box::new(move |g| {
                vec![g
                    .iter()
                    .zip(out.iter())
                    .map(|(g, o)| g * o * (1.0 - o))
                    .collect()]
            }),
        )
    }

    /// Hyperbolic tangent.
    pub fn tanh_act(&self) -> Tensor {
        let data = mapped(self.data(), infer::tanh_inplace);
        let out = Arc::new(data.clone());
        Tensor::from_op(
            data,
            self.shape().clone(),
            vec![self.clone()],
            Box::new(move |g| {
                vec![g
                    .iter()
                    .zip(out.iter())
                    .map(|(g, o)| g * (1.0 - o * o))
                    .collect()]
            }),
        )
    }

    /// GELU (tanh approximation), the transformer-standard activation.
    pub fn gelu(&self) -> Tensor {
        const C: f32 = 0.797_884_6; // sqrt(2/pi)
        let data = mapped(self.data(), infer::gelu_inplace);
        let a_data = self.data_arc();
        Tensor::from_op(
            data,
            self.shape().clone(),
            vec![self.clone()],
            Box::new(move |g| {
                vec![g
                    .iter()
                    .zip(a_data.iter())
                    .map(|(g, &x)| {
                        let inner = C * (x + 0.044715 * x * x * x);
                        let t = inner.tanh();
                        let dt = (1.0 - t * t) * C * (1.0 + 3.0 * 0.044715 * x * x);
                        g * (0.5 * (1.0 + t) + 0.5 * x * dt)
                    })
                    .collect()]
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::Param;

    fn leaf(data: Vec<f32>) -> Tensor {
        let n = data.len();
        Param::from_vec("x", data, n).leaf()
    }

    #[test]
    fn relu_forward_backward() {
        let x = leaf(vec![-1.0, 0.0, 2.0]);
        let y = x.relu();
        assert_eq!(y.to_vec(), vec![0.0, 0.0, 2.0]);
        let g = y.sum_all().backward();
        assert_eq!(g.get(&x).unwrap(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn leaky_relu_slope() {
        let x = leaf(vec![-2.0, 3.0]);
        let y = x.leaky_relu(0.1);
        assert_eq!(y.to_vec(), vec![-0.2, 3.0]);
        let g = y.sum_all().backward();
        let gx = g.get(&x).unwrap();
        assert!((gx[0] - 0.1).abs() < 1e-7);
        assert_eq!(gx[1], 1.0);
    }

    #[test]
    fn sigmoid_range_and_grad() {
        let x = leaf(vec![0.0]);
        let y = x.sigmoid();
        assert!((y.item() - 0.5).abs() < 1e-6);
        let g = y.sum_all().backward();
        assert!((g.get(&x).unwrap()[0] - 0.25).abs() < 1e-6);
    }

    #[test]
    fn tanh_grad_at_zero() {
        let x = leaf(vec![0.0]);
        let g = x.tanh_act().sum_all().backward();
        assert!((g.get(&x).unwrap()[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn gelu_matches_known_values() {
        let x = leaf(vec![0.0, 1.0, -1.0]);
        let y = x.gelu();
        assert!((y.get(0) - 0.0).abs() < 1e-6);
        assert!((y.get(1) - 0.8412).abs() < 1e-3);
        assert!((y.get(2) + 0.1588).abs() < 1e-3);
    }

    #[test]
    fn gelu_grad_finite_difference() {
        let x0 = 0.7f32;
        let eps = 1e-3f32;
        let f = |v: f32| {
            Tensor::scalar(v).gelu().item()
        };
        let fd = (f(x0 + eps) - f(x0 - eps)) / (2.0 * eps);
        let x = leaf(vec![x0]);
        let g = x.gelu().sum_all().backward();
        assert!((g.get(&x).unwrap()[0] - fd).abs() < 1e-3);
    }
}
