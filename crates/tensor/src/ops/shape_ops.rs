//! Structural ops: concatenation, row slicing/stacking, embedding gather.

use std::sync::Arc;

use crate::infer;
use crate::shape::Shape;
use crate::tensor::Tensor;

impl Tensor {
    /// Concatenate two rank-2 tensors along the column axis:
    /// `(B, D1) ++ (B, D2) -> (B, D1+D2)`.
    pub fn concat_cols(&self, other: &Tensor) -> Tensor {
        let (b1, d1) = self.shape().as_2d();
        let (b2, d2) = other.shape().as_2d();
        assert_eq!(b1, b2, "concat_cols: row counts differ ({b1} vs {b2})");
        let mut data = Vec::with_capacity(b1 * (d1 + d2));
        for r in 0..b1 {
            data.extend_from_slice(&self.data()[r * d1..(r + 1) * d1]);
            data.extend_from_slice(&other.data()[r * d2..(r + 1) * d2]);
        }
        Tensor::from_op(
            data,
            Shape::from((b1, d1 + d2)),
            vec![self.clone(), other.clone()],
            Box::new(move |g| {
                let d = d1 + d2;
                let mut ga = vec![0.0f32; b1 * d1];
                let mut gb = vec![0.0f32; b1 * d2];
                for r in 0..b1 {
                    ga[r * d1..(r + 1) * d1].copy_from_slice(&g[r * d..r * d + d1]);
                    gb[r * d2..(r + 1) * d2].copy_from_slice(&g[r * d + d1..(r + 1) * d]);
                }
                vec![ga, gb]
            }),
        )
    }

    /// Concatenate two rank-2 tensors along the row axis:
    /// `(B1, D) ++ (B2, D) -> (B1+B2, D)` — used to pool source and target
    /// minibatches for joint alignment losses.
    pub fn concat_rows(&self, other: &Tensor) -> Tensor {
        let (b1, d1) = self.shape().as_2d();
        let (b2, d2) = other.shape().as_2d();
        assert_eq!(d1, d2, "concat_rows: column counts differ ({d1} vs {d2})");
        let mut data = Vec::with_capacity((b1 + b2) * d1);
        data.extend_from_slice(self.data());
        data.extend_from_slice(other.data());
        Tensor::from_op(
            data,
            Shape::from((b1 + b2, d1)),
            vec![self.clone(), other.clone()],
            Box::new(move |g| {
                vec![g[..b1 * d1].to_vec(), g[b1 * d1..].to_vec()]
            }),
        )
    }

    /// Select a contiguous row range of a rank-2 tensor: rows `[start, end)`.
    pub fn slice_rows(&self, start: usize, end: usize) -> Tensor {
        let (b, d) = self.shape().as_2d();
        assert!(start <= end && end <= b, "slice_rows: [{start},{end}) out of {b}");
        let data = self.data()[start * d..end * d].to_vec();
        Tensor::from_op(
            data,
            Shape::from((end - start, d)),
            vec![self.clone()],
            Box::new(move |g| {
                let mut gi = vec![0.0f32; b * d];
                gi[start * d..end * d].copy_from_slice(g);
                vec![gi]
            }),
        )
    }

    /// Embedding lookup: gather rows of a `(V, D)` table by index, giving
    /// `(N, D)`. Gradient scatter-adds into the table.
    pub fn gather_rows(&self, ids: &[usize]) -> Tensor {
        let (v, d) = self.shape().as_2d();
        for &i in ids {
            assert!(i < v, "gather_rows: index {i} out of vocabulary {v}");
        }
        let n = ids.len();
        let mut data = Vec::with_capacity(n * d);
        for &i in ids {
            data.extend_from_slice(&self.data()[i * d..(i + 1) * d]);
        }
        let ids = Arc::new(ids.to_vec());
        Tensor::from_op(
            data,
            Shape::from((n, d)),
            vec![self.clone()],
            Box::new(move |g| {
                let mut gw = vec![0.0f32; v * d];
                for (r, &i) in ids.iter().enumerate() {
                    for (w, gv) in gw[i * d..(i + 1) * d].iter_mut().zip(&g[r * d..(r + 1) * d]) {
                        *w += gv;
                    }
                }
                vec![gw]
            }),
        )
    }

    /// Stack a sequence of `(B, D)` tensors into `(B, S, D)` (time-major
    /// collection from recurrent cells back into a batch-major tensor).
    pub fn stack_seq(steps: &[Tensor]) -> Tensor {
        assert!(!steps.is_empty(), "stack_seq: empty sequence");
        let (b, d) = steps[0].shape().as_2d();
        let s = steps.len();
        for t in steps {
            assert_eq!(t.shape().as_2d(), (b, d), "stack_seq: inconsistent step shapes");
        }
        let mut data = vec![0.0f32; b * s * d];
        for (si, t) in steps.iter().enumerate() {
            for bi in 0..b {
                data[(bi * s + si) * d..(bi * s + si + 1) * d]
                    .copy_from_slice(&t.data()[bi * d..(bi + 1) * d]);
            }
        }
        Tensor::from_op(
            data,
            Shape::from((b, s, d)),
            steps.to_vec(),
            Box::new(move |g| {
                (0..s)
                    .map(|si| {
                        let mut gi = vec![0.0f32; b * d];
                        for bi in 0..b {
                            gi[bi * d..(bi + 1) * d]
                                .copy_from_slice(&g[(bi * s + si) * d..(bi * s + si + 1) * d]);
                        }
                        gi
                    })
                    .collect()
            }),
        )
    }

    /// View a rank-3 `(B, S, D)` tensor as rank-2 `(B*S, D)` (for running
    /// position-wise linear layers).
    pub fn fold_seq(&self) -> Tensor {
        let (b, s, d) = self.shape().as_3d();
        self.reshape((b * s, d))
    }

    /// Inverse of [`Tensor::fold_seq`].
    pub fn unfold_seq(&self, b: usize, s: usize) -> Tensor {
        let (n, d) = self.shape().as_2d();
        assert_eq!(n, b * s, "unfold_seq: {n} rows != {b}x{s}");
        self.reshape((b, s, d))
    }

    /// Split the feature dimension into `h` attention heads:
    /// `(B, S, D) -> (B*h, S, D/h)`, heads contiguous per batch element.
    pub fn split_heads(&self, h: usize) -> Tensor {
        let (b, s, d) = self.shape().as_3d();
        assert_eq!(d % h, 0, "split_heads: dim {d} not divisible by {h} heads");
        let dh = d / h;
        Tensor::from_op(
            infer::split_heads(self.data(), b, s, d, h),
            Shape::from((b * h, s, dh)),
            vec![self.clone()],
            Box::new(move |g| vec![infer::merge_heads(g, b, s, dh, h)]),
        )
    }

    /// Merge attention heads back: `(B*h, S, D/h) -> (B, S, D)`.
    /// Inverse of [`Tensor::split_heads`].
    pub fn merge_heads(&self, h: usize) -> Tensor {
        let (bh, s, dh) = self.shape().as_3d();
        assert_eq!(bh % h, 0, "merge_heads: batch {bh} not divisible by {h} heads");
        let b = bh / h;
        let d = dh * h;
        Tensor::from_op(
            infer::merge_heads(self.data(), b, s, dh, h),
            Shape::from((b, s, d)),
            vec![self.clone()],
            Box::new(move |g| vec![infer::split_heads(g, b, s, d, h)]),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::Param;

    #[test]
    fn concat_cols_layout_and_grad() {
        let pa = Param::from_vec("a", vec![1.0, 2.0, 3.0, 4.0], (2, 2));
        let pb = Param::from_vec("b", vec![9.0, 8.0], (2, 1));
        let a = pa.leaf();
        let b = pb.leaf();
        let c = a.concat_cols(&b);
        assert_eq!(c.to_vec(), vec![1.0, 2.0, 9.0, 3.0, 4.0, 8.0]);
        let g = c.scale(2.0).sum_all().backward();
        assert_eq!(g.get(&a).unwrap(), &[2.0; 4]);
        assert_eq!(g.get(&b).unwrap(), &[2.0; 2]);
    }

    #[test]
    fn concat_rows_grad_split() {
        let pa = Param::from_vec("a", vec![1.0, 2.0], (1, 2));
        let pb = Param::from_vec("b", vec![3.0, 4.0, 5.0, 6.0], (2, 2));
        let a = pa.leaf();
        let b = pb.leaf();
        let c = a.concat_rows(&b);
        assert_eq!(c.shape().dims(), &[3, 2]);
        let g = c.square().sum_all().backward();
        assert_eq!(g.get(&a).unwrap(), &[2.0, 4.0]);
        assert_eq!(g.get(&b).unwrap(), &[6.0, 8.0, 10.0, 12.0]);
    }

    #[test]
    fn slice_rows_grad_scatter() {
        let p = Param::from_vec("x", vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], (3, 2));
        let x = p.leaf();
        let s = x.slice_rows(1, 2);
        assert_eq!(s.to_vec(), vec![3.0, 4.0]);
        let g = s.sum_all().backward();
        assert_eq!(g.get(&x).unwrap(), &[0.0, 0.0, 1.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn gather_rows_lookup_and_scatter_add() {
        let table = Param::from_vec("e", vec![1.0, 1.0, 2.0, 2.0, 3.0, 3.0], (3, 2));
        let w = table.leaf();
        let e = w.gather_rows(&[2, 0, 2]);
        assert_eq!(e.to_vec(), vec![3.0, 3.0, 1.0, 1.0, 3.0, 3.0]);
        let g = e.sum_all().backward();
        // row 2 used twice, row 0 once, row 1 never
        assert_eq!(g.get(&w).unwrap(), &[1.0, 1.0, 0.0, 0.0, 2.0, 2.0]);
    }

    #[test]
    fn stack_seq_roundtrip() {
        let p0 = Param::from_vec("s0", vec![1.0, 2.0, 3.0, 4.0], (2, 2));
        let p1 = Param::from_vec("s1", vec![5.0, 6.0, 7.0, 8.0], (2, 2));
        let s = Tensor::stack_seq(&[p0.leaf(), p1.leaf()]);
        assert_eq!(s.shape().dims(), &[2, 2, 2]);
        // batch 0: [[1,2],[5,6]]
        assert_eq!(&s.to_vec()[..4], &[1.0, 2.0, 5.0, 6.0]);
        let g = s.sum_all().backward();
        assert_eq!(g.get_id(p0.id()).unwrap(), &[1.0; 4]);
    }

    #[test]
    fn fold_unfold_roundtrip() {
        let p = Param::from_vec("x", (0..12).map(|v| v as f32).collect::<Vec<_>>(), (2, 3, 2));
        let x = p.leaf();
        let y = x.fold_seq().unfold_seq(2, 3);
        assert_eq!(y.to_vec(), x.to_vec());
        let g = y.square().sum_all().backward();
        assert_eq!(g.get(&x).unwrap()[3], 6.0);
    }

    #[test]
    #[should_panic(expected = "out of vocabulary")]
    fn gather_oob_panics() {
        Tensor::ones((2, 2)).gather_rows(&[5]);
    }

    #[test]
    fn split_merge_heads_roundtrip() {
        let p = Param::from_vec(
            "x",
            (0..24).map(|v| v as f32).collect::<Vec<_>>(),
            (2, 3, 4),
        );
        let x = p.leaf();
        let split = x.split_heads(2);
        assert_eq!(split.shape().dims(), &[4, 3, 2]);
        let merged = split.merge_heads(2);
        assert_eq!(merged.to_vec(), x.to_vec());
        let g = merged.square().sum_all().backward();
        let gx = g.get(&x).unwrap();
        assert_eq!(gx[5], 10.0); // d/dx x^2 = 2x
    }

    #[test]
    fn split_heads_layout() {
        // b=1, s=2, d=4, h=2 → head 0 gets dims 0..2, head 1 dims 2..4
        let x = Tensor::from_vec((0..8).map(|v| v as f32).collect::<Vec<_>>(), (1, 2, 4));
        let s = x.split_heads(2);
        // head 0: [[0,1],[4,5]]; head 1: [[2,3],[6,7]]
        assert_eq!(s.to_vec(), vec![0.0, 1.0, 4.0, 5.0, 2.0, 3.0, 6.0, 7.0]);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn split_heads_indivisible_panics() {
        Tensor::ones((1, 2, 5)).split_heads(2);
    }
}
