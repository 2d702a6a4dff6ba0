//! Matrix multiplication: rank-2 GEMM, batched rank-3 GEMM (plain and
//! B-transposed, for attention), and 2-D transpose.
//!
//! The crate has one GEMM: the serial register-tiled kernel [`gemm_acc`]
//! and the sharding driver [`gemm_shards`] around it. Every product calls
//! them — the taped `matmul`/`bmm`/`bmm_nt` forwards and backwards here,
//! and the tape-free `infer::{linear, bmm, bmm_nt}` — so a taped and a
//! tape-free product are the same function, not two copies kept in step.
//! NT and TN products transpose their transposed operand once per call
//! (every batch of it, for rank 3) into the NN layout the kernel reads.
//!
//! The driver splits the *output* into disjoint row blocks (rank 2) or
//! batch blocks (rank 3) and runs the kernel per block on the
//! [`crate::pool`]. Because shards never share an output element and every
//! element keeps the kernel's accumulation order, parallel results are
//! bitwise identical to serial for any shard or thread count. A size
//! heuristic keeps small products on one thread, where dispatch overhead
//! would dominate.

use crate::pool;
use crate::shape::Shape;
use crate::tensor::Tensor;

/// `C[m,n] += A[m,k] * B[k,n]` over raw slices — the crate's one serial
/// GEMM kernel.
///
/// Each row of `C` is computed in 16- and 8-column register tiles with the
/// k loop innermost, so the accumulators live in vector registers instead
/// of round-tripping through `C` on every k step. Every `c[i][j]` receives
/// its products `a[i][kk] * b[kk][j]` in ascending-k order into an
/// accumulator that starts at +0.0, and that sum is added to `c[i][j]`
/// once.
///
/// Conditions for the result to be exactly the ascending-k sum, i.e. the
/// same bits as a naive `i-j-k` triple loop into a zeroed `C`, whatever the
/// tiling, the shard boundaries or the layout transposition in front:
/// * `C` holds +0.0 on entry. [`gemm_shards`] — the only caller — hands it
///   a fresh zeroed block. An accumulator that starts at +0.0 and only adds
///   products can never sit at -0.0, so `+0.0 + acc` is `acc` bit for bit.
/// * The inputs are finite. There is no zero-skip: a zero `a[i][kk]` still
///   multiplies its `b[kk][j]`, so an inf or NaN in `B` reaches `C` as NaN
///   even where the matching `A` entry is zero, in every layout.
pub fn gemm_acc(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let c_row = &mut c[i * n..(i + 1) * n];
        let mut jb = 0;
        while jb + 16 <= n {
            let mut acc = [0.0f32; 16];
            for (kk, &a_ik) in a_row.iter().enumerate() {
                let b_row = &b[kk * n + jb..kk * n + jb + 16];
                for (s, &b_kj) in acc.iter_mut().zip(b_row) {
                    *s += a_ik * b_kj;
                }
            }
            for (o, &s) in c_row[jb..jb + 16].iter_mut().zip(&acc) {
                *o += s;
            }
            jb += 16;
        }
        if jb + 8 <= n {
            let mut acc = [0.0f32; 8];
            for (kk, &a_ik) in a_row.iter().enumerate() {
                let b_row = &b[kk * n + jb..kk * n + jb + 8];
                for (s, &b_kj) in acc.iter_mut().zip(b_row) {
                    *s += a_ik * b_kj;
                }
            }
            for (o, &s) in c_row[jb..jb + 8].iter_mut().zip(&acc) {
                *o += s;
            }
            jb += 8;
        }
        if jb < n {
            for (kk, &a_ik) in a_row.iter().enumerate() {
                let b_row = &b[kk * n..(kk + 1) * n];
                for (o, &b_kj) in c_row[jb..].iter_mut().zip(&b_row[jb..]) {
                    *o += a_ik * b_kj;
                }
            }
        }
    }
}

/// Operand layout of each product `C = op(A) · op(B)`, `C` being `(m, n)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layout {
    /// `A (m, k) · B (k, n)`.
    NN,
    /// `A (m, k) · B (n, k)ᵀ`.
    NT,
    /// `A (k, m)ᵀ · B (k, n)`.
    TN,
}

/// Transpose each of the `bs` row-major `(rows, cols)` blocks of `x` to
/// `(cols, rows)`.
pub(crate) fn transpose_batched(x: &[f32], bs: usize, rows: usize, cols: usize) -> Vec<f32> {
    debug_assert_eq!(x.len(), bs * rows * cols);
    let mut out = vec![0.0f32; x.len()];
    if out.is_empty() {
        return out;
    }
    for (src, dst) in x.chunks_exact(rows * cols).zip(out.chunks_exact_mut(rows * cols)) {
        for (i, row) in src.chunks_exact(cols).enumerate() {
            for (j, &v) in row.iter().enumerate() {
                dst[j * rows + i] = v;
            }
        }
    }
    out
}

/// Multiply-accumulate count below which parallel dispatch costs more than
/// it saves; products smaller than this stay on one thread.
pub const PAR_MIN_MACS: usize = 1 << 19;

/// `bs` products `op(A) · op(B)`, each `(m, k) · (k, n)` after `layout`'s
/// transposition, into a fresh `(bs, m, n)` buffer, with an explicit shard
/// count (exposed so the determinism suite can sweep counts). The output
/// splits into row blocks when `bs == 1` and into batches otherwise; every
/// block runs [`gemm_acc`] on a zeroed slice, so the result is bitwise
/// equal for any shard count.
#[allow(clippy::too_many_arguments)]
pub fn gemm_shards(
    layout: Layout,
    a: &[f32],
    b: &[f32],
    bs: usize,
    m: usize,
    k: usize,
    n: usize,
    shards: usize,
) -> Vec<f32> {
    assert_eq!(a.len(), bs * m * k, "gemm: lhs size mismatch");
    assert_eq!(b.len(), bs * k * n, "gemm: rhs size mismatch");
    let transposed;
    let (a, b) = match layout {
        Layout::NN => (a, b),
        Layout::NT => {
            transposed = transpose_batched(b, bs, n, k);
            (a, &transposed[..])
        }
        Layout::TN => {
            transposed = transpose_batched(a, bs, k, m);
            (&transposed[..], b)
        }
    };
    let mut c = vec![0.0f32; bs * m * n];
    if c.is_empty() {
        return c;
    }
    let block_rows = if bs == 1 { m.div_ceil(shards.clamp(1, m)) } else { m };
    pool::for_each_chunk_mut(&mut c, block_rows * n, shards.max(1), |s, c_block| {
        let row0 = s * block_rows;
        let rows = c_block.len() / n;
        let batch = row0 / m;
        let a_block = &a[row0 * k..(row0 + rows) * k];
        gemm_acc(a_block, &b[batch * k * n..(batch + 1) * k * n], c_block, rows, k, n);
    });
    c
}

/// [`gemm_shards`] with the shard count chosen from the pool size and the
/// product's size; small products stay on one thread.
pub fn gemm(layout: Layout, a: &[f32], b: &[f32], bs: usize, m: usize, k: usize, n: usize) -> Vec<f32> {
    let _sp = dader_obs::span!(if bs == 1 { "gemm" } else { "bmm" });
    let shards = if bs * m * k * n >= PAR_MIN_MACS {
        pool::current_threads()
    } else {
        1
    };
    gemm_shards(layout, a, b, bs, m, k, n, shards)
}

impl Tensor {
    /// Rank-2 matrix product: `(m,k) x (k,n) -> (m,n)`.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let (m, k) = self.shape().as_2d();
        let (k2, n) = other.shape().as_2d();
        assert_eq!(
            k, k2,
            "matmul: inner dims differ, {} vs {}",
            self.shape(),
            other.shape()
        );
        let data = gemm(Layout::NN, self.data(), other.data(), 1, m, k, n);
        let a_data = self.data_arc();
        let b_data = other.data_arc();
        Tensor::from_op(
            data,
            Shape::from((m, n)),
            vec![self.clone(), other.clone()],
            Box::new(move |g| {
                // dA = G B^T ; dB = A^T G
                let ga = gemm(Layout::NT, g, &b_data, 1, m, n, k);
                let gb = gemm(Layout::TN, &a_data, g, 1, k, m, n);
                vec![ga, gb]
            }),
        )
    }

    /// Batched rank-3 matrix product: `(B,m,k) x (B,k,n) -> (B,m,n)`.
    pub fn bmm(&self, other: &Tensor) -> Tensor {
        let (bs, m, k) = self.shape().as_3d();
        let (bs2, k2, n) = other.shape().as_3d();
        assert_eq!(bs, bs2, "bmm: batch dims differ");
        assert_eq!(k, k2, "bmm: inner dims differ");
        let data = gemm(Layout::NN, self.data(), other.data(), bs, m, k, n);
        let a_data = self.data_arc();
        let b_data = other.data_arc();
        Tensor::from_op(
            data,
            Shape::from((bs, m, n)),
            vec![self.clone(), other.clone()],
            Box::new(move |g| {
                // Per batch: dA = G B^T ; dB = A^T G
                let ga = gemm(Layout::NT, g, &b_data, bs, m, n, k);
                let gb = gemm(Layout::TN, &a_data, g, bs, k, m, n);
                vec![ga, gb]
            }),
        )
    }

    /// Batched product with the second operand transposed:
    /// `(B,m,d) x (B,n,d)^T -> (B,m,n)` — attention score computation.
    pub fn bmm_nt(&self, other: &Tensor) -> Tensor {
        let (bs, m, d) = self.shape().as_3d();
        let (bs2, n, d2) = other.shape().as_3d();
        assert_eq!(bs, bs2, "bmm_nt: batch dims differ");
        assert_eq!(d, d2, "bmm_nt: feature dims differ");
        let data = gemm(Layout::NT, self.data(), other.data(), bs, m, d, n);
        let a_data = self.data_arc();
        let b_data = other.data_arc();
        Tensor::from_op(
            data,
            Shape::from((bs, m, n)),
            vec![self.clone(), other.clone()],
            Box::new(move |g| {
                // C = A B^T → dA = G B ; dB = G^T A
                let ga = gemm(Layout::NN, g, &b_data, bs, m, n, d);
                let gb = gemm(Layout::TN, g, &a_data, bs, n, m, d);
                vec![ga, gb]
            }),
        )
    }

    /// Rank-2 transpose.
    pub fn transpose2(&self) -> Tensor {
        let (m, n) = self.shape().as_2d();
        Tensor::from_op(
            transpose_batched(self.data(), 1, m, n),
            Shape::from((n, m)),
            vec![self.clone()],
            Box::new(move |g| vec![transpose_batched(g, 1, n, m)]),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::Param;

    #[test]
    fn matmul_forward() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], (2, 2));
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], (2, 2));
        let c = a.matmul(&b);
        assert_eq!(c.to_vec(), vec![19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_backward_matches_manual() {
        let pa = Param::from_vec("a", vec![1.0, 2.0, 3.0, 4.0], (2, 2));
        let pb = Param::from_vec("b", vec![5.0, 6.0, 7.0, 8.0], (2, 2));
        let a = pa.leaf();
        let b = pb.leaf();
        let g = a.matmul(&b).sum_all().backward();
        // dA = ones(2,2) @ B^T → rows are [11, 15]
        assert_eq!(g.get(&a).unwrap(), &[11.0, 15.0, 11.0, 15.0]);
        // dB = A^T @ ones → rows are col-sums of A: [4,4],[6,6]
        assert_eq!(g.get(&b).unwrap(), &[4.0, 4.0, 6.0, 6.0]);
    }

    #[test]
    fn matmul_rectangular() {
        let a = Tensor::from_vec(vec![1.0; 6], (2, 3));
        let b = Tensor::from_vec(vec![2.0; 12], (3, 4));
        let c = a.matmul(&b);
        assert_eq!(c.shape().dims(), &[2, 4]);
        assert!(c.to_vec().iter().all(|&v| v == 6.0));
    }

    #[test]
    fn bmm_matches_per_batch_matmul() {
        let a = Tensor::from_vec((0..12).map(|v| v as f32).collect(), (2, 2, 3));
        let b = Tensor::from_vec((0..12).map(|v| (v % 5) as f32).collect(), (2, 3, 2));
        let c = a.bmm(&b);
        let a0 = Tensor::from_slice(&a.data()[..6], (2, 3));
        let b0 = Tensor::from_slice(&b.data()[..6], (3, 2));
        let c0 = a0.matmul(&b0);
        assert_eq!(&c.to_vec()[..4], c0.to_vec().as_slice());
    }

    #[test]
    fn bmm_nt_matches_manual_transpose() {
        let a = Tensor::from_vec((0..12).map(|v| v as f32).collect(), (1, 3, 4));
        let b = Tensor::from_vec((0..8).map(|v| v as f32 * 0.5).collect(), (1, 2, 4));
        let c = a.bmm_nt(&b);
        assert_eq!(c.shape().dims(), &[1, 3, 2]);
        // row0 of a = [0,1,2,3]; row0 of b = [0,0.5,1,1.5] → dot = 0+0.5+2+4.5=7
        assert!((c.get(0) - 7.0).abs() < 1e-6);
    }

    #[test]
    fn bmm_nt_backward_shapes() {
        let pa = Param::from_vec("a", vec![0.5; 12], (1, 3, 4));
        let pb = Param::from_vec("b", vec![0.25; 8], (1, 2, 4));
        let a = pa.leaf();
        let b = pb.leaf();
        let g = a.bmm_nt(&b).sum_all().backward();
        assert_eq!(g.get(&a).unwrap().len(), 12);
        assert_eq!(g.get(&b).unwrap().len(), 8);
        // dA[i] = sum_j B[j] = 2 * 0.25 = 0.5 per component
        assert!(g.get(&a).unwrap().iter().all(|&v| (v - 0.5).abs() < 1e-6));
    }

    #[test]
    fn transpose_roundtrip() {
        let pa = Param::from_vec("a", vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], (2, 3));
        let a = pa.leaf();
        let t = a.transpose2();
        assert_eq!(t.shape().dims(), &[3, 2]);
        assert_eq!(t.to_vec(), vec![1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        let g = t.square().sum_all().backward();
        assert_eq!(g.get(&a).unwrap(), &[2.0, 4.0, 6.0, 8.0, 10.0, 12.0]);
    }

    #[test]
    #[should_panic(expected = "inner dims differ")]
    fn matmul_dim_mismatch_panics() {
        Tensor::ones((2, 3)).matmul(&Tensor::ones((4, 2)));
    }

    // ----------------------------------------------------- golden values
    // Every layout checked against the hand-computed product of two small
    // fixtures with exact integer-valued entries, so any indexing or
    // transposition slip produces a hard mismatch (float exactness holds
    // because all products stay well inside f32's integer range). The
    // naive triple-loop oracle over arbitrary shapes lives in
    // `tests/parallel_determinism.rs`.

    /// `fix_a34() · fix_b42()`, worked by hand.
    const GOLDEN: [f32; 6] = [4.0, 1.0, 10.0, -5.0, -7.0, 8.0];

    /// A 3×4 fixture with zero entries.
    fn fix_a34() -> Vec<f32> {
        vec![
            1.0, 2.0, 0.0, -1.0, //
            3.0, -2.0, 4.0, 0.0, //
            0.0, 1.0, -3.0, 2.0,
        ]
    }

    /// A 4×2 fixture.
    fn fix_b42() -> Vec<f32> {
        vec![
            2.0, -1.0, //
            0.0, 3.0, //
            1.0, 1.0, //
            -2.0, 4.0,
        ]
    }

    #[test]
    fn gemm_acc_golden_3x4_4x2() {
        let (a, b) = (fix_a34(), fix_b42());
        let expect = GOLDEN.to_vec();
        let mut c = vec![0.0f32; 6];
        gemm_acc(&a, &b, &mut c, 3, 4, 2);
        assert_eq!(c, expect);
        for shards in 1..=4 {
            let c = gemm_shards(Layout::NN, &a, &b, 1, 3, 4, 2, shards);
            assert_eq!(c, expect, "shards={shards}");
        }
    }

    #[test]
    fn gemm_nt_golden_matches_naive_on_transposed_operand() {
        // B_nt is `fix_b42()` laid out (n=2, k=4): the NT product must
        // equal the golden NN one.
        let a = fix_a34();
        let b_nt = vec![
            2.0, 0.0, 1.0, -2.0, //
            -1.0, 3.0, 1.0, 4.0,
        ];
        let expect = GOLDEN.to_vec();
        for shards in 1..=4 {
            let c = gemm_shards(Layout::NT, &a, &b_nt, 1, 3, 4, 2, shards);
            assert_eq!(c, expect, "shards={shards}");
        }
    }

    #[test]
    fn gemm_tn_golden_matches_naive_on_transposed_operand() {
        // A_tn is `fix_a34()` laid out (k=4, m=3): the TN product must
        // equal the golden NN one.
        let a_tn = vec![
            1.0, 3.0, 0.0, //
            2.0, -2.0, 1.0, //
            0.0, 4.0, -3.0, //
            -1.0, 0.0, 2.0,
        ];
        let b = fix_b42();
        let expect = GOLDEN.to_vec();
        for shards in 1..=4 {
            let c = gemm_shards(Layout::TN, &a_tn, &b, 1, 3, 4, 2, shards);
            assert_eq!(c, expect, "shards={shards}");
        }
    }

    #[test]
    fn zero_skip_rows_accumulate_nothing() {
        // An all-zero A row adds exactly +0.0 to its C row: the kernel's
        // accumulator starts at +0.0 and the zero products cannot move it.
        let a = vec![0.0, 0.0, 0.0, 5.0, 6.0, 7.0];
        let b = vec![1.0; 9];
        let mut c = vec![10.0f32; 6];
        gemm_acc(&a, &b, &mut c, 2, 3, 3);
        assert_eq!(&c[..3], &[10.0, 10.0, 10.0], "zero row must add nothing");
        assert_eq!(&c[3..], &[28.0, 28.0, 28.0]);
        let c2 = gemm_shards(Layout::NN, &a, &b, 1, 2, 3, 3, 2);
        assert_eq!(c2, vec![0.0, 0.0, 0.0, 18.0, 18.0, 18.0]);
        assert!(c2[..3].iter().all(|v| v.is_sign_positive()), "+0.0, never -0.0");
    }

    #[test]
    fn batched_kernel_golden_two_batches() {
        // Batch 0 is the golden fixture; batch 1 is its negation, so the
        // expected output is the fixture result and its mirror.
        let a: Vec<f32> = fix_a34().iter().chain(fix_a34().iter()).copied().collect();
        let a = {
            let mut v = a;
            for x in &mut v[12..] {
                *x = -*x;
            }
            v
        };
        let b: Vec<f32> = fix_b42().iter().chain(fix_b42().iter()).copied().collect();
        let mut expect = GOLDEN.to_vec();
        expect.extend(GOLDEN.iter().map(|v| -v));
        for shards in 1..=4 {
            let c = gemm_shards(Layout::NN, &a, &b, 2, 3, 4, 2, shards);
            assert_eq!(c, expect, "shards={shards}");
        }
    }
}
