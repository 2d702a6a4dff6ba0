//! Tape-free inference kernels.
//!
//! Every function here operates on plain `f32` slices and allocates **no
//! autograd nodes** — no `Tensor`, no backward closures, no `Arc` tape
//! bookkeeping. The f32 kernels are *bitwise identical* to the
//! corresponding [`crate::Tensor`] forward ops, which is what the
//! differential harness in `crates/tensor/tests/infer_kernels.rs` and
//! `crates/core/tests/infer_parity.rs` locks down. Most are so by
//! construction: the products run the crate's one GEMM
//! ([`crate::ops::matmul::gemm`]) and the taped pointwise and softmax
//! forwards call the kernels here. The rest keep the taped op's loop and
//! accumulation order.
//!
//! On top of the exact kernels, two fast paths are provided:
//!
//! * [`fused_masked_softmax_rows`] — an online (single-sweep max + rescaled
//!   exp-sum) softmax with the attention masked-fill folded in, equal to
//!   the exact two-pass [`masked_softmax_rows`] up to a few ulps;
//! * [`QuantizedMatrix`] / [`quantized_linear`] — int8 per-row quantized
//!   weights with an integer-accumulate GEMM for serving quantized
//!   artifacts.

use crate::ops::matmul::{gemm, Layout};

// ---------------------------------------------------------------------------
// Dense f32 kernels (the taped forward ops' arithmetic)
// ---------------------------------------------------------------------------

/// `x (m, k) @ w (k, n) + b (n,)` — `Tensor::matmul` + `add_rowvec` bit for
/// bit: the same [`gemm`], then the same row-vector add.
pub fn linear(x: &[f32], w: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    assert_eq!(x.len(), m * k, "infer::linear: input size mismatch");
    assert_eq!(w.len(), k * n, "infer::linear: weight size mismatch");
    assert_eq!(b.len(), n, "infer::linear: bias size mismatch");
    let mut out = gemm(Layout::NN, x, w, 1, m, k, n);
    add_rowvec_inplace(&mut out, b);
    out
}

/// Batched `a (bs, m, k) @ b (bs, k, n)` — `Tensor::bmm`'s forward.
pub fn bmm(a: &[f32], b: &[f32], bs: usize, m: usize, k: usize, n: usize) -> Vec<f32> {
    gemm(Layout::NN, a, b, bs, m, k, n)
}

/// Batched `a (bs, m, d) @ b (bs, n, d)^T` — `Tensor::bmm_nt`'s forward.
pub fn bmm_nt(a: &[f32], b: &[f32], bs: usize, m: usize, d: usize, n: usize) -> Vec<f32> {
    gemm(Layout::NT, a, b, bs, m, d, n)
}

/// Elementwise `a + b`.
pub fn add(a: &[f32], b: &[f32]) -> Vec<f32> {
    assert_eq!(a.len(), b.len(), "infer::add: size mismatch");
    a.iter().zip(b).map(|(a, b)| a + b).collect()
}

/// Elementwise `a - b`.
pub fn sub(a: &[f32], b: &[f32]) -> Vec<f32> {
    assert_eq!(a.len(), b.len(), "infer::sub: size mismatch");
    a.iter().zip(b).map(|(a, b)| a - b).collect()
}

/// Elementwise `a * b`.
pub fn mul(a: &[f32], b: &[f32]) -> Vec<f32> {
    assert_eq!(a.len(), b.len(), "infer::mul: size mismatch");
    a.iter().zip(b).map(|(a, b)| a * b).collect()
}

/// In-place `x *= c` — replicates `Tensor::scale`.
pub fn scale_inplace(x: &mut [f32], c: f32) {
    for v in x.iter_mut() {
        *v *= c;
    }
}

/// Add a row vector `v (d,)` to every row of `x (rows, d)` — replicates
/// `Tensor::add_rowvec` (zip per row, `*x += vv`).
pub fn add_rowvec_inplace(x: &mut [f32], v: &[f32]) {
    let d = v.len();
    for row in x.chunks_mut(d) {
        for (x, vv) in row.iter_mut().zip(v) {
            *x += vv;
        }
    }
}

/// Elementwise `|a - b|` via the graph path's formulation
/// `relu(a - b) + relu(-(a - b))`, i.e. `v.max(0.0) + (-v).max(0.0)`.
pub fn abs_sub(a: &[f32], b: &[f32]) -> Vec<f32> {
    assert_eq!(a.len(), b.len(), "infer::abs_sub: size mismatch");
    a.iter()
        .zip(b)
        .map(|(a, b)| {
            let v = a - b;
            v.max(0.0) + (-v).max(0.0)
        })
        .collect()
}

/// In-place ReLU — `Tensor::relu`'s forward.
pub fn relu_inplace(x: &mut [f32]) {
    for v in x.iter_mut() {
        *v = v.max(0.0);
    }
}

/// In-place logistic sigmoid — `Tensor::sigmoid`'s forward.
pub fn sigmoid_inplace(x: &mut [f32]) {
    for v in x.iter_mut() {
        *v = 1.0 / (1.0 + (-*v).exp());
    }
}

/// In-place tanh — `Tensor::tanh_act`'s forward.
pub fn tanh_inplace(x: &mut [f32]) {
    for v in x.iter_mut() {
        *v = v.tanh();
    }
}

/// In-place tanh-approximation GELU — `Tensor::gelu`'s forward.
pub fn gelu_inplace(x: &mut [f32]) {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    for v in x.iter_mut() {
        let x = *v;
        *v = 0.5 * x * (1.0 + (C * (x + 0.044715 * x * x * x)).tanh());
    }
}

/// Layer norm over the last dimension with learned gain/bias — replicates
/// `layer_norm_last(eps)` → `mul_rowvec(gamma)` → `add_rowvec(beta)`.
pub fn layer_norm(x: &[f32], gamma: &[f32], beta: &[f32], rows: usize, d: usize, eps: f32) -> Vec<f32> {
    assert_eq!(x.len(), rows * d, "infer::layer_norm: input size mismatch");
    assert_eq!(gamma.len(), d, "infer::layer_norm: gamma size mismatch");
    assert_eq!(beta.len(), d, "infer::layer_norm: beta size mismatch");
    let mut out = vec![0.0f32; rows * d];
    for r in 0..rows {
        let row = &x[r * d..(r + 1) * d];
        let mean = row.iter().sum::<f32>() / d as f32;
        let var = row.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / d as f32;
        let inv_std = 1.0 / (var + eps).sqrt();
        let orow = &mut out[r * d..(r + 1) * d];
        for i in 0..d {
            orow[i] = ((row[i] - mean) * inv_std) * gamma[i] + beta[i];
        }
    }
    out
}

/// In-place per-row L2 normalization — replicates the graph chain
/// `square → sum_cols → add_scalar(eps) → sqrt_elem → ones/norm → mul_colvec`.
pub fn l2_normalize_rows_inplace(x: &mut [f32], rows: usize, d: usize, eps: f32) {
    assert_eq!(x.len(), rows * d, "infer::l2_normalize_rows: size mismatch");
    for r in 0..rows {
        let row = &mut x[r * d..(r + 1) * d];
        let s: f32 = row.iter().map(|v| v * v).sum();
        let nrm = (s + eps).max(0.0).sqrt();
        let f = 1.0 / nrm;
        for v in row.iter_mut() {
            *v *= f;
        }
    }
}

/// Softmax over rows of an `(n, d)` buffer, in place — the forward of
/// `Tensor::softmax_last` and the taped softmax losses.
pub fn softmax_rows_inplace(x: &mut [f32], n: usize, d: usize) {
    assert_eq!(x.len(), n * d, "infer::softmax_rows: size mismatch");
    for r in 0..n {
        let row = &mut x[r * d..(r + 1) * d];
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for o in row.iter_mut() {
            *o = (*o - max).exp();
            sum += *o;
        }
        let inv = 1.0 / sum;
        for o in row.iter_mut() {
            *o *= inv;
        }
    }
}

/// Exact two-pass masked softmax: fold the masked fill
/// (`if mask == 0 { v + fill }`) into the buffer, then softmax each row.
/// Bitwise-identical to `masked_fill_add(mask, fill).softmax_last()`.
pub fn masked_softmax_rows(x: &mut [f32], mask: &[f32], fill: f32, n: usize, d: usize) {
    assert_eq!(x.len(), n * d, "infer::masked_softmax: size mismatch");
    assert_eq!(mask.len(), n * d, "infer::masked_softmax: mask size mismatch");
    for (v, m) in x.iter_mut().zip(mask) {
        if *m == 0.0 {
            *v += fill;
        }
    }
    softmax_rows_inplace(x, n, d);
}

/// Fused single-sweep masked softmax: one pass computes the running max and
/// the rescaled exponential sum (with the masked fill folded in), one write
/// pass normalizes. Equal to [`masked_softmax_rows`] up to a few ulps;
/// rows whose entries are all masked come out uniform, exactly like the
/// two-pass path with a finite fill such as `-1e9`.
pub fn fused_masked_softmax_rows(x: &mut [f32], mask: &[f32], fill: f32, n: usize, d: usize) {
    assert_eq!(x.len(), n * d, "infer::fused_masked_softmax: size mismatch");
    assert_eq!(mask.len(), n * d, "infer::fused_masked_softmax: mask size mismatch");
    for r in 0..n {
        let row = &mut x[r * d..(r + 1) * d];
        let mrow = &mask[r * d..(r + 1) * d];
        let mut max = f32::NEG_INFINITY;
        let mut sum = 0.0f32;
        for (v, m) in row.iter_mut().zip(mrow) {
            if *m == 0.0 {
                *v += fill;
            }
            let val = *v;
            if val > max {
                sum *= (max - val).exp();
                max = val;
            }
            sum += (val - max).exp();
        }
        let inv = 1.0 / sum;
        for v in row.iter_mut() {
            *v = (*v - max).exp() * inv;
        }
    }
}

/// Deterministic polynomial `exp` for the quantized serving path. Splits
/// `x = (i + f)·ln 2` with a magic-number round-to-nearest, assembles `2^i`
/// from exponent bits, and evaluates `2^f` as a degree-6 polynomial in
/// `ln(2)^k/k!`. Max relative error ≈ 3e-7 for small arguments, growing to
/// ~|x|·1e-7 for large |x| as the f32 argument reduction rounds; pure
/// mul/add/convert, so loops over it vectorize where libm `expf` cannot.
#[inline]
pub fn fast_exp(x: f32) -> f32 {
    const MAGIC: f32 = 12_582_912.0; // 1.5 * 2^23: shifts the integer part into the mantissa
    let t = (x * std::f32::consts::LOG2_E).clamp(-126.0, 126.0);
    let i = (t + MAGIC) - MAGIC;
    let f = t - i;
    let p = 0.000_154_035_3f32;
    let p = p * f + 0.001_333_355_8;
    let p = p * f + 0.009_618_129;
    let p = p * f + 0.055_504_11;
    let p = p * f + 0.240_226_5;
    let p = p * f + std::f32::consts::LN_2;
    let p = p * f + 1.0;
    let r = f32::from_bits(((i as i32 + 127) << 23) as u32) * p;
    // Flush anything below 2^-64 to an exact zero: libm `expf(-1e9)` (the
    // masked-softmax fill) returns 0.0, and a subnormal here would drag
    // microcode-assist penalties through every downstream multiply.
    if t > -64.0 {
        r
    } else {
        0.0
    }
}

/// Deterministic `tanh` on top of [`fast_exp`]: `sign(x)·(1 - 2/(e^{2|x|}+1))`.
/// Saturates cleanly for large |x| (the clamp inside `fast_exp` caps the
/// exponent) and inherits its ~3e-7 relative error.
#[inline]
pub fn fast_tanh(x: f32) -> f32 {
    let e = fast_exp(2.0 * x.abs());
    (1.0 - 2.0 / (e + 1.0)).copysign(x)
}

/// In-place GELU with the same tanh-approximation shape as [`gelu_inplace`]
/// but [`fast_tanh`] instead of libm `tanhf`. Quantized serving path only:
/// the ~1e-6 absolute error is far below int8 weight-quantization noise,
/// and the loop vectorizes.
pub fn gelu_fast_inplace(x: &mut [f32]) {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    for v in x.iter_mut() {
        let x = *v;
        *v = 0.5 * x * (1.0 + fast_tanh(C * (x + 0.044715 * x * x * x)));
    }
}

/// Masked softmax with [`fast_exp`] in place of libm `expf`, laid out in
/// vectorizable passes: mask fill + 8-lane blocked row max, then a blocked
/// exponential-and-sum sweep, then the normalize. Quantized serving path
/// only: probabilities drift by ~1e-6 from [`masked_softmax_rows`], well
/// under int8 quantization noise. Masked entries come out exactly zero
/// (the `fast_exp` flush), and all-masked rows come out uniform, matching
/// the exact kernels.
pub fn fused_masked_softmax_rows_fast(x: &mut [f32], mask: &[f32], fill: f32, n: usize, d: usize) {
    assert_eq!(x.len(), n * d, "infer::fused_masked_softmax_fast: size mismatch");
    assert_eq!(mask.len(), n * d, "infer::fused_masked_softmax_fast: mask size mismatch");
    const LANES: usize = 8;
    for r in 0..n {
        let row = &mut x[r * d..(r + 1) * d];
        let mrow = &mask[r * d..(r + 1) * d];
        // Branchless mask fill (`m` is exactly 0.0 or 1.0) fused into the
        // blocked max pass.
        let chunks = d / LANES;
        let mut mx = [f32::NEG_INFINITY; LANES];
        for c in 0..chunks {
            let o = c * LANES;
            for l in 0..LANES {
                let v = row[o + l] + fill * (1.0 - mrow[o + l]);
                row[o + l] = v;
                mx[l] = mx[l].max(v);
            }
        }
        for kk in chunks * LANES..d {
            let v = row[kk] + fill * (1.0 - mrow[kk]);
            row[kk] = v;
            mx[0] = mx[0].max(v);
        }
        let max = mx.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
        let mut sm = [0.0f32; LANES];
        for c in 0..chunks {
            for (s, v) in sm.iter_mut().zip(&mut row[c * LANES..(c + 1) * LANES]) {
                let e = fast_exp(*v - max);
                *v = e;
                *s += e;
            }
        }
        for v in &mut row[chunks * LANES..] {
            let e = fast_exp(*v - max);
            *v = e;
            sm[0] += e;
        }
        let inv = 1.0 / sm.iter().sum::<f32>();
        for v in row.iter_mut() {
            *v *= inv;
        }
    }
}

/// Masked mean pooling `(B, S, D) -> (B, D)` — replicates
/// `Tensor::mean_pool_seq` (all-masked rows stay zero).
pub fn mean_pool_seq(x: &[f32], mask: &[f32], b: usize, s: usize, d: usize) -> Vec<f32> {
    assert_eq!(x.len(), b * s * d, "infer::mean_pool_seq: size mismatch");
    assert_eq!(mask.len(), b * s, "infer::mean_pool_seq: mask length mismatch");
    let mut out = vec![0.0f32; b * d];
    let mut counts = vec![0.0f32; b];
    for bi in 0..b {
        for si in 0..s {
            if mask[bi * s + si] != 0.0 {
                counts[bi] += 1.0;
                let src = &x[(bi * s + si) * d..(bi * s + si + 1) * d];
                for (o, v) in out[bi * d..(bi + 1) * d].iter_mut().zip(src) {
                    *o += v;
                }
            }
        }
    }
    for bi in 0..b {
        if counts[bi] > 0.0 {
            let inv = 1.0 / counts[bi];
            for o in out[bi * d..(bi + 1) * d].iter_mut() {
                *o *= inv;
            }
        }
    }
    out
}

/// Select one sequence position per batch `(B, S, D) -> (B, D)` —
/// replicates `Tensor::select_seq_pos`.
pub fn select_seq_pos(x: &[f32], b: usize, s: usize, d: usize, pos: usize) -> Vec<f32> {
    assert!(pos < s, "infer::select_seq_pos: position {pos} out of {s}");
    let mut out = vec![0.0f32; b * d];
    for bi in 0..b {
        out[bi * d..(bi + 1) * d].copy_from_slice(&x[(bi * s + pos) * d..(bi * s + pos + 1) * d]);
    }
    out
}

/// Concatenate two `(rows, da)` / `(rows, db)` buffers column-wise —
/// replicates `Tensor::concat_cols`.
pub fn concat_cols(a: &[f32], b: &[f32], rows: usize, da: usize, db: usize) -> Vec<f32> {
    assert_eq!(a.len(), rows * da, "infer::concat_cols: lhs size mismatch");
    assert_eq!(b.len(), rows * db, "infer::concat_cols: rhs size mismatch");
    let mut out = Vec::with_capacity(rows * (da + db));
    for r in 0..rows {
        out.extend_from_slice(&a[r * da..(r + 1) * da]);
        out.extend_from_slice(&b[r * db..(r + 1) * db]);
    }
    out
}

/// Gather rows of a `(_, d)` table — replicates `Tensor::gather_rows`.
pub fn gather_rows(table: &[f32], d: usize, ids: &[usize]) -> Vec<f32> {
    let rows = table.len() / d;
    let mut out = Vec::with_capacity(ids.len() * d);
    for &id in ids {
        assert!(id < rows, "infer::gather_rows: id {id} out of {rows}");
        out.extend_from_slice(&table[id * d..(id + 1) * d]);
    }
    out
}

/// `(B, S, D) -> (B*h, S, D/h)` head split — `Tensor::split_heads`'s
/// forward (and `merge_heads`'s backward).
pub fn split_heads(x: &[f32], b: usize, s: usize, d: usize, h: usize) -> Vec<f32> {
    assert_eq!(d % h, 0, "infer::split_heads: dim {d} not divisible by {h}");
    let dh = d / h;
    let mut out = vec![0.0f32; b * s * d];
    for bi in 0..b {
        for hi in 0..h {
            for si in 0..s {
                let dst = ((bi * h + hi) * s + si) * dh;
                let src = (bi * s + si) * d + hi * dh;
                out[dst..dst + dh].copy_from_slice(&x[src..src + dh]);
            }
        }
    }
    out
}

/// `(B*h, S, D/h) -> (B, S, D)` head merge — `Tensor::merge_heads`'s
/// forward (and `split_heads`'s backward).
pub fn merge_heads(x: &[f32], b: usize, s: usize, dh: usize, h: usize) -> Vec<f32> {
    let d = dh * h;
    let mut out = vec![0.0f32; b * s * d];
    for bi in 0..b {
        for hi in 0..h {
            for si in 0..s {
                let src = ((bi * h + hi) * s + si) * dh;
                let dst = (bi * s + si) * d + hi * dh;
                out[dst..dst + dh].copy_from_slice(&x[src..src + dh]);
            }
        }
    }
    out
}

/// Per-row argmax with the same tie-breaking as `Tensor::argmax_rows`
/// (`max_by` keeps the *last* maximal element).
pub fn argmax_rows(x: &[f32], rows: usize, d: usize) -> Vec<usize> {
    assert_eq!(x.len(), rows * d, "infer::argmax_rows: size mismatch");
    (0..rows)
        .map(|r| {
            x[r * d..(r + 1) * d]
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(i, _)| i)
                .unwrap_or(0)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Int8 per-row quantization
// ---------------------------------------------------------------------------

/// Typed error from [`quantize_rows`]: quantization refuses non-finite
/// inputs instead of silently poisoning the artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantizeError {
    /// `data[row * cols + index]` is NaN or infinite.
    NonFinite {
        /// Row containing the bad value.
        row: usize,
        /// Column of the bad value within the row.
        index: usize,
    },
}

impl std::fmt::Display for QuantizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuantizeError::NonFinite { row, index } => {
                write!(f, "non-finite value at row {row}, index {index}")
            }
        }
    }
}

impl std::error::Error for QuantizeError {}

/// An `(rows, cols)` matrix quantized to int8 with per-row affine
/// parameters: `value ≈ scale[r] * (data[r*cols + c] as f32) + zero[r]`.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedMatrix {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Per-row scale (always finite and > 0).
    pub scale: Vec<f32>,
    /// Per-row zero offset.
    pub zero: Vec<f32>,
    /// Row-major int8 codes.
    pub data: Vec<i8>,
}

impl QuantizedMatrix {
    /// Dequantized value at `(r, c)`.
    #[inline]
    pub fn value(&self, r: usize, c: usize) -> f32 {
        self.scale[r] * (self.data[r * self.cols + c] as f32) + self.zero[r]
    }

    /// Reconstruct the full f32 matrix.
    pub fn dequantize(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.rows * self.cols);
        for r in 0..self.rows {
            let s = self.scale[r];
            let z = self.zero[r];
            out.extend(self.data[r * self.cols..(r + 1) * self.cols].iter().map(|&q| s * (q as f32) + z));
        }
        out
    }
}

/// Quantize an `(rows, cols)` f32 matrix to int8 with per-row scale and
/// zero point. Statistics are computed in f64; each code is nudged to the
/// neighbor whose dequantized value is closest, so the per-element
/// roundtrip error is bounded by `scale / 2` (plus f32 rounding).
///
/// Codes are confined to the symmetric range `[-127, 127]` (254 steps,
/// never -128). That is a kernel-contract requirement, not a style choice:
/// the AVX2 GEMM transfers the activation sign onto the weight bytes with
/// `psignb`, and negating -128 wraps back to -128, silently corrupting the
/// dot product for any weight that used the asymmetric bottom code.
///
/// Rows with zero spread get `scale = 1, zero = v, code = 0` and roundtrip
/// exactly. Any NaN/Inf input yields [`QuantizeError::NonFinite`].
pub fn quantize_rows(data: &[f32], rows: usize, cols: usize) -> Result<QuantizedMatrix, QuantizeError> {
    assert_eq!(data.len(), rows * cols, "infer::quantize_rows: size mismatch");
    let mut scale = Vec::with_capacity(rows);
    let mut zero = Vec::with_capacity(rows);
    let mut codes = vec![0i8; rows * cols];
    for r in 0..rows {
        let row = &data[r * cols..(r + 1) * cols];
        if let Some(index) = row.iter().position(|v| !v.is_finite()) {
            return Err(QuantizeError::NonFinite { row: r, index });
        }
        let min = row.iter().copied().fold(f64::INFINITY, |a, v| a.min(v as f64));
        let max = row.iter().copied().fold(f64::NEG_INFINITY, |a, v| a.max(v as f64));
        let span = max - min;
        let s = (span / 254.0) as f32;
        if span == 0.0 || !(s > 0.0 && s.is_finite()) {
            // Constant row (or spread below f32 resolution): code 0
            // dequantizes to `zero` exactly.
            scale.push(1.0);
            zero.push(((min + max) * 0.5) as f32);
            continue;
        }
        let z = (min + 127.0 * s as f64) as f32;
        let out = &mut codes[r * cols..(r + 1) * cols];
        for (o, &v) in out.iter_mut().zip(row) {
            let q = ((v as f64 - min) / s as f64).round().clamp(0.0, 254.0) as i32 - 127;
            // Pick the neighboring code whose dequantization lands closest.
            let mut best = q.clamp(-127, 127);
            let mut best_err = (s * (best as f32) + z - v).abs();
            for cand in [q - 1, q + 1] {
                let cand = cand.clamp(-127, 127);
                let err = (s * (cand as f32) + z - v).abs();
                if err < best_err {
                    best = cand;
                    best_err = err;
                }
            }
            *o = best as i8;
        }
        scale.push(s);
        zero.push(z);
    }
    Ok(QuantizedMatrix {
        rows,
        cols,
        scale,
        zero,
        data: codes,
    })
}

/// `x (m, k) @ wq (k, n) + b (n,)` where `wq` is per-k-row quantized —
/// the plain reference kernel.
///
/// The affine weight decomposition
/// `w[kk, j] = scale[kk] * q[kk, j] + zero[kk]` splits the product into an
/// integer-accumulated core `Σ xq[kk] * q[kk, j]` (i32 accumulate) plus a
/// per-output-row correction `Σ x[i, kk] * zero[kk]` that is independent
/// of `j`. The activation row is folded with the weight scales and
/// quantized symmetrically to int8 on the fly.
///
/// This is the reference implementation the SIMD paths in
/// [`quantized_linear_packed`] are differentially tested against; because
/// the core is exact integer arithmetic and the float pre/post steps are
/// shared, all paths are **bitwise identical**.
pub fn quantized_linear_reference(x: &[f32], w: &QuantizedMatrix, b: &[f32], m: usize) -> Vec<f32> {
    let k = w.rows;
    let n = w.cols;
    assert_eq!(x.len(), m * k, "infer::quantized_linear: input size mismatch");
    assert_eq!(b.len(), n, "infer::quantized_linear: bias size mismatch");
    let mut out = vec![0.0f32; m * n];
    let mut xs = vec![0.0f32; k];
    let mut xq = vec![0i8; k];
    let mut acc = vec![0i32; n];
    for i in 0..m {
        let xrow = &x[i * k..(i + 1) * k];
        let (sx, corr) = fold_and_quantize(xrow, &w.scale, &w.zero, &mut xs, &mut xq);
        // Integer-accumulate core.
        acc.fill(0);
        for (kk, &q8) in xq.iter().enumerate() {
            let q = q8 as i32;
            if q == 0 {
                continue;
            }
            let wrow = &w.data[kk * n..(kk + 1) * n];
            for (a, &wq) in acc.iter_mut().zip(wrow) {
                *a += q * wq as i32;
            }
        }
        let orow = &mut out[i * n..(i + 1) * n];
        for j in 0..n {
            orow[j] = sx * acc[j] as f32 + corr + b[j];
        }
    }
    out
}

/// Fold the per-k weight scales into one activation row, accumulate the
/// zero-point correction, and quantize the folded row symmetrically to
/// int8. Shared verbatim by the reference and SIMD kernels so the float
/// side of every path is the same instruction sequence.
#[inline]
fn fold_and_quantize(
    xrow: &[f32],
    scale: &[f32],
    zero: &[f32],
    xs: &mut [f32],
    xq: &mut [i8],
) -> (f32, f32) {
    let k = xrow.len();
    // 8-lane blocked reductions so the fold auto-vectorizes: the strict
    // left-to-right f32 sum would serialize the loop. Lane order is part
    // of the kernel contract (shared by every GEMM path), not of the
    // artifact format.
    let mut corr_l = [0.0f32; 8];
    let mut amax_l = [0.0f32; 8];
    let chunks = k / 8;
    for c in 0..chunks {
        let o = c * 8;
        for l in 0..8 {
            let v = xrow[o + l] * scale[o + l];
            xs[o + l] = v;
            corr_l[l] += xrow[o + l] * zero[o + l];
            amax_l[l] = amax_l[l].max(v.abs());
        }
    }
    let mut corr = corr_l.iter().sum::<f32>();
    let mut amax = amax_l.iter().fold(0.0f32, |a, &b| a.max(b));
    for kk in chunks * 8..k {
        let v = xrow[kk] * scale[kk];
        xs[kk] = v;
        corr += xrow[kk] * zero[kk];
        amax = amax.max(v.abs());
    }
    let sx = if amax > 0.0 { amax / 127.0 } else { 1.0 };
    let inv_sx = 1.0 / sx;
    // Round to nearest via the 1.5·2^23 magic constant (|v·inv_sx| ≤ 127,
    // well inside the exact range) — branchless and vectorizable, unlike
    // `f32::round`, which lowers to a libm call.
    const MAGIC: f32 = 12_582_912.0;
    for (q, &v) in xq.iter_mut().zip(xs.iter()).take(k) {
        let r = (v * inv_sx).clamp(-127.0, 127.0) + MAGIC;
        *q = (f32::to_bits(r) & 0x00ff_ffff) as i32 as u8 as i8;
    }
    (sx, corr)
}

/// A [`QuantizedMatrix`] prepacked for the SIMD integer GEMM.
///
/// The int8 codes are transposed into a k-group-interleaved layout —
/// `wt[(g * np + j) * 4 + r] = q[4g + r, j]` with `k` padded to a multiple
/// of 4 and `n` to a multiple of 16, zeros beyond the real extent — so a
/// dot-product instruction that consumes 4 adjacent bytes per 32-bit lane
/// (AVX-512 VNNI `vpdpbusd`, or AVX2 `maddubs`/`madd`) reads both
/// operands contiguously. Per-column code sums are precomputed for the
/// unsigned-activation trick used by the VNNI path.
#[derive(Debug, Clone)]
pub struct PackedQuantizedMatrix {
    rows: usize,
    cols: usize,
    /// Number of 4-wide k groups (`k` rounded up to a multiple of 4, / 4).
    kg: usize,
    /// `cols` rounded up to a multiple of 16.
    np: usize,
    scale: Vec<f32>,
    zero: Vec<f32>,
    wt: Vec<i8>,
    /// `wsum[j] = Σ_k q[k, j]`, length `np`.
    wsum: Vec<i32>,
}

impl PackedQuantizedMatrix {
    /// Prepack `w` for the SIMD kernel. Cost is one `O(k·n)` transpose.
    pub fn pack(w: &QuantizedMatrix) -> PackedQuantizedMatrix {
        let (k, n) = (w.rows, w.cols);
        let kg = k.div_ceil(4);
        let np = n.div_ceil(16) * 16;
        let mut wt = vec![0i8; kg * np * 4];
        let mut wsum = vec![0i32; np];
        for kk in 0..k {
            let (g, r) = (kk / 4, kk % 4);
            for j in 0..n {
                let q = w.data[kk * n + j];
                wt[(g * np + j) * 4 + r] = q;
                wsum[j] += q as i32;
            }
        }
        PackedQuantizedMatrix {
            rows: k,
            cols: n,
            kg,
            np,
            scale: w.scale.clone(),
            zero: w.zero.clone(),
            wt,
            wsum,
        }
    }

    /// Input feature width `k`.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Output feature width `n`.
    pub fn cols(&self) -> usize {
        self.cols
    }
}

/// Which integer-GEMM instruction path this CPU supports.
#[derive(Clone, Copy, PartialEq, Debug)]
enum QGemmPath {
    Scalar,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Vnni,
}

fn qgemm_path() -> QGemmPath {
    static PATH: std::sync::OnceLock<QGemmPath> = std::sync::OnceLock::new();
    *PATH.get_or_init(|| {
        // `DADER_QGEMM=scalar|avx2|vnni` pins the dispatch below the
        // detected ceiling — the differential tests use it to drive every
        // path on one machine (all paths are bitwise identical, so this is
        // a debugging/benchmarking knob, never a correctness one).
        let forced = std::env::var("DADER_QGEMM").ok();
        let forced = forced.as_deref();
        #[cfg(target_arch = "x86_64")]
        {
            let vnni = std::arch::is_x86_feature_detected!("avx512vnni")
                && std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512bw");
            let avx2 = std::arch::is_x86_feature_detected!("avx2");
            match forced {
                Some("scalar") => return QGemmPath::Scalar,
                Some("avx2") if avx2 => return QGemmPath::Avx2,
                Some("vnni") if vnni => return QGemmPath::Vnni,
                _ => {}
            }
            if vnni {
                return QGemmPath::Vnni;
            }
            if avx2 {
                return QGemmPath::Avx2;
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = forced;
        QGemmPath::Scalar
    })
}

/// `x (m, k) @ wq (k, n) + b (n,)` over a prepacked quantized matrix.
///
/// Dispatches to AVX-512 VNNI, AVX2, or a scalar loop at runtime; all
/// three accumulate the same exact integers and share the same float
/// pre/post steps, so the result is bitwise identical across paths and to
/// [`quantized_linear_reference`].
pub fn quantized_linear_packed(
    x: &[f32],
    w: &PackedQuantizedMatrix,
    b: &[f32],
    m: usize,
) -> Vec<f32> {
    let k = w.rows;
    let n = w.cols;
    assert_eq!(x.len(), m * k, "infer::quantized_linear: input size mismatch");
    assert_eq!(b.len(), n, "infer::quantized_linear: bias size mismatch");
    let path = qgemm_path();
    let mut out = vec![0.0f32; m * n];
    let mut xs = vec![0.0f32; k];
    let mut xq = vec![0i8; w.kg * 4];
    let mut adw = vec![0i32; w.kg];
    let mut acc = vec![0i32; w.np];
    for i in 0..m {
        let xrow = &x[i * k..(i + 1) * k];
        let (sx, corr) = fold_and_quantize(xrow, &w.scale, &w.zero, &mut xs, &mut xq[..k]);
        xq[k..].fill(0);
        match path {
            #[cfg(target_arch = "x86_64")]
            QGemmPath::Vnni => {
                // vpdpbusd takes an unsigned left operand: shift the codes
                // by +128 and subtract `128 * wsum[j]` afterwards. Padded
                // k positions hold weight 0, so their shifted activations
                // contribute nothing.
                // The +128 shift is an XOR of the sign bit on each byte, so
                // one dword XOR shifts all four codes at once.
                for (a, q) in adw.iter_mut().zip(xq.chunks_exact(4)) {
                    let dw = u32::from_le_bytes([q[0] as u8, q[1] as u8, q[2] as u8, q[3] as u8]);
                    *a = (dw ^ 0x8080_8080) as i32;
                }
                unsafe { qgemm_row_vnni(&adw, &w.wt, &mut acc, w.np) };
            }
            #[cfg(target_arch = "x86_64")]
            QGemmPath::Avx2 => {
                for (a, q) in adw.iter_mut().zip(xq.chunks_exact(4)) {
                    *a = i32::from_le_bytes([q[0] as u8, q[1] as u8, q[2] as u8, q[3] as u8]);
                }
                unsafe { qgemm_row_avx2(&adw, &w.wt, &mut acc, w.np) };
            }
            QGemmPath::Scalar => {
                acc.fill(0);
                for g in 0..w.kg {
                    for (j, a) in acc.iter_mut().enumerate() {
                        let wrow = &w.wt[(g * w.np + j) * 4..(g * w.np + j) * 4 + 4];
                        let mut s = 0i32;
                        for r in 0..4 {
                            s += xq[g * 4 + r] as i32 * wrow[r] as i32;
                        }
                        *a += s;
                    }
                }
            }
        }
        let orow = &mut out[i * n..(i + 1) * n];
        #[cfg(target_arch = "x86_64")]
        let vnni = path == QGemmPath::Vnni;
        #[cfg(not(target_arch = "x86_64"))]
        let vnni = false;
        if vnni {
            // The VNNI kernel left the +128 activation shift in: fold the
            // `128 * wsum[j]` correction into the postamble pass (exact
            // integer math, so still bitwise-identical to the other paths).
            for (j, (o, &a)) in orow.iter_mut().zip(&acc).enumerate() {
                o_write(o, sx, a - 128 * w.wsum[j], corr, b[j]);
            }
        } else {
            for ((o, &a), &bj) in orow.iter_mut().zip(&acc).zip(b) {
                o_write(o, sx, a, corr, bj);
            }
        }
    }
    out
}

/// Shared float postamble of every integer-GEMM path: one rounding
/// sequence, so the paths stay bitwise identical.
#[inline(always)]
fn o_write(o: &mut f32, sx: f32, acc: i32, corr: f32, b: f32) {
    *o = sx * acc as f32 + corr + b;
}

/// One activation row against the packed weights with AVX-512 VNNI:
/// each `vpdpbusd` lane accumulates a 4-deep u8×i8 dot product for one
/// output column; 16 columns per 512-bit register.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
unsafe fn qgemm_row_vnni(adw: &[i32], wt: &[i8], acc: &mut [i32], np: usize) {
    use std::arch::x86_64::*;
    debug_assert_eq!(acc.len(), np);
    let mut jb = 0;
    // 64-column tiles: four independent accumulators so the dpbusd
    // latency chains overlap (a single accumulator serializes the whole
    // k loop on the instruction's latency).
    while jb + 64 <= np {
        let mut a0 = _mm512_setzero_si512();
        let mut a1 = _mm512_setzero_si512();
        let mut a2 = _mm512_setzero_si512();
        let mut a3 = _mm512_setzero_si512();
        for (g, &dw) in adw.iter().enumerate() {
            let av = _mm512_set1_epi32(dw);
            let base = (g * np + jb) * 4;
            a0 = _mm512_dpbusd_epi32(a0, av, _mm512_loadu_si512(wt.as_ptr().add(base).cast()));
            a1 = _mm512_dpbusd_epi32(a1, av, _mm512_loadu_si512(wt.as_ptr().add(base + 64).cast()));
            a2 = _mm512_dpbusd_epi32(a2, av, _mm512_loadu_si512(wt.as_ptr().add(base + 128).cast()));
            a3 = _mm512_dpbusd_epi32(a3, av, _mm512_loadu_si512(wt.as_ptr().add(base + 192).cast()));
        }
        _mm512_storeu_si512(acc.as_mut_ptr().add(jb).cast(), a0);
        _mm512_storeu_si512(acc.as_mut_ptr().add(jb + 16).cast(), a1);
        _mm512_storeu_si512(acc.as_mut_ptr().add(jb + 32).cast(), a2);
        _mm512_storeu_si512(acc.as_mut_ptr().add(jb + 48).cast(), a3);
        jb += 64;
    }
    while jb < np {
        let mut vacc = _mm512_setzero_si512();
        for (g, &dw) in adw.iter().enumerate() {
            let av = _mm512_set1_epi32(dw);
            let wv = _mm512_loadu_si512(wt.as_ptr().add((g * np + jb) * 4).cast());
            vacc = _mm512_dpbusd_epi32(vacc, av, wv);
        }
        _mm512_storeu_si512(acc.as_mut_ptr().add(jb).cast(), vacc);
        jb += 16;
    }
}

/// One activation row against the packed weights with AVX2 using the
/// signed-activation trick: `maddubs(|a|, sign(w, a))` multiplies exact
/// `a·w` products into i16 pairs (|a|,|w| ≤ 127 keeps the pair sum under
/// i16::MAX), then `madd(_, 1)` widens to one i32 per output column;
/// 8 columns per 256-bit register.
///
/// Contract: **no code may be -128** — `psignb` negates by two's
/// complement, so `-(-128)` wraps back to -128 and the product comes out
/// with the wrong sign. [`quantize_rows`] and [`fold_and_quantize`] both
/// confine codes to `[-127, 127]` for exactly this reason.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn qgemm_row_avx2(adw: &[i32], wt: &[i8], acc: &mut [i32], np: usize) {
    use std::arch::x86_64::*;
    debug_assert_eq!(acc.len(), np);
    let ones = _mm256_set1_epi16(1);
    let mut jb = 0;
    // 32-column tiles: four independent accumulators to overlap the
    // multiply/add latency chains.
    while jb + 32 <= np {
        let mut a0 = _mm256_setzero_si256();
        let mut a1 = _mm256_setzero_si256();
        let mut a2 = _mm256_setzero_si256();
        let mut a3 = _mm256_setzero_si256();
        for (g, &dw) in adw.iter().enumerate() {
            let av = _mm256_set1_epi32(dw);
            let ua = _mm256_abs_epi8(av);
            let base = (g * np + jb) * 4;
            let w0 = _mm256_loadu_si256(wt.as_ptr().add(base).cast());
            let w1 = _mm256_loadu_si256(wt.as_ptr().add(base + 32).cast());
            let w2 = _mm256_loadu_si256(wt.as_ptr().add(base + 64).cast());
            let w3 = _mm256_loadu_si256(wt.as_ptr().add(base + 96).cast());
            a0 = _mm256_add_epi32(
                a0,
                _mm256_madd_epi16(_mm256_maddubs_epi16(ua, _mm256_sign_epi8(w0, av)), ones),
            );
            a1 = _mm256_add_epi32(
                a1,
                _mm256_madd_epi16(_mm256_maddubs_epi16(ua, _mm256_sign_epi8(w1, av)), ones),
            );
            a2 = _mm256_add_epi32(
                a2,
                _mm256_madd_epi16(_mm256_maddubs_epi16(ua, _mm256_sign_epi8(w2, av)), ones),
            );
            a3 = _mm256_add_epi32(
                a3,
                _mm256_madd_epi16(_mm256_maddubs_epi16(ua, _mm256_sign_epi8(w3, av)), ones),
            );
        }
        _mm256_storeu_si256(acc.as_mut_ptr().add(jb).cast(), a0);
        _mm256_storeu_si256(acc.as_mut_ptr().add(jb + 8).cast(), a1);
        _mm256_storeu_si256(acc.as_mut_ptr().add(jb + 16).cast(), a2);
        _mm256_storeu_si256(acc.as_mut_ptr().add(jb + 24).cast(), a3);
        jb += 32;
    }
    while jb < np {
        let mut vacc = _mm256_setzero_si256();
        for (g, &dw) in adw.iter().enumerate() {
            let av = _mm256_set1_epi32(dw);
            let wv = _mm256_loadu_si256(wt.as_ptr().add((g * np + jb) * 4).cast());
            let ua = _mm256_abs_epi8(av);
            let sw = _mm256_sign_epi8(wv, av);
            let p = _mm256_maddubs_epi16(ua, sw);
            vacc = _mm256_add_epi32(vacc, _mm256_madd_epi16(p, ones));
        }
        _mm256_storeu_si256(acc.as_mut_ptr().add(jb).cast(), vacc);
        jb += 8;
    }
}

/// `x (m, k) @ wq (k, n) + b (n,)` where `wq` is per-k-row quantized.
///
/// Packs the weights and runs the SIMD kernel; for repeated calls over
/// the same weights, pack once with [`PackedQuantizedMatrix::pack`] and
/// call [`quantized_linear_packed`] directly.
pub fn quantized_linear(x: &[f32], w: &QuantizedMatrix, b: &[f32], m: usize) -> Vec<f32> {
    quantized_linear_packed(x, &PackedQuantizedMatrix::pack(w), b, m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_matches_small_case() {
        // x (1,2) @ w (2,2) + b
        let y = linear(&[1.0, 2.0], &[1.0, 0.0, 0.0, 1.0], &[0.5, -0.5], 1, 2, 2);
        assert_eq!(y, vec![1.5, 1.5]);
    }

    #[test]
    fn softmax_uniform_row() {
        let mut x = vec![3.0; 4];
        softmax_rows_inplace(&mut x, 1, 4);
        assert_eq!(x, vec![0.25; 4]);
    }

    #[test]
    fn fused_softmax_all_masked_is_uniform() {
        let mut x = vec![1.0, 2.0, 3.0, 4.0];
        fused_masked_softmax_rows(&mut x, &[0.0; 4], -1e9, 1, 4);
        let s: f32 = x.iter().sum();
        assert!((s - 1.0).abs() < 1e-6);
        assert!(x.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn quantize_constant_row_roundtrips_exactly() {
        let q = quantize_rows(&[0.75; 6], 2, 3).unwrap();
        assert_eq!(q.dequantize(), vec![0.75; 6]);
    }

    #[test]
    fn quantize_rejects_non_finite() {
        let err = quantize_rows(&[1.0, f32::NAN, 2.0], 1, 3).unwrap_err();
        assert_eq!(err, QuantizeError::NonFinite { row: 0, index: 1 });
        let err = quantize_rows(&[1.0, 2.0, f32::INFINITY, 0.0], 2, 2).unwrap_err();
        assert_eq!(err, QuantizeError::NonFinite { row: 1, index: 0 });
    }

    #[test]
    fn quantized_linear_close_to_dense() {
        let w = vec![0.3, -0.2, 0.1, 0.5, -0.4, 0.25];
        let q = quantize_rows(&w, 3, 2).unwrap();
        let x = vec![1.0, -2.0, 0.5];
        let b = vec![0.1, -0.1];
        let dense = linear(&x, &w, &b, 1, 3, 2);
        let quant = quantized_linear(&x, &q, &b, 1);
        for (a, b) in dense.iter().zip(&quant) {
            assert!((a - b).abs() < 0.05, "{a} vs {b}");
        }
    }
}

#[cfg(test)]
#[cfg(target_arch = "x86_64")]
mod simd_path_tests {
    //! In-process differential coverage for the AVX2 integer GEMM. The
    //! dispatch itself is pinned per process (see `qgemm_path`), so the
    //! cross-path test of the *public* entry point lives in
    //! `tests/qgemm_paths.rs` and re-runs the binary with `DADER_QGEMM`
    //! forced; these tests call the row kernel directly and caught the
    //! `psignb(-128)` wraparound that motivated the symmetric code range.
    use super::*;

    fn scalar_acc(xq: &[i8], wt: &[i8], kg: usize, np: usize) -> Vec<i32> {
        let mut acc = vec![0i32; np];
        for g in 0..kg {
            for (j, a) in acc.iter_mut().enumerate() {
                let wrow = &wt[(g * np + j) * 4..(g * np + j) * 4 + 4];
                let mut s = 0i32;
                for r in 0..4 {
                    s += xq[g * 4 + r] as i32 * wrow[r] as i32;
                }
                *a += s;
            }
        }
        acc
    }

    #[test]
    fn avx2_full_flow_matches_reference() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        let (m, k, n) = (5usize, 37usize, 19usize);
        let x: Vec<f32> = (0..m * k).map(|i| ((i * 37 % 97) as f32 - 48.0) / 50.0).collect();
        let wf: Vec<f32> = (0..k * n).map(|i| ((i * 53 % 89) as f32 - 44.0) / 400.0).collect();
        let b: Vec<f32> = (0..n).map(|j| j as f32 * 0.05 - 0.3).collect();
        let q = quantize_rows(&wf, k, n).unwrap();
        let w = PackedQuantizedMatrix::pack(&q);
        let reference = quantized_linear_reference(&x, &q, &b, m);

        // Replicate the Avx2 branch of `quantized_linear_packed` exactly,
        // bypassing the cached dispatch.
        let mut out = vec![0.0f32; m * n];
        let mut xs = vec![0.0f32; k];
        let mut xq = vec![0i8; w.kg * 4];
        let mut adw = vec![0i32; w.kg];
        let mut acc = vec![0i32; w.np];
        for i in 0..m {
            let xrow = &x[i * k..(i + 1) * k];
            let (sx, corr) = fold_and_quantize(xrow, &w.scale, &w.zero, &mut xs, &mut xq[..k]);
            xq[k..].fill(0);
            for (a, qq) in adw.iter_mut().zip(xq.chunks_exact(4)) {
                *a = i32::from_le_bytes([qq[0] as u8, qq[1] as u8, qq[2] as u8, qq[3] as u8]);
            }
            unsafe { qgemm_row_avx2(&adw, &w.wt, &mut acc, w.np) };
            let orow = &mut out[i * n..(i + 1) * n];
            for ((o, &a), &bj) in orow.iter_mut().zip(&acc).zip(&b) {
                *o = sx * a as f32 + corr + bj;
            }
        }
        for (i, (r, o)) in reference.iter().zip(&out).enumerate() {
            assert_eq!(r.to_bits(), o.to_bits(), "elem {i}: ref {r} vs avx2-flow {o}");
        }
    }

    #[test]
    fn avx2_kernel_matches_scalar_bruteforce() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        // Codes cover the full kernel contract [-127, 127] — including the
        // ±127 rails the sign trick must negate exactly.
        for trial in 0..200u64 {
            for &np in &[16usize, 32, 48] {
                let kg = 1 + (trial as usize % 7);
                let mut state = trial.wrapping_mul(6364136223846793005).wrapping_add(np as u64);
                let mut next = || {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    ((state >> 33) as i32 % 255 - 127) as i8
                };
                let xq: Vec<i8> = (0..kg * 4).map(|_| next()).collect();
                let wt: Vec<i8> = (0..kg * np * 4).map(|_| next()).collect();
                let adw: Vec<i32> = xq
                    .chunks_exact(4)
                    .map(|q| i32::from_le_bytes([q[0] as u8, q[1] as u8, q[2] as u8, q[3] as u8]))
                    .collect();
                let mut acc = vec![0i32; np];
                unsafe { qgemm_row_avx2(&adw, &wt, &mut acc, np) };
                let want = scalar_acc(&xq, &wt, kg, np);
                assert_eq!(acc, want, "trial {trial} kg {kg} np {np} xq {xq:?}");
            }
        }
    }
}
