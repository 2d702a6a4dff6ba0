//! Tape-free inference mirrors of the training-path layers.
//!
//! Each `Infer*` struct holds plain weight buffers (f32 or int8-quantized)
//! and replays the exact forward computation of its training twin using the
//! kernels in [`dader_tensor::infer`] — same loop order, same GEMM kernels,
//! same elementwise op order — so the f32 path is bitwise-identical to the
//! taped forward while allocating zero autograd nodes.
//!
//! Attention additionally supports a fast serving mode (`fused = true`):
//! the single-sweep masked softmax with polynomial `fast_exp`, paired with
//! the polynomial GELU in [`InferEncoderLayer`] (`fast = true`). Both trade
//! bitwise equality for vectorizable elementwise math; the drift (~1e-6) is
//! far below int8 weight-quantization noise, so they are enabled only for
//! quantized models.

use dader_tensor::infer as kernel;
use dader_tensor::infer::{PackedQuantizedMatrix, QuantizedMatrix};

/// A weight matrix in either dense f32 or int8 per-row-quantized form.
#[derive(Debug, Clone)]
pub enum InferMatrix {
    /// Row-major dense `(in_dim, out_dim)` weights.
    F32(Vec<f32>),
    /// Per-row quantized weights (rows = in_dim, cols = out_dim).
    Int8(QuantizedMatrix),
}

/// Storage behind an [`InferLinear`]: int8 weights are prepacked for the
/// SIMD integer GEMM once, at construction.
#[derive(Debug, Clone)]
enum PackedWeights {
    F32(Vec<f32>),
    Int8(PackedQuantizedMatrix),
}

/// An affine layer `x @ w + b` over plain buffers.
#[derive(Debug, Clone)]
pub struct InferLinear {
    w: PackedWeights,
    b: Vec<f32>,
    in_dim: usize,
    out_dim: usize,
}

impl InferLinear {
    /// New layer; validates buffer sizes against `(in_dim, out_dim)`.
    pub fn new(w: InferMatrix, b: Vec<f32>, in_dim: usize, out_dim: usize) -> InferLinear {
        let w = match w {
            InferMatrix::F32(w) => {
                assert_eq!(w.len(), in_dim * out_dim, "InferLinear: weight size mismatch");
                PackedWeights::F32(w)
            }
            InferMatrix::Int8(q) => {
                assert_eq!((q.rows, q.cols), (in_dim, out_dim), "InferLinear: quantized shape mismatch");
                PackedWeights::Int8(PackedQuantizedMatrix::pack(&q))
            }
        };
        assert_eq!(b.len(), out_dim, "InferLinear: bias size mismatch");
        InferLinear { w, b, in_dim, out_dim }
    }

    /// Input feature width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output feature width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// `x (rows, in_dim) -> (rows, out_dim)`.
    pub fn forward(&self, x: &[f32], rows: usize) -> Vec<f32> {
        match &self.w {
            PackedWeights::F32(w) => kernel::linear(x, w, &self.b, rows, self.in_dim, self.out_dim),
            PackedWeights::Int8(q) => kernel::quantized_linear_packed(x, q, &self.b, rows),
        }
    }
}

/// Layer norm over the last dimension with learned gain/bias.
#[derive(Debug, Clone)]
pub struct InferLayerNorm {
    gamma: Vec<f32>,
    beta: Vec<f32>,
    dim: usize,
    eps: f32,
}

impl InferLayerNorm {
    /// New norm with the training-path default epsilon (`1e-5`).
    pub fn new(gamma: Vec<f32>, beta: Vec<f32>) -> InferLayerNorm {
        assert_eq!(gamma.len(), beta.len(), "InferLayerNorm: gamma/beta size mismatch");
        let dim = gamma.len();
        InferLayerNorm { gamma, beta, dim, eps: 1e-5 }
    }

    /// `x (rows, dim) -> (rows, dim)`.
    pub fn forward(&self, x: &[f32], rows: usize) -> Vec<f32> {
        kernel::layer_norm(x, &self.gamma, &self.beta, rows, self.dim, self.eps)
    }
}

/// Multi-head self-attention mirroring `MultiHeadAttention::forward`.
#[derive(Debug, Clone)]
pub struct InferAttention {
    wq: InferLinear,
    wk: InferLinear,
    wv: InferLinear,
    wo: InferLinear,
    heads: usize,
    dim: usize,
    fused: bool,
}

impl InferAttention {
    /// New attention block. `fused` selects the single-sweep masked softmax
    /// with polynomial `fast_exp` (quantized serving) over the exact
    /// two-pass replica (bitwise).
    pub fn new(
        wq: InferLinear,
        wk: InferLinear,
        wv: InferLinear,
        wo: InferLinear,
        heads: usize,
        dim: usize,
        fused: bool,
    ) -> InferAttention {
        assert_eq!(dim % heads, 0, "InferAttention: dim {dim} not divisible by {heads} heads");
        InferAttention { wq, wk, wv, wo, heads, dim, fused }
    }

    /// Expand a padding mask `(B*S)` into the per-score attend mask
    /// `(B, H, S, S)` consumed by the softmax kernels. The result depends
    /// only on the mask, so callers with several layers build it once.
    fn build_attend(pad_mask: &[f32], b: usize, s: usize, heads: usize) -> Vec<f32> {
        let mut attend = Vec::with_capacity(b * heads * s * s);
        for row in pad_mask.chunks(s.max(1)).take(b) {
            let keys: Vec<f32> = row.iter().map(|&m| if m == 0.0 { 0.0 } else { 1.0 }).collect();
            for _ in 0..heads * s {
                attend.extend_from_slice(&keys);
            }
        }
        attend
    }

    /// Self-attention over `x (B, S, D)` for the first `sq` query
    /// positions of each sequence, `xq (B, sq, D)`: keys and values span
    /// all `S` positions, and `attend (B, H, sq, S)` masks the scores.
    /// Returns `(B, sq, D)`. Every kernel is row-independent, so a query
    /// row's output does not depend on `sq`.
    fn forward_queries(
        &self,
        xq: &[f32],
        x: &[f32],
        b: usize,
        sq: usize,
        s: usize,
        attend: &[f32],
    ) -> Vec<f32> {
        let d = self.dim;
        let dh = d / self.heads;
        let bh = b * self.heads;
        let q = kernel::split_heads(&self.wq.forward(xq, b * sq), b, sq, d, self.heads);
        let k = kernel::split_heads(&self.wk.forward(x, b * s), b, s, d, self.heads);
        let v = kernel::split_heads(&self.wv.forward(x, b * s), b, s, d, self.heads);

        let scale = 1.0 / (dh as f32).sqrt();
        let mut scores = kernel::bmm_nt(&q, &k, bh, sq, dh, s);
        kernel::scale_inplace(&mut scores, scale);

        if self.fused {
            kernel::fused_masked_softmax_rows_fast(&mut scores, attend, -1e9, bh * sq, s);
        } else {
            kernel::masked_softmax_rows(&mut scores, attend, -1e9, bh * sq, s);
        }

        let ctx = kernel::bmm(&scores, &v, bh, sq, s, dh);
        let merged = kernel::merge_heads(&ctx, b, sq, dh, self.heads);
        self.wo.forward(&merged, b * sq)
    }
}

/// One transformer encoder layer mirroring `EncoderLayer::forward`.
#[derive(Debug, Clone)]
pub struct InferEncoderLayer {
    attn: InferAttention,
    ln1: InferLayerNorm,
    ff1: InferLinear,
    ff2: InferLinear,
    ln2: InferLayerNorm,
    fast: bool,
}

impl InferEncoderLayer {
    /// Assemble a layer from its blocks. `fast` selects the polynomial GELU
    /// (quantized serving) over the bitwise libm replica.
    pub fn new(
        attn: InferAttention,
        ln1: InferLayerNorm,
        ff1: InferLinear,
        ff2: InferLinear,
        ln2: InferLayerNorm,
        fast: bool,
    ) -> InferEncoderLayer {
        InferEncoderLayer { attn, ln1, ff1, ff2, ln2, fast }
    }

    /// `x (B, S, D) -> (B, S, D)` with a prebuilt attend mask from
    /// [`InferAttention::build_attend`] (shared across the layers of a
    /// stack, which all see the same padding mask).
    fn forward_with_attend(&self, x: &[f32], b: usize, s: usize, attend: &[f32]) -> Vec<f32> {
        self.forward_queries(x, x, b, s, s, attend)
    }

    /// The layer's output at position 0 only: `x (B, S, D) -> (B, D)`,
    /// bit for bit position 0 of [`Self::forward_with_attend`]. Keys and
    /// values still read every position; the queries, scores, softmax
    /// (the first attend row of each (batch, head)), context, `wo`, both
    /// norms and the FFN run on one row per sequence.
    fn forward_cls(&self, x: &[f32], b: usize, s: usize, attend: &[f32]) -> Vec<f32> {
        let x0 = kernel::select_seq_pos(x, b, s, self.attn.dim, 0);
        let attend0: Vec<f32> = attend
            .chunks(s * s)
            .flat_map(|a| &a[..s])
            .copied()
            .collect();
        self.forward_queries(&x0, x, b, 1, s, &attend0)
    }

    /// `xq (B, sq, D)`, the first `sq` positions of `x (B, S, D)`, through
    /// the layer; `attend` is `(B, H, sq, S)`. Returns `(B, sq, D)`.
    fn forward_queries(
        &self,
        xq: &[f32],
        x: &[f32],
        b: usize,
        sq: usize,
        s: usize,
        attend: &[f32],
    ) -> Vec<f32> {
        let rows = b * sq;
        let a = self.attn.forward_queries(xq, x, b, sq, s, attend);
        let x = self.ln1.forward(&kernel::add(xq, &a), rows);
        let mut h = self.ff1.forward(&x, rows);
        if self.fast {
            kernel::gelu_fast_inplace(&mut h);
        } else {
            kernel::gelu_inplace(&mut h);
        }
        let f = self.ff2.forward(&h, rows);
        self.ln2.forward(&kernel::add(&x, &f), rows)
    }
}

/// Tape-free transformer encoder mirroring `TransformerEncoder`.
#[derive(Debug, Clone)]
pub struct InferTransformer {
    tok: Vec<f32>,
    pos: Vec<f32>,
    layers: Vec<InferEncoderLayer>,
    vocab: usize,
    dim: usize,
    max_len: usize,
}

impl InferTransformer {
    /// Assemble an encoder from its embedding tables and layers.
    pub fn new(
        tok: Vec<f32>,
        pos: Vec<f32>,
        layers: Vec<InferEncoderLayer>,
        vocab: usize,
        dim: usize,
        max_len: usize,
    ) -> InferTransformer {
        assert_eq!(tok.len(), vocab * dim, "InferTransformer: token table size mismatch");
        assert_eq!(pos.len(), max_len * dim, "InferTransformer: position table size mismatch");
        InferTransformer { tok, pos, layers, vocab, dim, max_len }
    }

    /// Model width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Token plus position embeddings: `(B*S) ids -> (B, S, D)`.
    fn embed(&self, ids: &[usize], batch: usize, seq: usize, mask: &[f32]) -> Vec<f32> {
        assert_eq!(ids.len(), batch * seq, "InferTransformer: id count mismatch");
        assert_eq!(mask.len(), batch * seq, "InferTransformer: mask length mismatch");
        assert!(seq <= self.max_len, "InferTransformer: sequence length {seq} exceeds max {}", self.max_len);
        let mut h = kernel::gather_rows(&self.tok, self.dim, ids);
        for row in h.chunks_mut((seq * self.dim).max(1)) {
            for (x, p) in row.iter_mut().zip(&self.pos) {
                *x += p;
            }
        }
        h
    }

    /// Full encoder stack: `(B*S) ids -> (B, S, D)` hidden states — the
    /// reference [`Self::encode_cls`] is held to.
    #[cfg(test)]
    fn forward(&self, ids: &[usize], batch: usize, seq: usize, mask: &[f32]) -> Vec<f32> {
        let mut h = self.embed(ids, batch, seq, mask);
        if let Some(first) = self.layers.first() {
            let attend = InferAttention::build_attend(mask, batch, seq, first.attn.heads);
            for layer in &self.layers {
                h = layer.forward_with_attend(&h, batch, seq, &attend);
            }
        }
        h
    }

    /// Hidden state at the `[CLS]` position: `(B, D)`. Every layer but
    /// the last runs all positions; the last computes position 0 only
    /// ([`InferEncoderLayer::forward_cls`]), bit for bit the full stack's
    /// position 0.
    pub fn encode_cls(&self, ids: &[usize], batch: usize, seq: usize, mask: &[f32]) -> Vec<f32> {
        let _sp = dader_obs::span!("infer.transformer");
        let h = self.embed(ids, batch, seq, mask);
        let Some((last, rest)) = self.layers.split_last() else {
            return kernel::select_seq_pos(&h, batch, seq, self.dim, 0);
        };
        let attend = InferAttention::build_attend(mask, batch, seq, last.attn.heads);
        let h = rest
            .iter()
            .fold(h, |h, layer| layer.forward_with_attend(&h, batch, seq, &attend));
        last.forward_cls(&h, batch, seq, &attend)
    }

    /// Raw token embeddings without position information: `(B*S, D)` flat.
    pub fn token_embeddings(&self, ids: &[usize]) -> Vec<f32> {
        kernel::gather_rows(&self.tok, self.dim, ids)
    }
}

/// One GRU cell mirroring `GruCell::step`.
#[derive(Debug, Clone)]
pub struct InferGruCell {
    wx_z: InferLinear,
    wh_z: InferLinear,
    wx_r: InferLinear,
    wh_r: InferLinear,
    wx_n: InferLinear,
    wh_n: InferLinear,
}

impl InferGruCell {
    /// Assemble a cell from its six gate projections (update, reset,
    /// candidate; input and hidden halves).
    pub fn new(
        wx_z: InferLinear,
        wh_z: InferLinear,
        wx_r: InferLinear,
        wh_r: InferLinear,
        wx_n: InferLinear,
        wh_n: InferLinear,
    ) -> InferGruCell {
        InferGruCell { wx_z, wh_z, wx_r, wh_r, wx_n, wh_n }
    }

    /// One recurrence step: `x (rows, I)`, `h (rows, H) -> (rows, H)`.
    pub fn step(&self, x: &[f32], h: &[f32], rows: usize) -> Vec<f32> {
        let mut z = kernel::add(&self.wx_z.forward(x, rows), &self.wh_z.forward(h, rows));
        kernel::sigmoid_inplace(&mut z);
        let mut r = kernel::add(&self.wx_r.forward(x, rows), &self.wh_r.forward(h, rows));
        kernel::sigmoid_inplace(&mut r);
        let rh = kernel::mul(&r, h);
        let mut n = kernel::add(&self.wx_n.forward(x, rows), &self.wh_n.forward(&rh, rows));
        kernel::tanh_inplace(&mut n);
        // (1 - z) * n + z * h, in the taped op order.
        z.iter()
            .zip(&n)
            .zip(h)
            .map(|((&z, &n), &h)| (1.0 - z) * n + z * h)
            .collect()
    }
}

/// Bidirectional GRU mirroring `BiGru::forward`.
#[derive(Debug, Clone)]
pub struct InferBiGru {
    fwd: InferGruCell,
    bwd: InferGruCell,
    hidden: usize,
}

impl InferBiGru {
    /// Assemble from forward and backward cells.
    pub fn new(fwd: InferGruCell, bwd: InferGruCell, hidden: usize) -> InferBiGru {
        InferBiGru { fwd, bwd, hidden }
    }

    /// Output feature width (`2 * hidden`).
    pub fn out_dim(&self) -> usize {
        2 * self.hidden
    }

    /// `x (B, S, I)` with mask `(B*S)`; returns `(B, S, 2H)`. Padded
    /// positions carry the hidden state through unchanged.
    pub fn forward(&self, x: &[f32], b: usize, s: usize, input: usize, mask: &[f32]) -> Vec<f32> {
        let _sp = dader_obs::span!("infer.bigru");
        assert_eq!(x.len(), b * s * input, "InferBiGru: input size mismatch");
        assert_eq!(mask.len(), b * s, "InferBiGru: mask length mismatch");
        let hdim = self.hidden;
        let step_inputs: Vec<Vec<f32>> = (0..s).map(|t| kernel::select_seq_pos(x, b, s, input, t)).collect();

        let run = |cell: &InferGruCell, order: Box<dyn Iterator<Item = usize>>| -> Vec<Vec<f32>> {
            let mut h = vec![0.0f32; b * hdim];
            let mut outs = vec![vec![0.0f32; b * hdim]; s];
            for t in order {
                let h_new = cell.step(&step_inputs[t], &h, b);
                for bi in 0..b {
                    let m = mask[bi * s + t];
                    for j in 0..hdim {
                        let i = bi * hdim + j;
                        h[i] = m * h_new[i] + (1.0 - m) * h[i];
                    }
                }
                outs[t] = h.clone();
            }
            outs
        };

        let f_outs = run(&self.fwd, Box::new(0..s));
        let b_outs = run(&self.bwd, Box::new((0..s).rev()));

        let mut out = vec![0.0f32; b * s * 2 * hdim];
        for t in 0..s {
            let merged = kernel::concat_cols(&f_outs[t], &b_outs[t], b, hdim, hdim);
            for bi in 0..b {
                out[(bi * s + t) * 2 * hdim..(bi * s + t + 1) * 2 * hdim]
                    .copy_from_slice(&merged[bi * 2 * hdim..(bi + 1) * 2 * hdim]);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f32_linear(w: Vec<f32>, b: Vec<f32>, i: usize, o: usize) -> InferLinear {
        InferLinear::new(InferMatrix::F32(w), b, i, o)
    }

    #[test]
    fn linear_forward_shape() {
        let l = f32_linear(vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0], vec![0.0, 0.0], 3, 2);
        let y = l.forward(&[1.0, 2.0, 3.0], 1);
        assert_eq!(y, vec![1.0 + 3.0, 2.0 + 3.0]);
    }

    #[test]
    fn layer_norm_default_is_pure_normalization() {
        let ln = InferLayerNorm::new(vec![1.0; 4], vec![0.0; 4]);
        let y = ln.forward(&[1.0, 2.0, 3.0, 4.0], 1);
        let mean: f32 = y.iter().sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
    }

    /// A random `layers`-deep encoder (vocab 50, dim 16, 4 heads, FFN 32,
    /// 12 positions); `int8` quantizes every projection and selects the
    /// fused softmax and fast GELU, as a quantized artifact does.
    fn random_transformer(layers: usize, int8: bool, seed: u64) -> InferTransformer {
        use rand::{RngExt, SeedableRng};
        let (vocab, dim, heads, ffn, max_len) = (50, 16, 4, 32, 12);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut vals = |n: usize, c: f32, r: f32| -> Vec<f32> {
            (0..n).map(|_| c + r * (rng.random::<f32>() - 0.5)).collect()
        };
        let mut linear = |i: usize, o: usize| {
            let w = vals(i * o, 0.0, 1.0);
            let w = if int8 {
                InferMatrix::Int8(kernel::quantize_rows(&w, i, o).unwrap())
            } else {
                InferMatrix::F32(w)
            };
            InferLinear::new(w, vals(o, 0.0, 0.2), i, o)
        };
        let mut stack = Vec::new();
        for _ in 0..layers {
            let attn = InferAttention::new(
                linear(dim, dim),
                linear(dim, dim),
                linear(dim, dim),
                linear(dim, dim),
                heads,
                dim,
                int8,
            );
            let (ff1, ff2) = (linear(dim, ffn), linear(ffn, dim));
            stack.push((attn, ff1, ff2));
        }
        let mut norm = || InferLayerNorm::new(vals(dim, 1.0, 0.4), vals(dim, 0.0, 0.2));
        let layers = stack
            .into_iter()
            .map(|(attn, ff1, ff2)| InferEncoderLayer::new(attn, norm(), ff1, ff2, norm(), int8))
            .collect();
        InferTransformer::new(
            vals(vocab * dim, 0.0, 1.0),
            vals(max_len * dim, 0.0, 0.5),
            layers,
            vocab,
            dim,
            max_len,
        )
    }

    #[test]
    fn encode_cls_is_bitwise_position_zero_of_the_full_stack() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        for int8 in [false, true] {
            for layers in 1..=3 {
                let enc = random_transformer(layers, int8, 7 + layers as u64);
                for batch in [1, 5, 32] {
                    for seq in [9, 12] {
                        // Row r holds (r * 5) % (seq + 1) real tokens: full
                        // rows, padded tails, and (at r = 0) a fully
                        // masked row.
                        let mut ids = Vec::with_capacity(batch * seq);
                        let mut mask = Vec::with_capacity(batch * seq);
                        for r in 0..batch {
                            let real = if batch == 1 { seq - 2 } else { (r * 5) % (seq + 1) };
                            for si in 0..seq {
                                ids.push((r * 7 + si * 3) % 50);
                                mask.push(if si < real { 1.0 } else { 0.0 });
                            }
                        }
                        let full = enc.forward(&ids, batch, seq, &mask);
                        let want = kernel::select_seq_pos(&full, batch, seq, enc.dim(), 0);
                        let got = enc.encode_cls(&ids, batch, seq, &mask);
                        assert!(
                            bits(&got) == bits(&want),
                            "int8 {int8}, {layers} layers, batch {batch}, seq {seq}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn gru_step_blend_bounds() {
        let id = |i: usize, o: usize| f32_linear(vec![0.0; i * o], vec![0.0; o], i, o);
        let cell = InferGruCell::new(id(2, 3), id(3, 3), id(2, 3), id(3, 3), id(2, 3), id(3, 3));
        let h = cell.step(&[1.0, -1.0], &[0.5, 0.5, 0.5], 1);
        // z = sigmoid(0) = 0.5, n = tanh(0) = 0 → h' = 0.5 * h
        assert_eq!(h, vec![0.25, 0.25, 0.25]);
    }
}
