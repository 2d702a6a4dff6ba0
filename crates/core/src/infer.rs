//! The tape-free serving model.
//!
//! [`InferenceModel`] is the one scoring forward of a trained `(F, M)`:
//! evaluation ([`DaderModel::evaluate`] builds one per call), ad-hoc pair
//! scoring and serving all run it. It replays the exact forward
//! computation of the taped extractor and matcher on plain `f32` buffers
//! via [`dader_nn::infer`], allocating no autograd nodes. Built
//! [`from_parts`](InferenceModel::from_parts) (dense f32, exact two-pass
//! softmax) it is **bitwise identical** to the taped forward; built
//! [`from_artifact`](InferenceModel::from_artifact) from a quantized
//! version-2 artifact it runs integer-accumulate GEMMs over the int8
//! weights and the fused single-sweep masked softmax. The differential
//! harness in `crates/core/tests/infer_parity.rs` locks both claims down
//! against a taped reference loop of its own.

use std::collections::HashMap;

use dader_datagen::ErDataset;
use dader_nn::infer::{
    InferAttention, InferBiGru, InferEncoderLayer, InferGruCell, InferLayerNorm, InferLinear,
    InferMatrix, InferTransformer,
};
use dader_nn::TransformerConfig;
use dader_tensor::infer as kernel;
use dader_tensor::infer::QuantizedMatrix;
use dader_tensor::{pool, Param};
use dader_text::PairEncoder;

use crate::artifact::{ArtifactError, ModelArtifact};
use crate::batch::{encode_all, EncodedBatch};
use crate::eval::Metrics;
use crate::extractor::{
    overlap_features, segment_masks, ExtractorSpec, FeatureExtractor, LmExtractor, OVERLAP_FEATURES,
};
use crate::matcher::Matcher;
use crate::model::{DaderModel, EntityPair};

/// Weight store the inference layers are assembled from: dense entries by
/// name plus the int8 side table of a quantized artifact. Each entry is
/// moved out as its layer takes it, so a weight is copied once — when the
/// store is filled — and never again.
struct Weights {
    entries: HashMap<String, (Vec<usize>, Vec<f32>)>,
    quantized: HashMap<String, QuantizedMatrix>,
}

impl Weights {
    /// A dense store of live parameters' current values.
    fn snapshot(params: impl IntoIterator<Item = Param>) -> Weights {
        let entries = params
            .into_iter()
            .map(|p| (p.name().to_string(), (p.shape().dims().to_vec(), p.snapshot())))
            .collect();
        Weights { entries, quantized: HashMap::new() }
    }

    fn tensor(&mut self, name: &str, shape: &[usize]) -> Result<Vec<f32>, String> {
        let (s, data) = self
            .entries
            .remove(name)
            .ok_or_else(|| format!("missing weight tensor {name:?}"))?;
        if s != shape {
            return Err(format!("weight {name:?} has shape {s:?}, expected {shape:?}"));
        }
        Ok(data)
    }

    fn linear(&mut self, prefix: &str, in_dim: usize, out_dim: usize) -> Result<InferLinear, String> {
        let wname = format!("{prefix}.w");
        let b = self.tensor(&format!("{prefix}.b"), &[out_dim])?;
        let w = match self.quantized.remove(&wname) {
            Some(q) => {
                if (q.rows, q.cols) != (in_dim, out_dim) {
                    return Err(format!(
                        "quantized weight {wname:?} has shape ({}, {}), expected ({in_dim}, {out_dim})",
                        q.rows, q.cols
                    ));
                }
                InferMatrix::Int8(q)
            }
            None => InferMatrix::F32(self.tensor(&wname, &[in_dim, out_dim])?),
        };
        Ok(InferLinear::new(w, b, in_dim, out_dim))
    }

    fn norm(&mut self, prefix: &str, dim: usize) -> Result<InferLayerNorm, String> {
        Ok(InferLayerNorm::new(
            self.tensor(&format!("{prefix}.gamma"), &[dim])?,
            self.tensor(&format!("{prefix}.beta"), &[dim])?,
        ))
    }

    fn gru_cell(&mut self, prefix: &str, input: usize, hidden: usize) -> Result<InferGruCell, String> {
        Ok(InferGruCell::new(
            self.linear(&format!("{prefix}.wx_z"), input, hidden)?,
            self.linear(&format!("{prefix}.wh_z"), hidden, hidden)?,
            self.linear(&format!("{prefix}.wx_r"), input, hidden)?,
            self.linear(&format!("{prefix}.wh_r"), hidden, hidden)?,
            self.linear(&format!("{prefix}.wx_n"), input, hidden)?,
            self.linear(&format!("{prefix}.wh_n"), hidden, hidden)?,
        ))
    }
}

/// The LM extractor beneath its head, tape-free: the encoder whose
/// `[CLS]` state and token embeddings make the head's input rows.
pub(crate) struct LmTrunk {
    encoder: InferTransformer,
}

impl LmTrunk {
    /// A snapshot of `lm`'s encoder weights — dense f32, exact kernels —
    /// whose [`pre_head`](LmTrunk::pre_head) rows are bitwise
    /// [`LmExtractor::pre_head`]'s.
    pub(crate) fn from_lm(lm: &LmExtractor) -> LmTrunk {
        let mut weights = Weights::snapshot(lm.encoder().params());
        Self::build(&mut weights, lm.encoder().config(), false)
            .unwrap_or_else(|e| panic!("LmTrunk::from_lm: {e}"))
    }

    fn build(
        weights: &mut Weights,
        cfg: &TransformerConfig,
        quantized: bool,
    ) -> Result<LmTrunk, String> {
        let tok = weights.tensor("lm.tok.table", &[cfg.vocab, cfg.dim])?;
        let pos = weights.tensor("lm.pos.pos", &[cfg.max_len, cfg.dim])?;
        let mut layers = Vec::with_capacity(cfg.layers);
        for i in 0..cfg.layers {
            let p = format!("lm.layer{i}");
            let attn = InferAttention::new(
                weights.linear(&format!("{p}.attn.wq"), cfg.dim, cfg.dim)?,
                weights.linear(&format!("{p}.attn.wk"), cfg.dim, cfg.dim)?,
                weights.linear(&format!("{p}.attn.wv"), cfg.dim, cfg.dim)?,
                weights.linear(&format!("{p}.attn.wo"), cfg.dim, cfg.dim)?,
                cfg.heads,
                cfg.dim,
                quantized,
            );
            layers.push(InferEncoderLayer::new(
                attn,
                weights.norm(&format!("{p}.ln1"), cfg.dim)?,
                weights.linear(&format!("{p}.ff1"), cfg.dim, cfg.ffn_dim)?,
                weights.linear(&format!("{p}.ff2"), cfg.ffn_dim, cfg.dim)?,
                weights.norm(&format!("{p}.ln2"), cfg.dim)?,
                quantized,
            ));
        }
        let encoder = InferTransformer::new(tok, pos, layers, cfg.vocab, cfg.dim, cfg.max_len);
        Ok(LmTrunk { encoder })
    }

    /// The head's input rows `[cls; |m_a − m_b|; m_a ⊙ m_b; overlap]`:
    /// flat `(B, 3·dim + OVERLAP_FEATURES)`, as [`LmExtractor::pre_head`]
    /// computes them on the tape.
    pub(crate) fn pre_head(&self, batch: &EncodedBatch) -> Vec<f32> {
        let (b, s) = (batch.batch, batch.seq);
        let dim = self.encoder.dim();
        let cls = self.encoder.encode_cls(&batch.ids, b, s, &batch.mask);
        let emb = self.encoder.token_embeddings(&batch.ids);
        let (mask_a, mask_b) = segment_masks(batch);
        let mut ma = kernel::mean_pool_seq(&emb, &mask_a, b, s, dim);
        let mut mb = kernel::mean_pool_seq(&emb, &mask_b, b, s, dim);
        kernel::l2_normalize_rows_inplace(&mut ma, b, dim, 1e-8);
        kernel::l2_normalize_rows_inplace(&mut mb, b, dim, 1e-8);
        let diff = kernel::abs_sub(&ma, &mb);
        let prod = kernel::mul(&ma, &mb);
        let overlap = overlap_features(batch).to_vec();
        let cat = kernel::concat_cols(&cls, &diff, b, dim, dim);
        let cat = kernel::concat_cols(&cat, &prod, b, 2 * dim, dim);
        kernel::concat_cols(&cat, &overlap, b, 3 * dim, OVERLAP_FEATURES)
    }
}

enum InferExtractor {
    Lm {
        trunk: Box<LmTrunk>,
        head: InferLinear,
    },
    Rnn {
        table: Vec<f32>,
        embed_dim: usize,
        gru: Box<InferBiGru>,
        head: InferLinear,
    },
}

/// A serving-only `(F, M)` bundle over plain weight buffers: no autograd
/// tape, optional int8 weights, same predictions.
pub struct InferenceModel {
    extractor: InferExtractor,
    matcher: InferLinear,
    feat_dim: usize,
    quantized: bool,
}

impl InferenceModel {
    /// Build from a live extractor and matcher — a snapshot of their
    /// current weights. The result is dense f32 with the exact two-pass
    /// softmax, and predicts **bitwise identically** to the taped forward.
    pub fn from_parts(extractor: &dyn FeatureExtractor, matcher: &Matcher) -> InferenceModel {
        let weights = Weights::snapshot(extractor.params().into_iter().chain(matcher.params()));
        Self::build(weights, extractor.spec(), extractor.feat_dim(), false)
            .unwrap_or_else(|e| panic!("InferenceModel::from_parts: {e}"))
    }

    /// [`from_parts`](InferenceModel::from_parts) of a trained model.
    pub fn from_model(model: &DaderModel) -> InferenceModel {
        Self::from_parts(model.extractor.as_ref(), &model.matcher)
    }

    /// Build from a loaded artifact. Dense (version-1) artifacts get the
    /// exact kernels and serve byte-for-byte like the taped model;
    /// quantized (version-2) artifacts run int8 integer-accumulate GEMMs
    /// and the fused masked softmax.
    pub fn from_artifact(artifact: &ModelArtifact) -> Result<InferenceModel, ArtifactError> {
        artifact.check_manifest()?;
        let entries = artifact
            .checkpoint
            .entries
            .iter()
            .map(|e| (e.name.clone(), (e.shape.clone(), e.data.clone())))
            .collect();
        let quantized = artifact.quantized.iter().cloned().collect();
        let weights = Weights { entries, quantized };
        Self::build(weights, artifact.extractor, artifact.matcher_dim, artifact.is_quantized())
            .map_err(ArtifactError::Malformed)
    }

    /// `quantized` marks an int8 artifact: attention then takes the fused
    /// masked softmax, and [`InferenceModel::is_quantized`] reports it.
    fn build(
        mut weights: Weights,
        spec: ExtractorSpec,
        matcher_dim: usize,
        quantized: bool,
    ) -> Result<InferenceModel, String> {
        let extractor = match spec {
            ExtractorSpec::Lm(cfg) => {
                let trunk = LmTrunk::build(&mut weights, &cfg, quantized)?;
                let head =
                    weights.linear("lm.head", 3 * cfg.dim + OVERLAP_FEATURES, cfg.dim)?;
                InferExtractor::Lm { trunk: Box::new(trunk), head }
            }
            ExtractorSpec::Rnn { vocab, embed_dim, hidden, feat_dim } => {
                let table = weights.tensor("rnn.embed.table", &[vocab, embed_dim])?;
                let gru = InferBiGru::new(
                    weights.gru_cell("rnn.gru.fwd", embed_dim, hidden)?,
                    weights.gru_cell("rnn.gru.bwd", embed_dim, hidden)?,
                    hidden,
                );
                let head = weights.linear("rnn.head", 3 * 2 * hidden, feat_dim)?;
                InferExtractor::Rnn { table, embed_dim, gru: Box::new(gru), head }
            }
        };
        let matcher = weights.linear("matcher.l0", matcher_dim, 2)?;
        Ok(InferenceModel { extractor, matcher, feat_dim: matcher_dim, quantized })
    }

    /// Output feature dimension `d` of the extractor.
    pub fn feat_dim(&self) -> usize {
        self.feat_dim
    }

    /// True when any weight matrix runs through the int8 GEMM.
    pub fn is_quantized(&self) -> bool {
        self.quantized
    }

    /// Extract features for a batch: flat `(B, feat_dim)`.
    pub fn extract(&self, batch: &EncodedBatch) -> Vec<f32> {
        let _sp = dader_obs::span!("infer.extract");
        let (b, s) = (batch.batch, batch.seq);
        let (pre, head) = match &self.extractor {
            InferExtractor::Lm { trunk, head } => (trunk.pre_head(batch), head),
            InferExtractor::Rnn { table, embed_dim, gru, head } => {
                let h2 = gru.out_dim();
                let emb = kernel::gather_rows(table, *embed_dim, &batch.ids);
                let states = gru.forward(&emb, b, s, *embed_dim, &batch.mask);
                let pooled = kernel::mean_pool_seq(&states, &batch.mask, b, s, h2);
                let (mask_a, mask_b) = segment_masks(batch);
                let mut ma = kernel::mean_pool_seq(&states, &mask_a, b, s, h2);
                let mut mb = kernel::mean_pool_seq(&states, &mask_b, b, s, h2);
                kernel::l2_normalize_rows_inplace(&mut ma, b, h2, 1e-8);
                kernel::l2_normalize_rows_inplace(&mut mb, b, h2, 1e-8);
                let diff = kernel::abs_sub(&ma, &mb);
                let prod = kernel::mul(&ma, &mb);
                let cat = kernel::concat_cols(&pooled, &diff, b, h2, h2);
                (kernel::concat_cols(&cat, &prod, b, 2 * h2, h2), head)
            }
        };
        let mut out = head.forward(&pre, b);
        kernel::tanh_inplace(&mut out);
        out
    }

    /// Raw matcher logits for extracted features: flat `(rows, 2)`.
    pub fn logits(&self, features: &[f32]) -> Vec<f32> {
        let rows = features.len() / self.feat_dim;
        self.matcher.forward(features, rows)
    }

    /// Hard labels per feature row (same tie-breaking as the taped
    /// matcher's argmax).
    pub fn predict(&self, features: &[f32]) -> Vec<usize> {
        let logits = self.logits(features);
        kernel::argmax_rows(&logits, logits.len() / 2, 2)
    }

    /// Match probability (class-1 softmax) per feature row.
    pub fn match_probs(&self, features: &[f32]) -> Vec<f32> {
        let mut logits = self.logits(features);
        let rows = logits.len() / 2;
        kernel::softmax_rows_inplace(&mut logits, rows, 2);
        logits.chunks(2).map(|c| c[1]).collect()
    }

    /// Run over a labeled dataset and compute [`Metrics`].
    ///
    /// Inference is data-parallel: batches are sharded across the engine
    /// pool (`dader_tensor::pool`), each batch runs the identical serial
    /// extract-and-predict path, and per-batch results are concatenated in
    /// batch order. Metrics are therefore identical at any thread count.
    pub fn evaluate(&self, dataset: &ErDataset, encoder: &PairEncoder, batch_size: usize) -> Metrics {
        let _sp = dader_obs::span!("infer.eval");
        let batches = encode_all(dataset, encoder, batch_size);
        let per_batch = pool::par_map(&batches, pool::current_threads(), |batch| {
            (self.predict(&self.extract(batch)), batch.labels.clone())
        });
        let mut preds = Vec::with_capacity(dataset.len());
        let mut labels = Vec::with_capacity(dataset.len());
        for (p, l) in per_batch {
            preds.extend(p);
            labels.extend(l);
        }
        Metrics::from_predictions(&preds, &labels)
    }

    /// Predict ad-hoc attribute-value pairs (the serving path): returns
    /// `(label, match probability)` per input pair, in input order,
    /// processing at most `batch_size` *unique* pairs per forward pass.
    ///
    /// Repeated work is collapsed before it reaches the extractor:
    /// identical `(a, b)` pairs are forwarded once and their result
    /// scattered back to every occurrence, and each distinct record is
    /// tokenized once even when it appears in many pairs (full-table
    /// matching probes one left record against many right candidates).
    /// Both folds are bitwise-exact — encoding is `serialize_entity`
    /// composed with [`PairEncoder::encode_serialized`], and per-row
    /// results are independent of batch composition (locked in by the
    /// serve batching test), so outputs are identical to the naive path.
    pub fn predict_pairs(
        &self,
        pairs: &[EntityPair],
        encoder: &PairEncoder,
        batch_size: usize,
    ) -> Vec<(usize, f32)> {
        assert!(batch_size > 0, "batch size must be positive");
        let seq = encoder.max_len();

        let mut first: HashMap<&EntityPair, usize> = HashMap::new();
        let mut unique: Vec<&EntityPair> = Vec::new();
        let slots: Vec<usize> = pairs
            .iter()
            .map(|p| {
                *first.entry(p).or_insert_with(|| {
                    unique.push(p);
                    unique.len() - 1
                })
            })
            .collect();

        let mut serialized: HashMap<&[(String, String)], Vec<usize>> = HashMap::new();
        for (a, b) in unique.iter().map(|p| (&p.0, &p.1)) {
            serialized
                .entry(a.as_slice())
                .or_insert_with(|| encoder.serialize_entity(a));
            serialized
                .entry(b.as_slice())
                .or_insert_with(|| encoder.serialize_entity(b));
        }

        let mut uniq_out = Vec::with_capacity(unique.len());
        for chunk in unique.chunks(batch_size) {
            let mut ids = Vec::with_capacity(chunk.len() * seq);
            let mut mask = Vec::with_capacity(chunk.len() * seq);
            for (a, b) in chunk.iter().map(|p| (&p.0, &p.1)) {
                let e = encoder.encode_serialized(&serialized[a.as_slice()], &serialized[b.as_slice()]);
                ids.extend(e.ids);
                mask.extend(e.mask);
            }
            let batch = EncodedBatch {
                ids,
                mask,
                batch: chunk.len(),
                seq,
                labels: vec![0; chunk.len()],
                indices: (0..chunk.len()).collect(),
            };
            // Model-level trace span (rid 0): one per forward chunk, with
            // the row count — the compute floor under per-request Infer
            // spans in a trace export.
            let traced = dader_obs::trace::enabled();
            let fwd_start = traced.then(std::time::Instant::now);
            let f = self.extract(&batch);
            let preds = self.predict(&f);
            let probs = self.match_probs(&f);
            if let Some(start) = fwd_start {
                dader_obs::trace::record(
                    0,
                    dader_obs::trace::Stage::Forward,
                    start,
                    std::time::Instant::now(),
                    chunk.len() as u64,
                    0,
                );
            }
            uniq_out.extend(preds.into_iter().zip(probs));
        }
        slots.into_iter().map(|s| uniq_out[s]).collect()
    }
}
