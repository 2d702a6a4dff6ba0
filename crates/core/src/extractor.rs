//! Feature Extractor `F` — the paper's design choices (I) bidirectional
//! RNN and (II) pre-trained language model, behind one trait.

use dader_nn::{BiGru, Embedding, Linear, TransformerConfig, TransformerEncoder};
use dader_tensor::{Param, Tensor};
use rand::rngs::StdRng;

use crate::batch::EncodedBatch;

/// Split a batch's attention mask into per-entity segment masks: segment A
/// covers tokens after `[CLS]` up to the first `[SEP]`, segment B the
/// tokens after it (up to the final `[SEP]`/padding).
pub fn segment_masks(batch: &EncodedBatch) -> (Vec<f32>, Vec<f32>) {
    let (b, s) = (batch.batch, batch.seq);
    let mut mask_a = vec![0.0f32; b * s];
    let mut mask_b = vec![0.0f32; b * s];
    for bi in 0..b {
        let row = &batch.ids[bi * s..(bi + 1) * s];
        let mrow = &batch.mask[bi * s..(bi + 1) * s];
        let mut seen_sep = 0u8;
        for (si, (&id, &m)) in row.iter().zip(mrow).enumerate() {
            if m == 0.0 {
                break;
            }
            if id == dader_text::token::SEP {
                seen_sep += 1;
                continue;
            }
            if id == dader_text::token::CLS {
                continue;
            }
            match seen_sep {
                0 => mask_a[bi * s + si] = 1.0,
                1 => mask_b[bi * s + si] = 1.0,
                _ => {}
            }
        }
    }
    (mask_a, mask_b)
}

/// Elementwise absolute value built from ReLUs (keeps gradients exact away
/// from zero).
fn abs_elem(x: &Tensor) -> Tensor {
    x.relu().add(&x.neg().relu())
}

/// Number of classic token-similarity features per pair.
pub const OVERLAP_FEATURES: usize = 4;

/// Classic similarity-function signals between the two entity segments —
/// Jaccard, both containments, and log length ratio — the same class of
/// features Magellan and DeepMatcher feed their classifiers. Computed on
/// token ids (constant w.r.t. the graph); the trainable head and matcher
/// learn their per-domain calibration, which is exactly what shifts across
/// domains (Figure 1's misplaced decision boundary).
pub fn overlap_features(batch: &EncodedBatch) -> Tensor {
    use std::collections::HashSet;
    let (b, s) = (batch.batch, batch.seq);
    let (mask_a, mask_b) = segment_masks(batch);
    let mut data = Vec::with_capacity(b * OVERLAP_FEATURES);
    for bi in 0..b {
        let seg = |mask: &[f32]| -> HashSet<usize> {
            (0..s)
                .filter(|&si| mask[bi * s + si] != 0.0)
                .map(|si| batch.ids[bi * s + si])
                .collect()
        };
        let ta = seg(&mask_a);
        let tb = seg(&mask_b);
        let inter = ta.intersection(&tb).count() as f32;
        let union = ta.union(&tb).count().max(1) as f32;
        let la = ta.len().max(1) as f32;
        let lb = tb.len().max(1) as f32;
        data.push(inter / union);
        data.push(inter / la);
        data.push(inter / lb);
        data.push((la / lb).ln());
    }
    Tensor::from_vec(data, (b, OVERLAP_FEATURES))
}

/// The input of the LM extractor's similarity-structured head, one row
/// per pair: `[summary; |m_a - m_b|; m_a ⊙ m_b; overlap]`. The head itself
/// is `feature = tanh(W · input)` ([`LmExtractor::head`]).
///
/// Real BERT learns the cross-entity comparison inside its 12 layers; at
/// our scale that function does not emerge from a few hundred labeled
/// pairs, so — exactly like DeepMatcher's attribute-similarity design —
/// the comparison operator is built into the head while the encoder still
/// learns the (domain-dependent) token representations underneath. See
/// DESIGN.md §2.
fn similarity_input(summary: &Tensor, ma: &Tensor, mb: &Tensor, overlap: &Tensor) -> Tensor {
    // L2-normalize the segment poolings: embedding tables live at
    // N(0, 0.02) scale, far too small to drive the head's logits.
    let ma = ma.l2_normalize_rows(1e-8);
    let mb = mb.l2_normalize_rows(1e-8);
    let diff = abs_elem(&ma.sub(&mb));
    let prod = ma.mul(&mb);
    summary
        .concat_cols(&diff)
        .concat_cols(&prod)
        .concat_cols(overlap)
}

/// Reconstruction recipe for a feature extractor: the architecture kind
/// plus every dimension needed to rebuild it with identical parameter
/// names and shapes, so persisted weights
/// ([`crate::artifact::ModelArtifact`]) can be restored into a freshly
/// built instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExtractorSpec {
    /// An [`LmExtractor`] with its transformer configuration.
    Lm(TransformerConfig),
    /// An [`RnnExtractor`] and its dimensions.
    Rnn {
        /// Vocabulary size of the embedding table.
        vocab: usize,
        /// Token-embedding width.
        embed_dim: usize,
        /// GRU hidden size (per direction).
        hidden: usize,
        /// Output feature dimension `d`.
        feat_dim: usize,
    },
}

impl ExtractorSpec {
    /// The output feature dimension `d` of the described extractor.
    pub fn feat_dim(&self) -> usize {
        match self {
            ExtractorSpec::Lm(cfg) => cfg.dim,
            ExtractorSpec::Rnn { feat_dim, .. } => *feat_dim,
        }
    }

    /// The vocabulary size the described extractor embeds.
    pub fn vocab(&self) -> usize {
        match self {
            ExtractorSpec::Lm(cfg) => cfg.vocab,
            ExtractorSpec::Rnn { vocab, .. } => *vocab,
        }
    }

    /// Build a fresh extractor with this architecture. Weights are
    /// randomly initialized from `rng`; callers restoring a checkpoint
    /// overwrite every parameter afterwards.
    pub fn build(&self, rng: &mut StdRng) -> Box<dyn FeatureExtractor> {
        match self {
            ExtractorSpec::Lm(cfg) => Box::new(LmExtractor::new(*cfg, rng)),
            ExtractorSpec::Rnn {
                vocab,
                embed_dim,
                hidden,
                feat_dim,
            } => Box::new(RnnExtractor::new(*vocab, *embed_dim, *hidden, *feat_dim, rng)),
        }
    }
}

/// A feature extractor `F(a, b) -> x ∈ R^d` over encoded entity pairs.
///
/// `Send + Sync` so a trained extractor can be shared by reference across
/// the engine pool's workers during data-parallel evaluation (extraction
/// is `&self`; parameters are already lock-protected).
pub trait FeatureExtractor: Send + Sync {
    /// Extract features for a batch: `(B, feat_dim)`.
    fn extract(&self, batch: &EncodedBatch) -> Tensor;

    /// Output feature dimension `d`.
    fn feat_dim(&self) -> usize;

    /// Every parameter, frozen trunk weights included — not only the
    /// trainable ones. Snapshots, checkpoints, artifacts and
    /// [`crate::InferenceModel::from_parts`] rely on the full list.
    fn params(&self) -> Vec<Param>;

    /// Deep copy with fresh parameter ids (InvGAN's `F' <- F` clone).
    fn clone_detached(&self) -> Box<dyn FeatureExtractor>;

    /// Human-readable kind, for reports.
    fn kind(&self) -> &'static str;

    /// The reconstruction recipe for this extractor (persisted into model
    /// artifacts; see [`ExtractorSpec`]).
    fn spec(&self) -> ExtractorSpec;

    /// This extractor split at its head, when nothing beneath the head
    /// trains: then [`LmExtractor::pre_head`] is a fixed function of the
    /// encoded pair and training may compute it once per pair
    /// (`train::features`). `None` — the default — for any extractor
    /// with a trainable parameter under its head.
    fn frozen_trunk(&self) -> Option<&LmExtractor> {
        None
    }
}

/// Design choice (II): a BERT-style transformer encoder with the
/// similarity-structured head over the `[CLS]` summary and the two
/// entity-segment poolings.
pub struct LmExtractor {
    encoder: TransformerEncoder,
    head: Linear,
}

impl LmExtractor {
    /// Build with the given configuration (randomly initialized; call
    /// [`crate::pretrain::pretrain_mlm`] for the BERT-substitute
    /// transferable initialization).
    pub fn new(config: TransformerConfig, rng: &mut StdRng) -> LmExtractor {
        let encoder = TransformerEncoder::new("lm", config, rng);
        let head = Linear::new("lm.head", 3 * config.dim + OVERLAP_FEATURES, config.dim, rng);
        LmExtractor { encoder, head }
    }

    /// Wrap an existing encoder (e.g. a pre-trained one); the head is
    /// freshly initialized from the encoder-derived seed.
    pub fn from_encoder(encoder: TransformerEncoder) -> LmExtractor {
        use rand::SeedableRng;
        let dim = encoder.config().dim;
        let mut rng = StdRng::seed_from_u64(0xF00D);
        let head = Linear::new("lm.head", 3 * dim + OVERLAP_FEATURES, dim, &mut rng);
        LmExtractor { encoder, head }
    }

    /// The underlying transformer.
    pub fn encoder(&self) -> &TransformerEncoder {
        &self.encoder
    }

    /// Freeze the pre-trained transformer trunk so only the similarity
    /// head (and the matcher / aligners above it) trains — the
    /// adapter-style fine-tuning this reproduction uses by default for the
    /// LM extractor (DESIGN.md §2). Returns `self` for chaining.
    pub fn freeze_trunk(self) -> LmExtractor {
        for p in self.encoder.params() {
            p.set_trainable(false);
        }
        self
    }

    /// Unfreeze the trunk (for the `ablate_pretrain` / full-fine-tune
    /// ablations).
    pub fn unfreeze_trunk(&self) {
        for p in self.encoder.params() {
            p.set_trainable(true);
        }
    }

    /// Everything beneath the head — the transformer's `[CLS]` summary,
    /// the two segment poolings and the overlap statistics — as the
    /// head's `(B, 3·dim + OVERLAP_FEATURES)` input. Rows are independent
    /// of each other, so a pair's row is the same in any batch.
    pub fn pre_head(&self, batch: &EncodedBatch) -> Tensor {
        let _sp = dader_obs::span!("extract.lm");
        let cls = self
            .encoder
            .encode_cls(&batch.ids, batch.batch, batch.seq, &batch.mask);
        // Segment poolings use the position-free layer-0 embeddings, so
        // the |m_a − m_b| comparison sees bags of tokens rather than
        // position-dominated contextual states.
        let emb = self
            .encoder
            .token_embeddings(&batch.ids, batch.batch, batch.seq);
        let (mask_a, mask_b) = segment_masks(batch);
        let ma = emb.mean_pool_seq(&mask_a);
        let mb = emb.mean_pool_seq(&mask_b);
        similarity_input(&cls, &ma, &mb, &overlap_features(batch))
    }

    /// The trainable similarity head over [`LmExtractor::pre_head`]'s
    /// rows: `tanh(W · pre)`.
    pub fn head(&self, pre: &Tensor) -> Tensor {
        self.head.forward(pre).tanh_act()
    }
}

impl FeatureExtractor for LmExtractor {
    fn extract(&self, batch: &EncodedBatch) -> Tensor {
        self.head(&self.pre_head(batch))
    }

    fn feat_dim(&self) -> usize {
        self.encoder.config().dim
    }

    fn params(&self) -> Vec<Param> {
        let mut p = self.encoder.params();
        p.extend(self.head.params());
        p
    }

    fn clone_detached(&self) -> Box<dyn FeatureExtractor> {
        Box::new(LmExtractor {
            encoder: self.encoder.clone_detached(),
            head: self.head.clone_detached(),
        })
    }

    fn kind(&self) -> &'static str {
        "LM"
    }

    fn spec(&self) -> ExtractorSpec {
        ExtractorSpec::Lm(*self.encoder.config())
    }

    fn frozen_trunk(&self) -> Option<&LmExtractor> {
        let frozen = self.encoder.params().iter().all(|p| !p.is_trainable());
        frozen.then_some(self)
    }
}

/// Design choice (I): token embeddings + bidirectional GRU + masked mean
/// pooling + linear head — the DeepMatcher-style RNN extractor, trained
/// from scratch (a single universal RNN over the serialized pair, after
/// Kasai et al.'s DTAL, since source and target may have different
/// attributes).
pub struct RnnExtractor {
    embedding: Embedding,
    rnn: BiGru,
    head: Linear,
    feat_dim: usize,
}

impl RnnExtractor {
    /// Build a new RNN extractor.
    ///
    /// Unlike [`LmExtractor`], the RNN head gets **no** fixed
    /// token-overlap statistics: DeepMatcher's similarity signals are
    /// *learned* (attribute-embedding comparisons), so every comparison
    /// here flows through the trainable embeddings and GRU states. This is
    /// what makes the RNN source-bound and gives Finding 5 its contrast —
    /// its learned similarity geometry does not transfer the way the
    /// frozen pre-trained LM components do.
    pub fn new(vocab: usize, embed_dim: usize, hidden: usize, feat_dim: usize, rng: &mut StdRng) -> RnnExtractor {
        RnnExtractor {
            embedding: Embedding::new("rnn.embed", vocab, embed_dim, rng),
            rnn: BiGru::new("rnn.gru", embed_dim, hidden, rng),
            head: Linear::new("rnn.head", 3 * 2 * hidden, feat_dim, rng),
            feat_dim,
        }
    }
}

impl FeatureExtractor for RnnExtractor {
    fn extract(&self, batch: &EncodedBatch) -> Tensor {
        let _sp = dader_obs::span!("extract.rnn");
        let emb = self
            .embedding
            .forward_batch(&batch.ids, batch.batch, batch.seq);
        let states = self.rnn.forward(&emb, &batch.mask);
        let pooled = states.mean_pool_seq(&batch.mask);
        let (mask_a, mask_b) = segment_masks(batch);
        let ma = states.mean_pool_seq(&mask_a);
        let mb = states.mean_pool_seq(&mask_b);
        // L2-normalized |diff| / product comparison over the learned
        // states only (see the constructor note).
        let ma = ma.l2_normalize_rows(1e-8);
        let mb = mb.l2_normalize_rows(1e-8);
        let diff = ma.sub(&mb).relu().add(&ma.sub(&mb).neg().relu());
        let prod = ma.mul(&mb);
        self.head
            .forward(&pooled.concat_cols(&diff).concat_cols(&prod))
            .tanh_act()
    }

    fn feat_dim(&self) -> usize {
        self.feat_dim
    }

    fn params(&self) -> Vec<Param> {
        let mut p = self.embedding.params();
        p.extend(self.rnn.params());
        p.extend(self.head.params());
        p
    }

    fn clone_detached(&self) -> Box<dyn FeatureExtractor> {
        Box::new(RnnExtractor {
            embedding: self.embedding.clone_detached(),
            rnn: self.rnn.clone_detached(),
            head: self.head.clone_detached(),
            feat_dim: self.feat_dim,
        })
    }

    fn kind(&self) -> &'static str {
        "RNN"
    }

    fn spec(&self) -> ExtractorSpec {
        ExtractorSpec::Rnn {
            vocab: self.embedding.vocab(),
            embed_dim: self.embedding.dim(),
            hidden: self.rnn.out_dim() / 2,
            feat_dim: self.feat_dim,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn batch() -> EncodedBatch {
        EncodedBatch {
            ids: vec![2, 10, 11, 3, 2, 12, 13, 3],
            mask: vec![1.0; 8],
            batch: 2,
            seq: 4,
            labels: vec![1, 0],
            indices: vec![0, 1],
        }
    }

    fn lm() -> LmExtractor {
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = TransformerConfig {
            vocab: 32,
            dim: 16,
            layers: 1,
            heads: 2,
            ffn_dim: 32,
            max_len: 4,
        };
        LmExtractor::new(cfg, &mut rng)
    }

    #[test]
    fn lm_extract_shape() {
        let e = lm();
        let x = e.extract(&batch());
        assert_eq!(x.shape().dims(), &[2, 16]);
        assert_eq!(e.feat_dim(), 16);
        assert_eq!(e.kind(), "LM");
    }

    #[test]
    fn rnn_extract_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let e = RnnExtractor::new(32, 8, 6, 10, &mut rng);
        let x = e.extract(&batch());
        assert_eq!(x.shape().dims(), &[2, 10]);
        assert_eq!(e.feat_dim(), 10);
        assert_eq!(e.kind(), "RNN");
        // tanh head bounds features
        assert!(x.to_vec().iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn clone_detached_has_fresh_ids_but_same_output() {
        let e = lm();
        let c = e.clone_detached();
        let b = batch();
        assert_eq!(e.extract(&b).to_vec(), c.extract(&b).to_vec());
        let ids_e: std::collections::HashSet<u64> = e.params().iter().map(|p| p.id()).collect();
        let ids_c: std::collections::HashSet<u64> = c.params().iter().map(|p| p.id()).collect();
        assert!(ids_e.is_disjoint(&ids_c));
    }

    #[test]
    fn specs_rebuild_matching_architectures() {
        let e = lm();
        let rebuilt = e.spec().build(&mut StdRng::seed_from_u64(7));
        let (a, b) = (e.params(), rebuilt.params());
        assert_eq!(a.len(), b.len());
        for (p, q) in a.iter().zip(&b) {
            assert_eq!(p.name(), q.name());
            assert_eq!(p.shape().dims(), q.shape().dims());
        }

        let mut rng = StdRng::seed_from_u64(1);
        let r = RnnExtractor::new(32, 8, 6, 10, &mut rng);
        let spec = r.spec();
        assert_eq!(
            spec,
            ExtractorSpec::Rnn { vocab: 32, embed_dim: 8, hidden: 6, feat_dim: 10 }
        );
        assert_eq!(spec.feat_dim(), 10);
        assert_eq!(spec.vocab(), 32);
        let rebuilt = spec.build(&mut rng);
        let (a, b) = (r.params(), rebuilt.params());
        assert_eq!(a.len(), b.len());
        for (p, q) in a.iter().zip(&b) {
            assert_eq!(p.name(), q.name());
            assert_eq!(p.shape().dims(), q.shape().dims());
        }
    }

    #[test]
    fn gradients_flow_through_both_extractors() {
        let b = batch();
        let e = lm();
        let g = e.extract(&b).square().sum_all().backward();
        assert!(e.params().iter().all(|p| g.get_id(p.id()).is_some()));

        let mut rng = StdRng::seed_from_u64(1);
        let r = RnnExtractor::new(32, 8, 6, 10, &mut rng);
        let g = r.extract(&b).square().sum_all().backward();
        assert!(r.params().iter().all(|p| g.get_id(p.id()).is_some()));
    }
}
