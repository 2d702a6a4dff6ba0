//! The trained `(F, M)` bundle used for prediction after adaptation.

use dader_datagen::ErDataset;
use dader_tensor::Param;
use dader_text::PairEncoder;

use crate::eval::Metrics;
use crate::extractor::FeatureExtractor;
use crate::infer::InferenceModel;
use crate::matcher::Matcher;

/// An owned ad-hoc entity pair: two attribute-value lists, as accepted by
/// [`InferenceModel::predict_pairs`].
pub type EntityPair = (Vec<(String, String)>, Vec<(String, String)>);

/// A feature extractor plus matcher, ready to predict on a target dataset.
pub struct DaderModel {
    /// The (adapted) feature extractor `F` (or `F'` for GAN methods).
    pub extractor: Box<dyn FeatureExtractor>,
    /// The matcher `M`.
    pub matcher: Matcher,
}

impl DaderModel {
    /// Every parameter of both components, extractor first — frozen trunk
    /// weights included, so a snapshot, checkpoint or [`InferenceModel`]
    /// built from this list holds the whole model.
    pub fn params(&self) -> Vec<Param> {
        let mut p = self.extractor.params();
        p.extend(self.matcher.params());
        p
    }

    /// Evaluate on a labeled dataset through the tape-free
    /// [`InferenceModel`].
    pub fn evaluate(&self, dataset: &ErDataset, encoder: &PairEncoder, batch_size: usize) -> Metrics {
        InferenceModel::from_model(self).evaluate(dataset, encoder, batch_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::encode_all;
    use crate::extractor::LmExtractor;
    use dader_datagen::DatasetId;
    use dader_nn::TransformerConfig;
    use dader_text::Vocab;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_model_and_data() -> (DaderModel, ErDataset, PairEncoder) {
        let d = DatasetId::FZ.generate_scaled(1, 40);
        let vocab = Vocab::build(
            dader_text::tokenize(&d.all_text()).iter().map(|s| s.as_str()),
            1,
            2000,
        );
        let encoder = PairEncoder::new(vocab.clone(), 24);
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = TransformerConfig {
            vocab: vocab.len(),
            dim: 16,
            layers: 1,
            heads: 2,
            ffn_dim: 32,
            max_len: 24,
        };
        let model = DaderModel {
            extractor: Box::new(LmExtractor::new(cfg, &mut rng)),
            matcher: Matcher::new(16, &mut rng),
        };
        (model, d, encoder)
    }

    #[test]
    fn evaluate_returns_sane_metrics() {
        let (m, d, enc) = tiny_model_and_data();
        let metrics = m.evaluate(&d, &enc, 8);
        assert_eq!(metrics.tp + metrics.fp + metrics.fn_ + metrics.tn, d.len());
        assert!((0.0..=100.0).contains(&metrics.f1()));
    }

    #[test]
    fn predict_pairs_matches_dataset_path() {
        let (m, d, enc) = tiny_model_and_data();
        let m = InferenceModel::from_model(&m);
        let pairs: Vec<EntityPair> = d
            .pairs
            .iter()
            .map(|p| (p.a.attrs.clone(), p.b.attrs.clone()))
            .collect();
        let ad_hoc = m.predict_pairs(&pairs, &enc, 7); // uneven final chunk
        let (mut preds, mut probs) = (Vec::new(), Vec::new());
        for batch in encode_all(&d, &enc, 8) {
            let f = m.extract(&batch);
            preds.extend(m.predict(&f));
            probs.extend(m.match_probs(&f));
        }
        assert_eq!(ad_hoc.len(), d.len());
        for (i, (label, prob)) in ad_hoc.iter().enumerate() {
            assert_eq!(*label, preds[i]);
            assert_eq!(*prob, probs[i]);
        }
    }

    #[test]
    fn predict_pairs_dedup_is_bitwise_invisible() {
        let (m, d, enc) = tiny_model_and_data();
        let m = InferenceModel::from_model(&m);
        let base: Vec<EntityPair> = d
            .pairs
            .iter()
            .take(6)
            .map(|p| (p.a.attrs.clone(), p.b.attrs.clone()))
            .collect();
        // Interleave duplicates so dedup changes the batch composition:
        // [p0, p1, p0, p2, p1, p3, ...]
        let mut with_dups = Vec::new();
        for (i, p) in base.iter().enumerate() {
            with_dups.push(p.clone());
            if i >= 1 {
                with_dups.push(base[i - 1].clone());
            }
        }
        let got = m.predict_pairs(&with_dups, &enc, 4);
        let want = m.predict_pairs(&base, &enc, 4);
        let mut k = 0;
        for (i, p) in base.iter().enumerate() {
            assert_eq!(with_dups[k], *p);
            assert_eq!(got[k].0, want[i].0);
            assert_eq!(got[k].1.to_bits(), want[i].1.to_bits(), "pair {i}");
            k += 1;
            if i >= 1 {
                assert_eq!(got[k].0, want[i - 1].0);
                assert_eq!(got[k].1.to_bits(), want[i - 1].1.to_bits(), "dup of pair {}", i - 1);
                k += 1;
            }
        }
        assert_eq!(k, with_dups.len());
    }

    #[test]
    fn params_cover_both_components() {
        let (m, _, _) = tiny_model_and_data();
        let n_ext = m.extractor.params().len();
        let n_match = m.matcher.params().len();
        assert_eq!(m.params().len(), n_ext + n_match);
    }
}
