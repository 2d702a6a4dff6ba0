//! Semi-supervised DA (Section 6.5.2): when a few target labels are
//! available, add a target matching loss to the adaptation, and select
//! which pairs to label with max-entropy active learning (200 per round in
//! the paper's Fig. 11 protocol).

use dader_datagen::{ErDataset, EntityPair};
use dader_nn::loss::prediction_entropy;
use dader_nn::{clip_grad_norm, Adam, Optimizer};
use dader_text::PairEncoder;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::aligner::{distillation_loss, AlignerKind, Discriminator};
use crate::batch::{encode_all, Batcher};
use crate::extractor::FeatureExtractor;
use crate::infer::InferenceModel;
use crate::matcher::Matcher;
use crate::model::DaderModel;
use crate::snapshot::Snapshot;
use crate::train::algorithm1::TrainOutcome;
use crate::train::config::{EpochStat, TrainConfig};

/// Rank pool indices by prediction entropy (descending) under the given
/// model — the max-entropy selection principle.
pub fn rank_by_entropy(
    model: &DaderModel,
    pool: &ErDataset,
    encoder: &PairEncoder,
    batch_size: usize,
) -> Vec<usize> {
    let mut entropies: Vec<(usize, f32)> = Vec::with_capacity(pool.len());
    for batch in encode_all(pool, encoder, batch_size) {
        let logits = model.matcher.logits(&model.extractor.extract(&batch));
        for (&idx, h) in batch.indices.iter().zip(prediction_entropy(&logits)) {
            entropies.push((idx, h));
        }
    }
    entropies.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    entropies.into_iter().map(|(i, _)| i).collect()
}

/// Select the `k` most uncertain pairs from the pool (simulating a human
/// labeling round).
pub fn select_for_labeling(
    model: &DaderModel,
    pool: &ErDataset,
    encoder: &PairEncoder,
    k: usize,
) -> Vec<EntityPair> {
    rank_by_entropy(model, pool, encoder, 32)
        .into_iter()
        .take(k)
        .map(|i| pool.pairs[i].clone())
        .collect()
}

/// Semi-supervised InvGAN+KD: Algorithm 2's adversarial adaptation with an
/// additional supervised matching loss on the labeled target subset,
/// training both `F'` and `M`.
pub fn train_semi_invgan_kd(
    source: &ErDataset,
    target_unlabeled: &ErDataset,
    target_labeled: &ErDataset,
    target_val: &ErDataset,
    encoder: &PairEncoder,
    extractor: Box<dyn FeatureExtractor>,
    cfg: &TrainConfig,
) -> TrainOutcome {
    assert!(!target_labeled.is_empty(), "semi-supervised needs target labels");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let matcher = Matcher::new(extractor.feat_dim(), &mut rng);

    // Step 1: source (+ labeled target) supervised training of (F, M).
    let pos_weight = crate::train::algorithm1::auto_pos_weight(source, cfg);
    let mut f_and_m = extractor.params();
    f_and_m.extend(matcher.params());
    let mut opt1 = Adam::new(cfg.lr);
    let mut src_batches = Batcher::new(source, encoder, cfg.batch_size, &mut rng);
    let mut lab_batches = Batcher::new(target_labeled, encoder, cfg.batch_size, &mut rng);
    let iters = cfg
        .iters_per_epoch
        .unwrap_or_else(|| src_batches.batches_per_epoch());
    for _ in 0..cfg.step1_epochs {
        for _ in 0..iters {
            let bs = src_batches.next_batch(&mut rng);
            let bl = lab_batches.next_batch(&mut rng);
            let loss = matcher
                .matching_loss_weighted(&extractor.extract(&bs), &bs.labels, pos_weight)
                .add(&matcher.matching_loss_weighted(&extractor.extract(&bl), &bl.labels, pos_weight));
            let mut grads = loss.backward();
            if cfg.clip_norm > 0.0 {
                clip_grad_norm(&mut grads, &f_and_m, cfg.clip_norm);
            }
            opt1.step(&f_and_m, &grads);
        }
    }

    // Step 2: adversarial adaptation with the labeled-target anchor.
    let f_prime = extractor.clone_detached();
    let disc = Discriminator::new(extractor.feat_dim(), &mut rng);
    let _fp_params = f_prime.params();
    let d_params = disc.params();
    let mut fp_and_m = f_prime.params();
    fp_and_m.extend(matcher.params());
    let mut opt_fp = Adam::new(cfg.lr);
    let mut opt_d = Adam::new(cfg.lr);
    let mut tgt_batches = Batcher::new(target_unlabeled, encoder, cfg.batch_size, &mut rng);

    let selected: Vec<dader_tensor::Param> = fp_and_m.clone();
    let mut history = Vec::with_capacity(cfg.epochs);
    let mut best: Option<(usize, f32, Snapshot)> = None;

    for epoch in 1..=cfg.epochs {
        let mut sum_a = 0.0;
        let mut sum_m = 0.0;
        for _ in 0..iters {
            let bs = src_batches.next_batch(&mut rng);
            let bt = tgt_batches.next_batch(&mut rng);
            let bl = lab_batches.next_batch(&mut rng);

            let real = f_prime.extract(&bs);
            let fake = f_prime.extract(&bt);
            let loss_a = disc.discriminator_loss(&real, &fake);
            sum_a += loss_a.item();
            let g = loss_a.backward();
            opt_d.step(&d_params, &g);

            // Generator + KD + supervised target loss.
            let fake = f_prime.extract(&bt);
            let teacher = matcher.logits(&extractor.extract(&bs)).detach();
            let student = matcher.logits(&f_prime.extract(&bs));
            let sup = matcher.matching_loss_weighted(&f_prime.extract(&bl), &bl.labels, pos_weight);
            let loss = disc
                .generator_loss(&fake)
                .add(&distillation_loss(&teacher, &student, cfg.kd_temperature))
                .add(&sup);
            sum_m += loss.item();
            let mut grads = loss.backward();
            if cfg.clip_norm > 0.0 {
                clip_grad_norm(&mut grads, &fp_and_m, cfg.clip_norm);
            }
            opt_fp.step(&fp_and_m, &grads);
        }

        let val = InferenceModel::from_parts(f_prime.as_ref(), &matcher)
            .evaluate(target_val, encoder, cfg.eval_batch)
            .f1();
        history.push(EpochStat {
            epoch,
            val_f1: val,
            source_f1: None,
            target_f1: None,
            loss_m: sum_m / iters as f32,
            loss_a: sum_a / iters as f32,
        });
        if best.as_ref().map(|(_, f, _)| val > *f).unwrap_or(true) {
            best = Some((epoch, val, Snapshot::capture(&selected)));
        }
    }

    let (best_epoch, best_val_f1, snap) = best.expect("at least one epoch");
    snap.restore(&selected);
    TrainOutcome {
        model: DaderModel {
            extractor: f_prime,
            matcher,
        },
        best_epoch,
        best_val_f1,
        history,
    }
}

/// One Fig.-11 style active-learning protocol step: given the current
/// model, move the `k` highest-entropy pool pairs into the labeled set.
pub fn active_learning_round(
    model: &DaderModel,
    pool: &mut ErDataset,
    labeled: &mut ErDataset,
    encoder: &PairEncoder,
    k: usize,
) {
    let ranked = rank_by_entropy(model, pool, encoder, 32);
    let chosen: std::collections::HashSet<usize> = ranked.into_iter().take(k).collect();
    let mut keep = Vec::with_capacity(pool.len().saturating_sub(k));
    for (i, p) in pool.pairs.drain(..).enumerate() {
        if chosen.contains(&i) {
            labeled.pairs.push(p);
        } else {
            keep.push(p);
        }
    }
    pool.pairs = keep;
}

// Marker so the module participates in the aligner-kind space.
#[allow(dead_code)]
const SEMI_BASE_METHOD: AlignerKind = AlignerKind::InvGanKd;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extractor::LmExtractor;
    use dader_datagen::DatasetId;
    use dader_nn::TransformerConfig;
    use dader_text::Vocab;

    fn setup() -> (ErDataset, ErDataset, PairEncoder) {
        let src = DatasetId::FZ.generate_scaled(5, 100);
        let tgt = DatasetId::ZY.generate_scaled(5, 100);
        let mut text = src.all_text();
        text.push_str(&tgt.all_text());
        let vocab = Vocab::build(
            dader_text::tokenize(&text).iter().map(|s| s.as_str()),
            1,
            4000,
        );
        (src, tgt, PairEncoder::new(vocab, 24))
    }

    fn tiny_extractor(vocab: usize) -> Box<dyn FeatureExtractor> {
        let mut rng = StdRng::seed_from_u64(3);
        Box::new(LmExtractor::new(
            TransformerConfig {
                vocab,
                dim: 16,
                layers: 1,
                heads: 2,
                ffn_dim: 32,
                max_len: 24,
            },
            &mut rng,
        ))
    }

    fn tiny_model(vocab: usize) -> DaderModel {
        let mut rng = StdRng::seed_from_u64(3);
        DaderModel {
            extractor: tiny_extractor(vocab),
            matcher: Matcher::new(16, &mut rng),
        }
    }

    #[test]
    fn entropy_ranking_covers_pool() {
        let (_, tgt, enc) = setup();
        let model = tiny_model(enc.vocab().len());
        let ranked = rank_by_entropy(&model, &tgt, &enc, 16);
        assert_eq!(ranked.len(), tgt.len());
        let set: std::collections::HashSet<usize> = ranked.iter().copied().collect();
        assert_eq!(set.len(), tgt.len());
    }

    #[test]
    fn active_round_moves_k_pairs() {
        let (_, tgt, enc) = setup();
        let model = tiny_model(enc.vocab().len());
        let mut pool = tgt.clone();
        let mut labeled = ErDataset {
            name: "labeled".into(),
            domain: pool.domain.clone(),
            pairs: Vec::new(),
        };
        let before = pool.len();
        active_learning_round(&model, &mut pool, &mut labeled, &enc, 20);
        assert_eq!(labeled.len(), 20);
        assert_eq!(pool.len(), before - 20);
    }

    #[test]
    fn semi_training_runs_and_selects() {
        let (src, tgt, enc) = setup();
        let splits = tgt.split(&[2, 1, 7], 0);
        let (labeled, val, unlabeled) = (&splits[0], &splits[1], &splits[2]);
        let cfg = TrainConfig {
            epochs: 2,
            step1_epochs: 1,
            iters_per_epoch: Some(3),
            batch_size: 8,
            lr: 1e-3,
            ..TrainConfig::default()
        };
        let out = train_semi_invgan_kd(
            &src,
            unlabeled,
            labeled,
            val,
            &enc,
            tiny_extractor(enc.vocab().len()),
            &cfg,
        );
        assert_eq!(out.history.len(), 2);
        assert!((0.0..=100.0).contains(&out.best_val_f1));
    }

    #[test]
    #[should_panic(expected = "needs target labels")]
    fn semi_requires_labels() {
        let (src, tgt, enc) = setup();
        let empty = ErDataset {
            name: "empty".into(),
            domain: "x".into(),
            pairs: Vec::new(),
        };
        let cfg = TrainConfig::default();
        train_semi_invgan_kd(
            &src,
            &tgt,
            &empty,
            &tgt,
            &enc,
            tiny_extractor(enc.vocab().len()),
            &cfg,
        );
    }
}
