//! Multi-source domain adaptation — the first open question of the
//! paper's Section 8: *"whether DA using multiple labeled source data can
//! further help ER? If so, shall we use them all or a subset of source
//! datasets?"*
//!
//! Two strategies are provided:
//!
//! * [`train_multi_source`] — use them all: round-robin matching loss over
//!   every source, with the aligner pulling the target toward the pooled
//!   source feature distribution (Algorithm 1 generalized to k sources);
//! * [`select_best_source`] — use a subset of one: rank candidate sources
//!   by pre-adaptation MMD to the target (Finding 2) and adapt from the
//!   closest.

use dader_datagen::ErDataset;
use dader_nn::{clip_grad_norm, Adam, Optimizer};
use dader_text::PairEncoder;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::aligner::{coral_loss, mmd_loss, AlignerKind};
use crate::batch::Batcher;
use crate::distance::dataset_mmd;
use crate::extractor::FeatureExtractor;
use crate::infer::InferenceModel;
use crate::matcher::Matcher;
use crate::model::DaderModel;
use crate::snapshot::Snapshot;
use crate::train::algorithm1::TrainOutcome;
use crate::train::config::{EpochStat, TrainConfig};

/// Train one model from several labeled sources at once. Supports the
/// parameter-free aligners (`NoDa`, `Mmd`, `KOrder`); the per-iteration
/// matching loss rotates through the sources while the alignment loss
/// compares the *current* source batch's features with the target batch's,
/// so over an epoch the target is pulled toward the pooled source mixture.
pub fn train_multi_source(
    sources: &[&ErDataset],
    target_train: &ErDataset,
    target_val: &ErDataset,
    encoder: &PairEncoder,
    extractor: Box<dyn FeatureExtractor>,
    kind: AlignerKind,
    cfg: &TrainConfig,
) -> TrainOutcome {
    assert!(!sources.is_empty(), "multi-source training needs at least one source");
    assert!(
        matches!(kind, AlignerKind::NoDa | AlignerKind::Mmd | AlignerKind::KOrder),
        "multi-source supports the parameter-free aligners, got {kind}"
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let matcher = Matcher::new(extractor.feat_dim(), &mut rng);
    let mut trainable = extractor.params();
    trainable.extend(matcher.params());
    let selected = trainable.clone();

    let mut opt = Adam::new(cfg.lr);
    let mut src_batchers: Vec<Batcher<'_>> = sources
        .iter()
        .map(|s| Batcher::new(s, encoder, cfg.batch_size, &mut rng))
        .collect();
    let mut tgt_batches = Batcher::new(target_train, encoder, cfg.batch_size, &mut rng);

    // Weight positives by the pooled class ratio across sources.
    let (pos, total): (usize, usize) = sources
        .iter()
        .fold((0, 0), |(p, t), s| (p + s.match_count(), t + s.len()));
    let pos_weight = cfg
        .pos_weight
        .unwrap_or_else(|| (((total - pos).max(1) as f32) / pos.max(1) as f32).clamp(1.0, 15.0));

    let iters = cfg
        .iters_per_epoch
        .unwrap_or_else(|| src_batchers.iter().map(|b| b.batches_per_epoch()).sum());

    let mut history = Vec::with_capacity(cfg.epochs);
    let mut best: Option<(usize, f32, Snapshot)> = None;
    let mut round = 0usize;

    for epoch in 1..=cfg.epochs {
        let mut sum_m = 0.0f32;
        let mut sum_a = 0.0f32;
        for _ in 0..iters {
            let src_idx = round % src_batchers.len();
            round += 1;
            let bs = src_batchers[src_idx].next_batch(&mut rng);
            let xs = extractor.extract(&bs);
            let loss_m = matcher.matching_loss_weighted(&xs, &bs.labels, pos_weight);

            let loss = match kind {
                AlignerKind::NoDa => loss_m,
                _ => {
                    let bt = tgt_batches.next_batch(&mut rng);
                    let xt = extractor.extract(&bt);
                    let loss_a = match kind {
                        AlignerKind::Mmd => mmd_loss(&xs, &xt),
                        AlignerKind::KOrder => coral_loss(&xs, &xt),
                        _ => unreachable!(),
                    }
                    .scale(cfg.beta);
                    sum_a += loss_a.item();
                    loss_m.add(&loss_a)
                }
            };
            sum_m += loss.item();
            let mut grads = loss.backward();
            if cfg.clip_norm > 0.0 {
                clip_grad_norm(&mut grads, &trainable, cfg.clip_norm);
            }
            opt.step(&trainable, &grads);
        }
        let val = InferenceModel::from_parts(extractor.as_ref(), &matcher)
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
        model: DaderModel { extractor, matcher },
        best_epoch,
        best_val_f1,
        history,
    }
}

/// Rank candidate sources by pre-adaptation MMD to the target and return
/// indices sorted closest-first — Finding 2 as a selection policy.
pub fn select_best_source(
    probe: &dyn FeatureExtractor,
    sources: &[&ErDataset],
    target: &ErDataset,
    encoder: &PairEncoder,
    sample: usize,
) -> Vec<(usize, f32)> {
    let mut scored: Vec<(usize, f32)> = sources
        .iter()
        .enumerate()
        .map(|(i, s)| (i, dataset_mmd(probe, s, target, encoder, sample)))
        .collect();
    scored.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
    scored
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extractor::LmExtractor;
    use crate::pretrain::{PretrainConfig, PretrainedLm};
    use dader_datagen::DatasetId;
    use dader_nn::TransformerConfig;

    fn lm(datasets: &[&ErDataset]) -> PretrainedLm {
        PretrainedLm::build(
            datasets,
            28,
            TransformerConfig {
                vocab: 0,
                dim: 16,
                layers: 1,
                heads: 2,
                ffn_dim: 32,
                max_len: 28,
            },
            &PretrainConfig {
                steps: 30,
                batch_size: 8,
                lr: 1e-3,
                mask_prob: 0.15,
                seed: 2,
            },
        )
    }

    #[test]
    fn multi_source_trains_and_selects() {
        let s1 = DatasetId::ZY.generate_scaled(1, 120);
        let s2 = DatasetId::B2.generate_scaled(1, 120);
        let tgt = DatasetId::FZ.generate_scaled(1, 120);
        let val = tgt.split(&[1, 9], 3)[0].clone();
        let lm = lm(&[&s1, &s2, &tgt]);
        let mut rng = StdRng::seed_from_u64(1);
        let ext = Box::new(LmExtractor::from_encoder(lm.instantiate(&mut rng)).freeze_trunk());
        let cfg = TrainConfig {
            epochs: 3,
            iters_per_epoch: Some(6),
            batch_size: 8,
            lr: 3e-3,
            beta: 0.5,
            ..TrainConfig::default()
        };
        let out = train_multi_source(&[&s1, &s2], &tgt, &val, &lm.encoder, ext, AlignerKind::Mmd, &cfg);
        assert_eq!(out.history.len(), 3);
        assert!(out.history.iter().any(|h| h.loss_a != 0.0));
        assert!((0.0..=100.0).contains(&out.best_val_f1));
    }

    #[test]
    fn source_selection_ranks_same_domain_first() {
        let s1 = DatasetId::ZY.generate_scaled(1, 120); // restaurant (same domain)
        let s2 = DatasetId::RI.generate_scaled(1, 120); // movies
        let tgt = DatasetId::FZ.generate_scaled(1, 120);
        let lm = lm(&[&s1, &s2, &tgt]);
        let mut rng = StdRng::seed_from_u64(5);
        let probe = LmExtractor::from_encoder(lm.instantiate(&mut rng));
        let ranking = select_best_source(&probe, &[&s1, &s2], &tgt, &lm.encoder, 80);
        assert_eq!(ranking[0].0, 0, "restaurant source should rank closest: {ranking:?}");
        assert!(ranking[0].1 <= ranking[1].1);
    }

    #[test]
    #[should_panic(expected = "at least one source")]
    fn empty_sources_rejected() {
        let tgt = DatasetId::FZ.generate_scaled(1, 60);
        let val = tgt.split(&[1, 9], 3)[0].clone();
        let lm = lm(&[&tgt]);
        let mut rng = StdRng::seed_from_u64(1);
        let ext = Box::new(LmExtractor::from_encoder(lm.instantiate(&mut rng)));
        train_multi_source(&[], &tgt, &val, &lm.encoder, ext, AlignerKind::NoDa, &TrainConfig::default());
    }

    #[test]
    #[should_panic(expected = "parameter-free")]
    fn gan_methods_rejected() {
        let tgt = DatasetId::FZ.generate_scaled(1, 60);
        let val = tgt.split(&[1, 9], 3)[0].clone();
        let lm = lm(&[&tgt]);
        let mut rng = StdRng::seed_from_u64(1);
        let ext = Box::new(LmExtractor::from_encoder(lm.instantiate(&mut rng)));
        train_multi_source(
            &[&tgt],
            &tgt,
            &val,
            &lm.encoder,
            ext,
            AlignerKind::InvGanKd,
            &TrainConfig::default(),
        );
    }
}
