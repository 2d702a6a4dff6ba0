//! Algorithm 1: the unified training template for discrepancy-based (MMD,
//! K-order), GRL-based and reconstruction-based (ED) feature aligners —
//! plus the NoDA baseline (β = 0, no aligner).
//!
//! Per iteration it samples one labeled source minibatch and one unlabeled
//! target minibatch, computes `L_M` (Eq. 4) and `L_A` (per method), and
//! back-propagates `L_M + β·L_A`. The GRL case threads the features
//! through a gradient-reversal node, so the very same combined backward
//! realizes Procedure 2's sign flip. Per epoch the target-validation F1 is
//! recorded and the best `(F, M)` snapshot is kept (Section 6.1's
//! evaluation protocol).

use dader_datagen::ErDataset;
use dader_nn::{clip_grad_norm, Adam, Optimizer};
use dader_tensor::Tensor;
use dader_text::PairEncoder;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::aligner::{coral_loss, mmd_loss, AlignerKind, EdAligner, GrlAligner};
use crate::batch::Batcher;
use crate::extractor::FeatureExtractor;
use crate::matcher::Matcher;
use crate::model::DaderModel;
use crate::snapshot::Snapshot;
use crate::train::config::{mean_over, EpochStat, TrainConfig};
use crate::train::features::PairFeatures;
use crate::train::health::HealthGuard;
use crate::train::resume::TrainCheckpoint;
use crate::train::telemetry::{EpochReport, RunTelemetry};

/// A domain-adaptation task: labeled source, unlabeled target, and the
/// evaluation splits of the paper's protocol.
pub struct DaTask<'a> {
    /// Labeled source dataset `(D^S, Y^S)`.
    pub source: &'a ErDataset,
    /// Unlabeled target dataset `D^T` (labels present but never used for
    /// training).
    pub target_train: &'a ErDataset,
    /// Small labeled target validation split (1/10) for snapshot selection
    /// and hyper-parameter choice.
    pub target_val: &'a ErDataset,
    /// Source test split, for the Fig. 8 source-F1 curves.
    pub source_test: Option<&'a ErDataset>,
    /// Target test split, for per-epoch diagnostics (never used for
    /// selection).
    pub target_test: Option<&'a ErDataset>,
    /// The shared pair encoder (vocabulary + max length).
    pub encoder: &'a PairEncoder,
}

/// Result of one training run.
pub struct TrainOutcome {
    /// The best-validation `(F, M)` model.
    pub model: DaderModel,
    /// Epoch whose snapshot was selected (1-based).
    pub best_epoch: usize,
    /// Its validation F1.
    pub best_val_f1: f32,
    /// Per-epoch statistics.
    pub history: Vec<EpochStat>,
}

/// Training progress `p ∈ [0, 1]` at optimization step `step` (0-based)
/// out of `total_steps`, for the GRL λ warm-up. Advances *per iteration*,
/// not per epoch — Ganin & Lempitsky's schedule; with epoch granularity a
/// short run spends its first epoch at a large λ and the adversarial
/// gradient derails the matcher before it learns anything.
pub fn grl_progress(step: usize, total_steps: usize) -> f32 {
    if total_steps <= 1 {
        return 1.0;
    }
    step as f32 / (total_steps - 1) as f32
}

/// Ganin & Lempitsky's reversal-strength ramp: `λ(p) = 2/(1+e^(−10p)) − 1`,
/// rising from 0 at `p = 0` to ~1 at `p = 1`.
pub fn grl_lambda(p: f32) -> f32 {
    2.0 / (1.0 + (-10.0 * p).exp()) - 1.0
}

/// Class weight for the matching loss: inverse positive frequency,
/// clamped so tiny datasets don't explode the weight.
pub(crate) fn auto_pos_weight(d: &ErDataset, cfg: &TrainConfig) -> f32 {
    cfg.pos_weight.unwrap_or_else(|| {
        let pos = d.match_count().max(1) as f32;
        let neg = (d.len() - d.match_count()).max(1) as f32;
        (neg / pos).clamp(1.0, 15.0)
    })
}

/// Train with Algorithm 1 using the given aligner kind.
///
/// Panics if `kind` is a GAN-family method (those use
/// [`crate::train::algorithm2::train_algorithm2`]).
pub fn train_algorithm1(
    task: &DaTask<'_>,
    extractor: Box<dyn FeatureExtractor>,
    kind: AlignerKind,
    cfg: &TrainConfig,
) -> TrainOutcome {
    assert!(
        !kind.uses_algorithm2(),
        "{kind} is GAN-based; use train_algorithm2"
    );
    cfg.parallel.apply();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let matcher = Matcher::new(extractor.feat_dim(), &mut rng);

    let grl = match kind {
        AlignerKind::Grl => Some(GrlAligner::new(extractor.feat_dim(), &mut rng)),
        _ => None,
    };
    let ed = match kind {
        AlignerKind::Ed => Some(EdAligner::new(
            task.encoder.vocab().len(),
            extractor.feat_dim(),
            cfg.ed_recon_len,
            &mut rng,
        )),
        _ => None,
    };

    let mut trainable = extractor.params();
    trainable.extend(matcher.params());
    if let Some(g) = &grl {
        trainable.extend(g.params());
    }
    if let Some(e) = &ed {
        trainable.extend(e.params());
    }
    let selected = {
        // Snapshot selection covers (F, M) only — aligners are discarded
        // after training.
        let mut p = extractor.params();
        p.extend(matcher.params());
        p
    };

    let mut opt = Adam::new(cfg.lr);
    let features = PairFeatures::new(task, cfg.eval_batch);
    let mut src_batches = Batcher::new(task.source, task.encoder, cfg.batch_size, &mut rng);
    let needs_target = kind != AlignerKind::NoDa;
    let mut tgt_batches = if needs_target {
        Some(Batcher::new(
            task.target_train,
            task.encoder,
            cfg.batch_size,
            &mut rng,
        ))
    } else {
        None
    };

    let iters = cfg
        .iters_per_epoch
        .unwrap_or_else(|| src_batches.batches_per_epoch());

    // Ties a resume checkpoint to the exact trajectory: every field here
    // changes the training stream, so restoring across a mismatch would
    // silently produce a third trajectory that matches neither run.
    let fingerprint = format!(
        "alg1|{kind}|seed={}|epochs={}|iters={iters}|batch={}|lr={}|beta={}|clip={}|posw={:?}|src={}|tgt={}",
        cfg.seed,
        cfg.epochs,
        cfg.batch_size,
        cfg.lr,
        cfg.beta,
        cfg.clip_norm,
        cfg.pos_weight,
        task.source.len(),
        task.target_train.len()
    );

    let mut history = Vec::with_capacity(cfg.epochs);
    let mut best: Option<(usize, f32, Snapshot)> = None;
    let pos_weight = auto_pos_weight(task.source, cfg);
    let mut telemetry = RunTelemetry::new(cfg);
    let mut guard = HealthGuard::new(cfg.health);

    // Resume: all constructors above consumed the same seeded RNG draws
    // as the interrupted run, so overwriting every piece of mutable state
    // from the checkpoint continues that run's exact stream.
    let mut start_epoch = 1usize;
    if let Some(path) = &cfg.resume {
        let ck = TrainCheckpoint::load_file(path).unwrap_or_else(|e| {
            panic!("failed to load training checkpoint {}: {e}", path.display())
        });
        ck.expect_fingerprint(&fingerprint)
            .unwrap_or_else(|e| panic!("cannot resume from {}: {e}", path.display()));
        assert_eq!(ck.phase, "train", "checkpoint phase {:?} is not Algorithm 1's", ck.phase);
        Snapshot::from_entries(ck.groups[0].clone()).restore(&trainable);
        opt.restore_state(&trainable, &ck.optimizers[0])
            .unwrap_or_else(|e| panic!("cannot resume optimizer state: {e}"));
        let (order, cursor) = ck.batchers[0].clone();
        src_batches
            .restore_state(order, cursor)
            .unwrap_or_else(|e| panic!("cannot resume source batcher: {e}"));
        if let Some(t) = tgt_batches.as_mut() {
            let (order, cursor) = ck.batchers[1].clone();
            t.restore_state(order, cursor)
                .unwrap_or_else(|e| panic!("cannot resume target batcher: {e}"));
        }
        rng = StdRng::from_state(ck.rng);
        best = ck
            .best
            .map(|(e, f, entries)| (e, f, Snapshot::from_entries(entries)));
        history = ck.history;
        guard.restore(ck.health_retries);
        start_epoch = ck.completed_epochs + 1;
    }

    let total_steps = cfg.epochs * iters;
    'epochs: for epoch in start_epoch..=cfg.epochs {
        // Epoch-start state: the health guard's rollback target.
        let rollback = (
            Snapshot::capture(&trainable),
            opt.export_state(&trainable),
            rng.state(),
            src_batches.state(),
            tgt_batches.as_ref().map(|b| b.state()),
        );
        let (sum_m, sum_a) = 'attempt: loop {
            let mut sum_m = 0.0f32;
            let mut sum_a = 0.0f32;
            for it in 0..iters {
                // GRL lambda warm-up (Ganin & Lempitsky): ramp the reversal
                // strength from 0 to β over *iterations* so early noisy
                // features don't derail the matcher.
                let step = (epoch - 1) * iters + it;
                let grl_beta = cfg.beta * grl_lambda(grl_progress(step, total_steps));
                let bs = features.sample(&mut src_batches, &mut rng);
                let xs = features.extract(extractor.as_ref(), &bs);
                let loss_m = matcher.matching_loss_weighted(&xs, &bs.labels(), pos_weight);

                let loss_a: Tensor = match kind {
                    AlignerKind::NoDa => Tensor::scalar(0.0),
                    AlignerKind::Mmd | AlignerKind::KOrder | AlignerKind::Grl | AlignerKind::Ed => {
                        let bt = features
                            .sample(tgt_batches.as_mut().expect("target batcher"), &mut rng);
                        let xt = features.extract(extractor.as_ref(), &bt);
                        match kind {
                            AlignerKind::Mmd => mmd_loss(&xs, &xt).scale(cfg.beta),
                            AlignerKind::KOrder => coral_loss(&xs, &xt).scale(cfg.beta),
                            AlignerKind::Grl => grl
                                .as_ref()
                                .expect("grl aligner")
                                .domain_loss(&xs, &xt, grl_beta),
                            AlignerKind::Ed => {
                                let e = ed.as_ref().expect("ed aligner");
                                e.reconstruction_loss(&xs, bs.encoded())
                                    .add(&e.reconstruction_loss(&xt, bt.encoded()))
                                    .scale(cfg.beta)
                            }
                            _ => unreachable!(),
                        }
                    }
                    _ => unreachable!("GAN methods rejected above"),
                };

                // Health check before the optimizer step: a non-finite or
                // exploded loss means poisoned gradients, so the epoch is
                // rolled back and retried at a backed-off rate — or, with
                // the retry budget spent, the run stops with its best
                // snapshot so far.
                let lm = dader_obs::fault::corrupt_f32("train.loss", loss_m.item());
                let la = loss_a.item();
                if let Some(bad) = guard.first_unhealthy(&[lm, la]) {
                    match guard.back_off() {
                        Some(scale) => {
                            let new_lr = cfg.lr * scale;
                            rollback.0.restore(&trainable);
                            opt.restore_state(&trainable, &rollback.1)
                                .expect("rollback optimizer state");
                            opt.set_lr(new_lr);
                            rng = StdRng::from_state(rollback.2);
                            src_batches
                                .restore_state(rollback.3 .0.clone(), rollback.3 .1)
                                .expect("rollback source batcher");
                            if let (Some(b), Some(st)) = (tgt_batches.as_mut(), rollback.4.as_ref())
                            {
                                b.restore_state(st.0.clone(), st.1)
                                    .expect("rollback target batcher");
                            }
                            telemetry.health_event("train", epoch, "rollback", bad, new_lr, guard.retries());
                            continue 'attempt;
                        }
                        None => {
                            telemetry.health_event("train", epoch, "abort", bad, opt.lr(), guard.retries());
                            break 'epochs;
                        }
                    }
                }

                sum_m += lm;
                sum_a += la;
                let total = loss_m.add(&loss_a);
                let mut grads = total.backward();
                if cfg.clip_norm > 0.0 {
                    clip_grad_norm(&mut grads, &trainable, cfg.clip_norm);
                }
                opt.step(&trainable, &grads);
            }
            break 'attempt (sum_m, sum_a);
        };

        let f1_on = |d| features.evaluate(extractor.as_ref(), &matcher, d).f1();
        let val = f1_on(task.target_val);
        let source_f1 = task.source_test.filter(|_| cfg.track_source_f1).map(f1_on);
        let target_f1 = task.target_test.filter(|_| cfg.track_target_f1).map(f1_on);
        history.push(EpochStat {
            epoch,
            val_f1: val,
            source_f1,
            target_f1,
            loss_m: mean_over(sum_m, iters),
            loss_a: mean_over(sum_a, iters),
        });

        let took_snapshot = best.as_ref().map(|(_, f, _)| val > *f).unwrap_or(true);
        if took_snapshot {
            best = Some((epoch, val, Snapshot::capture(&selected)));
        }
        telemetry.record(EpochReport {
            epoch,
            phase: "train",
            loss_m: mean_over(sum_m, iters),
            loss_a: mean_over(sum_a, iters),
            val_f1: Some(val),
            source_f1,
            target_f1,
            grl_lambda: (kind == AlignerKind::Grl && iters > 0).then(|| {
                grl_lambda(grl_progress(epoch * iters - 1, total_steps))
            }),
            snapshot: took_snapshot,
        });

        if let Some(ck_path) = &cfg.checkpoint {
            if epoch % cfg.checkpoint_every.max(1) == 0 || epoch == cfg.epochs {
                let mut batchers = vec![src_batches.state()];
                if let Some(t) = &tgt_batches {
                    batchers.push(t.state());
                }
                TrainCheckpoint {
                    fingerprint: fingerprint.clone(),
                    phase: "train".into(),
                    completed_epochs: epoch,
                    rng: rng.state(),
                    groups: vec![Snapshot::capture(&trainable).entries().to_vec()],
                    optimizers: vec![opt.export_state(&trainable)],
                    batchers,
                    best: best.as_ref().map(|(e, f, s)| (*e, *f, s.entries().to_vec())),
                    history: history.clone(),
                    health_retries: guard.retries(),
                }
                .save_file(ck_path)
                .unwrap_or_else(|e| {
                    panic!("failed to write training checkpoint {}: {e}", ck_path.display())
                });
            }
        }
        // Crash point for kill-and-resume tests: fires after the epoch's
        // checkpoint is durable, so a resumed run loses nothing.
        dader_obs::fault::maybe_crash("train.epoch_end");
    }
    drop(telemetry);

    // `best` is only absent when the health guard aborted before the
    // first evaluation; fall back to the current (rolled-back) weights.
    let (best_epoch, best_val_f1, snap) = best.unwrap_or_else(|| {
        let val = features
            .evaluate(extractor.as_ref(), &matcher, task.target_val)
            .f1();
        (start_epoch, val, Snapshot::capture(&selected))
    });
    snap.restore(&selected);

    let model = DaderModel { extractor, matcher };
    save_artifact_if_requested(cfg, &model, task.encoder, kind, best_epoch, best_val_f1);

    TrainOutcome {
        model,
        best_epoch,
        best_val_f1,
        history,
    }
}

/// Persist the selected model when `cfg.save_artifact` is set. Failing to
/// write a requested artifact aborts the run loudly — silently dropping
/// hours of training on a bad path would be worse.
pub(crate) fn save_artifact_if_requested(
    cfg: &TrainConfig,
    model: &DaderModel,
    encoder: &PairEncoder,
    kind: AlignerKind,
    best_epoch: usize,
    best_val_f1: f32,
) {
    if let Some(path) = &cfg.save_artifact {
        let description = format!(
            "{kind} seed {} epoch {best_epoch} val-f1 {best_val_f1:.2}",
            cfg.seed
        );
        crate::artifact::ModelArtifact::capture(description, model, encoder)
            .save_file(path)
            .unwrap_or_else(|e| panic!("failed to save artifact to {}: {e}", path.display()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extractor::LmExtractor;
    use dader_datagen::DatasetId;
    use dader_nn::TransformerConfig;
    use dader_text::Vocab;

    fn setup() -> (ErDataset, ErDataset, ErDataset, ErDataset, PairEncoder) {
        let src = DatasetId::FZ.generate_scaled(1, 120);
        let tgt = DatasetId::ZY.generate_scaled(1, 120);
        let splits = tgt.split(&[1, 9], 7);
        let (val, test) = (splits[0].clone(), splits[1].clone());
        let mut text = src.all_text();
        text.push_str(&tgt.all_text());
        let vocab = Vocab::build(
            dader_text::tokenize(&text).iter().map(|s| s.as_str()),
            1,
            4000,
        );
        let encoder = PairEncoder::new(vocab, 28);
        (src, tgt, val, test, encoder)
    }

    fn tiny_extractor(vocab: usize, seed: u64) -> Box<dyn FeatureExtractor> {
        let mut rng = StdRng::seed_from_u64(seed);
        Box::new(LmExtractor::new(
            TransformerConfig {
                vocab,
                dim: 16,
                layers: 1,
                heads: 2,
                ffn_dim: 32,
                max_len: 28,
            },
            &mut rng,
        ))
    }

    fn quick_cfg() -> TrainConfig {
        TrainConfig {
            epochs: 2,
            iters_per_epoch: Some(3),
            batch_size: 8,
            lr: 1e-3,
            ..TrainConfig::default()
        }
    }

    #[test]
    fn noda_runs_and_selects_best_epoch() {
        let (src, tgt, val, test, enc) = setup();
        let task = DaTask {
            source: &src,
            target_train: &tgt,
            target_val: &val,
            source_test: None,
            target_test: Some(&test),
            encoder: &enc,
        };
        let out = train_algorithm1(
            &task,
            tiny_extractor(enc.vocab().len(), 1),
            AlignerKind::NoDa,
            &quick_cfg(),
        );
        assert_eq!(out.history.len(), 2);
        assert!(out.best_epoch >= 1 && out.best_epoch <= 2);
        let selected = out
            .history
            .iter()
            .find(|h| h.epoch == out.best_epoch)
            .unwrap();
        assert_eq!(selected.val_f1, out.best_val_f1);
        // NoDA pays no alignment loss
        assert!(out.history.iter().all(|h| h.loss_a == 0.0));
    }

    #[test]
    fn every_alg1_method_trains() {
        let (src, tgt, val, _test, enc) = setup();
        let task = DaTask {
            source: &src,
            target_train: &tgt,
            target_val: &val,
            source_test: None,
            target_test: None,
            encoder: &enc,
        };
        for kind in [AlignerKind::Mmd, AlignerKind::KOrder, AlignerKind::Grl, AlignerKind::Ed] {
            let out = train_algorithm1(
                &task,
                tiny_extractor(enc.vocab().len(), 2),
                kind,
                &quick_cfg(),
            );
            assert!(
                out.history.iter().all(|h| h.loss_m.is_finite() && h.loss_a.is_finite()),
                "{kind}: non-finite losses"
            );
            // alignment loss actually computed
            assert!(
                out.history.iter().any(|h| h.loss_a != 0.0),
                "{kind}: alignment loss never engaged"
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let (src, tgt, val, _t, enc) = setup();
        let task = DaTask {
            source: &src,
            target_train: &tgt,
            target_val: &val,
            source_test: None,
            target_test: None,
            encoder: &enc,
        };
        let run = || {
            train_algorithm1(
                &task,
                tiny_extractor(enc.vocab().len(), 3),
                AlignerKind::Mmd,
                &quick_cfg(),
            )
            .best_val_f1
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "GAN-based")]
    fn gan_methods_rejected() {
        let (src, tgt, val, _t, enc) = setup();
        let task = DaTask {
            source: &src,
            target_train: &tgt,
            target_val: &val,
            source_test: None,
            target_test: None,
            encoder: &enc,
        };
        train_algorithm1(
            &task,
            tiny_extractor(enc.vocab().len(), 4),
            AlignerKind::InvGan,
            &quick_cfg(),
        );
    }

    #[test]
    fn grl_schedule_endpoints() {
        // p = 0 at the very first optimization step...
        assert_eq!(grl_progress(0, 100), 0.0);
        // ...and exactly 1 at the last, so λ spans the full ramp even for
        // short runs (the epoch-granular schedule started at 1/epochs).
        assert_eq!(grl_progress(99, 100), 1.0);
        assert_eq!(grl_lambda(0.0), 0.0);
        assert!((grl_lambda(1.0) - (2.0 / (1.0 + (-10.0f32).exp()) - 1.0)).abs() < 1e-7);
        assert!(grl_lambda(1.0) > 0.999);
        // degenerate single-step run: full strength immediately
        assert_eq!(grl_progress(0, 1), 1.0);
        assert_eq!(grl_progress(0, 0), 1.0);
        // monotone ramp
        let mid = grl_lambda(grl_progress(49, 100));
        assert!(mid > 0.0 && mid < grl_lambda(1.0));
    }

    #[test]
    fn grl_schedule_is_iteration_granular() {
        // Within one multi-iteration epoch, λ must move: steps 0 and
        // iters-1 of epoch 1 land on different progress values.
        let iters = 10usize;
        let epochs = 2usize;
        let total = iters * epochs;
        let first = grl_lambda(grl_progress(0, total));
        let last_of_first_epoch = grl_lambda(grl_progress(iters - 1, total));
        assert_eq!(first, 0.0);
        assert!(last_of_first_epoch > first);
    }

    #[test]
    fn degenerate_epoch_reports_zero_losses_not_nan() {
        // One-row dataset + huge batch: with iters_per_epoch forced to 0
        // the per-epoch means have no observations and must be 0.0, not
        // NaN (NaN poisons snapshot selection and every downstream plot).
        let (src, tgt, val, _t, enc) = setup();
        let one = src.subsample(1, 3);
        let task = DaTask {
            source: &one,
            target_train: &tgt,
            target_val: &val,
            source_test: None,
            target_test: None,
            encoder: &enc,
        };
        let cfg = TrainConfig {
            epochs: 2,
            iters_per_epoch: Some(0),
            batch_size: 4096,
            ..TrainConfig::default()
        };
        let out = train_algorithm1(
            &task,
            tiny_extractor(enc.vocab().len(), 6),
            AlignerKind::NoDa,
            &cfg,
        );
        assert_eq!(out.history.len(), 2);
        for h in &out.history {
            assert_eq!(h.loss_m, 0.0, "epoch {}: loss_m not guarded", h.epoch);
            assert_eq!(h.loss_a, 0.0, "epoch {}: loss_a not guarded", h.epoch);
            assert!(h.val_f1.is_finite());
        }
    }

    #[test]
    fn save_artifact_writes_loadable_file() {
        let (src, tgt, val, _t, enc) = setup();
        let task = DaTask {
            source: &src,
            target_train: &tgt,
            target_val: &val,
            source_test: None,
            target_test: None,
            encoder: &enc,
        };
        let path = std::env::temp_dir().join("dader_alg1_artifact_test.dma");
        let cfg = TrainConfig {
            save_artifact: Some(path.clone()),
            ..quick_cfg()
        };
        let out = train_algorithm1(
            &task,
            tiny_extractor(enc.vocab().len(), 7),
            AlignerKind::NoDa,
            &cfg,
        );
        let art = crate::artifact::ModelArtifact::load_file(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert!(art.description.contains("NoDA") || art.description.contains("NoDa"));
        let (reloaded, renc) = art.instantiate().unwrap();
        let pairs: Vec<crate::EntityPair> = val
            .pairs
            .iter()
            .map(|p| (p.a.attrs.clone(), p.b.attrs.clone()))
            .collect();
        let scores = |m: &DaderModel, enc: &PairEncoder| {
            crate::InferenceModel::from_model(m)
                .predict_pairs(&pairs, enc, 16)
                .into_iter()
                .map(|(label, prob)| (label, prob.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(scores(&reloaded, &renc), scores(&out.model, &enc));
    }

    #[test]
    fn curves_tracked_when_requested() {
        let (src, tgt, val, test, enc) = setup();
        let task = DaTask {
            source: &src,
            target_train: &tgt,
            target_val: &val,
            source_test: Some(&src),
            target_test: Some(&test),
            encoder: &enc,
        };
        let cfg = TrainConfig {
            track_source_f1: true,
            track_target_f1: true,
            ..quick_cfg()
        };
        let out = train_algorithm1(
            &task,
            tiny_extractor(enc.vocab().len(), 5),
            AlignerKind::Mmd,
            &cfg,
        );
        assert!(out.history.iter().all(|h| h.source_f1.is_some() && h.target_f1.is_some()));
    }
}
