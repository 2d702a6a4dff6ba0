//! Algorithm 2: GAN-based methods — InvGAN and InvGAN+KD.
//!
//! **Step 1** trains `F` and `M` on the labeled source only (lines 2–7).
//! **Step 2** clones `F' ← F` (line 8) and alternates (lines 9–16):
//!
//! * discriminator step — `A` classifies real features vs. `F'`'s fake
//!   features (Eq. 10; InvGAN+KD uses `F'(x^S)` as the real side, Eq. 13);
//! * generator step — `F'` is trained with inverted labels to fool `A`
//!   (Eq. 11), plus the knowledge-distillation anchor (Eqs. 12/14) for
//!   InvGAN+KD.
//!
//! The returned model pairs the adapted `F'` with the step-1 matcher `M`.
//!
//! Both phases are crash-safe and health-guarded like Algorithm 1: epoch
//! boundaries can write a [`TrainCheckpoint`] (phase `step1` or
//! `adversarial`) that `cfg.resume` continues bitwise-identically, and a
//! non-finite or exploded loss rolls the epoch back at a backed-off
//! learning rate — particularly relevant here, where the adversarial
//! dynamics of Finding 3 are the most divergence-prone part of the whole
//! design space.

use dader_nn::{clip_grad_norm, Adam, Optimizer};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::aligner::{distillation_loss, AlignerKind, Discriminator};
use crate::batch::Batcher;
use crate::extractor::FeatureExtractor;
use crate::matcher::Matcher;
use crate::model::DaderModel;
use crate::snapshot::Snapshot;
use crate::train::algorithm1::{save_artifact_if_requested, DaTask, TrainOutcome};
use crate::train::config::{mean_over, EpochStat, TrainConfig};
use crate::train::features::{gather_rows, PairFeatures};
use crate::train::health::HealthGuard;
use crate::train::resume::TrainCheckpoint;
use crate::train::telemetry::{EpochReport, RunTelemetry};

/// Train with Algorithm 2. `kind` must be `InvGan` or `InvGanKd`.
pub fn train_algorithm2(
    task: &DaTask<'_>,
    extractor: Box<dyn FeatureExtractor>,
    kind: AlignerKind,
    cfg: &TrainConfig,
) -> TrainOutcome {
    assert!(kind.uses_algorithm2(), "{kind} is not GAN-based");
    cfg.parallel.apply();
    let use_kd = kind == AlignerKind::InvGanKd;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let matcher = Matcher::new(extractor.feat_dim(), &mut rng);

    // ---------------------------------------------------------- Step 1
    // Source-only training of (F, M) so M converges on x^S.
    let mut f_and_m = extractor.params();
    f_and_m.extend(matcher.params());
    let mut opt1 = Adam::new(cfg.lr);
    let features = PairFeatures::new(task, cfg.eval_batch);
    let mut src_batches = Batcher::new(task.source, task.encoder, cfg.batch_size, &mut rng);
    let iters = cfg
        .iters_per_epoch
        .unwrap_or_else(|| src_batches.batches_per_epoch());
    let pos_weight = crate::train::algorithm1::auto_pos_weight(task.source, cfg);
    let mut telemetry = RunTelemetry::new(cfg);

    // Ties a resume checkpoint to the exact trajectory (see Algorithm 1).
    let fingerprint = format!(
        "alg2|{kind}|seed={}|epochs={}|step1={}|iters={iters}|batch={}|lr={}|beta={}|clip={}|kdT={}|advscale={}|posw={:?}|src={}|tgt={}",
        cfg.seed,
        cfg.epochs,
        cfg.step1_epochs,
        cfg.batch_size,
        cfg.lr,
        cfg.beta,
        cfg.clip_norm,
        cfg.kd_temperature,
        cfg.adversarial_lr_scale,
        cfg.pos_weight,
        task.source.len(),
        task.target_train.len()
    );
    let mut guard = HealthGuard::new(cfg.health);

    let mut resume_ck: Option<TrainCheckpoint> = cfg.resume.as_ref().map(|path| {
        let ck = TrainCheckpoint::load_file(path).unwrap_or_else(|e| {
            panic!("failed to load training checkpoint {}: {e}", path.display())
        });
        ck.expect_fingerprint(&fingerprint)
            .unwrap_or_else(|e| panic!("cannot resume from {}: {e}", path.display()));
        ck
    });
    let resume_adversarial =
        matches!(resume_ck.as_ref(), Some(ck) if ck.phase == "adversarial");

    let mut step1_start = 1usize;
    if let Some(ck) = &resume_ck {
        match ck.phase.as_str() {
            "step1" => {
                Snapshot::from_entries(ck.groups[0].clone()).restore(&f_and_m);
                opt1.restore_state(&f_and_m, &ck.optimizers[0])
                    .unwrap_or_else(|e| panic!("cannot resume optimizer state: {e}"));
                let (order, cursor) = ck.batchers[0].clone();
                src_batches
                    .restore_state(order, cursor)
                    .unwrap_or_else(|e| panic!("cannot resume source batcher: {e}"));
                rng = StdRng::from_state(ck.rng);
                guard.restore(ck.health_retries);
                step1_start = ck.completed_epochs + 1;
            }
            "adversarial" => {
                // Step 1 already finished in the checkpointed run: restore
                // its final (F, M) and skip straight to step 2. Everything
                // recomputed from (F, M) below (feature caches, teacher
                // logits) is deterministic, so it matches the original run.
                Snapshot::from_entries(ck.groups[0].clone()).restore(&f_and_m);
                step1_start = cfg.step1_epochs + 1;
            }
            other => panic!("checkpoint phase {other:?} is not an Algorithm 2 phase"),
        }
    }

    let mut aborted = false;
    'step1: for epoch in step1_start..=cfg.step1_epochs {
        let rollback = (
            Snapshot::capture(&f_and_m),
            opt1.export_state(&f_and_m),
            rng.state(),
            src_batches.state(),
        );
        let sum_m = 'attempt: loop {
            let mut sum_m = 0.0f32;
            for _ in 0..iters {
                let bs = features.sample(&mut src_batches, &mut rng);
                let xs = features.extract(extractor.as_ref(), &bs);
                let loss = matcher.matching_loss_weighted(&xs, &bs.labels(), pos_weight);
                let lm = dader_obs::fault::corrupt_f32("train.loss", loss.item());
                if let Some(bad) = guard.first_unhealthy(&[lm]) {
                    match guard.back_off() {
                        Some(scale) => {
                            let new_lr = cfg.lr * scale;
                            rollback.0.restore(&f_and_m);
                            opt1.restore_state(&f_and_m, &rollback.1)
                                .expect("rollback optimizer state");
                            opt1.set_lr(new_lr);
                            rng = StdRng::from_state(rollback.2);
                            src_batches
                                .restore_state(rollback.3 .0.clone(), rollback.3 .1)
                                .expect("rollback source batcher");
                            telemetry.health_event("step1", epoch, "rollback", bad, new_lr, guard.retries());
                            continue 'attempt;
                        }
                        None => {
                            telemetry.health_event("step1", epoch, "abort", bad, opt1.lr(), guard.retries());
                            aborted = true;
                            break 'step1;
                        }
                    }
                }
                let mut grads = loss.backward();
                if cfg.clip_norm > 0.0 {
                    clip_grad_norm(&mut grads, &f_and_m, cfg.clip_norm);
                }
                opt1.step(&f_and_m, &grads);
                sum_m += lm;
            }
            break 'attempt sum_m;
        };
        telemetry.record(EpochReport {
            epoch,
            phase: "step1",
            loss_m: mean_over(sum_m, iters),
            loss_a: 0.0,
            val_f1: None,
            source_f1: None,
            target_f1: None,
            grl_lambda: None,
            snapshot: false,
        });
        if let Some(ck_path) = &cfg.checkpoint {
            if epoch % cfg.checkpoint_every.max(1) == 0 || epoch == cfg.step1_epochs {
                TrainCheckpoint {
                    fingerprint: fingerprint.clone(),
                    phase: "step1".into(),
                    completed_epochs: epoch,
                    rng: rng.state(),
                    groups: vec![Snapshot::capture(&f_and_m).entries().to_vec()],
                    optimizers: vec![opt1.export_state(&f_and_m)],
                    batchers: vec![src_batches.state()],
                    best: None,
                    history: Vec::new(),
                    health_retries: guard.retries(),
                }
                .save_file(ck_path)
                .unwrap_or_else(|e| {
                    panic!("failed to write training checkpoint {}: {e}", ck_path.display())
                });
            }
        }
        dader_obs::fault::maybe_crash("train.epoch_end");
    }

    // ---------------------------------------------------------- Step 2
    // F' <- F; adversarial adaptation. F and M stay frozen.
    let f_prime = extractor.clone_detached();
    let disc = Discriminator::new(extractor.feat_dim(), &mut rng);
    let fp_params = f_prime.params();
    let d_params = disc.params();
    // The adversarial phase runs below the step-1 rate by default
    // (adversarial_lr_scale = 0.1): the generator update must not outpace
    // the discriminator or the KD anchor (Finding 3: smaller learning
    // rates tame the oscillation). Fig. 7 sets the scale to 1.0 to show
    // the raw oscillatory dynamics.
    let adv_lr = cfg.lr * cfg.adversarial_lr_scale;
    let mut opt_fp = Adam::new(adv_lr);
    let mut opt_d = Adam::new(adv_lr);

    let mut tgt_batches = Batcher::new(task.target_train, task.encoder, cfg.batch_size, &mut rng);

    // F and M are frozen in step 2, so their per-pair outputs are
    // constants: precompute the source features (InvGAN's "real" side,
    // Eq. 10) and the teacher logits (Eq. 12) once, instead of re-running
    // the extractor five times per iteration.
    let feat_dim = extractor.feat_dim();
    let (real, teacher): (Vec<_>, Vec<_>) = features
        .map_dataset(extractor.as_ref(), task.source, |x| {
            (x.to_vec(), matcher.logits(&x).to_vec())
        })
        .into_iter()
        .unzip();
    let (cached_real, cached_teacher) = (real.concat(), teacher.concat());

    let mut history = Vec::with_capacity(cfg.epochs);
    let selected: Vec<dader_tensor::Param> = {
        let mut p = f_prime.params();
        p.extend(matcher.params());
        p
    };

    // Adversarial training oscillates (Finding 3/Fig. 7): good models
    // appear and vanish between epochs. Halving the iterations per
    // selection point doubles the snapshot granularity at no extra
    // training cost, mirroring the paper's fine-grained 40-epoch
    // selection.
    let sub_epochs = cfg.epochs * 2;
    let sub_iters = (iters / 2).max(1);

    let mut adv_start = 1usize;
    let mut best: Option<(usize, f32, Snapshot)> = if resume_adversarial {
        let ck = resume_ck.take().expect("adversarial checkpoint");
        Snapshot::from_entries(ck.groups[1].clone()).restore(&fp_params);
        Snapshot::from_entries(ck.groups[2].clone()).restore(&d_params);
        opt_fp
            .restore_state(&fp_params, &ck.optimizers[0])
            .unwrap_or_else(|e| panic!("cannot resume generator optimizer state: {e}"));
        opt_d
            .restore_state(&d_params, &ck.optimizers[1])
            .unwrap_or_else(|e| panic!("cannot resume discriminator optimizer state: {e}"));
        let (order, cursor) = ck.batchers[0].clone();
        src_batches
            .restore_state(order, cursor)
            .unwrap_or_else(|e| panic!("cannot resume source batcher: {e}"));
        let (order, cursor) = ck.batchers[1].clone();
        tgt_batches
            .restore_state(order, cursor)
            .unwrap_or_else(|e| panic!("cannot resume target batcher: {e}"));
        rng = StdRng::from_state(ck.rng);
        guard.restore(ck.health_retries);
        history = ck.history;
        adv_start = ck.completed_epochs + 1;
        ck.best
            .map(|(e, f, entries)| (e, f, Snapshot::from_entries(entries)))
    } else {
        // Epoch-0 candidate: the un-adapted (F, M) from step 1. Snapshot
        // selection can then never return a model worse on validation than
        // the pre-adaptation state, mirroring the paper's best-epoch
        // protocol over 40 fine-grained epochs.
        let val0 = features
            .evaluate(f_prime.as_ref(), &matcher, task.target_val)
            .f1();
        Some((0, val0, Snapshot::capture(&selected)))
    };

    // An aborted step 1 (exhausted health retries) skips the adversarial
    // phase entirely: the run returns the best snapshot found so far.
    let adv_start = if aborted { sub_epochs + 1 } else { adv_start };
    'adv: for epoch in adv_start..=sub_epochs {
        let rollback = (
            Snapshot::capture(&fp_params),
            Snapshot::capture(&d_params),
            opt_fp.export_state(&fp_params),
            opt_d.export_state(&d_params),
            rng.state(),
            src_batches.state(),
            tgt_batches.state(),
        );
        // Restore the epoch-start state after an unhealthy loss; shared by
        // the discriminator- and generator-side health checks below.
        macro_rules! roll_back_epoch {
            () => {{
                rollback.0.restore(&fp_params);
                rollback.1.restore(&d_params);
                opt_fp
                    .restore_state(&fp_params, &rollback.2)
                    .expect("rollback generator optimizer state");
                opt_d
                    .restore_state(&d_params, &rollback.3)
                    .expect("rollback discriminator optimizer state");
                rng = StdRng::from_state(rollback.4);
                src_batches
                    .restore_state(rollback.5 .0.clone(), rollback.5 .1)
                    .expect("rollback source batcher");
                tgt_batches
                    .restore_state(rollback.6 .0.clone(), rollback.6 .1)
                    .expect("rollback target batcher");
            }};
        }
        let (sum_a, sum_g) = 'attempt: loop {
            let mut sum_a = 0.0f32;
            let mut sum_g = 0.0f32;
            for _ in 0..sub_iters {
                let bs = features.sample(&mut src_batches, &mut rng);
                let bt = features.sample(&mut tgt_batches, &mut rng);

                // Discriminator step (Eq. 10 / Eq. 13). InvGAN's real side is
                // the cached F(x^S); InvGAN+KD extracts F'(x^S) (once — the
                // same features also feed the KD student below).
                let xs_fp = use_kd.then(|| features.extract(f_prime.as_ref(), &bs));
                let real = match &xs_fp {
                    Some(x) => x.clone(),
                    None => gather_rows(&cached_real, feat_dim, bs.indices()),
                };
                let fake = features.extract(f_prime.as_ref(), &bt);
                let loss_a = disc.discriminator_loss(&real, &fake);
                let la = loss_a.item();
                if let Some(bad) = guard.first_unhealthy(&[la]) {
                    match guard.back_off() {
                        Some(scale) => {
                            let new_lr = adv_lr * scale;
                            roll_back_epoch!();
                            opt_fp.set_lr(new_lr);
                            opt_d.set_lr(new_lr);
                            telemetry.health_event("adversarial", epoch, "rollback", bad, new_lr, guard.retries());
                            continue 'attempt;
                        }
                        None => {
                            telemetry.health_event("adversarial", epoch, "abort", bad, opt_d.lr(), guard.retries());
                            aborted = true;
                            break 'adv;
                        }
                    }
                }
                let mut grads = loss_a.backward();
                if cfg.clip_norm > 0.0 {
                    clip_grad_norm(&mut grads, &d_params, cfg.clip_norm);
                }
                opt_d.step(&d_params, &grads);

                // Generator step (Eq. 11 / Eq. 14), weighted by β (Eq. 7).
                // F' was not updated by the discriminator step, so the fake
                // features (and their graph) are still valid — only the
                // discriminator forward must be recomputed with its new
                // weights, which generator_loss does.
                let mut loss_fp = disc.generator_loss(&fake).scale(cfg.beta);
                if use_kd {
                    let teacher = gather_rows(&cached_teacher, 2, bs.indices());
                    let student = matcher.logits(xs_fp.as_ref().expect("kd features"));
                    loss_fp = loss_fp.add(&distillation_loss(&teacher, &student, cfg.kd_temperature));
                }
                let lg = dader_obs::fault::corrupt_f32("train.loss", loss_fp.item());
                if let Some(bad) = guard.first_unhealthy(&[lg]) {
                    match guard.back_off() {
                        Some(scale) => {
                            let new_lr = adv_lr * scale;
                            roll_back_epoch!();
                            opt_fp.set_lr(new_lr);
                            opt_d.set_lr(new_lr);
                            telemetry.health_event("adversarial", epoch, "rollback", bad, new_lr, guard.retries());
                            continue 'attempt;
                        }
                        None => {
                            telemetry.health_event("adversarial", epoch, "abort", bad, opt_fp.lr(), guard.retries());
                            aborted = true;
                            break 'adv;
                        }
                    }
                }
                let mut grads = loss_fp.backward();
                if cfg.clip_norm > 0.0 {
                    clip_grad_norm(&mut grads, &fp_params, cfg.clip_norm);
                }
                opt_fp.step(&fp_params, &grads);
                sum_a += la;
                sum_g += lg;
            }
            break 'attempt (sum_a, sum_g);
        };

        let f1_on = |d| features.evaluate(f_prime.as_ref(), &matcher, d).f1();
        let val = f1_on(task.target_val);
        let source_f1 = task.source_test.filter(|_| cfg.track_source_f1).map(f1_on);
        let target_f1 = task.target_test.filter(|_| cfg.track_target_f1).map(f1_on);
        history.push(EpochStat {
            epoch,
            val_f1: val,
            source_f1,
            target_f1,
            loss_m: mean_over(sum_g, sub_iters),
            loss_a: mean_over(sum_a, sub_iters),
        });
        let took_snapshot = best.as_ref().map(|(_, f, _)| val > *f).unwrap_or(true);
        if took_snapshot {
            best = Some((epoch, val, Snapshot::capture(&selected)));
        }
        telemetry.record(EpochReport {
            epoch,
            phase: "adversarial",
            loss_m: mean_over(sum_g, sub_iters),
            loss_a: mean_over(sum_a, sub_iters),
            val_f1: Some(val),
            source_f1,
            target_f1,
            grl_lambda: None,
            snapshot: took_snapshot,
        });
        if let Some(ck_path) = &cfg.checkpoint {
            if epoch % cfg.checkpoint_every.max(1) == 0 || epoch == sub_epochs {
                TrainCheckpoint {
                    fingerprint: fingerprint.clone(),
                    phase: "adversarial".into(),
                    completed_epochs: epoch,
                    rng: rng.state(),
                    groups: vec![
                        Snapshot::capture(&f_and_m).entries().to_vec(),
                        Snapshot::capture(&fp_params).entries().to_vec(),
                        Snapshot::capture(&d_params).entries().to_vec(),
                    ],
                    optimizers: vec![
                        opt_fp.export_state(&fp_params),
                        opt_d.export_state(&d_params),
                    ],
                    batchers: vec![src_batches.state(), tgt_batches.state()],
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
        dader_obs::fault::maybe_crash("train.epoch_end");
    }
    let _ = aborted;
    drop(telemetry);

    let (best_epoch, best_val_f1, snap) = best.expect("epoch-0 candidate always present");
    snap.restore(&selected);

    let model = DaderModel {
        extractor: f_prime,
        matcher,
    };
    save_artifact_if_requested(cfg, &model, task.encoder, kind, best_epoch, best_val_f1);

    TrainOutcome {
        model,
        best_epoch,
        best_val_f1,
        history,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dader_text::PairEncoder;
    use crate::extractor::LmExtractor;
    use dader_datagen::{DatasetId, ErDataset};
    use dader_nn::TransformerConfig;
    use dader_text::Vocab;

    fn setup() -> (ErDataset, ErDataset, ErDataset, PairEncoder) {
        let src = DatasetId::FZ.generate_scaled(2, 100);
        let tgt = DatasetId::ZY.generate_scaled(2, 100);
        let splits = tgt.split(&[1, 9], 3);
        let val = splits[0].clone();
        let mut text = src.all_text();
        text.push_str(&tgt.all_text());
        let vocab = Vocab::build(
            dader_text::tokenize(&text).iter().map(|s| s.as_str()),
            1,
            4000,
        );
        let encoder = PairEncoder::new(vocab, 24);
        (src, tgt, val, encoder)
    }

    fn tiny_extractor(vocab: usize) -> Box<dyn FeatureExtractor> {
        let mut rng = StdRng::seed_from_u64(11);
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

    fn quick_cfg() -> TrainConfig {
        TrainConfig {
            epochs: 2,
            step1_epochs: 2,
            iters_per_epoch: Some(3),
            batch_size: 8,
            lr: 1e-3,
            beta: 1.0,
            ..TrainConfig::default()
        }
    }

    #[test]
    fn invgan_runs_end_to_end() {
        let (src, tgt, val, enc) = setup();
        let task = DaTask {
            source: &src,
            target_train: &tgt,
            target_val: &val,
            source_test: None,
            target_test: None,
            encoder: &enc,
        };
        let out = train_algorithm2(&task, tiny_extractor(enc.vocab().len()), AlignerKind::InvGan, &quick_cfg());
        // Step 2 snapshots at double granularity: 2 epochs -> 4 entries.
        assert_eq!(out.history.len(), 4);
        assert!(out.history.iter().all(|h| h.loss_a.is_finite()));
        assert!((0.0..=100.0).contains(&out.best_val_f1));
    }

    #[test]
    fn invgan_kd_runs_end_to_end() {
        let (src, tgt, val, enc) = setup();
        let task = DaTask {
            source: &src,
            target_train: &tgt,
            target_val: &val,
            source_test: None,
            target_test: None,
            encoder: &enc,
        };
        let out =
            train_algorithm2(&task, tiny_extractor(enc.vocab().len()), AlignerKind::InvGanKd, &quick_cfg());
        // best_epoch may be 0: the pre-adaptation (step-1) snapshot is a
        // legitimate selection candidate.
        assert!(out.best_epoch <= quick_cfg().epochs * 2);
        assert!(out.history.iter().all(|h| h.loss_m.is_finite()));
    }

    #[test]
    #[should_panic(expected = "not GAN-based")]
    fn non_gan_methods_rejected() {
        let (src, tgt, val, enc) = setup();
        let task = DaTask {
            source: &src,
            target_train: &tgt,
            target_val: &val,
            source_test: None,
            target_test: None,
            encoder: &enc,
        };
        train_algorithm2(&task, tiny_extractor(enc.vocab().len()), AlignerKind::Mmd, &quick_cfg());
    }

    #[test]
    fn returned_model_uses_adapted_f_prime() {
        // The adapted extractor must differ from a freshly-initialized one;
        // we verify it can still predict on the target val set.
        let (src, tgt, val, enc) = setup();
        let task = DaTask {
            source: &src,
            target_train: &tgt,
            target_val: &val,
            source_test: None,
            target_test: None,
            encoder: &enc,
        };
        let out = train_algorithm2(&task, tiny_extractor(enc.vocab().len()), AlignerKind::InvGan, &quick_cfg());
        let m = out.model.evaluate(&val, &enc, 16);
        assert_eq!(m.tp + m.fp + m.fn_ + m.tn, val.len());
    }
}
