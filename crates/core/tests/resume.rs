//! Crash-safe resume and training-health integration tests.
//!
//! The property under test: killing a training run at *any* epoch
//! boundary (via an injected crash) and resuming from its checkpoint
//! reproduces the uninterrupted run's trajectory bitwise — same final F1,
//! same best-snapshot choice, same per-epoch history — for both training
//! algorithms. Plus: an injected NaN loss triggers rollback + retry (the
//! run completes identically-shaped), and an unrecoverable NaN storm
//! aborts with the best model so far instead of panicking. Each resume
//! property runs twice: with a trainable trunk (the taped path) and with a
//! frozen one, whose pre-head feature table is derived state that the
//! resumed run rebuilds.

use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::{Mutex, OnceLock};

use dader_core::train::{train_algorithm1, train_algorithm2, DaTask, TrainConfig, TrainOutcome};
use dader_core::{AlignerKind, FeatureExtractor, LmExtractor};
use dader_datagen::{DatasetId, ErDataset};
use dader_nn::TransformerConfig;
use dader_obs::fault::{self, FaultAction, FaultSpec};
use dader_text::{PairEncoder, Vocab};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The fault registry is process-global; every test that arms it holds
/// this lock for its whole body.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

struct Fixture {
    source: ErDataset,
    target: ErDataset,
    val: ErDataset,
    encoder: PairEncoder,
}

fn fixture() -> &'static Fixture {
    static F: OnceLock<Fixture> = OnceLock::new();
    F.get_or_init(|| {
        let source = DatasetId::FZ.generate_scaled(2, 90);
        let target = DatasetId::ZY.generate_scaled(2, 90);
        let splits = target.split(&[1, 9], 3);
        let val = splits[0].clone();
        let mut text = source.all_text();
        text.push_str(&target.all_text());
        let vocab = Vocab::build(
            dader_text::tokenize(&text).iter().map(|s| s.as_str()),
            1,
            4000,
        );
        let encoder = PairEncoder::new(vocab, 20);
        Fixture {
            source,
            target,
            val,
            encoder,
        }
    })
}

fn task(f: &Fixture) -> DaTask<'_> {
    DaTask {
        source: &f.source,
        target_train: &f.target,
        target_val: &f.val,
        source_test: None,
        target_test: None,
        encoder: &f.encoder,
    }
}

fn extractor(vocab: usize, frozen: bool) -> Box<dyn FeatureExtractor> {
    let mut rng = StdRng::seed_from_u64(17);
    let lm = LmExtractor::new(
        TransformerConfig {
            vocab,
            dim: 16,
            layers: 1,
            heads: 2,
            ffn_dim: 32,
            max_len: 20,
        },
        &mut rng,
    );
    if frozen {
        Box::new(lm.freeze_trunk())
    } else {
        Box::new(lm)
    }
}

fn base_cfg() -> TrainConfig {
    TrainConfig {
        epochs: 3,
        step1_epochs: 2,
        iters_per_epoch: Some(3),
        batch_size: 8,
        lr: 1e-3,
        ..TrainConfig::default()
    }
}

fn run(kind: AlignerKind, cfg: &TrainConfig) -> TrainOutcome {
    run_with(kind, cfg, false)
}

fn run_with(kind: AlignerKind, cfg: &TrainConfig, frozen: bool) -> TrainOutcome {
    let f = fixture();
    let ex = extractor(f.encoder.vocab().len(), frozen);
    if kind.uses_algorithm2() {
        train_algorithm2(&task(f), ex, kind, cfg)
    } else {
        train_algorithm1(&task(f), ex, kind, cfg)
    }
}

/// The uninterrupted reference trajectory, computed once per algorithm
/// and trunk.
fn reference(kind: AlignerKind, frozen: bool) -> &'static TrainOutcome {
    static CELLS: [OnceLock<TrainOutcome>; 4] = [
        OnceLock::new(),
        OnceLock::new(),
        OnceLock::new(),
        OnceLock::new(),
    ];
    let cell = &CELLS[2 * usize::from(kind.uses_algorithm2()) + usize::from(frozen)];
    cell.get_or_init(|| run_with(kind, &base_cfg(), frozen))
}

fn ckpt_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dader_resume_{}_{tag}.ddrs", std::process::id()))
}

/// Kill the run (injected panic) at the `kill_hit`-th epoch boundary,
/// then resume from the checkpoint and verify the trajectory matches the
/// uninterrupted reference bitwise.
fn kill_and_resume_matches(kind: AlignerKind, kill_hit: u64, tag: &str, frozen: bool) {
    let _g = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::clear();
    let path = ckpt_path(tag);
    let _ = std::fs::remove_file(&path);

    let interrupted = TrainConfig {
        checkpoint: Some(path.clone()),
        checkpoint_every: 1,
        ..base_cfg()
    };
    fault::arm("train.epoch_end", FaultSpec::at(FaultAction::Panic, kill_hit));
    let crashed =
        std::panic::catch_unwind(AssertUnwindSafe(|| run_with(kind, &interrupted, frozen)));
    fault::clear();
    assert!(crashed.is_err(), "the injected crash must fire (hit {kill_hit})");
    assert!(path.exists(), "a checkpoint must survive the crash");

    let resumed_cfg = TrainConfig {
        resume: Some(path.clone()),
        checkpoint: Some(path.clone()),
        checkpoint_every: 1,
        ..base_cfg()
    };
    let resumed = run_with(kind, &resumed_cfg, frozen);
    let _ = std::fs::remove_file(&path);

    let expect = reference(kind, frozen);
    assert_eq!(
        resumed.best_epoch, expect.best_epoch,
        "{kind}: snapshot choice diverged after resume at hit {kill_hit}"
    );
    assert_eq!(
        resumed.best_val_f1.to_bits(),
        expect.best_val_f1.to_bits(),
        "{kind}: final F1 diverged after resume at hit {kill_hit} \
         ({} vs {})",
        resumed.best_val_f1,
        expect.best_val_f1
    );
    assert_eq!(
        resumed.history, expect.history,
        "{kind}: per-epoch history diverged after resume at hit {kill_hit}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Algorithm 1: 3 epochs => 3 epoch-boundary crash sites.
    #[test]
    fn alg1_kill_and_resume_reproduces_run(kill_hit in 1u64..=3) {
        kill_and_resume_matches(AlignerKind::Mmd, kill_hit, "alg1", false);
    }

    /// Algorithm 1 with a frozen trunk, trained through its feature table.
    #[test]
    fn alg1_frozen_trunk_kill_and_resume_reproduces_run(kill_hit in 1u64..=3) {
        kill_and_resume_matches(AlignerKind::Mmd, kill_hit, "alg1_frozen", true);
    }

    /// Algorithm 2: 2 step-1 epochs + 2*2 adversarial sub-epochs => 6
    /// crash sites spanning both phases.
    #[test]
    fn alg2_kill_and_resume_reproduces_run(kill_hit in 1u64..=6) {
        kill_and_resume_matches(AlignerKind::InvGan, kill_hit, "alg2", false);
    }

    /// Algorithm 2 with a frozen trunk: `F` and `F'` share its table.
    #[test]
    fn alg2_frozen_trunk_kill_and_resume_reproduces_run(kill_hit in 1u64..=6) {
        kill_and_resume_matches(AlignerKind::InvGanKd, kill_hit, "alg2_frozen", true);
    }
}

#[test]
fn injected_nan_loss_rolls_back_and_recovers() {
    let _g = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::clear();
    let before = dader_obs::counter("train_health_events_total").get();
    // One poisoned loss in epoch 2 (iters=3, so hit 5 is epoch 2 iter 2).
    fault::arm("train.loss", FaultSpec::at(FaultAction::Nan, 5));
    let out = run(AlignerKind::Mmd, &base_cfg());
    fault::clear();
    let after = dader_obs::counter("train_health_events_total").get();
    assert!(after > before, "the rollback must be recorded as a health event");
    // The guard replays the epoch from its start at a backed-off LR; the
    // run completes all epochs with finite losses.
    assert_eq!(out.history.len(), base_cfg().epochs);
    assert!(out.history.iter().all(|h| h.loss_m.is_finite()));
    assert!((0.0..=100.0).contains(&out.best_val_f1));
}

#[test]
fn unrecoverable_nan_storm_aborts_with_best_so_far() {
    let _g = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::clear();
    // Every loss is NaN from epoch 2 on: retries exhaust and the run must
    // abort gracefully, keeping epoch 1's snapshot.
    fault::arm(
        "train.loss",
        FaultSpec {
            action: FaultAction::Nan,
            first_hit: 4,
            times: 0,
            probability: None,
        },
    );
    let out = run(AlignerKind::Mmd, &base_cfg());
    fault::clear();
    assert_eq!(out.history.len(), 1, "only epoch 1 completed");
    assert_eq!(out.best_epoch, 1);
    assert!((0.0..=100.0).contains(&out.best_val_f1));
}

#[test]
fn alg2_injected_nan_in_adversarial_phase_recovers() {
    let _g = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::clear();
    let cfg = base_cfg();
    // Step 1 consumes step1_epochs * iters = 6 generator-loss hits; hit 7
    // poisons the first adversarial sub-epoch.
    fault::arm("train.loss", FaultSpec::at(FaultAction::Nan, 7));
    let out = run(AlignerKind::InvGan, &cfg);
    fault::clear();
    // All adversarial sub-epochs complete despite the rollback.
    assert_eq!(out.history.len(), cfg.epochs * 2);
    assert!(out.history.iter().all(|h| h.loss_m.is_finite() && h.loss_a.is_finite()));
}
