//! End-to-end telemetry: a short training run with `cfg.telemetry` set
//! must write one valid JSONL record per epoch, with the schema fields
//! the README documents, and snapshot flags consistent with the returned
//! best epoch.

use dader_core::aligner::AlignerKind;
use dader_core::extractor::{FeatureExtractor, LmExtractor};
use dader_core::train::{train_da, DaTask, TrainConfig};
use dader_datagen::{DatasetId, ErDataset};
use dader_nn::TransformerConfig;
use dader_text::{PairEncoder, Vocab};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The span switch is process-global: while one test's run holds spans
/// on, another's "spans off after training" check cannot hold. The runs
/// take turns.
fn span_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn setup() -> (ErDataset, ErDataset, ErDataset, PairEncoder) {
    let src = DatasetId::FZ.generate_scaled(2, 90);
    let tgt = DatasetId::ZY.generate_scaled(2, 90);
    let splits = tgt.split(&[1, 9], 5);
    let val = splits[0].clone();
    let mut text = src.all_text();
    text.push_str(&tgt.all_text());
    let vocab = Vocab::build(
        dader_text::tokenize(&text).iter().map(|s| s.as_str()),
        1,
        4000,
    );
    let encoder = PairEncoder::new(vocab, 20);
    (src, tgt, val, encoder)
}

fn tiny_extractor(vocab: usize) -> Box<dyn FeatureExtractor> {
    let mut rng = StdRng::seed_from_u64(17);
    Box::new(LmExtractor::new(
        TransformerConfig {
            vocab,
            dim: 16,
            layers: 1,
            heads: 2,
            ffn_dim: 32,
            max_len: 20,
        },
        &mut rng,
    ))
}

fn field<'a>(v: &'a serde_json::Value, key: &str) -> &'a serde_json::Value {
    v.get(key).unwrap_or_else(|| panic!("missing field {key}"))
}

#[test]
fn algorithm1_writes_one_record_per_epoch() {
    let _spans = span_lock();
    let (src, tgt, val, enc) = setup();
    let task = DaTask {
        source: &src,
        target_train: &tgt,
        target_val: &val,
        source_test: None,
        target_test: None,
        encoder: &enc,
    };
    let path = std::env::temp_dir().join(format!("dader_tele_a1_{}.jsonl", std::process::id()));
    let epochs = 3;
    let cfg = TrainConfig {
        epochs,
        iters_per_epoch: Some(2),
        batch_size: 8,
        telemetry: Some(path.clone()),
        ..TrainConfig::default()
    };
    let out = train_da(&task, tiny_extractor(enc.vocab().len()), AlignerKind::Mmd, &cfg);

    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    let records: Vec<serde_json::Value> = text
        .lines()
        .map(|l| serde_json::from_str(l).expect("each line parses as JSON"))
        .collect();
    assert_eq!(records.len(), epochs, "one record per epoch");

    for (i, rec) in records.iter().enumerate() {
        assert_eq!(field(rec, "epoch").as_f64(), Some((i + 1) as f64));
        assert_eq!(field(rec, "phase").as_str(), Some("train"));
        assert!(field(rec, "loss_m").as_f64().is_some());
        assert!(field(rec, "loss_a").as_f64().is_some());
        assert!(field(rec, "val_f1").as_f64().is_some());
        assert!(field(rec, "wall_s").as_f64().unwrap() >= 0.0);
        // Spans were enabled, so the op summary must have entries, and
        // the hottest ops of this workload must be present.
        let ops = match field(rec, "ops") {
            serde_json::Value::Array(a) => a,
            other => panic!("ops not an array: {other:?}"),
        };
        assert!(!ops.is_empty(), "epoch {}: empty op summary", i + 1);
        let names: Vec<&str> = ops
            .iter()
            .map(|o| field(o, "name").as_str().unwrap())
            .collect();
        assert!(names.contains(&"gemm"), "gemm span missing: {names:?}");
        assert!(names.contains(&"extract.lm"), "extractor span missing");
        assert!(names.contains(&"loss.mmd"), "aligner span missing");
    }

    // The epoch flagged `snapshot` last must be the selected best epoch.
    let last_snapshot = records
        .iter()
        .filter(|r| field(r, "snapshot") == &serde_json::Value::Bool(true))
        .map(|r| field(r, "epoch").as_f64().unwrap() as usize)
        .max()
        .expect("at least one snapshot epoch");
    assert_eq!(last_snapshot, out.best_epoch);

    // Telemetry must not leave spans enabled after the run.
    assert!(!dader_obs::span_enabled(), "spans left on after training");
}

#[test]
fn algorithm2_emits_step1_and_adversarial_phases() {
    let _spans = span_lock();
    let (src, tgt, val, enc) = setup();
    let task = DaTask {
        source: &src,
        target_train: &tgt,
        target_val: &val,
        source_test: None,
        target_test: None,
        encoder: &enc,
    };
    let path = std::env::temp_dir().join(format!("dader_tele_a2_{}.jsonl", std::process::id()));
    let cfg = TrainConfig {
        epochs: 1,
        step1_epochs: 2,
        iters_per_epoch: Some(2),
        batch_size: 8,
        telemetry: Some(path.clone()),
        ..TrainConfig::default()
    };
    train_da(&task, tiny_extractor(enc.vocab().len()), AlignerKind::InvGan, &cfg);

    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    let records: Vec<serde_json::Value> = text
        .lines()
        .map(|l| serde_json::from_str(l).expect("valid JSON line"))
        .collect();
    // 2 step-1 epochs + 2 adversarial sub-epochs (epochs * 2).
    assert_eq!(records.len(), 4);
    let phases: Vec<&str> = records
        .iter()
        .map(|r| field(r, "phase").as_str().unwrap())
        .collect();
    assert_eq!(phases, ["step1", "step1", "adversarial", "adversarial"]);
    // Step 1 does not evaluate; the adversarial phase does.
    assert_eq!(field(&records[0], "val_f1"), &serde_json::Value::Null);
    assert!(field(&records[2], "val_f1").as_f64().is_some());
    assert!(!dader_obs::span_enabled(), "spans left on after training");
}
