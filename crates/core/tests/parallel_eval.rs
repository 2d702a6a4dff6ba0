//! Data-parallel inference determinism: a full
//! [`InferenceModel::evaluate`] pass over a
//! synthetic dataset must return identical [`Metrics`] regardless of the
//! engine pool size. The thread count here is pinned programmatically via
//! `pool::set_threads`, which takes the same path as the `DADER_THREADS`
//! environment override — one test process can't re-read the environment,
//! so the override is the testable proxy for `DADER_THREADS=1` vs `=4`.

use dader_core::eval::Metrics;
use dader_core::extractor::{FeatureExtractor, LmExtractor};
use dader_core::matcher::Matcher;
use dader_core::InferenceModel;
use dader_datagen::{DatasetId, ErDataset};
use dader_nn::TransformerConfig;
use dader_tensor::pool;
use dader_text::{PairEncoder, Vocab};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn setup() -> (ErDataset, PairEncoder, InferenceModel) {
    let dataset = DatasetId::FZ.generate_scaled(7, 120);
    let vocab = Vocab::build(
        dader_text::tokenize(&dataset.all_text())
            .iter()
            .map(|s| s.as_str()),
        1,
        6000,
    );
    let encoder = PairEncoder::new(vocab, 24);
    let mut rng = StdRng::seed_from_u64(11);
    let extractor = LmExtractor::new(
        TransformerConfig {
            vocab: encoder.vocab().len(),
            dim: 16,
            layers: 1,
            heads: 2,
            ffn_dim: 32,
            max_len: 24,
        },
        &mut rng,
    );
    // An untrained matcher often collapses to a single class, and a
    // one-class predictor can't detect prediction/label misalignment
    // (Metrics is order-invariant within each class). Scan seeds for an
    // init whose decision boundary actually splits this dataset.
    let model = (0..64)
        .map(|seed| {
            let mut mrng = StdRng::seed_from_u64(seed);
            InferenceModel::from_parts(&extractor, &Matcher::new(extractor.feat_dim(), &mut mrng))
        })
        .find(|m| {
            let metrics = m.evaluate(&dataset, &encoder, 16);
            metrics.tp + metrics.fp > 0 && metrics.fn_ + metrics.tn > 0
        })
        .expect("no matcher init produced mixed predictions");
    (dataset, encoder, model)
}

fn assert_metrics_identical(a: Metrics, b: Metrics, what: &str) {
    assert_eq!((a.tp, a.fp, a.fn_, a.tn), (b.tp, b.fp, b.fn_, b.tn), "{what}: confusion matrix");
    assert_eq!(a.f1().to_bits(), b.f1().to_bits(), "{what}: F1 not bitwise equal");
    assert_eq!(a.precision().to_bits(), b.precision().to_bits(), "{what}: precision");
    assert_eq!(a.recall().to_bits(), b.recall().to_bits(), "{what}: recall");
}

#[test]
fn evaluate_is_identical_at_one_and_four_threads() {
    let (dataset, encoder, model) = setup();

    // Batch size 16 over 120 pairs: 8 batches, enough to shard unevenly
    // across 4 workers.
    let prev = pool::set_threads(Some(1));
    let serial = model.evaluate(&dataset, &encoder, 16);
    pool::set_threads(Some(4));
    let parallel = model.evaluate(&dataset, &encoder, 16);
    pool::set_threads(prev);

    // The prediction task must be non-trivial for the comparison to mean
    // anything: an untrained matcher that says all-negative everywhere
    // would let a shuffled concatenation slip through.
    assert!(
        serial.tp + serial.fp > 0 && serial.fn_ + serial.tn > 0,
        "degenerate predictions: {serial:?}"
    );
    assert_metrics_identical(serial, parallel, "evaluate 1 vs 4 threads");
}

#[test]
fn evaluate_is_identical_across_batch_size_and_thread_grid() {
    let (dataset, encoder, model) = setup();

    let prev = pool::set_threads(Some(1));
    for batch_size in [7usize, 32, 256] {
        pool::set_threads(Some(1));
        let serial = model.evaluate(&dataset, &encoder, batch_size);
        for threads in [2usize, 4, 8] {
            pool::set_threads(Some(threads));
            let parallel = model.evaluate(&dataset, &encoder, batch_size);
            assert_metrics_identical(
                serial,
                parallel,
                &format!("batch_size={batch_size} threads={threads}"),
            );
        }
    }
    pool::set_threads(prev);
}
