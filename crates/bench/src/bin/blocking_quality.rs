//! `blocking_quality` — measure candidate generation quality on every
//! benchmark dataset, plus the end-to-end cost of blocking on final F1.
//!
//! ```text
//! blocking_quality [--k N] [--scale tiny|quick|paper] [--e2e-rows N]
//!                  [--skip-e2e] [--threads N] [--quiet] [--verbose]
//! ```
//!
//! **Part 1 — blocking quality.** Each dataset's pair list is unzipped
//! into two tables (`table_a[i] = pairs[i].a`, `table_b[i] = pairs[i].b`;
//! truth = the diagonal pairs labeled matching) at the full published
//! Table 2 size, and both blockers are scored on the two standard
//! metrics: *pairs completeness* (fraction of true matches surviving
//! blocking — blocking recall) and *reduction ratio* (fraction of the
//! cross product never scored).
//!
//! **Part 2 — end-to-end.** A model is trained on one transfer (DS→DA,
//! MMD) at `--scale`, then the target test rows are matched twice: once
//! scoring the exhaustive cross product, once scoring only LSH-blocked
//! candidates. Both predicted match sets are scored against the diagonal
//! truth; blocking is "free" when the two F1 scores agree.
//!
//! Results go to `results/BENCH_blocking.json` (atomic write), including
//! the observability counters (`block_candidates_total`), the
//! candidate-set-size histogram quantiles, and per-stage span timings.

use dader_bench::{chat, match_tables, note, write_json, BlockerKind, Context, Scale};
use dader_block::{pairs_completeness, reduction_ratio, Blocker, LshParams, MinHashLshBlocker, TfIdfBlocker};
use dader_core::{AlignerKind, EntityPair, InferenceModel};
use dader_datagen::{DatasetId, Entity};
use dader_text::PairEncoder;
use serde::Value;

fn arg_value(args: &[String], key: &str) -> Option<String> {
    args.windows(2).find(|w| w[0] == key).map(|w| w[1].clone())
}

/// The two tables plus diagonal truth extracted from a pair dataset.
struct Tables {
    left: Vec<Entity>,
    right: Vec<Entity>,
    truth: Vec<(usize, usize)>,
}

fn unzip_pairs(pairs: &[dader_datagen::EntityPair]) -> Tables {
    let left = pairs.iter().map(|p| p.a.clone()).collect();
    let right = pairs.iter().map(|p| p.b.clone()).collect();
    let truth = pairs
        .iter()
        .enumerate()
        .filter(|(_, p)| p.matching)
        .map(|(i, _)| (i, i))
        .collect();
    Tables { left, right, truth }
}

/// Per-blocker, per-dataset quality numbers.
#[derive(Clone, Copy)]
struct BlockScore {
    pc: f64,
    rr: f64,
    candidates: usize,
    hits: usize,
}

/// Score one blocker on one dataset's tables.
fn score_blocker(blocker: &dyn Blocker, t: &Tables, k: usize) -> BlockScore {
    let blocked = blocker.block(&t.left, k);
    let candidates: usize = blocked.iter().map(Vec::len).sum();
    let pc = pairs_completeness(&blocked, &t.truth);
    let rr = reduction_ratio(candidates, t.left.len(), t.right.len());
    let hits = t
        .truth
        .iter()
        .filter(|&&(i, j)| blocked[i].iter().any(|c| c.right == j))
        .count();
    BlockScore { pc, rr, candidates, hits }
}

/// F1 of a predicted match set against the diagonal truth.
fn set_f1(predicted: &[(usize, usize)], truth: &[(usize, usize)]) -> f64 {
    let truth_set: std::collections::HashSet<(usize, usize)> = truth.iter().copied().collect();
    let tp = predicted.iter().filter(|p| truth_set.contains(p)).count();
    if predicted.is_empty() || truth.is_empty() {
        return if truth.is_empty() && predicted.is_empty() { 100.0 } else { 0.0 };
    }
    let precision = tp as f64 / predicted.len() as f64;
    let recall = tp as f64 / truth.len() as f64;
    if precision + recall == 0.0 {
        0.0
    } else {
        100.0 * 2.0 * precision * recall / (precision + recall)
    }
}

/// Exhaustively score every cross pair and keep the positives.
fn exhaustive_matches(
    model: &InferenceModel,
    encoder: &PairEncoder,
    left: &[Entity],
    right: &[Entity],
    batch_size: usize,
) -> Vec<(usize, usize)> {
    let _g = dader_obs::span!("bench.e2e.exhaustive");
    let mut pairs: Vec<EntityPair> = Vec::with_capacity(left.len() * right.len());
    let mut index: Vec<(usize, usize)> = Vec::with_capacity(left.len() * right.len());
    for (i, a) in left.iter().enumerate() {
        for (j, b) in right.iter().enumerate() {
            pairs.push((a.attrs.clone(), b.attrs.clone()));
            index.push((i, j));
        }
    }
    model
        .predict_pairs(&pairs, encoder, batch_size)
        .into_iter()
        .zip(index)
        .filter(|((label, _), _)| *label == 1)
        .map(|(_, ij)| ij)
        .collect()
}

fn main() {
    dader_bench::init_cli();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let k = arg_value(&args, "--k")
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(10);
    let scale = arg_value(&args, "--scale")
        .map(|s| Scale::parse(&s).unwrap_or_else(|| panic!("unknown scale {s:?}")))
        .unwrap_or(Scale::Tiny);
    let e2e_rows = arg_value(&args, "--e2e-rows")
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(60);
    let skip_e2e = args.iter().any(|a| a == "--skip-e2e");

    // Part 1: PC / RR on every dataset at the published Table 2 size.
    note!("blocking_quality: scoring blockers on all datasets (k={k})");
    let mut rows: Vec<Value> = Vec::new();
    let mut lsh_min_pc = f64::INFINITY;
    let mut lsh_min_rr = f64::INFINITY;
    // Micro-averaged (pooled over every dataset) recall and reduction:
    // the headline numbers — per-dataset PC is capped below 1 on the
    // dirty benchmarks whose corrupted matches share no text at all.
    let mut lsh_hits = 0usize;
    let mut truth_total = 0usize;
    let mut lsh_candidates = 0usize;
    let mut cross_total = 0u64;
    for id in DatasetId::all() {
        let d = {
            let _g = dader_obs::span!("bench.generate");
            id.generate(1)
        };
        let t = unzip_pairs(&d.pairs);
        let lsh = {
            let _g = dader_obs::span!("bench.build.lsh");
            MinHashLshBlocker::build(&t.right, LshParams::default())
        };
        let tfidf = {
            let _g = dader_obs::span!("bench.build.tfidf");
            TfIdfBlocker::build(&t.right)
        };
        let mut blockers: Vec<(&'static str, BlockScore)> = Vec::new();
        for (name, blocker) in [("lsh", &lsh as &dyn Blocker), ("topk", &tfidf as &dyn Blocker)] {
            let scored = score_blocker(blocker, &t, k);
            chat!(
                "  {id:?} {name}: pc={:.4} rr={:.4} ({} candidates)",
                scored.pc,
                scored.rr,
                scored.candidates
            );
            blockers.push((name, scored));
        }
        let BlockScore { pc: lsh_pc, rr: lsh_rr, candidates, hits } = blockers[0].1;
        lsh_min_pc = lsh_min_pc.min(lsh_pc);
        lsh_min_rr = lsh_min_rr.min(lsh_rr);
        lsh_hits += hits;
        truth_total += t.truth.len();
        lsh_candidates += candidates;
        cross_total += t.left.len() as u64 * t.right.len() as u64;
        note!(
            "blocking_quality: {} ({} rows): lsh pc={lsh_pc:.4} rr={lsh_rr:.4}",
            id.spec().short,
            t.left.len()
        );
        rows.push(Value::Object(vec![
            (
                "dataset".to_string(),
                Value::String(id.spec().short.to_string()),
            ),
            ("rows".to_string(), Value::Number(t.left.len() as f64)),
            (
                "true_matches".to_string(),
                Value::Number(t.truth.len() as f64),
            ),
            (
                "blockers".to_string(),
                Value::Object(
                    blockers
                        .into_iter()
                        .map(|(name, s)| {
                            (
                                name.to_string(),
                                Value::Object(vec![
                                    ("pairs_completeness".to_string(), Value::Number(s.pc)),
                                    ("reduction_ratio".to_string(), Value::Number(s.rr)),
                                    (
                                        "candidates".to_string(),
                                        Value::Number(s.candidates as f64),
                                    ),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ]));
    }
    let lsh_overall_pc = lsh_hits as f64 / truth_total.max(1) as f64;
    let lsh_overall_rr = 1.0 - lsh_candidates as f64 / cross_total.max(1) as f64;
    note!(
        "blocking_quality: lsh overall: pc={lsh_overall_pc:.4} ({lsh_hits}/{truth_total}) rr={lsh_overall_rr:.4}; worst dataset: pc={lsh_min_pc:.4} rr={lsh_min_rr:.4}"
    );

    // Part 2: end-to-end F1, exhaustive vs blocked, on one transfer.
    let end_to_end = if skip_e2e {
        Value::Null
    } else {
        let _g = dader_obs::span!("bench.e2e");
        note!("blocking_quality: training DS->DA (mmd, {scale:?}) for the end-to-end check");
        let ctx = Context::new(scale);
        let (out, test_f1) = ctx.run_transfer(DatasetId::DS, DatasetId::DA, AlignerKind::Mmd, 1, false, None);
        let splits = ctx.target_splits(DatasetId::DA);
        let n = e2e_rows.min(splits.test.len());
        let t = unzip_pairs(&splits.test.pairs[..n]);
        let batch = 32;

        let infer = InferenceModel::from_model(&out.model);
        let exhaustive = exhaustive_matches(&infer, ctx.encoder(), &t.left, &t.right, batch);
        let blocked = {
            let _g = dader_obs::span!("bench.e2e.blocked");
            match_tables(
                &infer,
                ctx.encoder(),
                &t.left,
                &t.right,
                BlockerKind::Lsh,
                k,
                batch,
                None,
            )
        };
        let blocked_set: Vec<(usize, usize)> =
            blocked.matches.iter().map(|m| (m.left, m.right)).collect();
        let f1_ex = set_f1(&exhaustive, &t.truth);
        let f1_bl = set_f1(&blocked_set, &t.truth);
        note!(
            "blocking_quality: e2e on {n} rows: exhaustive f1={f1_ex:.2} ({} pairs) vs blocked f1={f1_bl:.2} ({} pairs)",
            n * n,
            blocked.candidates
        );
        Value::Object(vec![
            ("transfer".to_string(), Value::String("DS-DA".to_string())),
            (
                "scale".to_string(),
                Value::String(format!("{scale:?}").to_lowercase()),
            ),
            (
                "pairwise_test_f1".to_string(),
                Value::Number(test_f1 as f64),
            ),
            ("rows".to_string(), Value::Number(n as f64)),
            ("exhaustive_pairs".to_string(), Value::Number((n * n) as f64)),
            (
                "blocked_pairs".to_string(),
                Value::Number(blocked.candidates as f64),
            ),
            ("exhaustive_f1".to_string(), Value::Number(f1_ex)),
            ("blocked_f1".to_string(), Value::Number(f1_bl)),
            (
                "f1_delta".to_string(),
                Value::Number((f1_ex - f1_bl).abs()),
            ),
        ])
    };

    // Observability snapshot: the blocking counters/histogram plus span
    // timings for the stages above.
    let hist = dader_obs::histogram("block_candidate_set_size", &dader_obs::CANDIDATE_SET_BUCKETS);
    let quantile = |q: f64| hist.quantile(q).map(Value::Number).unwrap_or(Value::Null);
    let spans: Vec<Value> = dader_obs::span::timing_snapshot()
        .iter()
        .filter(|s| s.name.starts_with("bench.") || s.name.starts_with("block.") || s.name.starts_with("match."))
        .map(|s| {
            Value::Object(vec![
                ("name".to_string(), Value::String(s.name.to_string())),
                ("calls".to_string(), Value::Number(s.calls as f64)),
                (
                    "total_ms".to_string(),
                    Value::Number(s.total_ns as f64 / 1e6),
                ),
            ])
        })
        .collect();
    let report = Value::Object(vec![
        ("k".to_string(), Value::Number(k as f64)),
        ("datasets".to_string(), Value::Array(rows)),
        (
            "lsh_pairs_completeness".to_string(),
            Value::Number(lsh_overall_pc),
        ),
        (
            "lsh_reduction_ratio".to_string(),
            Value::Number(lsh_overall_rr),
        ),
        (
            "lsh_min_dataset_pairs_completeness".to_string(),
            Value::Number(lsh_min_pc),
        ),
        (
            "lsh_min_dataset_reduction_ratio".to_string(),
            Value::Number(lsh_min_rr),
        ),
        ("end_to_end".to_string(), end_to_end),
        (
            "metrics".to_string(),
            Value::Object(vec![
                (
                    "block_candidates_total".to_string(),
                    Value::Number(dader_obs::counter("block_candidates_total").get() as f64),
                ),
                ("candidate_set_size_p50".to_string(), quantile(0.5)),
                ("candidate_set_size_p95".to_string(), quantile(0.95)),
                ("candidate_set_size_p99".to_string(), quantile(0.99)),
                ("spans".to_string(), Value::Array(spans)),
            ]),
        ),
    ]);
    write_json("BENCH_blocking", &report);
}
