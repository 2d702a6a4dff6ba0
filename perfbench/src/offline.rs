//! The two offline workloads: `table_match` (the engine behind
//! `dader-match`) and `train_run` (the `dader run` path).

use std::time::Instant;

use dader_bench::{BlockerKind, Context, MatchServer, Scale};
use dader_core::artifact::ModelArtifact;
use dader_core::pretrain::{PretrainConfig, PretrainedLm};
use dader_core::{AlignerKind, InferenceModel};
use dader_datagen::{DatasetId, ErDataset};
use dader_text::PairEncoder;

use crate::layers;
use crate::prep::Assets;
use crate::util::{f1, median, peak_rss_mb, quantile, timed};
use crate::{Args, RunResult};

/// Pairs of DBLP-ACM unzipped into the two tables.
const TABLE_PAIRS: usize = 500;
/// Candidates per left record (`dader-match`'s default).
const TABLE_K: usize = 10;
/// Boots per `table_match` run (set-up is reported as their median).
const TABLE_BOOTS: usize = 3;

/// A call's matches as `(left, right, probability bits)`, for comparing
/// calls bitwise.
type MatchSet = Vec<(usize, usize, u32)>;

/// `table_match`: `MatchServer::match_tables` over DBLP-ACM with TF-IDF
/// top-k blocking and the dense f32 model, repeated for `--seconds`.
pub fn table_match(args: &Args, assets: &Assets) -> Result<RunResult, String> {
    let data = DatasetId::DA.generate_scaled(args.seed, TABLE_PAIRS);
    let (left, right, truth) = layers::unzip(&data.pairs);

    let mut boots = Vec::with_capacity(TABLE_BOOTS);
    let (mut load_s, mut inst_s) = (Vec::new(), Vec::new());
    let mut server: Option<MatchServer> = None;
    for _ in 0..TABLE_BOOTS {
        drop(server.take());
        let t0 = Instant::now();
        let (l, art) = timed(|| ModelArtifact::load_file(&assets.f32_path));
        let art = art.map_err(|e| format!("load f32 artifact: {e}"))?;
        let (i, built) = timed(|| {
            let model = InferenceModel::from_artifact(&art).map_err(|e| e.to_string())?;
            let enc = PairEncoder::from_state(art.encoder.clone())?;
            Ok::<_, String>(MatchServer::from_inference(
                model,
                enc,
                art.description.clone(),
            ))
        });
        server = Some(built?);
        boots.push(t0.elapsed().as_secs_f64());
        load_s.push(l);
        inst_s.push(i);
    }
    let server = server.ok_or("no boot")?;
    let mut res = RunResult::new(median(&boots));

    let run = || server.match_tables(&left, &right, BlockerKind::TfIdf, TABLE_K, 32, None);
    let t0 = Instant::now();
    let mut calls = Vec::new();
    let mut first: Option<(MatchSet, usize)> = None;
    while calls.is_empty() || t0.elapsed().as_secs_f64() < args.seconds {
        let (s, out) = timed(run);
        calls.push(s);
        let got: MatchSet = out
            .matches
            .iter()
            .map(|m| (m.left, m.right, m.probability.to_bits()))
            .collect();
        match &first {
            None => first = Some((got, out.candidates)),
            Some((want, _)) if *want != got => {
                res.problems
                    .push("repeated match_tables calls disagree".into());
            }
            _ => {}
        }
    }
    let (matches, candidates) = first.ok_or("no call")?;
    let truth_set: std::collections::HashSet<(usize, usize)> = truth.iter().copied().collect();
    let tp = matches
        .iter()
        .filter(|(l, r, _)| truth_set.contains(&(*l, *r)))
        .count();
    let mut bytes = Vec::with_capacity(matches.len() * 12);
    for (l, r, p) in &matches {
        bytes.extend_from_slice(&(*l as u32).to_le_bytes());
        bytes.extend_from_slice(&(*r as u32).to_le_bytes());
        bytes.extend_from_slice(&p.to_le_bytes());
    }
    let call_s = median(&calls);
    res.attempted = calls.len();
    res.e2e = vec![
        ("latency_p50_ms", call_s * 1e3),
        ("latency_p90_ms", quantile(&calls, 0.9) * 1e3),
        ("f1", f1(tp, matches.len() - tp, truth.len() - tp)),
    ];
    res.report = std::mem::take(&mut res.report)
        .int("left_rows", left.len())
        .int("right_rows", right.len())
        .int("candidates", candidates)
        .num("pairs_per_s", candidates as f64 / call_s)
        .int("matches", matches.len())
        .int("calls", calls.len())
        .str(
            "match_digest_crc32",
            format!("{:08x}", dader_core::artifact::crc32(&bytes)),
        );

    if args.trace {
        res.layers.push(("artifact.load_s", median(&load_s)));
        res.layers.push(("artifact.instantiate_s", median(&inst_s)));
        let art = ModelArtifact::load_file(&assets.f32_path).map_err(|e| e.to_string())?;
        let f32m = InferenceModel::from_artifact(&art).map_err(|e| e.to_string())?;
        let enc = PairEncoder::from_state(art.encoder.clone())?;
        let (layer, share) = layers::table(&f32m, &enc, &server, &left, &right, &truth);
        res.layers.extend(layer);
        res.stage_share("match.stage_share", share);
        // Traced wall time: the same call with the program's spans on.
        dader_obs::span::set_enabled(true);
        let (traced_s, _) = timed(run);
        dader_obs::span::set_enabled(false);
        res.layers
            .push(("obs.trace_overhead", traced_s / call_s - 1.0));
        // The pairs a call scores: each left record against its candidates.
        let blocker = dader_bench::build_blocker(BlockerKind::TfIdf, &right);
        let blocked = blocker.block(&left, TABLE_K);
        let sample: Vec<_> = blocked
            .iter()
            .enumerate()
            .flat_map(|(i, cs)| cs.iter().map(move |c| (i, c.right)))
            .take(2048)
            .map(|(i, j)| (&left[i].attrs, &right[j].attrs))
            .collect();
        let int8 = ModelArtifact::load_file(&assets.int8_path).map_err(|e| e.to_string())?;
        let int8 = InferenceModel::from_artifact(&int8).map_err(|e| e.to_string())?;
        let text = layers::text(&enc, &sample);
        let real = text[1].1;
        res.layers.extend(text);
        res.layers.extend(layers::infer(
            &int8,
            &f32m,
            &art.extractor,
            &enc,
            &sample,
            real,
        ));
        layers::fill(assets, &data.pairs, args.seed, &mut res)?;
    }
    Ok(res)
}

/// The `dader run --source FZ --target ZY --scale quick` path after the
/// context: InvGAN+KD transfer with seed 42, then the target-test
/// evaluation. Returns the outcome, the wall time of each part and the
/// target-test F1 in `[0, 1]`.
fn train_once(ctx: &Context) -> (dader_core::TrainOutcome, f64, f64, f64) {
    let (train_s, (out, _)) = timed(|| {
        ctx.run_transfer(
            DatasetId::FZ,
            DatasetId::ZY,
            AlignerKind::InvGanKd,
            42,
            false,
            None,
        )
    });
    let test = &ctx.target_splits(DatasetId::ZY).test;
    let (eval_s, m) = timed(|| out.model.evaluate(test, ctx.encoder(), 32));
    (out, train_s, eval_s, m.f1() as f64 / 100.0)
}

/// `train_run`: `Context::new` (dataset generation + MLM pretraining) as
/// set-up, then the transfer and evaluation, repeated for `--seconds`.
/// The path's seeds are fixed inside the program, so the run's seed does
/// not change its inputs.
pub fn train_run(args: &Args, assets: &Assets) -> Result<RunResult, String> {
    if args.trace {
        return train_traced(args, assets);
    }
    let (setup_s, ctx) = timed(|| Context::new(Scale::Quick));
    let mut res = RunResult::new(setup_s);
    let t0 = Instant::now();
    let (mut runs, mut epochs_per_s) = (Vec::new(), Vec::new());
    let mut curve: Option<Vec<u32>> = None;
    let (mut score, mut rss_mb) = (0.0, 0.0);
    while runs.is_empty() || t0.elapsed().as_secs_f64() < args.seconds {
        let (out, train_s, eval_s, f) = train_once(&ctx);
        if runs.is_empty() {
            // `dader run` makes one transfer: its peak memory is the peak
            // through set-up and the first run. Repeats only add allocator
            // fragmentation, which varies with how many fit in the run.
            rss_mb = peak_rss_mb();
        }
        runs.push(train_s + eval_s);
        epochs_per_s.push(out.history.len() as f64 / train_s);
        let c: Vec<u32> = out.history.iter().map(|h| h.val_f1.to_bits()).collect();
        match &curve {
            None => curve = Some(c),
            Some(want) if *want != c => res
                .problems
                .push("repeated runs disagree on the F1 curve".into()),
            _ => {}
        }
        score = f;
    }
    let curve = curve.ok_or("no run")?;
    let curve_bytes: Vec<u8> = curve.iter().flat_map(|b| b.to_le_bytes()).collect();
    res.attempted = runs.len();
    res.e2e = vec![
        ("latency_p50_ms", median(&runs) * 1e3),
        ("latency_p90_ms", quantile(&runs, 0.9) * 1e3),
        ("f1", score),
        ("peak_rss_mb", rss_mb),
    ];
    res.report = std::mem::take(&mut res.report)
        .int("runs", runs.len())
        .num("epochs_per_s", median(&epochs_per_s))
        .int("epochs", curve.len())
        .str(
            "val_f1_curve",
            curve
                .iter()
                .map(|b| format!("{:.2}", f32::from_bits(*b)))
                .collect::<Vec<_>>()
                .join(" "),
        )
        .str(
            "curve_digest_crc32",
            format!("{:08x}", dader_core::artifact::crc32(&curve_bytes)),
        );
    Ok(res)
}

/// Traced `train_run`: the context's two parts timed separately, then one
/// untraced and one traced (program spans on) transfer.
///
/// The two parts repeat what `Context::new` (crates/bench/src/context.rs)
/// does: generation seed 1 at the scale's dataset cap, then pretraining
/// with `PretrainConfig::default()` at the scale's step count. If that
/// function changes, change these calls with it; `context.stage_share`
/// (parts over the whole) is the check that they still match.
fn train_traced(args: &Args, assets: &Assets) -> Result<RunResult, String> {
    let scale = Scale::Quick;
    let (gen_s, datasets) = timed(|| {
        DatasetId::all()
            .iter()
            .map(|id| id.generate_scaled(1, scale.dataset_cap()))
            .collect::<Vec<_>>()
    });
    let refs: Vec<&ErDataset> = datasets.iter().collect();
    let (pre_s, _) = timed(|| {
        PretrainedLm::build(
            &refs,
            scale.max_len(),
            scale.lm_config(),
            &PretrainConfig {
                steps: scale.pretrain_steps(),
                ..PretrainConfig::default()
            },
        )
    });
    drop(datasets);
    let (ctx_s, ctx) = timed(|| Context::new(scale));
    let mut res = RunResult::new(ctx_s);
    res.layers.push(("datagen.generate_s", gen_s));
    res.layers.push(("pretrain.build_s", pre_s));
    res.stage_share("context.stage_share", (gen_s + pre_s) / ctx_s);

    let (_, train_s, eval_s, _) = train_once(&ctx);
    dader_obs::span::reset_timing();
    dader_obs::span::set_enabled(true);
    let (out, ttrain_s, teval_s, _) = train_once(&ctx);
    dader_obs::span::set_enabled(false);
    let test_pairs = ctx.target_splits(DatasetId::ZY).test.len() as f64;
    res.layers.extend(layers::train_spans(
        train_s / out.history.len().max(1) as f64,
        test_pairs / eval_s,
        ttrain_s + teval_s,
    ));
    res.layers.push((
        "obs.trace_overhead",
        (ttrain_s + teval_s) / (train_s + eval_s) - 1.0,
    ));
    res.attempted = 2;
    layers::fill(
        assets,
        &ctx.dataset(DatasetId::ZY).pairs,
        args.seed,
        &mut res,
    )?;
    Ok(res)
}
