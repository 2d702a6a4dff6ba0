//! The serving workload, `pair_serve`: the int8 artifact served by the
//! event loop (`dader-serve`'s default core) in this process, driven
//! open-loop over loopback TCP.

use std::collections::{HashMap, HashSet};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dader_bench::{serve_event_loop, MatchServer, ModelRegistry, ServeLimits, TcpServeConfig};
use dader_core::artifact::ModelArtifact;
use dader_core::InferenceModel;
use dader_datagen::{DatasetId, EntityPair};
use dader_text::PairEncoder;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::Value;

use crate::layers::{self, Attrs, Layer};
use crate::load::{self, Outcome, Planned, StepStats};
use crate::prep::Assets;
use crate::util::{attrs_json, f1, median, quantile, timed};
use crate::{Args, RunResult};

/// Offered rates (requests/s) of `pair_serve`. They are fixed absolute
/// numbers so that two commits always face the same load.
struct Load {
    /// About 20% of the seed's capacity.
    low: f64,
    /// About 40% of the seed's capacity (higher rates stall and shed
    /// now and then on a 2-CPU machine, which no run-to-run comparison
    /// survives).
    high: f64,
}

const PAIR_LOAD: Load = Load {
    low: 500.0,
    high: 1000.0,
};
/// Requests each connection keeps in flight in the capacity probe (with
/// `nproc` connections, well under the 256-request admission bound).
const CAPACITY_WINDOW: usize = 64;

/// Boots per run (set-up is reported as their median).
const BOOTS: usize = 5;
/// Share of `--seconds` each phase gets: warm-up, `low` and `high` each,
/// and the capacity probe.
const WARM_SHARE: f64 = 0.05;
const STEP_SHARE: f64 = 0.3;
const CAPACITY_SHARE: f64 = 0.2;
/// How late (p99) the generator may send before a step is marked invalid
/// (and the run incorrect: its latency would be the generator's).
const MAX_LAG_S: f64 = 0.005;
/// Length of each traced step of [`serve_probe`], seconds.
const PROBE_STEP_S: f64 = 0.6;

/// The in-process server under test.
struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<std::io::Result<usize>>>,
}

impl Server {
    fn shutdown(&mut self) -> Result<(), String> {
        self.stop.store(true, Ordering::SeqCst);
        match self.thread.take().map(|t| t.join()) {
            Some(Ok(Err(e))) => Err(format!("server failed: {e}")),
            Some(Err(_)) => Err("server thread panicked".into()),
            _ => Ok(()),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// Set-up times of one boot: artifact load, model build, bind.
struct Boot {
    total_s: f64,
    load_s: f64,
    instantiate_s: f64,
}

fn boot(assets: &Assets) -> Result<(Boot, Arc<ModelRegistry>, TcpListener), String> {
    let t0 = std::time::Instant::now();
    let (load_s, art) = timed(|| ModelArtifact::load_file(&assets.int8_path));
    let art = art.map_err(|e| format!("load int8 artifact: {e}"))?;
    let (instantiate_s, server) = timed(|| {
        let model = InferenceModel::from_artifact(&art).map_err(|e| e.to_string())?;
        let encoder = PairEncoder::from_state(art.encoder.clone())?;
        Ok::<_, String>(MatchServer::from_inference(
            model,
            encoder,
            art.description.clone(),
        ))
    });
    let registry = Arc::new(ModelRegistry::new(server?));
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let total_s = t0.elapsed().as_secs_f64();
    Ok((
        Boot {
            total_s,
            load_s,
            instantiate_s,
        },
        registry,
        listener,
    ))
}

/// Boot `boots` times (each earlier boot is dropped before the next, so
/// only one model is ever resident) and serve from the last.
fn start(assets: &Assets, boots: usize) -> Result<(Server, Vec<Boot>), String> {
    let mut times = Vec::with_capacity(boots);
    let mut last = None;
    for _ in 0..boots {
        drop(last.take());
        let (t, registry, listener) = boot(assets)?;
        times.push(t);
        last = Some((registry, listener));
    }
    let (registry, listener) = last.ok_or("no boot")?;
    let addr = listener.local_addr().map_err(|e| format!("addr: {e}"))?;
    let stop = Arc::new(AtomicBool::new(false));
    // `dader-serve --listen` defaults.
    let cfg = TcpServeConfig {
        limits: ServeLimits::default(),
        batch_size: 32,
        max_conns: 64,
        flush_us: 1_000,
        max_queue: 256,
    };
    let thread = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || serve_event_loop(registry, listener, cfg, stop))
    };
    Ok((
        Server {
            addr,
            stop,
            thread: Some(thread),
        },
        times,
    ))
}

fn boot_median(boots: &[Boot]) -> f64 {
    median(&boots.iter().map(|b| b.total_s).collect::<Vec<_>>())
}

/// Serving-registry figures a step moves (diffed around each step).
#[derive(Clone, Copy, Default)]
struct Counters {
    batches: f64,
    occupancy_sum: f64,
    deadline_flushes: f64,
    flushes: f64,
    shed: f64,
}

impl Counters {
    fn now() -> Counters {
        let occ = dader_obs::histogram(
            "serve_batch_occupancy",
            &dader_obs::metrics::BATCH_SIZE_BUCKETS,
        );
        let flush = dader_obs::metrics::counter_labeled_values("serve_flush_reason_total");
        let shed = dader_obs::metrics::counter_labeled_values("serve_shed_total");
        let total = |v: &[(&str, u64)]| v.iter().map(|(_, n)| *n as f64).sum::<f64>();
        Counters {
            batches: occ.count() as f64,
            occupancy_sum: occ.sum(),
            deadline_flushes: flush
                .iter()
                .filter(|(r, _)| *r == "deadline")
                .map(|(_, n)| *n as f64)
                .sum(),
            flushes: total(&flush),
            shed: total(&shed),
        }
    }

    fn since(self, before: Counters) -> Counters {
        Counters {
            batches: self.batches - before.batches,
            occupancy_sum: self.occupancy_sum - before.occupancy_sum,
            deadline_flushes: self.deadline_flushes - before.deadline_flushes,
            flushes: self.flushes - before.flushes,
            shed: self.shed - before.shed,
        }
    }
}

/// What one planned request carries, for checking its response.
enum Payload {
    /// Index into the pair pool.
    Pair(usize),
    /// A line the server rejects at parse time, answered inline: its
    /// round trip is transport alone.
    Ping,
}

/// One load step as run.
struct Step {
    plan: Vec<Planned>,
    payload: Vec<Payload>,
    outcomes: Vec<Outcome>,
    extra: usize,
    stats: StepStats,
    counters: Counters,
}

/// Runs load steps against one server; numbers requests uniquely across
/// steps.
struct Driver<'a> {
    addr: SocketAddr,
    conns: usize,
    seed: u64,
    steps: u64,
    next_id: usize,
    /// Per pool pair: `"a":{...},"b":{...}`.
    frags: &'a [String],
}

impl<'a> Driver<'a> {
    fn new(addr: SocketAddr, seed: u64, frags: &'a [String]) -> Driver<'a> {
        let conns = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .clamp(1, 8);
        Driver {
            addr,
            conns,
            seed,
            steps: 0,
            next_id: 0,
            frags,
        }
    }

    /// Pair requests drawn at random from the pool, at `rate` for `secs`.
    fn step(&mut self, name: &str, rate: f64, secs: f64, timings: bool) -> Step {
        let frags = self.frags;
        self.run_step(name, rate, secs, |id, rng| {
            let i = rng.random_range(0..frags.len());
            (pair_line(id, &frags[i], timings), Payload::Pair(i))
        })
    }

    /// Pings: requests the server answers at parse time without queueing.
    fn ping(&mut self, rate: f64, secs: f64) -> Step {
        self.run_step("ping", rate, secs, |id, _| {
            (format!("{{\"id\":{id}}}\n"), Payload::Ping)
        })
    }

    fn run_step(
        &mut self,
        name: &str,
        rate: f64,
        secs: f64,
        mut request: impl FnMut(usize, &mut StdRng) -> (String, Payload),
    ) -> Step {
        self.steps += 1;
        let salt = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(self.steps);
        let mut rng = StdRng::seed_from_u64(salt ^ 0xA5A5);
        let (mut plan, mut payload) = (Vec::new(), Vec::new());
        for (k, due_s) in load::poisson(salt, rate, secs).into_iter().enumerate() {
            let id = self.next_id;
            self.next_id += 1;
            let (line, p) = request(id, &mut rng);
            plan.push(Planned {
                due_s,
                conn: k % self.conns,
                line,
            });
            payload.push(p);
        }
        let before = Counters::now();
        let (outcomes, extra) = load::run(self.addr, self.conns, &plan, Duration::from_secs(5));
        let counters = Counters::now().since(before);
        let stats = load::stats(name, rate, secs, &plan, &outcomes, MAX_LAG_S);
        eprintln!(
            "perfbench: {name:>11} {rate:>6.0}/s: sent {} answered {} failed {} p50 {:.2}ms p{:.1} {:.2}ms gen lag p99 {:.2}ms{}",
            stats.sent,
            stats.answered,
            stats.failed(),
            stats.p50_s * 1e3,
            stats.tail_q * 100.0,
            stats.tail_s * 1e3,
            stats.lag_p99_s * 1e3,
            if stats.valid { "" } else { " (generator fell behind: invalid)" }
        );
        Step {
            plan,
            payload,
            outcomes,
            extra,
            stats,
            counters,
        }
    }

    /// The closed-loop capacity probe over the same connections.
    fn capacity(&mut self, secs: f64) -> (f64, usize) {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xCA9A);
        let lines: Vec<String> = (0..4096)
            .map(|_| {
                let id = self.next_id;
                self.next_id += 1;
                let i = rng.random_range(0..self.frags.len());
                pair_line(id, &self.frags[i], false)
            })
            .collect();
        let (per_s, errors) =
            load::closed_loop(self.addr, self.conns, CAPACITY_WINDOW, secs, &lines);
        eprintln!("perfbench:    capacity closed loop: {per_s:.0}/s, {errors} errors");
        (per_s, errors)
    }
}

/// Median transport time (ms) of a ping step: client round trip minus the
/// server's own `latency_us` — the socket hand-off and the event loop's
/// wake-up before it reads a line, plus the response's way back.
fn transport_ms(ping: &Step) -> f64 {
    let t: Vec<f64> = ping
        .outcomes
        .iter()
        .filter_map(|o| {
            let server_ms = o.response.as_ref()?.get("latency_us")?.as_f64()? / 1e3;
            Some(o.wire_s? * 1e3 - server_ms)
        })
        .collect();
    median(&t)
}

/// The serve layer from response `timings` and the metrics registry.
/// `low` and `high` are traced steps. Also returns the median, over
/// requests, of the share of client-observed time (send → response) that
/// the parts account for: the server's stages (parse → queue → batch
/// wait → infer → write, which `latency_us` spans) plus the transport a
/// `ping` step measures.
fn serve_layers(low: &Step, high: &Step, ping: &Step) -> (Layer, f64) {
    #[derive(Default)]
    struct Parts {
        queue: Vec<f64>,
        wait: Vec<f64>,
        infer: Vec<f64>,
        write: Vec<f64>,
        unattributed: Vec<f64>,
        shares: Vec<f64>,
    }
    let transport = transport_ms(ping);
    let parts = |st: &Step| {
        let mut p = Parts::default();
        for o in &st.outcomes {
            let (Some(v), Some(wire)) = (&o.response, o.wire_s) else {
                continue;
            };
            let Some(t) = v.get("timings") else { continue };
            let ms = |k: &str| t.get(k).and_then(|x| x.as_f64()).unwrap_or(0.0) / 1e3;
            let stages_ms = v.get("latency_us").and_then(|x| x.as_f64()).unwrap_or(0.0) / 1e3;
            p.queue.push(ms("queue_us"));
            p.wait.push(ms("batch_wait_us"));
            p.infer.push(ms("infer_us"));
            p.write.push(ms("write_us"));
            p.unattributed.push(wire * 1e3 - stages_ms - transport);
            p.shares
                .push((stages_ms + transport) / (wire * 1e3).max(1e-9));
        }
        p
    };
    let (l, h) = (parts(low), parts(high));
    let c = low.counters;
    let layer = vec![
        ("serve.queue_ms.p50", quantile(&l.queue, 0.5)),
        (
            "serve.queue_ms.p99",
            quantile(&h.queue, load::tail_q(h.queue.len())),
        ),
        ("serve.batch_wait_ms.p50", quantile(&h.wait, 0.5)),
        ("serve.infer_ms.p50", quantile(&l.infer, 0.5)),
        ("serve.write_ms.p50", quantile(&l.write, 0.5)),
        ("serve.transport_ms.p50", transport),
        ("serve.unattributed_ms.p50", quantile(&l.unattributed, 0.5)),
        (
            "serve.batch_occupancy_mean",
            high.counters.occupancy_sum / high.counters.batches.max(1.0),
        ),
        (
            "serve.flush_deadline_share",
            c.deadline_flushes / c.flushes.max(1.0),
        ),
        ("serve.shed_total", low.counters.shed + high.counters.shed),
    ];
    let shares: Vec<f64> = l.shares.iter().chain(&h.shares).copied().collect();
    (layer, median(&shares))
}

fn gen_layers(steps: &[&Step]) -> Layer {
    let lags: Vec<f64> = steps
        .iter()
        .flat_map(|s| s.outcomes.iter().map(|o| o.lag_s * 1e3))
        .collect();
    vec![
        ("gen.lag_ms.p99", quantile(&lags, 0.99)),
        (
            "gen.sent",
            steps.iter().map(|s| s.stats.sent as f64).sum(),
        ),
        (
            "gen.answered",
            steps.iter().map(|s| s.stats.answered as f64).sum(),
        ),
    ]
}

fn boot_layers(boots: &[Boot]) -> Layer {
    let med = |f: &dyn Fn(&Boot) -> f64| median(&boots.iter().map(f).collect::<Vec<_>>());
    vec![
        ("artifact.load_s", med(&|b| b.load_s)),
        ("artifact.instantiate_s", med(&|b| b.instantiate_s)),
    ]
}

/// Exactly-once and id-echo check over every step: one response per
/// request, in order, each echoing its request's id.
fn check_exactly_once(steps: &[&Step], problems: &mut Vec<String>) {
    for st in steps {
        if st.extra > 0 {
            problems.push(format!(
                "{}: {} responses matched no request",
                st.stats.name, st.extra
            ));
        }
        let unanswered = st.outcomes.iter().filter(|o| o.response.is_none()).count();
        if unanswered > 0 {
            problems.push(format!(
                "{}: {unanswered} requests never answered",
                st.stats.name
            ));
        }
        for (o, p) in st.outcomes.iter().zip(&st.plan) {
            // Error objects (shed requests among them) carry no id.
            let Some(v) = o.response.as_ref().filter(|v| !is_error(v)) else {
                continue;
            };
            let want = request_id(&p.line);
            if v.get("id").and_then(|x| x.as_i64()) != Some(want) {
                problems.push(format!(
                    "{}: response out of order for request {want}",
                    st.stats.name
                ));
                break;
            }
        }
    }
}

fn request_id(line: &str) -> i64 {
    line.strip_prefix("{\"id\":")
        .and_then(|r| r.split(',').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or(-1)
}

fn step_report(steps: &[&Step]) -> Value {
    Value::Array(steps.iter().map(|s| s.stats.json()).collect())
}

/// The steps of one run: warm-up, `low`, `high` and the capacity probe
/// (or, traced, an untraced and a traced `low` then a traced `high`).
struct Schedule {
    low: Step,
    high: Step,
    /// Untraced runs only: closed-loop capacity (successes/s) and errors.
    capacity: Option<(f64, usize)>,
    /// Traced run only: the untraced `low` step.
    untraced_low: Option<Step>,
    /// Traced run only: the transport probe.
    ping: Option<Step>,
}

fn schedule(d: &mut Driver, load: &Load, secs: f64, traced: bool) -> Schedule {
    let ping = traced.then(|| d.ping(load.low, secs * CAPACITY_SHARE));
    d.step("warmup", load.low, (secs * WARM_SHARE).max(0.2), false);
    let untraced_low = traced.then(|| d.step("low", load.low, secs * STEP_SHARE, false));
    if traced {
        dader_obs::trace::configure(1, dader_obs::trace::DEFAULT_CAPACITY);
    }
    let low = d.step(
        if traced { "low.traced" } else { "low" },
        load.low,
        secs * STEP_SHARE,
        traced,
    );
    let high = d.step(
        if traced { "high.traced" } else { "high" },
        load.high,
        secs * STEP_SHARE,
        traced,
    );
    dader_obs::trace::disable();
    let capacity = (!traced).then(|| d.capacity(secs * CAPACITY_SHARE));
    Schedule {
        low,
        high,
        capacity,
        untraced_low,
        ping,
    }
}

impl Schedule {
    fn all(&self) -> Vec<&Step> {
        let mut v: Vec<&Step> = self.untraced_low.iter().collect();
        v.push(&self.low);
        v.push(&self.high);

        v
    }

    /// Latency metrics for the end-to-end view, plus the run's `attempted`
    /// and `failed` (over `low` and `high`). A step whose generator fell
    /// behind makes the run incorrect: its latency is not the server's.
    fn finish(&self, res: &mut RunResult) {
        let (low, high) = (&self.low.stats, &self.high.stats);
        for s in self.all() {
            if !s.stats.valid {
                res.problems.push(format!(
                    "{}: generator fell behind its schedule (lag p99 {:.2} ms > {:.0} ms), so its latency is invalid",
                    s.stats.name,
                    s.stats.lag_p99_s * 1e3,
                    MAX_LAG_S * 1e3
                ));
            }
        }
        res.attempted = low.sent + high.sent;
        res.failed = low.failed() + high.failed();
        let (capacity, capacity_errors) = self.capacity.unwrap_or((0.0, 0));
        res.e2e = vec![
            ("latency_p50_ms", low.p50_s * 1e3),
            ("latency_p90_ms", low.p90_s * 1e3),
        ];
        res.report = std::mem::take(&mut res.report)
            .num("capacity_per_s", capacity)
            .int("capacity_errors", capacity_errors)
            .num("p90_ms.high", high.p90_s * 1e3)
            .num("tail_ms.low", low.tail_s * 1e3)
            .num("tail_ms.high", high.tail_s * 1e3)
            .num("p50_ms.high", high.p50_s * 1e3)
            .num("fail_ratio.low", low.fail_ratio())
            .num("fail_ratio.high", high.fail_ratio())
            .val("steps", step_report(&self.all()));
    }

    /// Traced-run layers: serve, generator, boot and trace overhead.
    fn traced_layers(&self, boots: &[Boot], res: &mut RunResult) {
        let ping = self.ping.as_ref().expect("traced schedules ping");
        let (serve, share) = serve_layers(&self.low, &self.high, ping);
        res.layers.extend(serve);
        res.layers.extend(gen_layers(&[&self.low, &self.high]));
        res.layers.extend(boot_layers(boots));
        let untraced = self
            .untraced_low
            .as_ref()
            .map(|s| s.stats.p50_s)
            .unwrap_or(0.0);
        res.layers.push((
            "obs.trace_overhead",
            self.low.stats.p50_s / untraced.max(1e-12) - 1.0,
        ));
        res.stage_share("serve.stage_share", share);
    }
}

/// The int8 model and its encoder, built outside the server for checks
/// and layer probes.
fn int8_model(assets: &Assets) -> Result<(ModelArtifact, InferenceModel, PairEncoder), String> {
    let art = ModelArtifact::load_file(&assets.int8_path).map_err(|e| e.to_string())?;
    let model = InferenceModel::from_artifact(&art).map_err(|e| e.to_string())?;
    let enc = PairEncoder::from_state(art.encoder.clone())?;
    Ok((art, model, enc))
}

fn json(v: Value) -> String {
    serde_json::to_string(&v).expect("JSON values serialize")
}

fn timings_field(timings: bool) -> &'static str {
    if timings {
        ",\"timings\":true"
    } else {
        ""
    }
}

fn is_error(v: &Value) -> bool {
    v.get("error").is_some()
}

/// Pairs from all 13 quick-scale datasets, generated from the run's seed.
fn pair_pool(seed: u64) -> Vec<EntityPair> {
    DatasetId::all()
        .iter()
        .flat_map(|id| id.generate_scaled(seed, 600).pairs)
        .collect()
}

/// `dader_text`, `dader_core::infer` and `dader_tensor` probes on the
/// pairs a workload scores.
fn probe_model_layers(
    assets: &Assets,
    sample: &[(&Attrs, &Attrs)],
    res: &mut RunResult,
) -> Result<(), String> {
    let (art, model, enc) = int8_model(assets)?;
    let text = layers::text(&enc, sample);
    let real = text[1].1;
    res.layers.extend(text);
    let f32_art = ModelArtifact::load_file(&assets.f32_path).map_err(|e| e.to_string())?;
    let f32m = InferenceModel::from_artifact(&f32_art).map_err(|e| e.to_string())?;
    res.layers.extend(layers::infer(
        &model,
        &f32m,
        &art.extractor,
        &enc,
        sample,
        real,
    ));
    Ok(())
}

// ------------------------------------------------------------ pair_serve

/// Per pool pair, its request fields: `"a":{...},"b":{...}`.
fn pair_frags(pool: &[EntityPair]) -> Vec<String> {
    pool.iter()
        .map(|p| {
            format!(
                "\"a\":{},\"b\":{}",
                json(attrs_json(&p.a.attrs)),
                json(attrs_json(&p.b.attrs))
            )
        })
        .collect()
}

/// A pair request line with id `id`.
fn pair_line(id: usize, frag: &str, timings: bool) -> String {
    format!("{{\"id\":{id},{frag}{}}}\n", timings_field(timings))
}

/// `pair_serve`: open-loop pair requests drawn from all 13 quick-scale
/// datasets (generated from the run's seed).
pub fn pair_serve(args: &Args, assets: &Assets) -> Result<RunResult, String> {
    let pool = pair_pool(args.seed);
    let frags = pair_frags(&pool);
    let (mut server, boots) = start(assets, BOOTS)?;
    let mut d = Driver::new(server.addr, args.seed, &frags);
    let sched = schedule(&mut d, &PAIR_LOAD, args.seconds, args.trace);
    server.shutdown()?;

    let mut res = RunResult::new(boot_median(&boots));
    let steps = sched.all();
    check_exactly_once(&steps, &mut res.problems);

    // Batched ≡ per-connection: every answer equals in-process
    // `predict_pairs` on the same int8 model. F1 is over every answer.
    let (_, model, enc) = int8_model(assets)?;
    let mut used: Vec<usize> = steps
        .iter()
        .flat_map(|s| s.payload.iter())
        .filter_map(|p| {
            if let Payload::Pair(i) = p {
                Some(*i)
            } else {
                None
            }
        })
        .collect::<HashSet<_>>()
        .into_iter()
        .collect();
    used.sort_unstable();
    let pairs: Vec<dader_core::EntityPair> = used
        .iter()
        .map(|&i| (pool[i].a.attrs.clone(), pool[i].b.attrs.clone()))
        .collect();
    let want: HashMap<usize, (usize, f32)> = used
        .iter()
        .copied()
        .zip(model.predict_pairs(&pairs, &enc, 32))
        .collect();
    let mut mismatches = 0usize;
    let (mut tp, mut fp, mut fn_) = (0, 0, 0);
    for st in &steps {
        for (o, p) in st.outcomes.iter().zip(&st.payload) {
            let (Some(v), Payload::Pair(i)) = (&o.response, p) else {
                continue;
            };
            if is_error(v) {
                continue;
            }
            let matched = matches!(v.get("match"), Some(Value::Bool(true)));
            let prob = v
                .get("probability")
                .and_then(|x| x.as_f64())
                .unwrap_or(f64::NAN) as f32;
            let (label, p) = want[i];
            if (usize::from(matched), prob.to_bits()) != (label, p.to_bits()) {
                mismatches += 1;
            }
            match (matched, pool[*i].matching) {
                (true, true) => tp += 1,
                (true, false) => fp += 1,
                (false, true) => fn_ += 1,
                _ => {}
            }
        }
    }
    if mismatches > 0 {
        res.problems.push(format!(
            "{mismatches} served answers differ from in-process predict_pairs"
        ));
    }
    sched.finish(&mut res);
    res.e2e.push(("f1", f1(tp, fp, fn_)));
    res.report = std::mem::take(&mut res.report)
        .int("pool_pairs", pool.len())
        .int("checked_pairs", used.len())
        .int("answer_mismatches", mismatches);

    if args.trace {
        sched.traced_layers(&boots, &mut res);
        let sample: Vec<_> = pool
            .iter()
            .take(2048)
            .map(|p| (&p.a.attrs, &p.b.attrs))
            .collect();
        probe_model_layers(assets, &sample, &mut res)?;
        layers::fill(assets, &pool, args.seed, &mut res)?;
    }
    Ok(res)
}

/// A short traced serve phase for workloads that do not serve: pair
/// requests drawn from `pairs` at `pair_serve`'s `low` and `high` rates,
/// for the serve and generator layers.
pub fn serve_probe(
    assets: &Assets,
    pairs: &[EntityPair],
    seed: u64,
    res: &mut RunResult,
) -> Result<(), String> {
    let frags = pair_frags(pairs);
    let (mut server, _) = start(assets, 1)?;
    let mut d = Driver::new(server.addr, seed, &frags);
    d.step("probe.warmup", PAIR_LOAD.low, PROBE_STEP_S / 2.0, false);
    let ping = d.ping(PAIR_LOAD.low, PROBE_STEP_S);
    let low = d.step("probe.low", PAIR_LOAD.low, PROBE_STEP_S, true);
    let high = d.step("probe.high", PAIR_LOAD.high, PROBE_STEP_S, true);
    server.shutdown()?;
    let (serve, share) = serve_layers(&low, &high, &ping);
    res.layers.extend(serve);
    res.layers.extend(gen_layers(&[&low, &high]));
    res.stage_share("serve.stage_share", share);
    Ok(())
}
