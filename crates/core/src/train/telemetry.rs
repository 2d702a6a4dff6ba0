//! Per-run telemetry plumbing for the training loops.
//!
//! [`RunTelemetry`] bridges a training run to `dader-obs`: when the
//! config requests telemetry (`cfg.telemetry`) or verbose progress
//! (`cfg.verbose`) it switches span timers on for the duration of the run
//! (restoring the previous state on drop), opens the JSONL sink, and
//! turns each epoch's statistics plus the span-table delta into one
//! [`dader_obs::EpochRecord`]. With neither requested every call is a
//! no-op, so the training loops stay at un-instrumented speed.

use std::collections::HashMap;
use std::time::Instant;

use dader_obs::telemetry::{EpochRecord, OpSummary, TelemetrySink};
use dader_obs::SpanStat;

use crate::train::config::TrainConfig;

/// One epoch's facts, handed to [`RunTelemetry::record`] by the loops.
/// Wall time and the op summary are filled in by the recorder.
pub struct EpochReport {
    /// Epoch number (1-based within its phase).
    pub epoch: usize,
    /// `train` (Algorithm 1), `step1` or `adversarial` (Algorithm 2).
    pub phase: &'static str,
    /// Mean matching (or generator) loss.
    pub loss_m: f32,
    /// Mean alignment (or discriminator) loss.
    pub loss_a: f32,
    /// Validation F1, when this phase evaluates.
    pub val_f1: Option<f32>,
    /// Source-test F1, when tracked.
    pub source_f1: Option<f32>,
    /// Target-test F1, when tracked.
    pub target_f1: Option<f32>,
    /// GRL λ at the epoch's final step (GRL method only).
    pub grl_lambda: Option<f32>,
    /// True when this epoch's model became the selected snapshot.
    pub snapshot: bool,
}

/// Telemetry state for one training run. Construct at the top of the
/// loop, call [`record`](RunTelemetry::record) once per epoch.
pub struct RunTelemetry {
    sink: Option<TelemetrySink>,
    verbose: bool,
    /// Keeps spans recording for the run (`None` when telemetry is off).
    _spans: Option<dader_obs::SpanSession>,
    /// Span totals at the last record, for per-epoch deltas.
    prev_spans: HashMap<&'static str, SpanStat>,
    epoch_start: Instant,
}

impl RunTelemetry {
    /// Set up telemetry per the config. Panics when a requested telemetry
    /// file can't be created — silently losing a run's records is worse.
    pub fn new(cfg: &TrainConfig) -> RunTelemetry {
        let active = cfg.telemetry.is_some() || cfg.verbose;
        let spans = active.then(dader_obs::SpanSession::open);
        let sink = cfg.telemetry.as_ref().map(|path| {
            // A resumed run appends, keeping the interrupted run's records.
            let open = if cfg.resume.is_some() {
                TelemetrySink::append(path)
            } else {
                TelemetrySink::create(path)
            };
            open.unwrap_or_else(|e| {
                panic!("failed to create telemetry file {}: {e}", path.display())
            })
        });
        let prev_spans = snapshot_map();
        RunTelemetry {
            sink,
            verbose: cfg.verbose,
            _spans: spans,
            prev_spans,
            epoch_start: Instant::now(),
        }
    }

    /// True when records are being written or printed.
    pub fn active(&self) -> bool {
        self.sink.is_some() || self.verbose
    }

    /// Record one epoch: write the JSONL line, print the verbose progress
    /// line, and reset the per-epoch clock and span baseline.
    pub fn record(&mut self, report: EpochReport) {
        if !self.active() {
            return;
        }
        let wall_s = self.epoch_start.elapsed().as_secs_f64();
        let now = dader_obs::timing_snapshot();
        let mut ops: Vec<OpSummary> = now
            .iter()
            .map(|s| OpSummary::delta(s, self.prev_spans.get(s.name)))
            .filter(|d| d.calls > 0)
            .collect();
        ops.sort_by(|a, b| b.total_ms.total_cmp(&a.total_ms));
        self.prev_spans = now.into_iter().map(|s| (s.name, s)).collect();

        let rec = EpochRecord {
            epoch: report.epoch,
            phase: report.phase,
            loss_m: report.loss_m,
            loss_a: report.loss_a,
            val_f1: report.val_f1,
            source_f1: report.source_f1,
            target_f1: report.target_f1,
            grl_lambda: report.grl_lambda,
            snapshot: report.snapshot,
            wall_s,
            ops,
        };
        if self.verbose {
            eprintln!("{}", progress_line(&rec));
        }
        if let Some(sink) = &mut self.sink {
            sink.record(&rec).unwrap_or_else(|e| {
                panic!(
                    "failed to write telemetry record to {}: {e}",
                    sink.path().display()
                )
            });
        }
        self.epoch_start = Instant::now();
    }

    /// Record a training-health event (a rollback or an abort from the
    /// health guard). Always counted in the `train_health_events_total`
    /// metric; written as its own JSONL line (`{"event":"health",...}`)
    /// and echoed to stderr when the run is verbose.
    pub fn health_event(
        &mut self,
        phase: &'static str,
        epoch: usize,
        kind: &str,
        loss: f32,
        lr: f32,
        retries: u32,
    ) {
        dader_obs::counter("train_health_events_total").inc();
        if self.verbose {
            eprintln!(
                "[dader] {phase} epoch {epoch} HEALTH {kind}: loss {loss}, lr -> {lr} (retry {retries})"
            );
        }
        if let Some(sink) = &mut self.sink {
            let line = format!(
                "{{\"event\":\"health\",\"phase\":\"{phase}\",\"epoch\":{epoch},\
                 \"kind\":\"{kind}\",\"loss\":{},\"lr\":{},\"retries\":{retries}}}",
                json_f32(loss),
                json_f32(lr)
            );
            sink.record_raw(&line).unwrap_or_else(|e| {
                panic!(
                    "failed to write telemetry record to {}: {e}",
                    sink.path().display()
                )
            });
        }
    }
}

/// JSON has no NaN/Inf — degrade non-finite values (the very thing health
/// events report) to `null`.
fn json_f32(v: f32) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn snapshot_map() -> HashMap<&'static str, SpanStat> {
    dader_obs::timing_snapshot()
        .into_iter()
        .map(|s| (s.name, s))
        .collect()
}

/// The human-readable per-epoch stderr line (`--verbose`).
fn progress_line(rec: &EpochRecord) -> String {
    use std::fmt::Write as _;
    let mut line = format!(
        "[dader] {} epoch {:>3}  loss_m {:>8.4}  loss_a {:>8.4}",
        rec.phase, rec.epoch, rec.loss_m, rec.loss_a
    );
    if let Some(f1) = rec.val_f1 {
        let _ = write!(line, "  val_f1 {f1:>6.2}");
    }
    if let Some(l) = rec.grl_lambda {
        let _ = write!(line, "  λ {l:.3}");
    }
    if rec.snapshot {
        line.push_str("  *snapshot*");
    }
    let _ = write!(line, "  ({:.2}s", rec.wall_s);
    if let Some(top) = rec.ops.first() {
        let _ = write!(line, ", top op {} {:.0}ms", top.name, top.total_ms);
    }
    line.push(')');
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(epoch: usize) -> EpochReport {
        EpochReport {
            epoch,
            phase: "train",
            loss_m: 0.5,
            loss_a: 0.25,
            val_f1: Some(60.0),
            source_f1: None,
            target_f1: None,
            grl_lambda: None,
            snapshot: epoch == 1,
        }
    }

    #[test]
    fn inactive_run_is_a_no_op() {
        let cfg = TrainConfig::default();
        let mut t = RunTelemetry::new(&cfg);
        assert!(!t.active());
        t.record(report(1)); // must not panic or write anywhere
    }

    #[test]
    fn sink_gets_one_line_per_epoch() {
        let path = std::env::temp_dir().join(format!("core_tele_{}.jsonl", std::process::id()));
        let cfg = TrainConfig {
            telemetry: Some(path.clone()),
            ..TrainConfig::default()
        };
        {
            let mut t = RunTelemetry::new(&cfg);
            assert!(t.active());
            t.record(report(1));
            t.record(report(2));
        }
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().all(|l| l.starts_with("{\"epoch\":")));
    }

    #[test]
    fn health_events_and_resume_append() {
        let path = std::env::temp_dir().join(format!("core_tele_health_{}.jsonl", std::process::id()));
        let cfg = TrainConfig {
            telemetry: Some(path.clone()),
            ..TrainConfig::default()
        };
        {
            let mut t = RunTelemetry::new(&cfg);
            t.record(report(1));
            t.health_event("train", 2, "rollback", f32::NAN, 5e-4, 1);
        }
        // A resumed run must append, not truncate.
        let resumed = TrainConfig {
            resume: Some(std::path::PathBuf::from("whatever.ddrs")),
            ..cfg
        };
        {
            let mut t = RunTelemetry::new(&resumed);
            t.record(report(2));
        }
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[1],
            "{\"event\":\"health\",\"phase\":\"train\",\"epoch\":2,\"kind\":\"rollback\",\"loss\":null,\"lr\":0.0005,\"retries\":1}"
        );
        assert!(lines[2].contains("\"epoch\":2"));
    }

    #[test]
    fn progress_line_mentions_snapshot_and_f1() {
        let rec = EpochRecord {
            epoch: 3,
            phase: "train",
            loss_m: 0.1,
            loss_a: 0.2,
            val_f1: Some(61.25),
            source_f1: None,
            target_f1: None,
            grl_lambda: Some(0.4),
            snapshot: true,
            wall_s: 0.5,
            ops: vec![],
        };
        let line = progress_line(&rec);
        assert!(line.contains("epoch   3"));
        assert!(line.contains("61.25"));
        assert!(line.contains("*snapshot*"));
    }
}
