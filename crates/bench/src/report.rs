//! Table/figure reporting: paper-style text tables on stdout and JSON
//! dumps under `results/` so every experiment's numbers are diffable.

use std::fs;
use std::path::PathBuf;

use dader_core::mean_std;
use serde::Serialize;

/// One `mean ± std` cell of a results table.
#[derive(Clone, Debug, Serialize)]
pub struct Cell {
    /// Mean F1 over seeds.
    pub mean: f32,
    /// Sample standard deviation.
    pub std: f32,
    /// Raw per-seed values.
    pub runs: Vec<f32>,
}

impl Cell {
    /// Aggregate per-seed runs.
    pub fn from_runs(runs: Vec<f32>) -> Cell {
        let (mean, std) = mean_std(&runs);
        Cell { mean, std, runs }
    }

    /// Paper-style rendering, e.g. `72.6 ± 3.0`.
    pub fn render(&self) -> String {
        format!("{:.1} ± {:.1}", self.mean, self.std)
    }
}

/// A results table: one row per transfer, one column per method.
#[derive(Debug, Serialize)]
pub struct Table {
    /// Table title (e.g. `Table 3: similar domains`).
    pub title: String,
    /// Column headers after the row label.
    pub columns: Vec<String>,
    /// `(row label, cells)` in print order.
    pub rows: Vec<(String, Vec<Cell>)>,
}

impl Table {
    /// New empty table.
    pub fn new(title: impl Into<String>, columns: Vec<String>) -> Table {
        Table {
            title: title.into(),
            columns,
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn push_row(&mut self, label: impl Into<String>, cells: Vec<Cell>) {
        let label = label.into();
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row {label} has {} cells for {} columns",
            cells.len(),
            self.columns.len()
        );
        self.rows.push((label, cells));
    }

    /// Δ F1 of the best DA method over the first (NoDA) column, per row —
    /// the tables' final column in the paper.
    pub fn delta_f1(&self, row: usize) -> f32 {
        let cells = &self.rows[row].1;
        let noda = cells[0].mean;
        let best = cells[1..]
            .iter()
            .map(|c| c.mean)
            .fold(f32::MIN, f32::max);
        best - noda
    }

    /// Render as an aligned text table (with the Δ F1 column).
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len().max(12)).collect();
        let label_w = self
            .rows
            .iter()
            .map(|(l, _)| l.len())
            .chain(std::iter::once(8))
            .max()
            .unwrap_or(8);
        for (_, cells) in &self.rows {
            for (w, c) in widths.iter_mut().zip(cells) {
                *w = (*w).max(c.render().len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        out.push_str(&format!("{:<label_w$}", "transfer"));
        for (c, w) in self.columns.iter().zip(&widths) {
            out.push_str(&format!("  {c:>w$}"));
        }
        out.push_str("    Δ F1\n");
        for (i, (label, cells)) in self.rows.iter().enumerate() {
            out.push_str(&format!("{label:<label_w$}"));
            for (c, w) in cells.iter().zip(&widths) {
                out.push_str(&format!("  {:>w$}", c.render()));
            }
            out.push_str(&format!("  {:>6.1}\n", self.delta_f1(i)));
        }
        out
    }

    /// Print to stdout and persist as JSON under `results/<slug>.json`.
    pub fn emit(&self, slug: &str) {
        println!("{}", self.render());
        write_json(slug, self);
    }
}

/// One timed phase of a bench run.
#[derive(Clone, Debug, Serialize)]
pub struct BenchPhase {
    /// Phase name (`context`, `train`, `serve`, …).
    pub name: String,
    /// Wall time in seconds.
    pub wall_s: f64,
}

/// Throughput of the run's main work item.
#[derive(Clone, Debug, Serialize)]
pub struct BenchThroughput {
    /// Items per second.
    pub per_second: f64,
    /// What an item is (`pairs`, `epochs`, …).
    pub unit: String,
}

/// One dataset's f32-vs-int8 evaluation F1 comparison.
#[derive(Clone, Debug, Serialize)]
pub struct BenchEvalDataset {
    /// Dataset name (e.g. `FZ`).
    pub name: String,
    /// Taped f32 evaluation F1 (fraction, 0..=1).
    pub f1_f32: f64,
    /// Tape-free int8 evaluation F1 (fraction, 0..=1).
    pub f1_int8: f64,
    /// `f1_int8 - f1_f32` (signed).
    pub delta: f64,
}

/// Eval-phase comparison of the tape-free f32 forward against the
/// int8-quantized one: single-thread throughput for both, the speedup,
/// and per-dataset F1 deltas.
#[derive(Clone, Debug, Serialize)]
pub struct BenchEvalComparison {
    /// Pairs/second through the tape-free f32 evaluation (single thread).
    pub f32_pairs_per_second: f64,
    /// Pairs/second through the tape-free int8 evaluation (single thread).
    pub int8_pairs_per_second: f64,
    /// `int8_pairs_per_second / f32_pairs_per_second`.
    pub speedup: f64,
    /// Per-dataset F1 comparison over the full benchmark suite.
    pub datasets: Vec<BenchEvalDataset>,
    /// Largest `|delta|` across `datasets`.
    pub max_abs_delta: f64,
}

/// The machine-readable summary a bench binary leaves behind.
#[derive(Debug, Serialize)]
pub struct BenchSnapshot {
    /// Binary name (also names the output file).
    pub name: String,
    /// Engine-pool worker count during the run.
    pub threads: usize,
    /// End-to-end wall time in seconds.
    pub total_wall_s: f64,
    /// Per-phase wall times, in execution order.
    pub phases: Vec<BenchPhase>,
    /// Main throughput figure, when the run has one.
    pub throughput: Option<BenchThroughput>,
    /// Eval-phase f32-vs-int8 comparison, when the run produced one.
    pub eval: Option<BenchEvalComparison>,
}

/// Write a run summary to `results/BENCH_<name>.json`: total and
/// per-phase wall time, the pool thread count, and an optional
/// throughput figure. Same failure policy as [`write_json`].
pub fn write_bench_snapshot(
    name: &str,
    total_wall_s: f64,
    phases: Vec<BenchPhase>,
    throughput: Option<BenchThroughput>,
) {
    write_bench_snapshot_with_eval(name, total_wall_s, phases, throughput, None);
}

/// [`write_bench_snapshot`] plus the eval-phase f32-vs-int8 comparison.
pub fn write_bench_snapshot_with_eval(
    name: &str,
    total_wall_s: f64,
    phases: Vec<BenchPhase>,
    throughput: Option<BenchThroughput>,
    eval: Option<BenchEvalComparison>,
) {
    let snapshot = BenchSnapshot {
        name: name.to_string(),
        threads: dader_tensor::pool::current_threads(),
        total_wall_s,
        phases,
        throughput,
        eval,
    };
    write_json(&format!("BENCH_{name}"), &snapshot);
}

/// Serialize any value under `results/<slug>.json` (directory created on
/// demand). The write is atomic — temp file in the same directory, fsync,
/// rename — so a crash mid-write can never leave a truncated JSON file
/// where a previous run's complete one stood. Failures are printed, not
/// fatal — the console table is the primary artifact.
pub fn write_json<T: Serialize>(slug: &str, value: &T) {
    let dir = results_dir();
    if let Err(e) = fs::create_dir_all(&dir) {
        eprintln!("warn: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{slug}.json"));
    let json = match serde_json::to_string_pretty(value) {
        Ok(json) => json,
        Err(e) => {
            eprintln!("warn: cannot serialize {slug}: {e}");
            return;
        }
    };
    match atomic_write(&path, json.as_bytes()) {
        Ok(()) => println!("(results saved to {})", path.display()),
        Err(e) => eprintln!("warn: cannot write {}: {e}", path.display()),
    }
}

/// Write `bytes` to `path` via a same-directory temp file, fsynced before
/// the rename so the data is durable when the new name appears.
fn atomic_write(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write as _;
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    let result = (|| {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// The results directory (`DADER_RESULTS_DIR` or `./results`).
pub fn results_dir() -> PathBuf {
    std::env::var("DADER_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_aggregates() {
        let c = Cell::from_runs(vec![70.0, 80.0, 90.0]);
        assert!((c.mean - 80.0).abs() < 1e-4);
        assert!((c.std - 10.0).abs() < 1e-4);
        assert_eq!(c.render(), "80.0 ± 10.0");
    }

    #[test]
    fn table_renders_delta() {
        let mut t = Table::new("T", vec!["NoDA".into(), "MMD".into()]);
        t.push_row(
            "A->B",
            vec![Cell::from_runs(vec![50.0]), Cell::from_runs(vec![60.0])],
        );
        assert!((t.delta_f1(0) - 10.0).abs() < 1e-4);
        let s = t.render();
        assert!(s.contains("A->B"));
        assert!(s.contains("60.0 ± 0.0"));
        assert!(s.contains("10.0"));
    }

    #[test]
    #[should_panic(expected = "cells for")]
    fn row_arity_checked() {
        let mut t = Table::new("T", vec!["NoDA".into(), "MMD".into()]);
        t.push_row("A->B", vec![Cell::from_runs(vec![50.0])]);
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!("report_atomic_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.json");
        atomic_write(&path, b"{\"v\":1}").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "{\"v\":1}");
        // Overwrite keeps the file valid and cleans up the temp name.
        atomic_write(&path, b"{\"v\":2}").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "{\"v\":2}");
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n != "out.json")
            .collect();
        assert!(leftovers.is_empty(), "temp files left behind: {leftovers:?}");
        fs::remove_dir_all(&dir).unwrap();
    }
}
