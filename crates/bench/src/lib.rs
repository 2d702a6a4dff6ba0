//! # dader-bench
//!
//! The experiment harness regenerating every table and figure of the DADER
//! paper (see DESIGN.md §4 for the experiment index). The binaries under
//! `src/bin/` each reproduce one table/figure; Criterion micro-benchmarks
//! live under `benches/`.
//!
//! Run e.g. `cargo run --release -p dader-bench --bin table3 -- --scale quick`.

pub mod context;
pub mod matching;
pub mod report;
pub mod scale;
pub mod serve;

pub use context::{apply_log_args, Context, TargetSplits};
pub use matching::{
    build_blocker, match_tables, match_tables_indexed, BlockerKind, MatchOutcome, TableMatch,
};
pub use report::{
    write_bench_snapshot, write_bench_snapshot_with_eval, write_json, BenchEvalComparison,
    BenchEvalDataset, Cell, Table,
};
pub use scale::Scale;
pub use serve::registry::{IndexStats, SharedIndex};
pub use serve::{
    serve_event_loop, serve_stream, spawn_status_endpoint, ErrorCode, MatchServer, ModelRegistry,
    ServeLimits, TcpServeConfig, VersionedModel,
};

// Re-exported so the `note!`/`chat!` macros can reach the log gates from
// any binary via `$crate`.
pub use dader_obs;

use dader_datagen::DatasetId;

/// The similar-domain transfers of Table 3.
pub const TABLE3_TRANSFERS: [(DatasetId, DatasetId); 6] = [
    (DatasetId::WA, DatasetId::AB),
    (DatasetId::AB, DatasetId::WA),
    (DatasetId::DS, DatasetId::DA),
    (DatasetId::DA, DatasetId::DS),
    (DatasetId::ZY, DatasetId::FZ),
    (DatasetId::FZ, DatasetId::ZY),
];

/// The different-domain transfers of Table 4.
pub const TABLE4_TRANSFERS: [(DatasetId, DatasetId); 6] = [
    (DatasetId::RI, DatasetId::AB),
    (DatasetId::RI, DatasetId::WA),
    (DatasetId::IA, DatasetId::DA),
    (DatasetId::IA, DatasetId::DS),
    (DatasetId::B2, DatasetId::FZ),
    (DatasetId::B2, DatasetId::ZY),
];

/// The WDC category transfers of Table 5 (paper row order).
pub const TABLE5_TRANSFERS: [(DatasetId, DatasetId); 12] = [
    (DatasetId::CO, DatasetId::WT),
    (DatasetId::WT, DatasetId::CO),
    (DatasetId::CA, DatasetId::WT),
    (DatasetId::WT, DatasetId::CA),
    (DatasetId::SH, DatasetId::WT),
    (DatasetId::WT, DatasetId::SH),
    (DatasetId::CO, DatasetId::SH),
    (DatasetId::SH, DatasetId::CO),
    (DatasetId::CA, DatasetId::SH),
    (DatasetId::SH, DatasetId::CA),
    (DatasetId::CO, DatasetId::CA),
    (DatasetId::CA, DatasetId::CO),
];

/// Label a transfer like the paper's figures (`AB-WA`).
pub fn transfer_label(s: DatasetId, t: DatasetId) -> String {
    format!("{s}-{t}")
}

/// Apply a `--threads N` command-line override to the engine pool.
///
/// Every bench binary calls this at startup, so parallelism can be pinned
/// per invocation (`--threads 4`) without touching `DADER_THREADS`.
/// Results are bitwise identical at any setting; this only trades
/// wall-clock time.
pub fn apply_thread_args() {
    let args: Vec<String> = std::env::args().collect();
    let n = args
        .windows(2)
        .find(|w| w[0] == "--threads")
        .and_then(|w| w[1].parse::<usize>().ok());
    if let Some(n) = n {
        dader_core::train::ParallelConfig::with_threads(n).apply();
    }
}

/// Standard bench-binary startup: apply the `--threads` override, the
/// `--quiet`/`--verbose`/`DADER_LOG` log level, and arm any fault points
/// requested via `DADER_FAULTS` (fault-injection test harnesses drive the
/// real binaries through the environment). Every binary calls this first
/// thing in `main`.
pub fn init_cli() {
    apply_thread_args();
    context::apply_log_args();
    dader_obs::fault::arm_from_env();
}
