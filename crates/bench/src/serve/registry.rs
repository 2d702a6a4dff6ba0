//! Model registry: the hot-reload point of the serving stack.
//!
//! The registry owns the currently served [`MatchServer`] behind an
//! atomically swappable `Arc`. Readers ([`super::serve_event_loop`]) take
//! a cheap snapshot per inference batch; a reload builds the replacement
//! model off to the side and swaps the `Arc` in one move, so in-flight
//! batches finish on the model they started with and **zero requests are
//! dropped** across a swap. Every response carries the `version` tag of
//! the model that scored it (`v1`, `v2`, …), so clients observe exactly
//! when the flip happened.
//!
//! Reload triggers: a `{"mode": "reload"}` request line on any serving
//! connection (optionally with `"artifact": "<path>"` to switch files),
//! or a `reload [path]` control line on the `dader-serve --listen`
//! process stdin — the SIGHUP idiom without signal handling.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use dader_block::StreamingIndex;
use dader_datagen::Entity;

use super::{metrics, MatchServer};

/// Consecutive reload failures before the breaker opens.
const BREAKER_THRESHOLD: u32 = 3;
/// Backoff after the breaker first opens; doubles per further failure.
const BREAKER_BASE_BACKOFF: Duration = Duration::from_millis(500);
/// Backoff ceiling — a broken artifact path should retry every half
/// minute, not never.
const BREAKER_MAX_BACKOFF: Duration = Duration::from_secs(30);

/// Reload circuit breaker: consecutive failures open it, and while open
/// reloads fast-fail without touching the filesystem. A successful
/// install closes it.
#[derive(Default)]
struct BreakerState {
    consecutive_failures: u32,
    open_until: Option<Instant>,
}

/// Summary of the live index, as reported by `/status` and the
/// `dader index info` CLI.
#[derive(Debug)]
pub struct IndexStats {
    /// Blocker family (`"topk"` or `"lsh"`).
    pub kind: &'static str,
    /// Live records (tombstones excluded).
    pub records: usize,
    /// Dead slots awaiting compaction.
    pub tombstones: usize,
    /// Mutation counter; bumps on every upsert/delete/compact/reload.
    pub generation: u64,
    /// Rough in-memory footprint of the slot log.
    pub approx_bytes: usize,
}

/// The live corpus index shared between the event loop (mutations answer
/// inline) and batch workers (`match_record` / index-backed `match_table`
/// probes). A single `RwLock` keeps the streaming index's mutation
/// contract: queries take the read side concurrently, mutations and
/// hot-reloads take the write side, and the generation tag in responses
/// tells clients exactly which state they observed.
pub struct SharedIndex {
    inner: RwLock<StreamingIndex>,
}

impl SharedIndex {
    fn new(index: StreamingIndex) -> SharedIndex {
        SharedIndex {
            inner: RwLock::new(index),
        }
    }

    /// Run `f` against the index under the read lock. Batch workers use
    /// this for candidate generation; keep `f` free of blocking calls so
    /// inline mutations on the event loop are not starved.
    pub fn with<R>(&self, f: impl FnOnce(&StreamingIndex) -> R) -> R {
        f(&self.inner.read().unwrap())
    }

    /// Insert or overwrite one record. Returns `(replaced, generation,
    /// live_records)` after the mutation.
    pub fn upsert(&self, record: Entity) -> (bool, u64, usize) {
        let mut idx = self.inner.write().unwrap();
        let replaced = idx.contains(&record.id);
        idx.upsert(record);
        (replaced, idx.generation(), idx.len())
    }

    /// Tombstone one record by id. Returns `(deleted, generation,
    /// live_records)`; a miss leaves the generation untouched.
    pub fn delete(&self, id: &str) -> (bool, u64, usize) {
        let mut idx = self.inner.write().unwrap();
        let deleted = idx.delete(id);
        (deleted, idx.generation(), idx.len())
    }

    /// Swap in a freshly loaded index (hot reload). The old state is
    /// dropped; queries already holding the read lock finish first.
    fn replace(&self, index: StreamingIndex) {
        *self.inner.write().unwrap() = index;
    }

    /// Snapshot the stats `/status` reports.
    pub fn stats(&self) -> IndexStats {
        let idx = self.inner.read().unwrap();
        IndexStats {
            kind: idx.kind().as_str(),
            records: idx.len(),
            tombstones: idx.tombstones(),
            generation: idx.generation(),
            approx_bytes: idx.approx_bytes(),
        }
    }
}

/// One served model plus its registry version tag.
pub struct VersionedModel {
    /// The model + encoder answering requests.
    pub server: MatchServer,
    /// Registry-assigned tag (`v1`, `v2`, …), echoed in every response.
    pub version: String,
}

/// Atomically swappable slot holding the serving model, plus the artifact
/// path reloads re-read by default.
pub struct ModelRegistry {
    current: Mutex<Arc<VersionedModel>>,
    artifact_path: Mutex<Option<PathBuf>>,
    generation: AtomicU64,
    breaker: Mutex<BreakerState>,
    index: Mutex<Option<Arc<SharedIndex>>>,
    index_path: Mutex<Option<PathBuf>>,
}

impl ModelRegistry {
    /// Register `server` as version `v1`, with no artifact path on file
    /// (reloads must name one explicitly).
    pub fn new(server: MatchServer) -> ModelRegistry {
        ModelRegistry {
            current: Mutex::new(Arc::new(VersionedModel {
                server,
                version: "v1".to_string(),
            })),
            artifact_path: Mutex::new(None),
            generation: AtomicU64::new(1),
            breaker: Mutex::new(BreakerState::default()),
            index: Mutex::new(None),
            index_path: Mutex::new(None),
        }
    }

    /// Load the artifact at `path` as version `v1` and remember the path,
    /// so a bare `reload` re-reads the same file (artifact replaced on
    /// disk — the deploy idiom).
    pub fn from_artifact_file(
        path: impl AsRef<Path>,
    ) -> Result<ModelRegistry, dader_core::artifact::ArtifactError> {
        let server = MatchServer::from_artifact_file(&path)?;
        let reg = ModelRegistry::new(server);
        *reg.artifact_path.lock().unwrap() = Some(path.as_ref().to_path_buf());
        Ok(reg)
    }

    /// Snapshot the current model. The returned `Arc` stays valid across
    /// any number of reloads — batches hold it until they finish.
    pub fn current(&self) -> Arc<VersionedModel> {
        Arc::clone(&self.current.lock().unwrap())
    }

    /// The version tag currently being served.
    pub fn version(&self) -> String {
        self.current().version.clone()
    }

    /// Numeric generation of the serving model (1 for `v1`, bumped on
    /// every install) — the `/status` and trace-arg form of [`version`]
    /// (`Self::version`).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// Install an already-built server as the next version, returning its
    /// tag. The swap is atomic: requests batched before it see the old
    /// model, requests batched after it see the new one, nothing is
    /// dropped in between.
    pub fn install(&self, server: MatchServer) -> String {
        let n = self.generation.fetch_add(1, Ordering::Relaxed) + 1;
        let version = format!("v{n}");
        *self.current.lock().unwrap() = Arc::new(VersionedModel {
            server,
            version: version.clone(),
        });
        metrics().reloads.inc();
        // A working model closes the breaker: the failure streak is over.
        *self.breaker.lock().unwrap() = BreakerState::default();
        dader_obs::gauge("serve_reload_breaker_open").set(0.0);
        version
    }

    /// Whether the reload circuit breaker is currently open (reloads
    /// fast-fail). Feeds `GET /healthz` and the status snapshot.
    pub fn breaker_open(&self) -> bool {
        self.breaker
            .lock()
            .unwrap()
            .open_until
            .map(|t| Instant::now() < t)
            .unwrap_or(false)
    }

    /// Record one reload failure: after [`BREAKER_THRESHOLD`] consecutive
    /// failures the breaker opens with exponential backoff (doubling per
    /// further failure, capped at [`BREAKER_MAX_BACKOFF`]).
    fn record_reload_failure(&self) {
        let mut b = self.breaker.lock().unwrap();
        b.consecutive_failures += 1;
        dader_obs::counter("serve_reload_failures_total").inc();
        if b.consecutive_failures >= BREAKER_THRESHOLD {
            let doublings = (b.consecutive_failures - BREAKER_THRESHOLD).min(16);
            let backoff =
                (BREAKER_BASE_BACKOFF * 2u32.pow(doublings)).min(BREAKER_MAX_BACKOFF);
            b.open_until = Some(Instant::now() + backoff);
            dader_obs::gauge("serve_reload_breaker_open").set(1.0);
        }
    }

    /// Reload from `path_override`, or from the path on file. The new
    /// artifact is fully loaded and validated *before* the swap; any
    /// failure leaves the current model serving untouched. On success the
    /// override (if any) becomes the new path on file, and the new version
    /// tag is returned.
    /// [`try_reload`](Self::try_reload) behind the circuit breaker: while
    /// the breaker is open the reload fast-fails without touching the
    /// filesystem (the cause of the streak is still being fixed — load
    /// attempts would only burn serving-thread time), and fast-fails do
    /// not extend the backoff. A successful reload closes the breaker.
    pub fn reload(&self, path_override: Option<&Path>) -> Result<String, String> {
        {
            let b = self.breaker.lock().unwrap();
            if let Some(until) = b.open_until {
                let now = Instant::now();
                if now < until {
                    return Err(format!(
                        "reload breaker open after {} consecutive failures; retry in {:.1}s",
                        b.consecutive_failures,
                        (until - now).as_secs_f64()
                    ));
                }
                // Half-open: the backoff elapsed, let this attempt through.
            }
        }
        match self.try_reload(path_override) {
            Ok(version) => Ok(version),
            Err(msg) => {
                self.record_reload_failure();
                Err(msg)
            }
        }
    }

    /// One reload attempt, breaker not consulted.
    fn try_reload(&self, path_override: Option<&Path>) -> Result<String, String> {
        // Chaos failpoint: any armed `serve.reload` action becomes a
        // reload failure routed through the breaker accounting.
        if dader_obs::fault::check("serve.reload").is_some() {
            return Err("fault injected: serve.reload".to_string());
        }
        let path = match path_override {
            Some(p) => p.to_path_buf(),
            None => self
                .artifact_path
                .lock()
                .unwrap()
                .clone()
                .ok_or_else(|| {
                    "no artifact path on file; pass one: \
                     {\"mode\": \"reload\", \"artifact\": \"<path>\"}"
                        .to_string()
                })?,
        };
        let server = MatchServer::from_artifact_file(&path)
            .map_err(|e| format!("cannot load artifact {}: {e}", path.display()))?;
        let version = self.install(server);
        *self.artifact_path.lock().unwrap() = Some(path);
        Ok(version)
    }

    /// The live corpus index, if one is loaded. Batch jobs snapshot this
    /// `Arc` at flush time; mutations through it are visible to every
    /// holder immediately (the index is deliberately live, unlike the
    /// immutable model snapshot).
    pub fn index(&self) -> Option<Arc<SharedIndex>> {
        self.index.lock().unwrap().clone()
    }

    /// Install an already-built index, remembering `path` (if any) so a
    /// bare index reload re-reads the same file. If an index is already
    /// live its contents are swapped in place, so `Arc` holders see the
    /// new state.
    pub fn install_index(&self, index: StreamingIndex, path: Option<PathBuf>) {
        {
            let mut slot = self.index.lock().unwrap();
            match slot.as_ref() {
                Some(shared) => shared.replace(index),
                None => *slot = Some(Arc::new(SharedIndex::new(index))),
            }
        }
        if path.is_some() {
            *self.index_path.lock().unwrap() = path;
        }
    }

    /// Load an [`IndexArtifact`](dader_block::artifact) from disk and
    /// install it, remembering the path for bare reloads. Used by
    /// `dader-serve --index` at startup.
    pub fn load_index_file(
        &self,
        path: impl AsRef<Path>,
    ) -> Result<IndexStats, dader_block::ArtifactError> {
        let index = StreamingIndex::load_file(&path)?;
        self.install_index(index, Some(path.as_ref().to_path_buf()));
        Ok(self.index().expect("just installed").stats())
    }

    /// Hot-reload the index from `path_override`, or from the path on
    /// file. Shares the model reload's circuit breaker: a streak of bad
    /// index files opens it just like a streak of bad model artifacts,
    /// and a success closes it. The new index is fully loaded and
    /// validated before the swap — failures leave the live index serving
    /// untouched.
    pub fn reload_index(&self, path_override: Option<&Path>) -> Result<IndexStats, String> {
        {
            let b = self.breaker.lock().unwrap();
            if let Some(until) = b.open_until {
                let now = Instant::now();
                if now < until {
                    return Err(format!(
                        "reload breaker open after {} consecutive failures; retry in {:.1}s",
                        b.consecutive_failures,
                        (until - now).as_secs_f64()
                    ));
                }
            }
        }
        match self.try_reload_index(path_override) {
            Ok(stats) => Ok(stats),
            Err(msg) => {
                self.record_reload_failure();
                Err(msg)
            }
        }
    }

    /// One index-reload attempt, breaker not consulted.
    fn try_reload_index(&self, path_override: Option<&Path>) -> Result<IndexStats, String> {
        if dader_obs::fault::check("serve.reload").is_some() {
            return Err("fault injected: serve.reload".to_string());
        }
        let path = match path_override {
            Some(p) => p.to_path_buf(),
            None => self.index_path.lock().unwrap().clone().ok_or_else(|| {
                "no index path on file; pass one: \
                 {\"mode\": \"reload\", \"index\": \"<path>\"}"
                    .to_string()
            })?,
        };
        let index = StreamingIndex::load_file(&path)
            .map_err(|e| format!("cannot load index {}: {e}", path.display()))?;
        self.install_index(index, Some(path));
        dader_obs::counter("serve_index_reloads_total").inc();
        // A working index closes the breaker, same as a working model.
        *self.breaker.lock().unwrap() = BreakerState::default();
        dader_obs::gauge("serve_reload_breaker_open").set(0.0);
        Ok(self.index().expect("just installed").stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dader_core::{DaderModel, LmExtractor, Matcher};
    use dader_nn::TransformerConfig;
    use dader_text::{PairEncoder, Vocab};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_server(seed: u64) -> MatchServer {
        let vocab = Vocab::build(["title", "kodak", "esp"], 1, 100);
        let encoder = PairEncoder::new(vocab.clone(), 16);
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = TransformerConfig {
            vocab: vocab.len(),
            dim: 8,
            layers: 1,
            heads: 2,
            ffn_dim: 16,
            max_len: 16,
        };
        let model = DaderModel {
            extractor: Box::new(LmExtractor::new(cfg, &mut rng)),
            matcher: Matcher::new(8, &mut rng),
        };
        MatchServer::new(model, encoder, format!("registry test {seed}"))
    }

    #[test]
    fn install_bumps_version_and_old_snapshots_survive() {
        let reg = ModelRegistry::new(tiny_server(1));
        assert_eq!(reg.version(), "v1");
        let held = reg.current();
        let v2 = reg.install(tiny_server(2));
        assert_eq!(v2, "v2");
        assert_eq!(reg.version(), "v2");
        // The old snapshot is still fully usable — in-flight batches keep
        // scoring on the model they started with.
        assert_eq!(held.version, "v1");
        assert_eq!(held.server.description, "registry test 1");
        assert_eq!(reg.current().server.description, "registry test 2");
    }

    #[test]
    fn reload_without_path_on_file_is_an_error_and_keeps_serving() {
        let reg = ModelRegistry::new(tiny_server(3));
        let err = reg.reload(None).unwrap_err();
        assert!(err.contains("no artifact path on file"), "{err}");
        assert_eq!(reg.version(), "v1", "failed reload must not swap");
    }

    #[test]
    fn reload_from_missing_file_keeps_current_model() {
        let reg = ModelRegistry::new(tiny_server(4));
        let err = reg
            .reload(Some(Path::new("/definitely/not/here.dma")))
            .unwrap_err();
        assert!(err.contains("cannot load artifact"), "{err}");
        assert_eq!(reg.version(), "v1");
    }

    #[test]
    fn breaker_opens_after_consecutive_failures_and_fast_fails() {
        let reg = ModelRegistry::new(tiny_server(5));
        let missing = Path::new("/definitely/not/here.dma");
        for _ in 0..BREAKER_THRESHOLD {
            let err = reg.reload(Some(missing)).unwrap_err();
            assert!(err.contains("cannot load artifact"), "{err}");
        }
        assert!(reg.breaker_open(), "threshold reached: breaker must open");
        // While open, reloads fast-fail without a load attempt — the
        // message names the breaker, not the artifact.
        let err = reg.reload(Some(missing)).unwrap_err();
        assert!(err.contains("reload breaker open"), "{err}");
        assert_eq!(reg.version(), "v1", "nothing swapped through the streak");
        // Fast-fails do not extend the backoff: the breaker half-opens
        // once the base backoff elapses.
        std::thread::sleep(BREAKER_BASE_BACKOFF + Duration::from_millis(100));
        let err = reg.reload(Some(missing)).unwrap_err();
        assert!(
            err.contains("cannot load artifact"),
            "half-open must attempt a real reload, got: {err}"
        );
        assert!(reg.breaker_open(), "the failed retry re-opens the breaker");
    }

    #[test]
    fn successful_install_closes_the_breaker() {
        let reg = ModelRegistry::new(tiny_server(6));
        let missing = Path::new("/definitely/not/here.dma");
        for _ in 0..BREAKER_THRESHOLD {
            let _ = reg.reload(Some(missing)).unwrap_err();
        }
        assert!(reg.breaker_open());
        let v2 = reg.install(tiny_server(7));
        assert_eq!(v2, "v2");
        assert!(!reg.breaker_open(), "a working model closes the breaker");
    }

    use dader_block::StreamKind;

    fn rec(id: &str, text: &str) -> Entity {
        Entity::new(id, vec![("title", text.to_string())])
    }

    #[test]
    fn index_slot_starts_empty_and_mutates_in_place() {
        let reg = ModelRegistry::new(tiny_server(8));
        assert!(reg.index().is_none());
        reg.install_index(
            StreamingIndex::build(StreamKind::TfIdf, &[rec("b0", "kodak esp")]),
            None,
        );
        let idx = reg.index().expect("installed");
        let (replaced, g1, n1) = idx.upsert(rec("b1", "sony bravia"));
        assert!(!replaced);
        assert_eq!(n1, 2);
        let (replaced, g2, n2) = idx.upsert(rec("b1", "sony bravia tv"));
        assert!(replaced, "same id again is an overwrite");
        assert_eq!((n2, g2), (2, g1 + 1));
        let (deleted, g3, n3) = idx.delete("b0");
        assert!(deleted);
        assert_eq!((n3, g3), (1, g2 + 1));
        let (deleted, g4, _) = idx.delete("b0");
        assert!(!deleted, "double delete is a miss");
        assert_eq!(g4, g3, "a miss must not bump the generation");
        // Mutations are visible through every Arc holder — the slot is
        // live, not snapshotted.
        assert_eq!(reg.index().unwrap().stats().records, 1);
        assert_eq!(idx.stats().tombstones, 2);
    }

    #[test]
    fn index_reload_swaps_in_place_and_failures_keep_serving() {
        let reg = ModelRegistry::new(tiny_server(9));
        let err = reg.reload_index(None).unwrap_err();
        assert!(err.contains("no index path on file"), "{err}");

        let path = std::env::temp_dir()
            .join(format!("dader_registry_idx_{}.ddi", std::process::id()));
        StreamingIndex::build(StreamKind::TfIdf, &[rec("b0", "kodak esp")])
            .save_file(&path)
            .unwrap();
        let stats = reg.reload_index(Some(&path)).unwrap();
        assert_eq!(stats.records, 1);
        let held = reg.index().expect("loaded");

        // Re-save a bigger index and bare-reload from the stored path:
        // the Arc held across the swap sees the new contents.
        StreamingIndex::build(
            StreamKind::TfIdf,
            &[rec("b0", "kodak esp"), rec("b1", "hp laserjet")],
        )
        .save_file(&path)
        .unwrap();
        let stats = reg.reload_index(None).unwrap();
        assert_eq!(stats.records, 2);
        assert_eq!(held.stats().records, 2, "swap must be in place");

        // A bad file fails typed and leaves the live index untouched.
        std::fs::write(&path, b"garbage").unwrap();
        let err = reg.reload_index(None).unwrap_err();
        assert!(err.contains("cannot load index"), "{err}");
        assert_eq!(held.stats().records, 2);
        std::fs::remove_file(&path).unwrap();
    }
}
