//! The serving subsystem tying engine, worker pool, validity cache, program
//! memo and warm-start persistence together.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use birelcost::{DefIndex, Engine, ProgramReport};
use rel_constraint::{CacheStats, ProgramCacheStats, ShardedValidityCache, SharedProgramCache};
use rel_obs::{Backoff, Registry, RegistrySnapshot};
use rel_persist::{FaultFs, RealFs, WalLimits, WalRecord, WalStats, WalStore};
use rel_syntax::parse_program;

use crate::batch::{check_batch_with, check_job_with, BatchJob, BatchResult};

/// Configuration of a [`Service`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads for batch checking (1 = sequential).
    pub workers: usize,
    /// Shards of the validity cache.
    pub cache_shards: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: available_workers(),
            cache_shards: 16,
        }
    }
}

/// Picks a default worker count from the machine's parallelism.
pub fn available_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Persistence counters and the attached cache file.
#[derive(Debug, Default)]
struct PersistState {
    /// The cache file, once configured via [`Service::attach_cache_file`].
    /// Shared with the store observers (which append outside the persist
    /// lock), so the lock order is always `persist → wal` or `wal` alone —
    /// never the reverse.
    wal: Option<Arc<Mutex<WalStore>>>,
    /// Attaches that found a compacted image.
    loads: u64,
    /// Successful compactions.
    saves: u64,
    /// Verdicts restored from the image by the last load.
    loaded_verdicts: u64,
    /// Definition hashes restored from the image by the last load.
    loaded_defs: u64,
    /// [`Service::warm_stamp`] when memory last matched the file (dirty
    /// tracking for the flushers).
    last_saved_stamp: Option<u64>,
}

/// A point-in-time summary of the persistence layer (returned by
/// [`Service::persist_stats`], surfaced by the daemon's `{"cache":"stats"}`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PersistStats {
    /// The configured cache file, if any.
    pub path: Option<PathBuf>,
    /// Attaches that found a compacted image.
    pub loads: u64,
    /// Successful compactions.
    pub saves: u64,
    /// Verdicts restored from the image by the last load.
    pub loaded_verdicts: u64,
    /// Definition hashes restored from the image by the last load.
    pub loaded_defs: u64,
    /// Log counters, when a cache file is attached.
    pub wal: Option<WalStats>,
}

/// What [`Service::attach_cache_file`] found on disk.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoadOutcome {
    /// Verdicts restored from the compacted image.
    pub verdicts: u64,
    /// Definition input hashes restored from the compacted image.
    pub defs: u64,
    /// Records replayed from the suffix appended after the image.
    pub wal_records: u64,
    /// WAL frames rejected during replay (torn tail + checksum/decode
    /// failures + foreign fingerprints) — each one skipped, never applied.
    pub wal_anomalies: u64,
    /// Stale `*.tmp.*` files reaped from crashed saves.
    pub reaped_tmp: u64,
    /// `None` when everything on disk loaded (or nothing existed);
    /// otherwise the joined reasons anything was rejected — the service
    /// recovered what validated, which is safe, but the caller should
    /// surface the warning.
    pub warning: Option<String>,
}

/// A checking service: a shared [`Engine`], a shared validity cache and
/// compiled-program memo, a per-definition verdict index for incremental
/// re-checking, optional disk persistence for all three, and a worker pool
/// width.  Cheap to clone (everything is behind [`Arc`]s); safe to drive
/// from multiple threads.
#[derive(Debug, Clone)]
pub struct Service {
    engine: Arc<Engine>,
    cache: Arc<ShardedValidityCache>,
    programs: Arc<SharedProgramCache>,
    defs: Arc<DefIndex>,
    /// Incremental re-checking (skip defs with recorded input hashes) is
    /// opt-in: it turns on when a cache file is attached, because a plain
    /// in-memory service should re-check — and therefore re-*measure* —
    /// every definition, exactly like the seed.
    incremental: Arc<AtomicBool>,
    persist: Arc<Mutex<PersistState>>,
    /// Set by the store observers when the WAL outgrows its thresholds;
    /// drained by [`Service::compact_if_due`] (driven from the daemon's
    /// flusher and serve loop) so compaction never runs on the store path.
    compaction_due: Arc<AtomicBool>,
    /// Per-service metrics: request latency histograms and cache gauges.
    /// Private to the service (not [`rel_obs::metrics::global`]) so parallel
    /// services — and parallel tests in one binary — never bleed into each
    /// other's histograms.
    metrics: Arc<Registry>,
    /// Persist-save failure tracking for the periodic flusher: capped
    /// exponential backoff between retries, warn-once-per-state-change.
    save_health: Arc<Mutex<SaveHealth>>,
    workers: usize,
}

/// Failure state of the periodic save (the flusher's dependency).
#[derive(Debug)]
struct SaveHealth {
    backoff: Backoff,
    /// When the next save attempt is allowed; `None` when healthy.
    next_attempt: Option<Instant>,
    /// Whether the last attempt failed (drives warn-once and health).
    failing: bool,
}

impl Default for SaveHealth {
    fn default() -> SaveHealth {
        SaveHealth {
            // Base one flush interval's worth of patience, capped at five
            // minutes: a full disk stays full for a while.
            backoff: Backoff::new(1_000, 300_000, 0x5a17),
            next_attempt: None,
            failing: false,
        }
    }
}

/// What one periodic save attempt did (returned by
/// [`Service::periodic_save`]; the flusher logs `warn` transitions only, so
/// a persistent failure warns once instead of every tick).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PeriodicSave {
    /// The save ran (`saved` = whether anything was dirty).  `recovered` is
    /// set when this success ended a failure streak — worth one log line.
    Ok { saved: bool, recovered: bool },
    /// Inside the failure backoff window; nothing was attempted.
    Deferred,
    /// The save failed.  `warn` is set only when this failure *entered* the
    /// failing state; `backoff_ms` is the delay before the next attempt.
    Failed {
        error: String,
        warn: bool,
        backoff_ms: u64,
    },
}

/// Health of one daemon, for orchestration probes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Health {
    /// `true` when no degradation reason applies.
    pub ready: bool,
    /// Machine-readable degradation reasons (`wal-poisoned`,
    /// `save-backoff`).
    pub reasons: Vec<String>,
}

impl Default for Service {
    fn default() -> Self {
        Service::new(ServiceConfig::default())
    }
}

impl Service {
    /// Builds a service with a default engine.
    pub fn new(config: ServiceConfig) -> Service {
        Service::with_engine(Engine::new(), config)
    }

    /// Builds a service around an explicitly configured engine.  The engine
    /// is re-wired to the service's shared validity cache and program memo.
    pub fn with_engine(engine: Engine, config: ServiceConfig) -> Service {
        let cache = Arc::new(ShardedValidityCache::with_shards(config.cache_shards));
        let programs = Arc::new(SharedProgramCache::new());
        let engine = engine
            .with_cache(cache.clone())
            .with_program_cache(programs.clone());
        Service {
            engine: Arc::new(engine),
            cache,
            programs,
            defs: Arc::new(DefIndex::new()),
            incremental: Arc::new(AtomicBool::new(false)),
            persist: Arc::new(Mutex::new(PersistState::default())),
            compaction_due: Arc::new(AtomicBool::new(false)),
            metrics: Arc::new(Registry::new()),
            save_health: Arc::new(Mutex::new(SaveHealth::default())),
            workers: config.workers.max(1),
        }
    }

    /// The shared engine.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// The worker-pool width used by [`Service::check_batch`].
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The definition-verdict index used for incremental re-checking.
    pub fn def_index(&self) -> &Arc<DefIndex> {
        &self.defs
    }

    /// Turns incremental re-checking on or off explicitly (it is switched
    /// on automatically by [`Service::attach_cache_file`]).
    pub fn set_incremental(&self, on: bool) {
        self.incremental.store(on, Ordering::Relaxed);
    }

    /// Whether checks consult the def index.
    pub fn incremental(&self) -> bool {
        self.incremental.load(Ordering::Relaxed)
    }

    fn active_index(&self) -> Option<&DefIndex> {
        if self.incremental() {
            Some(&self.defs)
        } else {
            None
        }
    }

    /// Parses and checks one program, sharing the validity cache (and, in
    /// warm-start mode, skipping unchanged definitions).
    pub fn check_source(&self, source: &str) -> Result<ProgramReport, String> {
        match parse_program(source) {
            Ok(program) => Ok(self
                .engine
                .check_program_with(&program, self.active_index())),
            Err(e) => Err(format!("parse error: {e}")),
        }
    }

    /// Checks one job on the calling thread, with the same def-index
    /// policy as [`Service::check_batch`].
    pub(crate) fn check_job(&self, job: &BatchJob) -> BatchResult {
        check_job_with(&self.engine, self.active_index(), job)
    }

    /// Checks a batch of jobs on the worker pool, in submission order.
    pub fn check_batch(&self, jobs: &[BatchJob]) -> Vec<BatchResult> {
        check_batch_with(&self.engine, self.active_index(), jobs, self.workers)
    }

    /// Process-wide cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Process-wide compiled-program memo counters.
    pub fn program_cache_stats(&self) -> ProgramCacheStats {
        self.programs.stats()
    }

    /// Persistence counters (loads/saves and what the last load restored).
    pub fn persist_stats(&self) -> PersistStats {
        let p = self.persist.lock().expect("persist state poisoned");
        let wal = p
            .wal
            .as_ref()
            .map(|w| w.lock().expect("wal store poisoned"));
        PersistStats {
            path: wal.as_ref().map(|w| w.path().to_path_buf()),
            loads: p.loads,
            saves: p.saves,
            loaded_verdicts: p.loaded_verdicts,
            loaded_defs: p.loaded_defs,
            wal: wal.map(|w| w.stats()),
        }
    }

    /// The service-private metrics registry (request latency histograms and
    /// cache gauges).  Solver counters live on [`rel_obs::metrics::global`]
    /// instead; [`Service::metrics_snapshot`] merges both.
    pub fn metrics(&self) -> &Arc<Registry> {
        &self.metrics
    }

    /// Refreshes the cache/persistence gauges on the service registry from
    /// the live cache counters.  The caches' own atomics stay the single
    /// source of truth — gauges are a read-through view refreshed at
    /// snapshot time, never incremented independently.
    pub fn publish_cache_gauges(&self) {
        let validity = self.cache_stats();
        let programs = self.program_cache_stats();
        let persist = self.persist_stats();
        let m = &self.metrics;
        m.set_gauge("cache.validity.hits", validity.hits as i64);
        m.set_gauge("cache.validity.misses", validity.misses as i64);
        m.set_gauge("cache.validity.entries", validity.entries as i64);
        m.set_gauge("cache.validity.evictions", validity.evictions as i64);
        m.set_gauge("cache.programs.hits", programs.hits as i64);
        m.set_gauge("cache.programs.misses", programs.misses as i64);
        m.set_gauge("cache.programs.entries", programs.entries as i64);
        m.set_gauge("cache.defs.entries", self.defs.len() as i64);
        m.set_gauge("persist.loads", persist.loads as i64);
        m.set_gauge("persist.saves", persist.saves as i64);
        if let Some(wal) = &persist.wal {
            m.set_gauge("wal.records", wal.records as i64);
            m.set_gauge("wal.bytes", wal.bytes as i64);
            m.set_gauge("wal.appends", wal.appends as i64);
            m.set_gauge("wal.append_errors", wal.append_errors as i64);
            m.set_gauge("wal.compactions", wal.compactions as i64);
            m.set_gauge("wal.poisoned", wal.poisoned as i64);
        }
        m.set_gauge(
            "persist.save_backoff_active",
            self.save_backoff_active() as i64,
        );
    }

    /// One merged metrics snapshot: the process-wide solver counters from
    /// [`rel_obs::metrics::global`] plus this service's private registry
    /// (request histograms, cache gauges — refreshed first).  Name
    /// collisions resolve in favor of the service registry, though the two
    /// namespaces are kept disjoint by convention (`solver.*`/`fm.*` vs
    /// `serve.*`/`cache.*`).
    pub fn metrics_snapshot(&self) -> RegistrySnapshot {
        self.publish_cache_gauges();
        let global = rel_obs::metrics::global().snapshot();
        let local = self.metrics.snapshot();
        fn merge_by_name<T>(a: Vec<(String, T)>, b: Vec<(String, T)>) -> Vec<(String, T)> {
            let mut map: std::collections::BTreeMap<String, T> = a.into_iter().collect();
            map.extend(b);
            map.into_iter().collect()
        }
        RegistrySnapshot {
            schema_version: rel_obs::SCHEMA_VERSION,
            counters: merge_by_name(global.counters, local.counters),
            gauges: merge_by_name(global.gauges, local.gauges),
            histograms: merge_by_name(global.histograms, local.histograms),
        }
    }

    /// Drops all memoized state: verdicts, compiled programs and definition
    /// hashes (counters are kept).  With persistence attached, the now-empty
    /// state is compacted to disk too — a cleared verdict must not
    /// resurrect from the old cache file at the next restart.
    pub fn clear_cache(&self) {
        self.cache.clear();
        self.programs.clear();
        self.defs.clear();
        let attached = self
            .persist
            .lock()
            .expect("persist state poisoned")
            .wal
            .is_some();
        if attached {
            // Best-effort: a failed save leaves stale state on disk, which
            // the warning path surfaces at the next explicit flush.
            let _ = self.save_cache();
        }
    }

    /// Configures warm-start persistence: remembers `path` for
    /// [`Service::save_cache`], switches incremental re-checking on, and
    /// recovers whatever the cache file at the path holds.
    ///
    /// Recovery is one replay of the file: its compacted image, then every
    /// validated record appended after it (torn tails and corrupt frames
    /// are skipped, never applied).  From here on every cache store appends
    /// to the file, so verdicts are durable the moment they are memoized
    /// instead of at the next flush.
    ///
    /// A missing file is a clean cold start.  A rejected file (wrong magic
    /// or version, different engine fingerprint) is *also* a cold start: the
    /// outcome carries the warning and the file is replaced by an empty
    /// image.
    pub fn attach_cache_file(&self, path: impl Into<PathBuf>) -> LoadOutcome {
        self.attach_cache_file_with(Arc::new(RealFs), path, WalLimits::default())
    }

    /// [`Service::attach_cache_file`] through an explicit [`FaultFs`] and
    /// compaction thresholds — the seam the fault-injection tests drive.
    pub fn attach_cache_file_with(
        &self,
        fs: Arc<dyn FaultFs>,
        path: impl Into<PathBuf>,
        limits: WalLimits,
    ) -> LoadOutcome {
        self.set_incremental(true);
        let (store, mut recovery) = WalStore::open(fs, path, self.engine.fingerprint(), limits);
        let should_compact = recovery.should_compact();
        let mut outcome = LoadOutcome {
            wal_records: recovery.suffix().len() as u64,
            wal_anomalies: recovery.stats.anomalies(),
            reaped_tmp: recovery.reaped_tmp,
            ..LoadOutcome::default()
        };
        let suffix_start = recovery.suffix_start;
        for (i, record) in std::mem::take(&mut recovery.records)
            .into_iter()
            .enumerate()
        {
            let in_image = i < suffix_start;
            match record {
                WalRecord::Verdict(key, verdict) => {
                    self.cache.store_key(key, verdict);
                    outcome.verdicts += in_image as u64;
                }
                WalRecord::Def {
                    input_hash,
                    verify_hash,
                    def,
                } => {
                    self.defs.insert(input_hash, verify_hash, def);
                    outcome.defs += in_image as u64;
                }
                WalRecord::Compaction { .. } => {}
            }
        }

        let wal = Arc::new(Mutex::new(store));
        {
            let mut p = self.persist.lock().expect("persist state poisoned");
            if recovery.stats.compaction_markers > 0 {
                p.loads += 1;
                p.loaded_verdicts = outcome.verdicts;
                p.loaded_defs = outcome.defs;
            }
            p.wal = Some(Arc::clone(&wal));
        }

        // Attach the store observers only now: every entry replayed above
        // must not re-enter the log it just came from.
        self.install_store_observers(wal);

        // Fold a non-trivial recovery into a fresh image immediately: the
        // suffix stops growing the next replay, and a torn or corrupt tail
        // is rewritten away so it can never shadow later appends.  A clean
        // image is already what memory holds, so it counts as saved.
        let mut warnings = recovery.warnings;
        if should_compact {
            if let Err(e) = self.save_cache() {
                warnings.push(format!("startup compaction failed: {e}"));
            }
        } else {
            self.persist
                .lock()
                .expect("persist state poisoned")
                .last_saved_stamp = Some(self.warm_stamp());
        }

        outcome.warning = if warnings.is_empty() {
            None
        } else {
            Some(warnings.join("; "))
        };
        outcome
    }

    /// Runs a compaction if a store observer flagged the log as over its
    /// thresholds.  Returns whether one ran.  Cheap when not due (one atomic
    /// load) — the daemon calls this from the flusher tick and after each
    /// request batch.
    pub fn compact_if_due(&self) -> Result<bool, String> {
        if !self.compaction_due.load(Ordering::Relaxed) {
            return Ok(false);
        }
        self.save_cache().map(|_| true)
    }

    /// The configured cache file, if any.
    pub fn cache_file(&self) -> Option<PathBuf> {
        self.persist_stats().path
    }

    /// Compacts the current warm state into the configured cache file.
    /// Returns the number of verdicts written.
    ///
    /// # Errors
    ///
    /// When no cache file is configured, or the write fails.
    pub fn save_cache(&self) -> Result<u64, String> {
        let mut p = self.persist.lock().expect("persist state poisoned");
        self.save_locked(&mut p)
    }

    /// [`Service::save_cache`], unless nothing was memoized since memory
    /// last matched the file — the flushers go through this so an idle
    /// daemon, or a run whose every definition was skipped, does not
    /// rewrite an unchanged file.  Returns whether a save actually happened.
    pub fn save_cache_if_dirty(&self) -> Result<bool, String> {
        let mut p = self.persist.lock().expect("persist state poisoned");
        if p.last_saved_stamp == Some(self.warm_stamp()) {
            return Ok(false);
        }
        self.save_locked(&mut p)?;
        Ok(true)
    }

    /// The save path proper: one compaction.  Runs under the persist lock,
    /// which serializes concurrent in-process savers (periodic flusher vs.
    /// `{"cache": "flush"}`); cross-process savers are safe via the
    /// unique-tmp-name rename of the atomic replace.  The state is captured
    /// under the log lock, so a store racing the compaction either lands in
    /// the image or is appended after it.
    fn save_locked(&self, p: &mut PersistState) -> Result<u64, String> {
        let wal = p
            .wal
            .as_ref()
            .ok_or_else(|| "no cache file configured".to_string())?;
        // Stamp *before* capturing: state memoized concurrently during the
        // capture/write window must count as unsaved (the next dirty check
        // re-saves it), never as persisted.
        let stamp = self.warm_stamp();
        let mut wal = wal.lock().expect("wal store poisoned");
        let verdicts = self.cache.export_entries();
        wal.compact(&verdicts, &self.defs.export())
            .map_err(|e| format!("cannot write cache file {}: {e}", wal.path().display()))?;
        drop(wal);
        self.compaction_due.store(false, Ordering::Relaxed);
        p.saves += 1;
        p.last_saved_stamp = Some(stamp);
        Ok(verdicts.len() as u64)
    }

    /// A cheap monotone stamp of the memoized state: misses count freshly
    /// computed verdicts/programs (every store follows a miss), and the def
    /// index's mutation counter moves on every recorded definition *and*
    /// every clear.  All three components are monotone — a `len()`-based
    /// stamp would let a clear followed by re-inserts alias an old stamp
    /// and skip a needed flush.  Equal stamps ⇒ nothing new to persist.
    fn warm_stamp(&self) -> u64 {
        self.cache
            .stats()
            .misses
            .wrapping_add(self.programs.stats().misses)
            .wrapping_add(self.defs.mutation_count())
    }

    /// Installs the cache/def-index store observers that append every
    /// memoized verdict and definition to `wal`.
    fn install_store_observers(&self, wal: Arc<Mutex<WalStore>>) {
        let (w, due) = (wal.clone(), Arc::clone(&self.compaction_due));
        self.cache.set_store_observer(Arc::new(move |key, verdict| {
            let mut wal = w.lock().expect("wal store poisoned");
            // An append failure leaves the verdict memory-only until the
            // next compaction — degraded durability, never a wrong
            // verdict.
            let _ = wal.append_verdict(key, verdict);
            if wal.needs_compaction() {
                due.store(true, Ordering::Relaxed);
            }
        }));

        let due = Arc::clone(&self.compaction_due);
        self.defs
            .set_store_observer(Arc::new(move |input_hash, verify_hash, def| {
                let mut wal = wal.lock().expect("wal store poisoned");
                let _ = wal.append_def(input_hash, verify_hash, def);
                if wal.needs_compaction() {
                    due.store(true, Ordering::Relaxed);
                }
            }));
    }

    // -- flusher degradation + health --------------------------------------

    /// The flusher's save path with graceful degradation: inside a failure
    /// backoff window nothing is attempted; a failure arms (or extends) a
    /// capped exponential backoff, bumps the `persist.save_failures`
    /// counter, and asks for a warning only on the healthy→failing edge; a
    /// success resets the schedule and reports whether it ended a streak.
    pub fn periodic_save(&self) -> PeriodicSave {
        {
            let health = self.save_health.lock().expect("save health poisoned");
            if let Some(at) = health.next_attempt {
                if Instant::now() < at {
                    return PeriodicSave::Deferred;
                }
            }
        }
        match self.save_cache_if_dirty() {
            Ok(saved) => {
                let mut health = self.save_health.lock().expect("save health poisoned");
                let recovered = health.failing;
                health.failing = false;
                health.next_attempt = None;
                health.backoff.reset();
                PeriodicSave::Ok { saved, recovered }
            }
            Err(error) => {
                let mut health = self.save_health.lock().expect("save health poisoned");
                let warn = !health.failing;
                health.failing = true;
                let backoff_ms = health.backoff.next_delay_ms();
                health.next_attempt =
                    Some(Instant::now() + std::time::Duration::from_millis(backoff_ms));
                self.metrics.counter("persist.save_failures").incr();
                PeriodicSave::Failed {
                    error,
                    warn,
                    backoff_ms,
                }
            }
        }
    }

    /// Whether the periodic save is currently in a failure backoff window.
    pub fn save_backoff_active(&self) -> bool {
        self.save_health
            .lock()
            .expect("save health poisoned")
            .failing
    }

    /// The daemon's health for orchestration probes: ready unless the WAL
    /// tail is poisoned (appends refused until compaction) or the persist
    /// save is backing off.
    pub fn health(&self) -> Health {
        let mut reasons = Vec::new();
        if let Some(wal) = self.persist_stats().wal {
            if wal.poisoned != 0 {
                reasons.push("wal-poisoned".to_string());
            }
        }
        if self.save_backoff_active() {
            reasons.push("save-backoff".to_string());
        }
        Health {
            ready: reasons.is_empty(),
            reasons,
        }
    }
}

// The whole point of the service is sharing the engine across workers; keep
// that property checked at compile time.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Service>();
    assert_send_sync::<Engine>();
};
