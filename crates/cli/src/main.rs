//! `birelcost` — command-line front end for the BiRelCost checker.
//!
//! ```text
//! birelcost check [FLAGS] FILE...  type check one or more .rc programs
//! birelcost serve [FLAGS]          newline-delimited JSON daemon on
//!                                  stdin/stdout: {"check": "<source>"} ->
//!                                  per-def verdicts, timings, cache stats;
//!                                  with --jobs > 1, responses arrive in
//!                                  finish order (tag requests with "id")
//! birelcost explain NAME           re-check the bundled benchmark NAME with
//!                                  the span recorder armed and narrate the
//!                                  verdict: phase breakdown, where the time
//!                                  went, and — for grid-backed verdicts —
//!                                  which binding cap exhausted the
//!                                  existential search
//! birelcost validate-metrics FILE  check a --metrics-out dump against the
//!                                  documented schema (exit 1 on drift)
//! birelcost table1                 re-run the Table-1 benchmark suite
//! birelcost list                   list the bundled benchmarks
//!
//! FLAGS (shared by check and serve):
//!   --jobs N, -j N       worker threads (check: default 1; serve: all cores)
//!   --cache-file PATH    warm-start persistence: replay the verdict log at
//!                        PATH (if any) before checking, append every new
//!                        verdict to it as it is memoized, and compact it
//!                        afterwards when anything changed (serve: also
//!                        periodically and on shutdown).  Unchanged
//!                        definitions are skipped; everything else reuses the
//!                        persisted validity cache.
//!
//! FLAGS (check only):
//!   --metrics-out PATH   write the merged metrics snapshot (solver counters,
//!                        request histograms, cache gauges; DESIGN.md §8.2
//!                        schema) to PATH after checking
//!   --trace-out PATH     record spans while checking and write a
//!                        chrome://tracing-loadable trace to PATH
//!
//! FLAGS (serve only):
//!   --listen ADDR        serve the NDJSON protocol on a TCP socket instead
//!                        of stdin/stdout ({"shutdown": true} stops it);
//!                        many connections over one worker pool, responses
//!                        in finish order (tag requests with "id" and match
//!                        on the echo), as on stdio
//!   --http ADDR          serve the same content over HTTP/1.1 (POST /check,
//!                        GET /metrics, GET /cache/stats, POST /shutdown);
//!                        composable with --listen — both planes share the
//!                        workers, the caches and the bounded queue
//!   --max-queue N        bound on queued-but-unstarted requests across all
//!                        connections; excess requests answer
//!                        {"error": "backpressure"} (HTTP 503) immediately
//!                        (stdio is paced instead: it stops reading)
//!   --request-timeout-ms N   wall-clock budget per request; a request over
//!                        budget answers {"error": "deadline"} while its
//!                        worker drains in the background
//!   --idle-timeout-ms N  (needs --listen, --http or --replica) disconnect a
//!                        client whose socket stays silent this long
//!   --replica ADDR       serve the daemon-to-daemon replication plane on a
//!                        TCP socket: peers ship WAL frames here and they
//!                        are applied through the same validation path as
//!                        crash recovery (checksum + engine fingerprint)
//!   --peer ADDR          replicate every memoized verdict to the daemon
//!                        whose --replica plane listens at ADDR (repeatable;
//!                        each peer gets a supervised session with
//!                        exponential backoff and anti-entropy catch-up)
//!   --replica-queue N    per-peer replication queue bound; overflow
//!                        degrades that peer to catch-up instead of
//!                        delaying client requests (default 1024)
//! ```

use std::env;
use std::fs;
use std::io;
use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use birelcost::{Engine, PhaseTimings};
use rel_constraint::SearchExhaustedReason;
use rel_service::{
    serve, serve_reactor, BatchJob, BatchStats, CodecKind, CodecLimits, PeriodicSave,
    ReactorOptions, ReactorSummary, RealNet, ReplicaOptions, Service, ServiceConfig,
};
use rel_suite::{all_benchmarks, VerificationStatus};
use rel_syntax::parse_program;

const USAGE: &str = "usage: birelcost <check [--jobs N] [--cache-file PATH] [--metrics-out PATH] \
     [--trace-out PATH] FILE...|serve [--jobs N] [--cache-file PATH] [--listen ADDR] \
     [--http ADDR] [--replica ADDR] [--peer ADDR]... [--replica-queue N] [--max-queue N] \
     [--request-timeout-ms N] [--idle-timeout-ms N]\
     |explain NAME|validate-metrics FILE|table1|list>";

/// How often the daemon flushes its warm state to the cache file.
const SERVE_FLUSH_INTERVAL: Duration = Duration::from_secs(60);

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, rest)) if cmd == "check" => match Flags::parse(rest) {
            // Without --jobs, `check` stays sequential (the seed behaviour).
            Ok((flags, files)) => check_files(&files, &flags),
            Err(e) => usage_error(&e),
        },
        Some((cmd, rest)) if cmd == "serve" => match Flags::parse(rest) {
            Ok((flags, extra)) if extra.is_empty() => serve_command(&flags),
            Ok(_) => usage_error("serve takes no positional arguments"),
            Err(e) => usage_error(&e),
        },
        Some((cmd, rest)) if cmd == "explain" => match rest {
            [name] => explain(name),
            _ => usage_error("explain takes exactly one benchmark name"),
        },
        Some((cmd, rest)) if cmd == "validate-metrics" => match rest {
            [file] => validate_metrics_file(file),
            _ => usage_error("validate-metrics takes exactly one file"),
        },
        Some((cmd, _)) if cmd == "table1" => table1(),
        Some((cmd, _)) if cmd == "list" => list(),
        _ => usage_error("unknown command"),
    }
}

fn usage_error(message: &str) -> ExitCode {
    eprintln!("birelcost: {message}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

/// The flags shared by the `check` and `serve` subcommands, parsed in one
/// place so each flag (and its `--flag=value` spelling) is handled once.
#[derive(Debug, Default)]
struct Flags {
    /// Worker threads (`None` — each subcommand picks its own default).
    jobs: Option<usize>,
    /// Warm-start cache file.
    cache_file: Option<String>,
    /// Where to write the metrics snapshot after `check`.
    metrics_out: Option<String>,
    /// Where to write the chrome://tracing span trace after `check`.
    trace_out: Option<String>,
    /// TCP address for `serve --listen` (stdio when absent).
    listen: Option<String>,
    /// TCP address for the HTTP/1.1 plane (`serve --http`).
    http: Option<String>,
    /// Bound on queued-but-unstarted requests for the reactor planes.
    max_queue: Option<usize>,
    /// Per-request wall-clock budget for `serve`.
    request_timeout_ms: Option<u64>,
    /// Socket idle timeout for `serve --listen`/`--http`/`--replica`.
    idle_timeout_ms: Option<u64>,
    /// TCP address for the replication plane (`serve --replica`).
    replica: Option<String>,
    /// Replication peer addresses (`serve --peer`, repeatable).
    peers: Vec<String>,
    /// Per-peer replication queue bound (`serve --replica-queue`).
    replica_queue: Option<usize>,
}

impl Flags {
    /// Splits an argument list into recognized flags and positional rest.
    fn parse(args: &[String]) -> Result<(Flags, Vec<String>), String> {
        let mut flags = Flags::default();
        let mut rest = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut flag_value =
                |name: &str, short: Option<&str>| -> Result<Option<String>, String> {
                    if arg == name || short.is_some_and(|s| arg == s) {
                        return match it.next() {
                            Some(v) => Ok(Some(v.clone())),
                            None => Err(format!("{arg} requires a value")),
                        };
                    }
                    Ok(arg
                        .strip_prefix(name)
                        .and_then(|r| r.strip_prefix('='))
                        .map(str::to_string))
                };
            if let Some(n) = flag_value("--jobs", Some("-j"))? {
                flags.jobs = Some(
                    n.parse::<usize>()
                        .map_err(|_| format!("invalid worker count `{n}`"))?
                        .max(1),
                );
            } else if let Some(path) = flag_value("--cache-file", None)? {
                flags.cache_file = Some(path);
            } else if let Some(path) = flag_value("--metrics-out", None)? {
                flags.metrics_out = Some(path);
            } else if let Some(path) = flag_value("--trace-out", None)? {
                flags.trace_out = Some(path);
            } else if let Some(addr) = flag_value("--listen", None)? {
                flags.listen = Some(addr);
            } else if let Some(addr) = flag_value("--http", None)? {
                flags.http = Some(addr);
            } else if let Some(n) = flag_value("--max-queue", None)? {
                let cap = n
                    .parse::<usize>()
                    .map_err(|_| format!("invalid queue bound `{n}`"))?;
                if cap == 0 {
                    return Err("--max-queue must be positive".to_string());
                }
                flags.max_queue = Some(cap);
            } else if let Some(n) = flag_value("--request-timeout-ms", None)? {
                flags.request_timeout_ms = Some(
                    n.parse::<u64>()
                        .map_err(|_| format!("invalid timeout `{n}`"))?,
                );
            } else if let Some(addr) = flag_value("--replica", None)? {
                flags.replica = Some(addr);
            } else if let Some(addr) = flag_value("--peer", None)? {
                flags.peers.push(addr);
            } else if let Some(n) = flag_value("--replica-queue", None)? {
                let cap = n
                    .parse::<usize>()
                    .map_err(|_| format!("invalid queue bound `{n}`"))?;
                if cap == 0 {
                    return Err("--replica-queue must be positive".to_string());
                }
                flags.replica_queue = Some(cap);
            } else if let Some(n) = flag_value("--idle-timeout-ms", None)? {
                let ms = n
                    .parse::<u64>()
                    .map_err(|_| format!("invalid timeout `{n}`"))?;
                if ms == 0 {
                    // A zero socket timeout means "no timeout" to the OS,
                    // the opposite of what the flag reads as; reject it.
                    return Err("--idle-timeout-ms must be positive".to_string());
                }
                flags.idle_timeout_ms = Some(ms);
            } else if arg.starts_with('-') {
                return Err(format!("unknown flag `{arg}`"));
            } else {
                rest.push(arg.clone());
            }
        }
        Ok((flags, rest))
    }

    /// Whether `serve` binds sockets rather than serving stdin/stdout.
    fn serves_sockets(&self) -> bool {
        self.listen.is_some() || self.http.is_some() || self.replica.is_some()
    }
}

/// Builds the service for one invocation: worker pool plus, when requested,
/// the warm-start cache file (load errors are warnings — a bad cache file
/// means recovering whatever validated, never a failed run).
fn service_with(workers: usize, cache_file: Option<&str>) -> Service {
    let service = Service::new(ServiceConfig {
        workers,
        ..ServiceConfig::default()
    });
    if let Some(path) = cache_file {
        let outcome = service.attach_cache_file(path);
        if let Some(warning) = &outcome.warning {
            eprintln!("birelcost: warning: {warning} (recovered what validated)");
        }
        // One machine-greppable line either way (the fault-injection CI
        // smoke asserts on the replay counters after a SIGKILL).
        eprintln!(
            "birelcost: cache-file {path}: loaded {} verdict(s), {} def hash(es); \
             replayed {} wal record(s), {} anomaly(ies); reaped {} tmp file(s)",
            outcome.verdicts,
            outcome.defs,
            outcome.wal_records,
            outcome.wal_anomalies,
            outcome.reaped_tmp
        );
    }
    service
}

/// Compacts the warm state into the attached cache file if anything was
/// memoized since it was loaded, reporting failures without failing the run.
fn flush_cache(service: &Service) {
    let Some(path) = service.cache_file() else {
        return;
    };
    match service.save_cache_if_dirty() {
        Ok(true) => eprintln!(
            "birelcost: cache-file {}: saved {} verdict(s), {} def hash(es)",
            path.display(),
            service.cache_stats().entries,
            service.def_index().len()
        ),
        Ok(false) => eprintln!("birelcost: cache-file {}: unchanged", path.display()),
        Err(e) => eprintln!("birelcost: {e}"),
    }
}

fn check_files(files: &[String], flags: &Flags) -> ExitCode {
    if flags.listen.is_some()
        || flags.http.is_some()
        || flags.max_queue.is_some()
        || flags.request_timeout_ms.is_some()
        || flags.idle_timeout_ms.is_some()
        || flags.replica.is_some()
        || !flags.peers.is_empty()
        || flags.replica_queue.is_some()
    {
        return usage_error(
            "--listen/--http/--replica/--peer/--replica-queue/--max-queue/--request-timeout-ms\
             /--idle-timeout-ms are serve flags",
        );
    }
    if files.is_empty() {
        eprintln!("birelcost check: no input files");
        return ExitCode::from(2);
    }
    let workers = flags.jobs.unwrap_or(1);

    // Read everything up front so I/O failures are reported per file and the
    // batch itself is pure checking work.
    let mut jobs = Vec::new();
    let mut ok = true;
    for file in files {
        match fs::read_to_string(file) {
            Ok(source) => jobs.push(BatchJob::new(file.clone(), source)),
            Err(e) => {
                eprintln!("{file}: cannot read: {e}");
                ok = false;
            }
        }
    }

    // Arm the span recorder only when a trace was asked for: recording is
    // cheap but not free, and `check` is also the benchmark harness.
    if flags.trace_out.is_some() {
        rel_obs::RelObsConfig::on().apply();
        rel_obs::take_events(); // drop anything recorded before this run
    }

    let service = service_with(workers, flags.cache_file.as_deref());
    let results = service.check_batch(&jobs);
    for result in &results {
        let file = &result.name;
        match &result.outcome {
            Err(e) => {
                eprintln!("{file}: {e}");
                ok = false;
            }
            Ok(report) => {
                for def in &report.defs {
                    let status = if def.ok { "ok" } else { "FAIL" };
                    // Verdict provenance: `proved` means every obligation was
                    // discharged by Fourier–Motzkin (or a structural
                    // combination of such proofs) — sound over the unbounded
                    // domain; `grid` means the verdict leaned on the bounded
                    // numeric sweep.  Replayed verdicts show the provenance
                    // they were recorded with.
                    let via = if !def.ok {
                        "-"
                    } else if def.proved {
                        "proved"
                    } else {
                        "grid"
                    };
                    let unchanged = if def.skipped_unchanged {
                        "  [unchanged, skipped]"
                    } else {
                        ""
                    };
                    println!(
                        "{file}: {:<12} {:<4} [{via:>6}]  total {:?}  (tc {:?}, exelim {:?}, solve {:?}){unchanged}",
                        def.name,
                        status,
                        def.timings.total(),
                        def.timings.typecheck,
                        def.timings.existential_elim,
                        def.timings.solving
                    );
                    if let Some(err) = &def.error {
                        println!("{file}:   reason: {err}");
                    }
                }
                ok &= report.all_ok();
            }
        }
    }

    let stats = BatchStats::of(&results);
    // One greppable provenance line per run: how much of the verdict rests
    // on proofs vs bounded grid sweeps (the CI gate asserts grid_points=0
    // for the verified suite through the library, but operators read it
    // here).
    println!(
        "provenance: proved_defs={}/{} fm_proved={} grid_accepted={} grid_points={} \
         fm_memo_hits={} fm_memo_misses={} exelim_pruned={}",
        stats.proved_defs,
        stats.defs_ok,
        stats.solve.fm_proved,
        stats.solve.grid_accepted,
        stats.solve.points_evaluated,
        stats.solve.fm_memo_hits,
        stats.solve.fm_memo_misses,
        stats.solve.exelim_candidates_pruned
    );
    if workers > 1 {
        let cache = service.cache_stats();
        println!(
            "checked {} file(s) on {workers} workers: {}/{} defs ok, cache {} hit(s) / {} miss(es), \
             {} numeric program(s) compiled ({} reused)",
            results.len(),
            stats.defs_ok,
            stats.defs,
            cache.hits,
            cache.misses,
            stats.solve.programs_compiled,
            stats.solve.program_cache_hits
        );
    }
    if flags.cache_file.is_some() {
        // One machine-greppable line for warm-start harnesses (CI smoke
        // asserts on these counters).
        println!(
            "warm-start: defs={} cache_hits={} cache_misses={} skipped_unchanged={} \
             programs_compiled={} program_cache_hits={}",
            stats.defs,
            stats.solve.cache_hits,
            stats.solve.cache_misses,
            stats.skipped_unchanged,
            stats.solve.programs_compiled,
            stats.solve.program_cache_hits
        );
        flush_cache(&service);
    }

    if let Some(path) = &flags.metrics_out {
        match fs::write(path, service.metrics_snapshot().to_json() + "\n") {
            Ok(()) => eprintln!("birelcost: metrics written to {path}"),
            Err(e) => {
                eprintln!("{path}: cannot write metrics: {e}");
                ok = false;
            }
        }
    }
    if let Some(path) = &flags.trace_out {
        let events = rel_obs::take_events();
        rel_obs::RelObsConfig::off().apply();
        match fs::write(path, rel_obs::chrome_trace(&events)) {
            Ok(()) => eprintln!(
                "birelcost: {} trace event(s) written to {path} (load in chrome://tracing)",
                events.len()
            ),
            Err(e) => {
                eprintln!("{path}: cannot write trace: {e}");
                ok = false;
            }
        }
    }

    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Rejects flag combinations `serve` cannot honour.
fn serve_flag_error(flags: &Flags) -> Option<&'static str> {
    if flags.metrics_out.is_some() || flags.trace_out.is_some() {
        return Some(
            "--metrics-out/--trace-out are check flags; ask a running daemon with {\"metrics\": \"dump\"}",
        );
    }
    if flags.idle_timeout_ms.is_some() && !flags.serves_sockets() {
        // It would reap the stdio session itself after a quiet spell.
        return Some("--idle-timeout-ms needs --listen, --http or --replica");
    }
    None
}

fn serve_command(flags: &Flags) -> ExitCode {
    if let Some(message) = serve_flag_error(flags) {
        return usage_error(message);
    }
    // The daemon defaults to the machine's parallelism: it exists to serve
    // traffic, and `{"batch": ...}` requests should use the cores without an
    // explicit flag.
    let workers = flags.jobs.unwrap_or_else(rel_service::available_workers);
    let service = service_with(workers, flags.cache_file.as_deref());

    // Outbound replication: one supervised session per --peer, shipping
    // every memoized verdict/def over TCP with backoff and anti-entropy.
    if !flags.peers.is_empty() {
        let options = ReplicaOptions {
            peers: flags.peers.clone(),
            queue: flags
                .replica_queue
                .unwrap_or_else(|| ReplicaOptions::default().queue),
            ..ReplicaOptions::default()
        };
        eprintln!(
            "birelcost serve: replicating to {} peer(s): {}",
            options.peers.len(),
            options.peers.join(", ")
        );
        service.enable_replication(Arc::new(RealNet::default()), options);
    }

    // Periodic flusher: a long-running daemon should not lose its warm state
    // to a crash or kill.  The thread wakes every second to notice shutdown
    // (and a WAL over its compaction thresholds) promptly, but only
    // dirty-flushes once per SERVE_FLUSH_INTERVAL.  Save failures degrade
    // gracefully: `periodic_save` owns a capped exponential backoff, warns
    // once per state change, and the daemon keeps serving from memory.
    let stop = Arc::new(AtomicBool::new(false));
    let flusher = flags.cache_file.is_some().then(|| {
        let service = service.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut since_flush = Duration::ZERO;
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_secs(1));
                since_flush += Duration::from_secs(1);
                // Threshold-driven compaction runs off the store path: the
                // observers only flag it, this tick folds the log.
                if let Err(e) = service.compact_if_due() {
                    eprintln!("birelcost serve: wal compaction failed: {e}");
                }
                // While healthy, save once per interval; while failing, the
                // tick offers every second and the backoff window inside
                // `periodic_save` decides when a retry actually runs.
                if since_flush >= SERVE_FLUSH_INTERVAL || service.save_backoff_active() {
                    match service.periodic_save() {
                        PeriodicSave::Ok { recovered, .. } => {
                            since_flush = Duration::ZERO;
                            if recovered {
                                eprintln!(
                                    "birelcost serve: periodic flush recovered; \
                                     persistence is healthy again"
                                );
                            }
                        }
                        PeriodicSave::Deferred => {}
                        PeriodicSave::Failed {
                            error,
                            warn,
                            backoff_ms,
                        } => {
                            if warn {
                                eprintln!(
                                    "birelcost serve: periodic flush failed: {error}; \
                                     retrying with backoff (next attempt in {backoff_ms}ms), \
                                     serving continues from memory"
                                );
                            }
                        }
                    }
                }
            }
        })
    });

    // One reactor serves either plane: every listed address (NDJSON, HTTP,
    // replication) or the stdin/stdout session shares one worker pool, one
    // bounded queue and one set of caches.
    let options = ReactorOptions {
        workers,
        max_queue: flags.max_queue.unwrap_or((workers * 32).max(64)),
        request_timeout: flags.request_timeout_ms.map(Duration::from_millis),
        idle_timeout: flags.idle_timeout_ms.map(Duration::from_millis),
        limits: CodecLimits::default(),
    };
    let outcome = if flags.serves_sockets() {
        bind_listeners(flags).and_then(|listeners| serve_reactor(&service, listeners, options))
    } else {
        serve(&service, io::stdin(), io::stdout(), options)
    };
    stop.store(true, Ordering::Relaxed);
    if let Some(handle) = flusher {
        let _ = handle.join();
    }
    // Stop peer sessions before the final flush so no session is mid-ship
    // while the process winds down (receivers heal any cut-off tail by
    // anti-entropy on our next start).
    service.shutdown_replication();
    // On-shutdown flush: runs after the reactor joined its workers (timed-out
    // ones included), so the final state includes everything they memoized.
    flush_cache(&service);

    match outcome {
        Ok(summary) => {
            eprintln!("birelcost serve: {}", describe(&summary));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("birelcost serve: I/O error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Binds the requested socket planes, each paired with its codec.
fn bind_listeners(flags: &Flags) -> io::Result<Vec<(TcpListener, CodecKind)>> {
    let mut listeners = Vec::new();
    let planes = [
        (&flags.listen, CodecKind::Ndjson),
        (&flags.http, CodecKind::Http),
        (&flags.replica, CodecKind::Replica),
    ];
    for (addr, kind) in planes {
        let Some(addr) = addr else { continue };
        let listener = TcpListener::bind(addr)
            .map_err(|e| io::Error::new(e.kind(), format!("cannot listen on {addr}: {e}")))?;
        eprintln!(
            "birelcost serve: {} plane listening on {}",
            kind.label(),
            listener
                .local_addr()
                .map_or(addr.clone(), |a| a.to_string())
        );
        listeners.push((listener, kind));
    }
    Ok(listeners)
}

/// The shutdown report line.
fn describe(summary: &ReactorSummary) -> String {
    format!(
        "handled {} request(s) over {} connection(s): {} error(s), {} deadline(s), \
         {} backpressure refusal(s), {} conn error(s), {} idle disconnect(s)",
        summary.requests,
        summary.connections,
        summary.errors,
        summary.deadlines,
        summary.backpressure,
        summary.conn_errors,
        summary.idle_disconnects
    )
}

/// Renders a nanosecond duration at a human scale.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// One row of `explain`'s phase table: the spans that share a call path.
struct PhaseRow {
    name: &'static str,
    count: usize,
    /// Inclusive time of the row's spans, excluding those folded into it.
    total_ns: u64,
    children: Vec<usize>,
}

/// `explain`'s phase table: span counts and inclusive times keyed by call
/// path.  A span whose name is already open on its path (a recursing
/// elimination) folds into that ancestor's row: it is counted there but adds
/// no time, since the ancestor's inclusive time already holds it, and its
/// children continue under that row.  So no row's time exceeds its parent's.
struct PhaseRows {
    /// Row 0 is a nameless root whose children are the top-level spans.
    rows: Vec<PhaseRow>,
}

impl PhaseRows {
    fn from_trees(trees: &[rel_obs::ThreadTree]) -> Self {
        let mut table = PhaseRows {
            rows: vec![PhaseRow {
                name: "",
                count: 0,
                total_ns: 0,
                children: Vec::new(),
            }],
        };
        for tree in trees {
            for root in &tree.roots {
                table.add(root, 0, &mut Vec::new());
            }
        }
        table
    }

    /// Tallies `node` under the row `parent`; `open` holds the name and row
    /// of every unfolded span on the path.
    fn add(
        &mut self,
        node: &rel_obs::SpanNode,
        parent: usize,
        open: &mut Vec<(&'static str, usize)>,
    ) {
        let folded = open
            .iter()
            .find(|(name, _)| *name == node.name)
            .map(|&(_, row)| row);
        let row = folded.unwrap_or_else(|| self.child(parent, node.name));
        self.rows[row].count += 1;
        if folded.is_none() {
            self.rows[row].total_ns += node.duration_ns();
            open.push((node.name, row));
        }
        for child in &node.children {
            self.add(child, row, open);
        }
        if folded.is_none() {
            open.pop();
        }
    }

    /// The row for `name` under `parent`, created on first occurrence.
    fn child(&mut self, parent: usize, name: &'static str) -> usize {
        let siblings = &self.rows[parent].children;
        if let Some(&row) = siblings.iter().find(|&&r| self.rows[r].name == name) {
            return row;
        }
        self.rows.push(PhaseRow {
            name,
            count: 0,
            total_ns: 0,
            children: Vec::new(),
        });
        let row = self.rows.len() - 1;
        self.rows[parent].children.push(row);
        row
    }

    /// Rows depth-first with their depth, siblings in first-occurrence order.
    fn in_tree_order(&self) -> Vec<(usize, &PhaseRow)> {
        let mut out = Vec::new();
        let mut stack = vec![(0, 0)];
        while let Some((depth, row)) = stack.pop() {
            let children = self.rows[row].children.iter().rev();
            stack.extend(children.map(|&c| (depth + 1, c)));
            if row != 0 {
                out.push((depth - 1, &self.rows[row]));
            }
        }
        out
    }
}

/// `birelcost explain NAME`: re-checks one bundled benchmark with the span
/// recorder armed and narrates the verdict from what was actually recorded —
/// the phase tree, where the wall clock went, and which binding cap (if any)
/// exhausted the existential search and forced the grid fallback.
fn explain(name: &str) -> ExitCode {
    let Some(bench) = all_benchmarks().into_iter().find(|b| b.name == name) else {
        eprintln!("birelcost explain: no bundled benchmark named `{name}` (see `birelcost list`)");
        return ExitCode::from(2);
    };
    let program = match parse_program(bench.source) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("birelcost explain: {name}: parse error: {e}");
            return ExitCode::FAILURE;
        }
    };

    rel_obs::RelObsConfig::on().apply();
    rel_obs::take_events(); // drop anything recorded before this run
    let report = Engine::new().check_program(&program);
    let events = rel_obs::take_events();
    rel_obs::RelObsConfig::off().apply();

    for def in &report.defs {
        let status = if def.ok { "ok" } else { "FAIL" };
        let via = if !def.ok {
            "-"
        } else if def.proved {
            "proved"
        } else {
            "grid"
        };
        println!(
            "{name}: {} {status} [{via}]  total {:?}",
            def.name,
            def.timings.total()
        );
        if let Some(err) = &def.error {
            println!("  reason: {err}");
        }
    }

    // Phase breakdown: spans aggregated by call path, printed in tree order.
    let trees = rel_obs::build_trees(&events);
    let span_count: usize = events
        .iter()
        .filter(|e| e.kind == rel_obs::EventKind::Begin)
        .count();
    println!(
        "\nrecorded phases ({} thread(s), {span_count} span(s)):",
        trees.len()
    );
    for (depth, row) in PhaseRows::from_trees(&trees).in_tree_order() {
        let label = format!("{:indent$}{}", "", row.name, indent = depth * 2);
        println!(
            "  {label:<32} {:>6}×  {:>9}",
            row.count,
            fmt_ns(row.total_ns)
        );
    }

    // Binding caps, read back from the recorded exhaustion instants — the
    // narrative names whatever the search actually logged, not a guess.
    let mut caps: Vec<(&'static str, u64, usize)> = Vec::new();
    for e in &events {
        if e.kind != rel_obs::EventKind::Instant {
            continue;
        }
        let tagged = e.name.strip_prefix("exelim.exhausted.").is_some()
            || e.name.strip_prefix("fm.abstain.").is_some();
        if !tagged {
            continue;
        }
        match caps.iter_mut().find(|(n, _, _)| *n == e.name) {
            Some(row) => {
                row.1 = row.1.max(e.arg);
                row.2 += 1;
            }
            None => caps.push((e.name, e.arg, 1)),
        }
    }
    if caps.is_empty() {
        println!("\nno binding cap fired: the existential search never gave up.");
    } else {
        println!("\nbinding caps (recorded exhaustion events):");
        for (event_name, arg, count) in &caps {
            let tag = event_name.rsplit('.').next().unwrap_or_default();
            match SearchExhaustedReason::parse(tag) {
                Some(reason) => println!(
                    "  {event_name:<36} {count:>4}×  limit {arg}  — {}",
                    reason.describe()
                ),
                // e.g. exelim.exhausted.candidates: the pool ran dry without
                // hitting a cap; the argument is the attempts spent.
                None => println!("  {event_name:<36} {count:>4}×  after {arg} attempt(s)"),
            }
        }
    }
    // Assignments the search skipped as unresolvable, per definition: the
    // defs are checked in order on this thread, one `engine.check_def` span
    // each, so every `exelim.unresolved` instant belongs to the latest one.
    let mut skipped = vec![0u64; report.defs.len()];
    let mut current = None;
    for e in &events {
        match (e.kind, e.name) {
            (rel_obs::EventKind::Begin, "engine.check_def") => {
                current = Some(current.map_or(0, |d: usize| d + 1));
            }
            (rel_obs::EventKind::Instant, "exelim.unresolved") => {
                if let Some(slot) = current.and_then(|d| skipped.get_mut(d)) {
                    *slot += e.arg;
                }
            }
            _ => {}
        }
    }
    for (def, skipped) in report.defs.iter().zip(skipped) {
        if let Some(reason) = def.stats.search_exhausted {
            // The recorded instant carrying this reason has the limit that
            // actually fired.
            let limit = caps
                .iter()
                .find(|(n, _, _)| n.ends_with(reason.as_str()))
                .map(|(_, limit, _)| *limit);
            let outcome = if def.ok {
                "the verdict leaned on the bounded numeric grid"
            } else {
                "the obligation was reported unprovable"
            };
            print!(
                "\n{} gave up its existential search at {} ({})",
                def.name,
                reason.describe(),
                reason.as_str()
            );
            if let Some(l) = limit {
                print!(", limit {l}");
            }
            if skipped > 0 {
                print!(" ({skipped} assignments skipped as cyclic or out of component)");
            }
            println!(", so {outcome}.");
        }
    }

    if report.all_ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `birelcost validate-metrics FILE`: checks a `--metrics-out` dump (or a
/// daemon `{"metrics": "dump"}` response) against the documented schema.
fn validate_metrics_file(file: &str) -> ExitCode {
    let text = match fs::read_to_string(file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{file}: cannot read: {e}");
            return ExitCode::from(2);
        }
    };
    match rel_service::validate_metrics(&text) {
        Ok(s) => {
            println!(
                "{file}: ok — schema v{}, {} counter(s), {} gauge(s), {} histogram(s)",
                rel_obs::SCHEMA_VERSION,
                s.counters,
                s.gauges,
                s.histograms
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{file}: schema violation: {e}");
            ExitCode::FAILURE
        }
    }
}

fn table1() -> ExitCode {
    let engine = Engine::new();
    println!(
        "{:<10} {:>10} {:>12} {:>14} {:>12} {:>9} {:>9}  result",
        "Benchmark",
        "total(s)",
        "typecheck(s)",
        "exist.elim(s)",
        "solving(s)",
        "points",
        "programs"
    );
    for b in all_benchmarks() {
        let program = match parse_program(b.source) {
            Ok(p) => p,
            Err(e) => {
                println!("{:<10} parse error: {e}", b.name);
                continue;
            }
        };
        let report = engine.check_program(&program);
        let solve = report.solve_stats();
        // Every phase column sums over the defs, like `total(s)`.
        let mut timings = PhaseTimings::default();
        for def in &report.defs {
            timings.typecheck += def.timings.typecheck;
            timings.existential_elim += def.timings.existential_elim;
            timings.solving += def.timings.solving;
        }
        let result = if !report.all_ok() {
            "not verified"
        } else if report.proved_defs() == report.defs.len() {
            "checked (proved)"
        } else {
            "checked (grid)"
        };
        println!(
            "{:<10} {:>10.3} {:>12.3} {:>14.3} {:>12.3} {:>9} {:>9}  {}",
            b.name,
            report.total_time().as_secs_f64(),
            timings.typecheck.as_secs_f64(),
            timings.existential_elim.as_secs_f64(),
            timings.solving.as_secs_f64(),
            solve.points_evaluated,
            solve.programs_compiled,
            result
        );
    }
    ExitCode::SUCCESS
}

fn list() -> ExitCode {
    for b in all_benchmarks() {
        let status = match b.status {
            VerificationStatus::Verified => "verified",
            VerificationStatus::Unverified => "unverified",
        };
        println!("{:<10} [{status:>10}]  {}", b.name, b.description);
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::{serve_flag_error, Flags, PhaseRows};
    use rel_obs::{SpanNode, ThreadTree};

    fn serve_flags(args: &[&str]) -> Flags {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        let (flags, rest) = Flags::parse(&args).expect("flags parse");
        assert!(rest.is_empty());
        flags
    }

    #[test]
    fn idle_timeout_is_a_socket_flag() {
        let stdio = serve_flags(&["--idle-timeout-ms", "500"]);
        assert!(serve_flag_error(&stdio).is_some_and(|e| e.contains("--idle-timeout-ms")));
        for plane in ["--listen", "--http", "--replica"] {
            let socket = serve_flags(&["--idle-timeout-ms", "500", plane, "127.0.0.1:0"]);
            assert_eq!(serve_flag_error(&socket), None, "{plane}");
        }
        // Stdio takes the other serve flags as before.
        let stdio = serve_flags(&[
            "--jobs",
            "2",
            "--request-timeout-ms",
            "50",
            "--max-queue",
            "4",
        ]);
        assert_eq!(serve_flag_error(&stdio), None);
    }

    fn span(name: &'static str, start_ns: u64, end_ns: u64, children: Vec<SpanNode>) -> SpanNode {
        SpanNode {
            name,
            start_ns,
            end_ns,
            arg: 0,
            children,
            events: Vec::new(),
        }
    }

    #[test]
    fn phase_rows_key_by_call_path_and_fold_recursion() {
        // check ─┬─ entails ─┬─ eliminate ─┬─ component ── entails ── prove
        //        │           │             └─ eliminate (recursion)
        //        │           └─ prove
        //        └─ prove
        let tree = span(
            "check",
            0,
            100,
            vec![
                span(
                    "entails",
                    0,
                    90,
                    vec![
                        span(
                            "eliminate",
                            0,
                            80,
                            vec![
                                span(
                                    "component",
                                    0,
                                    70,
                                    vec![span(
                                        "entails",
                                        0,
                                        60,
                                        vec![span("prove", 0, 50, vec![])],
                                    )],
                                ),
                                span("eliminate", 70, 75, vec![]),
                            ],
                        ),
                        span("prove", 80, 81, vec![]),
                    ],
                ),
                span("prove", 90, 92, vec![]),
            ],
        );
        let trees = [ThreadTree {
            tid: 0,
            roots: vec![tree],
            events: Vec::new(),
        }];
        let table = PhaseRows::from_trees(&trees);
        let rows: Vec<_> = table
            .in_tree_order()
            .into_iter()
            .map(|(depth, row)| (depth, row.name, row.count, row.total_ns))
            .collect();
        assert_eq!(
            rows,
            vec![
                (0, "check", 1, 100),
                // The nested `entails` folds into this row: counted, no time.
                (1, "entails", 2, 90),
                // Recursing `eliminate` likewise.
                (2, "eliminate", 2, 80),
                (3, "component", 1, 70),
                // The `prove` under the folded `entails` lands with the
                // direct one under the outer `entails`.
                (2, "prove", 2, 51),
                (1, "prove", 1, 2),
            ]
        );
        // No row's time exceeds the row it is indented under.
        let mut parents: Vec<u64> = Vec::new();
        for (depth, row) in table.in_tree_order() {
            parents.truncate(depth);
            if let Some(&parent) = parents.last() {
                assert!(row.total_ns <= parent, "{} exceeds its parent", row.name);
            }
            parents.push(row.total_ns);
        }
    }
}
