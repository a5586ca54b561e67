//! The daemon front end: a newline-delimited JSON request/response protocol.
//!
//! One request per line in, one response per line out — the shape external
//! load harnesses want for sustained traffic.  Requests:
//!
//! ```text
//! {"check": "<source>"}            check a program, report per-def verdicts
//! {"check": "<source>", "id": X}   same, echoing X back in the response
//! {"batch": ["<src>", ...]}        check several programs on the worker pool
//! {"stats": true}                  report service/cache counters
//! {"cache": "stats"}               full cache counters (validity + programs
//!                                  + persistence loads/saves)
//! {"cache": "flush"}               compact the warm state into the cache file
//! {"cache": "clear"}               drop all memoized state
//! {"metrics": "dump"}              versioned metrics snapshot: solver
//!                                  counters, request latency histograms,
//!                                  cache gauges (DESIGN.md §8.2 schema)
//! {"health": true}                 ready/degraded probe (same payload the
//!                                  HTTP plane serves on GET /healthz)
//! {"replica": ...}                 the daemon-to-daemon replication plane:
//!                                  hello/frame/snapshot/status (§11)
//! {"shutdown": true}               answer {"bye": true}, drain, stop (parsed
//!                                  by the reactor, not here)
//! ```
//!
//! Every response carries `"cache"` counters so a harness can watch hit rates
//! climb as traffic warms the validity cache.  Malformed lines produce an
//! `{"error": ...}` response instead of killing the session: a serving
//! process must survive bad input.
//!
//! This module is the protocol alone: [`respond`] turns one request into one
//! response.  Serving — sockets and stdio alike, with deadlines,
//! backpressure and shutdown — is the poll(2) reactor of [`crate::reactor`],
//! whose workers answer through [`respond_parsed`].

use birelcost::{DefReport, ProgramReport};

use crate::json::{self, Value};
use crate::service::Service;

/// Computes the response for one request line, recording the request's
/// latency on the service's private metrics registry (and a span on the
/// process recorder, when armed).
pub fn respond(service: &Service, line: &str) -> Value {
    let _span = rel_obs::span("serve.request");
    let _timer = service
        .metrics()
        .histogram("serve.request_ns")
        .start_timer();
    service.metrics().counter("serve.requests").incr();
    let request = match json::parse(line) {
        Ok(v) => v,
        Err(e) => {
            service.metrics().counter("serve.errors").incr();
            return Value::obj([("error", Value::Str(format!("malformed request: {e}")))]);
        }
    };
    respond_parsed(service, &request)
}

/// [`respond`] for an already-parsed request: dispatch plus the `id` echo,
/// without the request counter or the latency observation — the reactor
/// counts requests at decode and measures latency at completion (so
/// queueing time is included).
pub fn respond_parsed(service: &Service, request: &Value) -> Value {
    let mut response = match dispatch(service, request) {
        Ok(fields) => fields,
        Err(message) => {
            service.metrics().counter("serve.errors").incr();
            Value::obj([("error", Value::Str(message))])
        }
    };
    echo_id(&mut response, request.get("id"));
    response
}

/// Puts the request's `id` first in a response object.
pub(crate) fn echo_id(payload: &mut Value, id: Option<&Value>) {
    if let (Some(id), Value::Obj(fields)) = (id, payload) {
        fields.insert(0, ("id".to_string(), id.clone()));
    }
}

fn dispatch(service: &Service, request: &Value) -> Result<Value, String> {
    if let Some(source) = request.get("check") {
        let source = source
            .as_str()
            .ok_or_else(|| "the `check` field must be a string of source code".to_string())?;
        return Ok(check_response(service, source));
    }
    if let Some(batch) = request.get("batch") {
        let Value::Arr(items) = batch else {
            return Err("the `batch` field must be an array of source strings".to_string());
        };
        let sources: Vec<&str> = items
            .iter()
            .map(|v| {
                v.as_str()
                    .ok_or_else(|| "batch items must be strings".to_string())
            })
            .collect::<Result<_, _>>()?;
        return Ok(batch_response(service, &sources));
    }
    if request.get("stats").is_some() {
        return Ok(Value::obj([("cache", cache_value(service))]));
    }
    if let Some(command) = request.get("cache") {
        let command = command.as_str().ok_or_else(|| {
            "the `cache` field must be \"stats\", \"flush\" or \"clear\"".to_string()
        })?;
        return cache_command(service, command);
    }
    if let Some(command) = request.get("metrics") {
        if command.as_str() != Some("dump") {
            return Err("the `metrics` field must be \"dump\"".to_string());
        }
        return Ok(Value::obj([("metrics", metrics_value(service)?)]));
    }
    if request.get("health").is_some() {
        return Ok(health_value(service));
    }
    if let Some(command) = request.get("replica") {
        return replica_command(service, command, request);
    }
    Err(
        "unknown request: expected `check`, `batch`, `stats`, `cache`, `metrics`, `health` \
         or `replica`"
            .to_string(),
    )
}

/// The `{"health": true}` (and HTTP `GET /healthz`) payload: byte-identical
/// across planes; the HTTP codec additionally maps `"degraded"` to a 503
/// status line.
fn health_value(service: &Service) -> Value {
    let health = service.health();
    Value::obj([
        (
            "health",
            Value::Str(if health.ready { "ready" } else { "degraded" }.to_string()),
        ),
        (
            "reasons",
            Value::Arr(health.reasons.into_iter().map(Value::Str).collect()),
        ),
    ])
}

/// Handles the replication plane's wire objects (DESIGN.md §11):
///
/// ```text
/// {"replica":"hello","v":1,"node":t,"fp":h}   → {"replica":"state","applied":N,"fp":h}
/// {"replica":"frame","node":t,"seq":N,"data":h} → {"replica":"ack","applied":M}
/// {"replica":"snapshot","node":t,"seq":N,"data":h} → {"replica":"ack","applied":N}
/// {"replica":"status"}                        → counters for ops/tests
/// ```
///
/// A fingerprint mismatch (hello or frame) answers the structured
/// `{"error": "replica-fingerprint-mismatch"}` the sending session parks on.
fn replica_command(service: &Service, command: &Value, request: &Value) -> Result<Value, String> {
    let command = command.as_str().ok_or_else(|| {
        "the `replica` field must be \"hello\", \"frame\", \"snapshot\" or \"status\"".to_string()
    })?;
    let node = || -> Result<&str, String> {
        request
            .get("node")
            .and_then(Value::as_str)
            .ok_or_else(|| "replica requests need a `node` token".to_string())
    };
    let seq = || -> Result<u64, String> {
        request
            .get("seq")
            .and_then(Value::as_int)
            .filter(|s| *s >= 0)
            .map(|s| s as u64)
            .ok_or_else(|| "replica requests need a non-negative `seq`".to_string())
    };
    let data = || -> Result<&str, String> {
        request
            .get("data")
            .and_then(Value::as_str)
            .ok_or_else(|| "replica requests need hex `data`".to_string())
    };
    let ack = |applied: u64| {
        Value::obj([
            ("replica", Value::Str("ack".to_string())),
            ("applied", Value::Int(applied as i64)),
        ])
    };
    match command {
        "hello" => {
            let v = request.get("v").and_then(Value::as_int).unwrap_or(0);
            if v != crate::replica::REPLICA_PROTOCOL_VERSION {
                return Err(format!("unsupported replica protocol version {v}"));
            }
            let fp = request
                .get("fp")
                .and_then(Value::as_str)
                .ok_or_else(|| "replica hello needs an `fp` fingerprint".to_string())?;
            let applied = service.replica_hello(node()?, fp)?;
            Ok(Value::obj([
                ("replica", Value::Str("state".to_string())),
                ("applied", Value::Int(applied as i64)),
                (
                    "fp",
                    Value::Str(format!("{:016x}", service.engine().fingerprint())),
                ),
            ]))
        }
        "frame" => Ok(ack(service.replica_apply_frame(
            node()?,
            seq()?,
            data()?,
        )?)),
        "snapshot" => Ok(ack(service.replica_apply_snapshot(
            node()?,
            seq()?,
            data()?,
        )?)),
        "status" => Ok(Value::obj([("replica", replica_status_value(service))])),
        other => Err(format!(
            "unknown replica command `{other}`: expected \"hello\", \"frame\", \"snapshot\" \
             or \"status\""
        )),
    }
}

/// The `{"replica": "status"}` payload: outbound peer sessions plus inbound
/// apply counters — what the chaos harness and a fleet operator both read.
fn replica_status_value(service: &Service) -> Value {
    let status = service.replica_status();
    Value::obj([
        ("node", Value::Str(status.node.clone())),
        ("published", Value::Int(status.published as i64)),
        (
            "peers",
            Value::Arr(
                status
                    .peers
                    .iter()
                    .map(|p| {
                        Value::obj([
                            ("addr", Value::Str(p.addr.clone())),
                            ("state", Value::Str(p.state.to_string())),
                            ("connected", Value::Bool(p.connected)),
                            ("ever_connected", Value::Bool(p.ever_connected)),
                            ("acked", Value::Int(p.acked as i64)),
                            ("lag", Value::Int(p.lag as i64)),
                            ("shipped", Value::Int(p.shipped as i64)),
                            ("reconnects", Value::Int(p.reconnects as i64)),
                            ("snapshots_sent", Value::Int(p.snapshots_sent as i64)),
                            ("queue_dropped", Value::Int(p.queue_dropped as i64)),
                            ("incompatible", Value::Int(p.incompatible as i64)),
                            ("backoff_ms", Value::Int(p.backoff_ms as i64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "inbound",
            Value::obj([
                ("sources", Value::Int(status.inbound.sources as i64)),
                ("hellos", Value::Int(status.inbound.hellos as i64)),
                (
                    "hellos_rejected",
                    Value::Int(status.inbound.hellos_rejected as i64),
                ),
                (
                    "frames_applied",
                    Value::Int(status.inbound.frames_applied as i64),
                ),
                (
                    "frames_duplicate",
                    Value::Int(status.inbound.frames_duplicate as i64),
                ),
                (
                    "frames_rejected",
                    Value::Int(status.inbound.frames_rejected as i64),
                ),
                (
                    "snapshots_applied",
                    Value::Int(status.inbound.snapshots_applied as i64),
                ),
            ]),
        ),
    ])
}

/// The `{"metrics": "dump"}` payload: the merged registry snapshot,
/// round-tripped through the serializer and this crate's parser so the
/// daemon emits exactly the schema [`rel_obs::RegistrySnapshot::to_json`]
/// documents.
/// Re-parsing our own serializer's output should never fail; if it somehow
/// does (a registry name with bytes the parser rejects, say), the daemon
/// answers with an error and keeps serving instead of panicking mid-session.
fn metrics_value(service: &Service) -> Result<Value, String> {
    let dump = service.metrics_snapshot().to_json();
    json::parse(&dump).map_err(|e| format!("metrics snapshot did not round-trip: {e}"))
}

/// Handles `{"cache": "stats" | "flush" | "clear"}`.
fn cache_command(service: &Service, command: &str) -> Result<Value, String> {
    match command {
        "stats" => Ok(Value::obj([("cache", full_cache_value(service))])),
        "flush" => {
            let verdicts = service.save_cache()?;
            Ok(Value::obj([
                ("flushed", Value::Bool(true)),
                ("verdicts", Value::Int(verdicts as i64)),
                ("cache", full_cache_value(service)),
            ]))
        }
        "clear" => {
            service.clear_cache();
            Ok(Value::obj([
                ("cleared", Value::Bool(true)),
                ("cache", full_cache_value(service)),
            ]))
        }
        other => Err(format!(
            "unknown cache command `{other}`: expected \"stats\", \"flush\" or \"clear\""
        )),
    }
}

fn check_response(service: &Service, source: &str) -> Value {
    match service.check_source(source) {
        Ok(report) => Value::obj([
            ("ok", Value::Bool(report.all_ok())),
            ("defs", defs_value(&report)),
            ("cache", cache_value(service)),
        ]),
        Err(e) => Value::obj([("error", Value::Str(e)), ("cache", cache_value(service))]),
    }
}

fn batch_response(service: &Service, sources: &[&str]) -> Value {
    let jobs: Vec<crate::batch::BatchJob> = sources
        .iter()
        .enumerate()
        .map(|(i, src)| crate::batch::BatchJob::new(format!("job-{i}"), *src))
        .collect();
    let results = service.check_batch(&jobs);
    let stats = crate::batch::BatchStats::of(&results);
    Value::obj([
        ("ok", Value::Bool(results.iter().all(|r| r.ok()))),
        ("jobs", Value::Arr(results.iter().map(job_value).collect())),
        ("jobs_ok", Value::Int(stats.jobs_ok as i64)),
        ("cache", cache_value(service)),
    ])
}

/// One entry of a batch response's `jobs` array (also the per-item shape of
/// streamed batch results on the reactor plane).
pub(crate) fn job_value(result: &crate::batch::BatchResult) -> Value {
    match &result.outcome {
        Ok(report) => Value::obj([
            ("name", Value::Str(result.name.clone())),
            ("ok", Value::Bool(report.all_ok())),
            ("defs", defs_value(report)),
        ]),
        Err(e) => Value::obj([
            ("name", Value::Str(result.name.clone())),
            ("ok", Value::Bool(false)),
            ("error", Value::Str(e.clone())),
        ]),
    }
}

fn defs_value(report: &ProgramReport) -> Value {
    Value::Arr(report.defs.iter().map(def_value).collect())
}

fn def_value(def: &DefReport) -> Value {
    Value::obj([
        ("name", Value::Str(def.name.clone())),
        ("ok", Value::Bool(def.ok)),
        // Verdict provenance: `true` when every obligation was proved
        // (symbolic / Fourier–Motzkin), `false` when the verdict leaned on
        // the bounded numeric grid (or the definition failed).
        ("proved", Value::Bool(def.proved)),
        (
            "error",
            match &def.error {
                Some(e) => Value::Str(e.clone()),
                None => Value::Null,
            },
        ),
        (
            "typecheck_us",
            Value::Int(def.timings.typecheck.as_micros() as i64),
        ),
        (
            "exelim_us",
            Value::Int(def.timings.existential_elim.as_micros() as i64),
        ),
        (
            "solving_us",
            Value::Int(def.timings.solving.as_micros() as i64),
        ),
        ("constraint_atoms", Value::Int(def.constraint_atoms as i64)),
        ("cache_hits", Value::Int(def.stats.cache_hits as i64)),
        ("cache_misses", Value::Int(def.stats.cache_misses as i64)),
        (
            "programs_compiled",
            Value::Int(def.stats.programs_compiled as i64),
        ),
        (
            "program_cache_hits",
            Value::Int(def.stats.program_cache_hits as i64),
        ),
        (
            "points_evaluated",
            Value::Int(def.stats.points_evaluated as i64),
        ),
        ("fm_proved", Value::Int(def.stats.fm_proved as i64)),
        ("grid_accepted", Value::Int(def.stats.grid_accepted as i64)),
        ("fm_memo_hits", Value::Int(def.stats.fm_memo_hits as i64)),
        (
            "fm_memo_misses",
            Value::Int(def.stats.fm_memo_misses as i64),
        ),
        (
            "exelim_candidates_pruned",
            Value::Int(def.stats.exelim_candidates_pruned as i64),
        ),
        // Why the existential search gave up, when it did: one of
        // "attempt-budget", "row-cap", "branch-cap", "component-blowup".
        (
            "search_exhausted",
            match def.stats.search_exhausted {
                Some(reason) => Value::Str(reason.as_str().to_string()),
                None => Value::Null,
            },
        ),
        ("skipped_unchanged", Value::Bool(def.skipped_unchanged)),
    ])
}

pub(crate) fn cache_value(service: &Service) -> Value {
    let stats = service.cache_stats();
    Value::obj([
        ("hits", Value::Int(stats.hits as i64)),
        ("misses", Value::Int(stats.misses as i64)),
        ("entries", Value::Int(stats.entries as i64)),
    ])
}

/// The `{"cache": "stats"}` payload: validity-cache counters plus the
/// program memo, def index and persistence-layer counters.
///
/// Read out of the metrics registry's cache gauges (refreshed from the live
/// cache atomics by [`Service::publish_cache_gauges`]) so the protocol and
/// the `{"metrics": "dump"}` snapshot report from one source of truth.
fn full_cache_value(service: &Service) -> Value {
    service.publish_cache_gauges();
    let snapshot = service.metrics().snapshot();
    let persist = service.persist_stats();
    let gauge = |name: &str| -> Value {
        Value::Int(
            snapshot
                .gauges
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or(0),
        )
    };
    Value::obj([
        ("hits", gauge("cache.validity.hits")),
        ("misses", gauge("cache.validity.misses")),
        ("entries", gauge("cache.validity.entries")),
        ("evictions", gauge("cache.validity.evictions")),
        ("program_hits", gauge("cache.programs.hits")),
        ("program_misses", gauge("cache.programs.misses")),
        ("program_entries", gauge("cache.programs.entries")),
        ("def_entries", gauge("cache.defs.entries")),
        ("loads", gauge("persist.loads")),
        ("saves", gauge("persist.saves")),
        (
            "file",
            match &persist.path {
                Some(p) => Value::Str(p.display().to_string()),
                None => Value::Null,
            },
        ),
        (
            "wal",
            match &persist.wal {
                Some(w) => Value::obj([
                    ("records", Value::Int(w.records as i64)),
                    ("bytes", Value::Int(w.bytes as i64)),
                    ("appends", Value::Int(w.appends as i64)),
                    ("append_errors", Value::Int(w.append_errors as i64)),
                    ("compactions", Value::Int(w.compactions as i64)),
                    ("replayed", Value::Int(w.replayed as i64)),
                    ("truncated_tails", Value::Int(w.truncated_tails as i64)),
                    ("corrupt_skipped", Value::Int(w.corrupt_skipped as i64)),
                    (
                        "fingerprint_rejected",
                        Value::Int(w.fingerprint_rejected as i64),
                    ),
                    ("tmp_reaped", Value::Int(w.tmp_reaped as i64)),
                ]),
                None => Value::Null,
            },
        ),
    ])
}
