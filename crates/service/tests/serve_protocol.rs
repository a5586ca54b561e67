//! End-to-end tests of the newline-delimited JSON protocol: the stdio
//! session `birelcost serve` runs on the reactor, driven over in-memory
//! readers/writers.

use std::collections::HashMap;
use std::io::{Cursor, Read};
use std::sync::mpsc;
use std::time::Duration;

use rel_service::json::{self, Value};
use rel_service::{serve, test_hooks, ReactorOptions, ReactorSummary, Service, ServiceConfig};

fn service() -> Service {
    Service::new(ServiceConfig {
        workers: 2,
        cache_shards: 4,
    })
}

/// One reactor worker: responses come back in request order.
fn one_worker() -> ReactorOptions {
    ReactorOptions {
        workers: 1,
        ..ReactorOptions::default()
    }
}

/// Runs a stdio session over `input`, returning its summary and one parsed
/// JSON value per response line.
fn session<R: Read + Send + 'static>(
    service: &Service,
    input: R,
    options: ReactorOptions,
) -> (ReactorSummary, Vec<Value>) {
    let mut output = Vec::new();
    let summary = serve(service, input, &mut output, options).expect("in-memory I/O");
    let text = String::from_utf8(output).expect("responses are UTF-8");
    let responses = text
        .lines()
        .map(|l| json::parse(l).expect("every response line is valid JSON"))
        .collect();
    (summary, responses)
}

/// Runs the daemon over a scripted session, returning one parsed JSON
/// response per request line, in request order.
fn drive(service: &Service, lines: &[&str]) -> Vec<Value> {
    let (summary, responses) = session(service, Cursor::new(lines.join("\n")), one_worker());
    assert_eq!(
        summary.requests,
        responses.len() as u64,
        "one response per request"
    );
    responses
}

/// A reader that reports, once, when it hands out end of input.
struct SignalsEof {
    inner: Cursor<String>,
    eof: mpsc::Sender<()>,
}

impl Read for SignalsEof {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        if n == 0 {
            let _ = self.eof.send(());
        }
        Ok(n)
    }
}

fn id_of(response: &Value) -> &str {
    response
        .get("id")
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("response without a string id: {response}"))
}

#[test]
fn stdio_answers_each_pipelined_id_exactly_once() {
    // Three workers answer in completion order; a queue bound of one paces
    // the session (the reactor stops reading) instead of refusing requests.
    let service = service();
    let ids: Vec<String> = (0..12).map(|i| format!("pipe-{i}")).collect();
    let lines: Vec<String> = ids
        .iter()
        .enumerate()
        .map(|(i, id)| {
            if i % 3 == 0 {
                format!("{{\"id\": \"{id}\", \"check\": \"def x{i} : boolr = true;\"}}")
            } else {
                format!("{{\"id\": \"{id}\", \"stats\": true}}")
            }
        })
        .collect();
    let options = ReactorOptions {
        workers: 3,
        max_queue: 1,
        ..ReactorOptions::default()
    };
    let (summary, responses) = session(&service, Cursor::new(lines.join("\n")), options);
    assert_eq!(summary.requests, 12);
    assert_eq!(summary.backpressure, 0, "{summary:?}");
    assert_eq!(summary.errors, 0, "{summary:?}");
    let mut seen: HashMap<&str, usize> = HashMap::new();
    for response in &responses {
        *seen.entry(id_of(response)).or_default() += 1;
    }
    for id in &ids {
        assert_eq!(seen.get(id.as_str()), Some(&1), "{id} in {responses:?}");
    }
    assert_eq!(responses.len(), ids.len());
}

#[test]
fn stdio_answers_a_request_held_across_end_of_input() {
    let service = service();
    let hold = test_hooks::hold("stdio-held");
    let (eof_tx, eof_rx) = mpsc::channel();
    let input = SignalsEof {
        inner: Cursor::new(
            "{\"id\": \"stdio-held\", \"stats\": true}\n{\"id\": \"stdio-next\", \"stats\": true}"
                .to_string(),
        ),
        eof: eof_tx,
    };
    // Release the worker only once the input has ended and the reactor has
    // had time to see the half-close.
    let releaser = std::thread::spawn(move || {
        hold.wait_parked();
        eof_rx.recv().expect("the input reaches its end");
        std::thread::sleep(Duration::from_millis(100));
        hold.release();
    });
    let (summary, responses) = session(&service, input, one_worker());
    releaser.join().unwrap();
    assert_eq!(summary.requests, 2);
    assert!(!summary.shutdown, "the session ended at EOF");
    let ids: Vec<&str> = responses.iter().map(id_of).collect();
    assert_eq!(ids, ["stdio-held", "stdio-next"]);
}

#[test]
fn stdio_shutdown_says_bye_and_stops_reading() {
    let service = service();
    // Everything after the shutdown line is left unread — a megabyte of it,
    // more than the socket buffers hold while the session closes.
    let mut input = String::from("{\"id\": \"first\", \"stats\": true}\n{\"shutdown\": true}\n");
    while input.len() < 1 << 20 {
        input.push_str("{\"id\": \"unread\", \"stats\": true}\n");
    }
    let (summary, responses) = session(&service, Cursor::new(input), one_worker());
    assert!(summary.shutdown, "{summary:?}");
    assert_eq!(summary.requests, 2, "{summary:?}");
    assert!(
        responses.contains(&Value::obj([("bye", Value::Bool(true))])),
        "{responses:?}"
    );
    let ids: Vec<&str> = responses
        .iter()
        .filter_map(|r| r.get("id").and_then(Value::as_str))
        .collect();
    assert_eq!(ids, ["first"], "the request before shutdown is answered");
}

/// A reader that hands out `line` once and then never returns.
struct ThenBlocks(Option<&'static str>);

impl Read for ThenBlocks {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self.0.take() {
            Some(line) => {
                buf[..line.len()].copy_from_slice(line.as_bytes());
                Ok(line.len())
            }
            None => loop {
                std::thread::park();
            },
        }
    }
}

/// A writer whose reader has gone away.
struct Closed;

impl std::io::Write for Closed {
    fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
        Err(std::io::ErrorKind::BrokenPipe.into())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn stdio_ends_with_the_write_error_when_its_output_is_gone() {
    // The input never ends, so only the failed write can end the session.
    let service = service();
    let input = ThenBlocks(Some("{\"stats\": true}\n"));
    let error = serve(&service, input, Closed, one_worker()).expect_err("output is gone");
    assert_eq!(error.kind(), std::io::ErrorKind::BrokenPipe);
}

/// A reader that hands out `line`, then fails.
struct ThenFails(Option<&'static str>);

impl Read for ThenFails {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let line = self.0.take().ok_or(std::io::ErrorKind::InvalidData)?;
        buf[..line.len()].copy_from_slice(line.as_bytes());
        Ok(line.len())
    }
}

#[test]
fn stdio_answers_what_it_read_then_returns_the_read_error() {
    let service = service();
    let mut output = Vec::new();
    let input = ThenFails(Some("{\"id\": \"before\", \"stats\": true}\n"));
    let error = serve(&service, input, &mut output, one_worker()).expect_err("input failed");
    assert_eq!(error.kind(), std::io::ErrorKind::InvalidData);
    let text = String::from_utf8(output).unwrap();
    assert!(text.contains("\"id\":\"before\""), "{text}");
}

#[test]
fn stdio_deadline_workers_store_their_verdicts_before_serve_returns() {
    let service = service();
    assert_eq!(service.cache_stats().entries, 0);
    // `map` stores constraint verdicts in the validity cache.
    let src = rel_suite::benchmark("map")
        .unwrap()
        .source
        .replace('\n', " ");
    let request = format!("{{\"id\": \"stdio-late\", \"check\": \"{src}\"}}");
    let hold = test_hooks::hold("stdio-late");
    // Keep the worker parked well past the deadline: the deadline answer
    // goes out, the session ends, and the late worker finishes afterwards.
    let releaser = std::thread::spawn(move || {
        hold.wait_parked();
        std::thread::sleep(Duration::from_millis(300));
        hold.release();
    });
    let options = ReactorOptions {
        request_timeout: Some(Duration::from_millis(50)),
        ..one_worker()
    };
    let (summary, responses) = session(&service, Cursor::new(request), options);
    releaser.join().unwrap();
    assert_eq!(summary.deadlines, 1, "{summary:?}");
    assert_eq!(responses.len(), 1);
    assert_eq!(id_of(&responses[0]), "stdio-late");
    assert_eq!(
        responses[0].get("error").and_then(Value::as_str),
        Some("deadline")
    );
    assert!(
        service.cache_stats().entries > 0,
        "the timed-out worker's verdicts are in the cache when serve returns"
    );
}

#[test]
fn answers_consecutive_check_requests() {
    let service = service();
    let src = "def id : boolr -> boolr = lam x. x;";
    let req = format!("{{\"check\": \"{src}\"}}");
    let responses = drive(&service, &[&req, &req, &req]);
    assert_eq!(responses.len(), 3);
    for r in &responses {
        assert_eq!(r.get("ok"), Some(&Value::Bool(true)));
        let Some(Value::Arr(defs)) = r.get("defs") else {
            panic!("missing defs array in {r}");
        };
        assert_eq!(defs.len(), 1);
        assert_eq!(defs[0].get("name").and_then(Value::as_str), Some("id"));
        assert_eq!(defs[0].get("ok"), Some(&Value::Bool(true)));
        assert!(defs[0]
            .get("typecheck_us")
            .and_then(Value::as_int)
            .is_some());
        assert!(r.get("cache").is_some(), "responses carry cache counters");
    }
}

#[test]
fn def_reports_carry_the_fm_memo_and_exelim_counters() {
    // The perf counters of the FM whole-query memo and the indexed
    // existential search are part of the wire protocol: a load harness must
    // be able to watch memo hit rates and pruned candidates per definition.
    let service = service();
    // `map` exercises both machineries: existential candidates and FM
    // queries (each FM run is one memo lookup, so a cold check misses).
    let src = rel_suite::benchmark("map")
        .unwrap()
        .source
        .replace('\n', " ");
    let req = format!("{{\"check\": \"{src}\"}}");
    let responses = drive(&service, &[&req]);
    assert_eq!(responses[0].get("ok"), Some(&Value::Bool(true)));
    let Some(Value::Arr(defs)) = responses[0].get("defs") else {
        panic!("missing defs in {}", responses[0]);
    };
    let d = &defs[0];
    for field in [
        "fm_memo_hits",
        "fm_memo_misses",
        "exelim_candidates_pruned",
        "fm_proved",
        "grid_accepted",
    ] {
        assert!(
            d.get(field).and_then(Value::as_int).is_some(),
            "def report lacks `{field}`: {d}"
        );
    }
    let misses = d.get("fm_memo_misses").and_then(Value::as_int).unwrap();
    assert!(misses > 0, "map's obligations must exercise the FM memo");
    // The search-exhausted tag is part of the wire protocol too: a string
    // naming the cap when the existential search gave up, else null.
    let exhausted = d.get("search_exhausted").expect("missing search_exhausted");
    assert!(
        matches!(exhausted, Value::Null | Value::Str(_)),
        "search_exhausted must be null or a reason string, got {exhausted}"
    );
}

#[test]
fn metrics_dump_reports_the_versioned_schema() {
    let service = service();
    let src = "def id : boolr -> boolr = lam x. x;";
    let check = format!("{{\"check\": \"{src}\"}}");
    let batch = format!("{{\"batch\": [\"{src}\", \"{src}\"]}}");
    let responses = drive(&service, &[&check, &batch, r#"{"metrics": "dump"}"#]);

    let dump = responses[2]
        .get("metrics")
        .expect("missing metrics payload");
    assert_eq!(
        dump.get("schema_version").and_then(Value::as_int),
        Some(rel_obs::SCHEMA_VERSION as i64)
    );

    // The response validates against the documented schema — the same
    // checker CI runs over `--metrics-out` files.
    rel_service::validate_metrics(&responses[2].to_string())
        .expect("daemon metrics dump must satisfy the schema");

    // Per-request latency histograms are populated: the two earlier
    // requests (check + batch) were both observed before the dump.
    let hist = dump
        .get("histograms")
        .and_then(|h| h.get("serve.request_ns"))
        .expect("missing serve.request_ns histogram");
    let count = hist.get("count").and_then(Value::as_int).unwrap();
    assert!(count >= 2, "expected ≥2 observed requests, got {count}");
    assert!(hist.get("p50_ns").and_then(Value::as_int).is_some());
    assert!(hist.get("max_ns").and_then(Value::as_int).unwrap() > 0);

    // Solver counters published by the engine reach the merged dump (the
    // global registry is process-wide, hence ≥).
    let queries = dump
        .get("counters")
        .and_then(|c| c.get("solver.queries"))
        .and_then(Value::as_int)
        .expect("missing solver.queries counter");
    assert!(queries > 0);

    // Request accounting lives in the same dump.
    let requests = dump
        .get("counters")
        .and_then(|c| c.get("serve.requests"))
        .and_then(Value::as_int)
        .unwrap();
    assert_eq!(requests, 3, "check + batch + the dump request itself");
}

#[test]
fn cache_stats_and_metrics_gauges_agree() {
    // `{"cache": "stats"}` is derived from the registry's cache gauges,
    // which are themselves refreshed from the live cache atomics — one
    // source of truth, so the two views can never drift.
    let service = service();
    let src = r#"\ndef not2 : boolr -> boolr = lam b. if b then false else true;\ndef use : boolr -> boolr = lam b. not2 (not2 b);\n"#;
    let check = format!("{{\"check\": \"{src}\"}}");
    let responses = drive(
        &service,
        &[
            &check,
            &check,
            r#"{"cache": "stats"}"#,
            r#"{"metrics": "dump"}"#,
        ],
    );

    let cache = responses[2].get("cache").expect("missing cache payload");
    let gauges = responses[3]
        .get("metrics")
        .and_then(|m| m.get("gauges"))
        .expect("missing gauges");
    for (proto_field, gauge_name) in [
        ("hits", "cache.validity.hits"),
        ("misses", "cache.validity.misses"),
        ("entries", "cache.validity.entries"),
        ("program_entries", "cache.programs.entries"),
        ("def_entries", "cache.defs.entries"),
        ("loads", "persist.loads"),
        ("saves", "persist.saves"),
    ] {
        assert_eq!(
            cache.get(proto_field).and_then(Value::as_int),
            gauges.get(gauge_name).and_then(Value::as_int),
            "{proto_field} and {gauge_name} must agree"
        );
    }
    // And the underlying cache saw real traffic (second check hits).
    assert!(cache.get("hits").and_then(Value::as_int).unwrap() > 0);
}

#[test]
fn program_memo_counters_match_the_per_def_hits() {
    // Every program lookup of every solver goes through the service's one
    // shared memo, so its counters are the per-def counters summed — and
    // `{"cache": "stats"}` and the gauges report the same numbers.
    let service = service();
    let (mut hits, mut compiled) = (0, 0);
    for name in ["2Dcount", "bsplit", "msort", "bfold"] {
        let b = rel_suite::benchmark(name).expect("bundled benchmark");
        let report = service.check_source(b.source).expect("benchmark parses");
        for def in &report.defs {
            hits += def.stats.program_cache_hits as u64;
            compiled += def.stats.programs_compiled as u64;
        }
    }
    let programs = service.program_cache_stats();
    assert!(hits > 0, "the four programs should reuse compiled programs");
    assert_eq!(programs.hits, hits, "memo hits vs per-def hits");
    assert_eq!(programs.misses, compiled, "memo misses vs per-def compiles");

    let responses = drive(
        &service,
        &[r#"{"cache": "stats"}"#, r#"{"metrics": "dump"}"#],
    );
    let cache = responses[0].get("cache").expect("missing cache payload");
    assert_eq!(
        cache.get("program_hits").and_then(Value::as_int),
        Some(hits as i64)
    );
    let gauges = responses[1]
        .get("metrics")
        .and_then(|m| m.get("gauges"))
        .expect("missing gauges");
    assert_eq!(
        gauges.get("cache.programs.hits").and_then(Value::as_int),
        Some(hits as i64)
    );
}

#[test]
fn rejects_unknown_metrics_commands() {
    let service = service();
    let responses = drive(&service, &[r#"{"metrics": "reset"}"#]);
    let err = responses[0].get("error").and_then(Value::as_str).unwrap();
    assert!(err.contains("dump"), "got: {err}");
}

#[test]
fn reports_parse_errors_without_dying() {
    let service = service();
    let responses = drive(
        &service,
        &[
            r#"{"check": "def broken : boolr =", "id": "bad"}"#,
            r#"{"check": "def ok : boolr = true;", "id": "good"}"#,
        ],
    );
    assert_eq!(responses[0].get("id").and_then(Value::as_str), Some("bad"));
    let err = responses[0]
        .get("error")
        .and_then(Value::as_str)
        .expect("parse failure is reported in `error`");
    assert!(err.contains("parse error"), "got: {err}");
    // The session survived and the next request still checks.
    assert_eq!(responses[1].get("id").and_then(Value::as_str), Some("good"));
    assert_eq!(responses[1].get("ok"), Some(&Value::Bool(true)));
}

#[test]
fn survives_malformed_and_unknown_requests() {
    let service = service();
    let responses = drive(
        &service,
        &[
            "this is not json",
            r#"{"frobnicate": 1}"#,
            r#"{"check": 42}"#,
            r#"{"batch": "not an array"}"#,
            r#"{"check": "def ok : boolr = true;"}"#,
        ],
    );
    for r in &responses[..4] {
        assert!(
            r.get("error").and_then(Value::as_str).is_some(),
            "expected an error response, got {r}"
        );
    }
    assert_eq!(responses[4].get("ok"), Some(&Value::Bool(true)));
}

#[test]
fn multi_def_programs_report_per_def_verdicts_in_order() {
    let service = service();
    let src = r#"\ndef not2 : boolr -> boolr = lam b. if b then false else true;\ndef use : boolr -> boolr = lam b. not2 (not2 b);\ndef bad : boolr = 3;\n"#;
    let req = format!("{{\"check\": \"{src}\"}}");
    let responses = drive(&service, &[&req]);
    assert_eq!(responses[0].get("ok"), Some(&Value::Bool(false)));
    let Some(Value::Arr(defs)) = responses[0].get("defs") else {
        panic!("missing defs");
    };
    let names: Vec<&str> = defs
        .iter()
        .map(|d| d.get("name").and_then(Value::as_str).unwrap())
        .collect();
    assert_eq!(names, ["not2", "use", "bad"]);
    assert_eq!(defs[0].get("ok"), Some(&Value::Bool(true)));
    assert_eq!(defs[1].get("ok"), Some(&Value::Bool(true)));
    assert_eq!(defs[2].get("ok"), Some(&Value::Bool(false)));
    assert!(defs[2].get("error").and_then(Value::as_str).is_some());
}

#[test]
fn cache_counters_climb_across_requests() {
    let service = service();
    let src = r#"\ndef not2 : boolr -> boolr = lam b. if b then false else true;\ndef use : boolr -> boolr = lam b. not2 (not2 b);\n"#;
    let req = format!("{{\"check\": \"{src}\"}}");
    let responses = drive(&service, &[&req, &req, r#"{"stats": true}"#]);

    let hits = |r: &Value| {
        r.get("cache")
            .and_then(|c| c.get("hits"))
            .and_then(Value::as_int)
            .expect("cache.hits")
    };
    assert_eq!(hits(&responses[0]), 0, "first request is all misses");
    assert!(hits(&responses[1]) > 0, "second request hits the cache");
    assert!(
        hits(&responses[2]) > 0,
        "stats request reports the counters"
    );
}

#[test]
fn batch_requests_check_on_the_worker_pool() {
    let service = service();
    let ok = "def ok : boolr = true;";
    let bad = "def broken : boolr =";
    let req = format!("{{\"batch\": [\"{ok}\", \"{bad}\", \"{ok}\"]}}");
    let responses = drive(&service, &[&req]);
    let r = &responses[0];
    assert_eq!(r.get("ok"), Some(&Value::Bool(false)));
    assert_eq!(r.get("jobs_ok").and_then(Value::as_int), Some(2));
    let Some(Value::Arr(jobs)) = r.get("jobs") else {
        panic!("missing jobs");
    };
    assert_eq!(jobs.len(), 3);
    assert_eq!(jobs[0].get("ok"), Some(&Value::Bool(true)));
    assert_eq!(jobs[1].get("ok"), Some(&Value::Bool(false)));
    assert!(jobs[1].get("error").and_then(Value::as_str).is_some());
    assert_eq!(jobs[2].get("ok"), Some(&Value::Bool(true)));
}
