//! Open-loop load harness for the serving plane (DESIGN.md §10.4).
//!
//! Drives the NDJSON plane with a fixed-rate *open-loop* schedule: every
//! request has an absolute scheduled send time and its latency is measured
//! **from that scheduled time**, not from the moment the socket write
//! happened.  A closed-loop client (send, wait,
//! send) hides server queueing by slowing itself down to match the server;
//! an open-loop client keeps its promise and bills every queueing delay to
//! the response, which is what a caller with its own deadline experiences.
//!
//! Two phases:
//!
//! * `cold` — after `{"cache": "clear"}`, so every check runs the full
//!   pipeline (constraint generation, proving, sweeping);
//! * `warm` — the serving steady state, where the validity cache answers
//!   and a check is parse + hash + lookup.
//!
//! By default the harness boots an in-process reactor on an ephemeral
//! listener.  The CI `service-load-gate` job instead points it at a live
//! `birelcost serve` daemon via `SERVICE_LOAD_NDJSON` (host:port),
//! exercising the real binary over real sockets.  Either way the summary
//! lands in `BENCH_service.json` at the workspace root: throughput, p50/p99
//! latency, deadline misses, backpressure refusals and client-observed
//! connection errors, per phase, under `planes.ndjson`.
//!
//! Knobs (all optional): `SERVICE_LOAD_REQUESTS` (warm requests, default
//! 400), `SERVICE_LOAD_RATE` (warm offered rps, default 200),
//! `SERVICE_LOAD_CONNS` (connections, default 4).

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rel_service::json::{self, Value};
use rel_service::{serve_reactor, CodecKind, ReactorOptions, Service, ServiceConfig};
use rel_suite::all_benchmarks;

/// Benchmarks cheap enough (milliseconds cold) that the offered rate, not
/// the checker, is the bottleneck — the regime where latency percentiles
/// measure the *serving plane*.
const PROGRAMS: &[&str] = &["append", "rev", "map", "zip", "filter", "find"];

const READ_TIMEOUT: Duration = Duration::from_secs(30);

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let warm_requests = env_usize("SERVICE_LOAD_REQUESTS", 400);
    let warm_rate = env_usize("SERVICE_LOAD_RATE", 200) as f64;
    let conns = env_usize("SERVICE_LOAD_CONNS", 4).max(1);
    let sources: Vec<String> = {
        let all = all_benchmarks();
        PROGRAMS
            .iter()
            .map(|name| {
                all.iter()
                    .find(|b| b.name == *name)
                    .unwrap_or_else(|| panic!("no bundled benchmark `{name}`"))
                    .source
                    .to_string()
            })
            .collect()
    };

    // External daemon (CI) or in-process reactor (local).
    let (addr, server) = match std::env::var("SERVICE_LOAD_NDJSON") {
        Ok(addr) => (addr, None),
        Err(_) => {
            let (addr, handle) = start_reactor();
            (addr, Some(handle))
        }
    };
    let mode = if server.is_none() {
        "external"
    } else {
        "in-process"
    };
    println!("service_load: {mode} daemon, ndjson={addr}");

    // Cold: full-pipeline checks at a fifth of the warm rate (each check
    // costs real solver time, and the point is latency under load the
    // checker can sustain, not a saturation test).
    send_one(&addr, "{\"cache\": \"clear\"}");
    let cold = run_phase(
        &addr,
        &sources,
        "cold",
        sources.len() * 4,
        (warm_rate / 5.0).max(10.0),
        conns,
    );
    // Warm: prime every program once, then the steady state.
    for source in &sources {
        send_one(&addr, &check_request(0, source));
    }
    let warm = run_phase(&addr, &sources, "warm", warm_requests, warm_rate, conns);

    if let Some(handle) = server {
        send_one(&addr, "{\"shutdown\": true}");
        let summary = handle.join().expect("reactor thread").expect("reactor");
        println!("service_load: reactor summary {summary:?}");
    }

    let json = render_json(mode, conns, &sources, &cold, &warm);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_service.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}:\n{json}"),
        Err(e) => eprintln!("could not write {path}: {e}\n{json}"),
    }

    // Acceptance bars.  CI enforces the committed floors/ceilings in the
    // service-load-gate job; these in-bench asserts are the looser sanity
    // net that also protects local runs.
    for phase in [&cold, &warm] {
        assert_eq!(
            phase.completed, phase.requests,
            "{}: {} of {} requests unanswered",
            phase.name, phase.requests, phase.completed
        );
        assert_eq!(
            phase.conn_errors, 0,
            "{}: client saw connection errors",
            phase.name
        );
        assert_eq!(
            phase.errors, 0,
            "{}: unexpected error responses",
            phase.name
        );
    }
    assert!(
        warm.throughput_rps >= 25.0,
        "warm: throughput {:.1} rps below the 25 rps floor",
        warm.throughput_rps
    );
    assert!(
        warm.p99_ms <= 2_000.0,
        "warm: p99 {:.1} ms above the 2000 ms ceiling",
        warm.p99_ms
    );
    println!("service_load: all gates passed");
}

/// Boots an in-process reactor on an ephemeral listener; returns its
/// address and the join handle.
fn start_reactor() -> (
    String,
    std::thread::JoinHandle<std::io::Result<rel_service::ReactorSummary>>,
) {
    let service = Service::new(ServiceConfig::default());
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ndjson");
    let addr = listener.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || {
        serve_reactor(
            &service,
            vec![(listener, CodecKind::Ndjson)],
            ReactorOptions::default(),
        )
    });
    (addr, handle)
}

fn check_request(id: usize, source: &str) -> String {
    Value::obj([
        ("id", Value::Int(id as i64)),
        ("check", Value::Str(source.to_string())),
    ])
    .to_string()
}

/// One request outside any measured window (cache control, priming,
/// shutdown), on a throwaway connection.
fn send_one(addr: &str, request: &str) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .expect("response");
}

/// The measured outcome of one phase.
struct PhaseResult {
    name: &'static str,
    requests: usize,
    completed: usize,
    offered_rps: f64,
    throughput_rps: f64,
    p50_ms: f64,
    p99_ms: f64,
    max_ms: f64,
    deadline_misses: usize,
    backpressure: usize,
    errors: usize,
    conn_errors: usize,
}

/// Per-connection tally a client thread returns.
#[derive(Default)]
struct ConnTally {
    latencies_ns: Vec<u64>,
    deadline_misses: usize,
    backpressure: usize,
    errors: usize,
    conn_errors: usize,
    last_done: Option<Instant>,
}

/// Runs `total` requests at `rate` rps spread round-robin over `conns`
/// connections, open-loop: request *i* is sent at `start + i/rate` whether
/// or not earlier responses have arrived, and its latency runs from that
/// scheduled instant.
fn run_phase(
    addr: &str,
    sources: &[String],
    name: &'static str,
    total: usize,
    rate: f64,
    conns: usize,
) -> PhaseResult {
    let start = Instant::now() + Duration::from_millis(50);
    let tallies: Vec<ConnTally> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for conn_index in 0..conns {
            let addr = addr.to_string();
            handles.push(scope.spawn(move || {
                // This connection owns requests conn_index, conn_index+conns, …
                let schedule: Vec<(usize, Instant)> = (0..total)
                    .filter(|i| i % conns == conn_index)
                    .map(|i| (i, start + Duration::from_secs_f64(i as f64 / rate)))
                    .collect();
                drive_ndjson(&addr, sources, &schedule)
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });

    let mut latencies: Vec<u64> = Vec::with_capacity(total);
    let mut result = PhaseResult {
        name,
        requests: total,
        completed: 0,
        offered_rps: rate,
        throughput_rps: 0.0,
        p50_ms: 0.0,
        p99_ms: 0.0,
        max_ms: 0.0,
        deadline_misses: 0,
        backpressure: 0,
        errors: 0,
        conn_errors: 0,
    };
    let mut last_done = start;
    for tally in tallies {
        result.completed += tally.latencies_ns.len();
        result.deadline_misses += tally.deadline_misses;
        result.backpressure += tally.backpressure;
        result.errors += tally.errors;
        result.conn_errors += tally.conn_errors;
        latencies.extend(tally.latencies_ns);
        if let Some(done) = tally.last_done {
            last_done = last_done.max(done);
        }
    }
    latencies.sort_unstable();
    let quantile = |q: f64| -> f64 {
        if latencies.is_empty() {
            return 0.0;
        }
        let idx = ((latencies.len() as f64 - 1.0) * q).round() as usize;
        latencies[idx] as f64 / 1e6
    };
    result.p50_ms = quantile(0.50);
    result.p99_ms = quantile(0.99);
    result.max_ms = quantile(1.0);
    let wall = last_done.saturating_duration_since(start).as_secs_f64();
    result.throughput_rps = if wall > 0.0 {
        result.completed as f64 / wall
    } else {
        0.0
    };
    println!(
        "service_load: {name}: {}/{} ok, offered {:.0} rps, completed {:.1} rps, \
         p50 {:.1} ms, p99 {:.1} ms, max {:.1} ms, deadline {}, backpressure {}, \
         errors {}, conn_errors {}",
        result.completed,
        result.requests,
        result.offered_rps,
        result.throughput_rps,
        result.p50_ms,
        result.p99_ms,
        result.max_ms,
        result.deadline_misses,
        result.backpressure,
        result.errors,
        result.conn_errors,
    );
    result
}

/// Classifies one parsed response into the tally's error buckets.
fn classify(payload: &Value, tally: &mut ConnTally) {
    match payload.get("error") {
        Some(Value::Str(e)) if e == "deadline" => tally.deadline_misses += 1,
        Some(Value::Str(e)) if e == "backpressure" => tally.backpressure += 1,
        Some(_) => tally.errors += 1,
        None => {}
    }
}

/// NDJSON client: a writer honoring the schedule plus a reader pairing
/// responses to scheduled times by id echo (responses arrive in finish
/// order, not send order).
fn drive_ndjson(addr: &str, sources: &[String], schedule: &[(usize, Instant)]) -> ConnTally {
    let Ok(stream) = TcpStream::connect(addr) else {
        let mut tally = ConnTally::default();
        tally.conn_errors += 1;
        return tally;
    };
    stream.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
    let _ = stream.set_nodelay(true);
    let scheduled: Arc<Mutex<HashMap<i64, Instant>>> = Arc::new(Mutex::new(HashMap::new()));
    let expected = schedule.len();

    let reader_stream = stream.try_clone().expect("clone stream");
    let reader_scheduled = Arc::clone(&scheduled);
    let reader = std::thread::spawn(move || {
        let mut tally = ConnTally::default();
        let mut reader = BufReader::new(reader_stream);
        for _ in 0..expected {
            let mut line = String::new();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    tally.conn_errors += 1;
                    return tally;
                }
                Ok(_) => {}
            }
            let done = Instant::now();
            let Ok(payload) = json::parse(line.trim()) else {
                tally.errors += 1;
                continue;
            };
            let sent_at = payload
                .get("id")
                .and_then(|id| id.as_int())
                .and_then(|id| reader_scheduled.lock().unwrap().remove(&id));
            if let Some(sent_at) = sent_at {
                tally
                    .latencies_ns
                    .push(done.saturating_duration_since(sent_at).as_nanos() as u64);
                tally.last_done = Some(done);
            }
            classify(&payload, &mut tally);
        }
        tally
    });

    let mut writer = stream;
    let mut write_errors = 0;
    for (index, sent_at) in schedule {
        sleep_until(*sent_at);
        scheduled.lock().unwrap().insert(*index as i64, *sent_at);
        let request = check_request(*index, &sources[index % sources.len()]);
        if writer.write_all(request.as_bytes()).is_err() || writer.write_all(b"\n").is_err() {
            write_errors += 1;
            break;
        }
    }
    let mut tally = reader.join().expect("reader thread");
    tally.conn_errors += write_errors;
    tally
}

/// Sleeps until an absolute instant (no-op if it has passed).
fn sleep_until(at: Instant) {
    let now = Instant::now();
    if at > now {
        std::thread::sleep(at - now);
    }
}

fn render_phase(phase: &PhaseResult) -> String {
    format!(
        "{{\n        \"requests\": {},\n        \"completed\": {},\n        \
         \"offered_rps\": {:.1},\n        \"throughput_rps\": {:.1},\n        \
         \"p50_ms\": {:.2},\n        \"p99_ms\": {:.2},\n        \"max_ms\": {:.2},\n        \
         \"deadline_misses\": {},\n        \"backpressure\": {},\n        \
         \"errors\": {},\n        \"conn_errors\": {}\n      }}",
        phase.requests,
        phase.completed,
        phase.offered_rps,
        phase.throughput_rps,
        phase.p50_ms,
        phase.p99_ms,
        phase.max_ms,
        phase.deadline_misses,
        phase.backpressure,
        phase.errors,
        phase.conn_errors,
    )
}

fn render_json(
    mode: &str,
    conns: usize,
    sources: &[String],
    cold: &PhaseResult,
    warm: &PhaseResult,
) -> String {
    format!(
        "{{\n  \"bench\": \"service_load\",\n  \"mode\": \"{mode}\",\n  \
         \"conns\": {conns},\n  \"programs\": {},\n  \"planes\": {{\n    \
         \"ndjson\": {{\n      \"cold\": {},\n      \"warm\": {}\n    }}\n  }}\n}}\n",
        sources.len(),
        render_phase(cold),
        render_phase(warm),
    )
}
