//! Protocol conformance for the NDJSON serving plane.
//!
//! The contract under test (DESIGN.md §10): one JSON object per line in, one
//! per line out.  The suite drives a live reactor over a TCP listener and
//! pins raw bytes for every deterministic response shape (stats, errors,
//! cache stats, deadline, backpressure, health), checks nondeterministic
//! ones (check timings, metrics counters) structurally, and then feeds the
//! plane the malformed input it is most likely to meet in production:
//! oversized lines, truncated requests, and a slow-loris partial line that
//! only `--idle-timeout-ms` can reap.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rel_service::json::{self, Value};
use rel_service::{
    serve_reactor, test_hooks, CodecKind, ReactorOptions, ReactorSummary, Service, ServiceConfig,
};

const READ_TIMEOUT: Duration = Duration::from_secs(20);

/// A live reactor with one NDJSON listener over one service.
struct Daemon {
    addr: SocketAddr,
    handle: JoinHandle<std::io::Result<ReactorSummary>>,
}

impl Daemon {
    fn start(workers: usize, configure: impl FnOnce(&mut ReactorOptions)) -> Daemon {
        let service = Service::new(ServiceConfig {
            workers,
            cache_shards: 16,
        });
        let mut options = ReactorOptions {
            workers,
            ..ReactorOptions::default()
        };
        configure(&mut options);
        Daemon::serve(service, options)
    }

    /// Serves `service` on a fresh ephemeral listener.
    fn serve(service: Service, options: ReactorOptions) -> Daemon {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ndjson");
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            serve_reactor(&service, vec![(listener, CodecKind::Ndjson)], options)
        });
        Daemon { addr, handle }
    }

    /// Stops the reactor via the wire protocol and returns its summary.
    fn stop(self) -> ReactorSummary {
        let bye = ndjson_request(self.addr, "{\"shutdown\": true}");
        assert_eq!(bye, "{\"bye\":true}\n");
        self.handle
            .join()
            .expect("reactor thread")
            .expect("reactor I/O")
    }
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
    stream
}

/// One NDJSON request on a fresh connection; returns the raw response line
/// (trailing newline included, so byte comparisons cover the full content).
fn ndjson_request(addr: SocketAddr, line: &str) -> String {
    let mut stream = connect(addr);
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    let mut reader = BufReader::new(stream);
    let mut response = String::new();
    reader.read_line(&mut response).expect("response line");
    response
}

fn parse_line(line: &str) -> Value {
    json::parse(line.trim()).expect("response JSON")
}

/// The source of a bundled benchmark, by name.
fn bench_source(name: &str) -> String {
    rel_suite::all_benchmarks()
        .into_iter()
        .find(|b| b.name == name)
        .unwrap_or_else(|| panic!("no bundled benchmark `{name}`"))
        .source
        .to_string()
}

/// A wire object as a JSON string.
fn wire(fields: Vec<(&str, Value)>) -> String {
    Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
    .to_string()
}

// ---------------------------------------------------------------------------
// Pinned response bytes
// ---------------------------------------------------------------------------

#[test]
fn deterministic_responses_are_pinned_bytes() {
    let daemon = Daemon::start(2, |_| {});

    // Each request answers content that does not depend on timing, so the
    // response line is pinned byte for byte.  No request checks a program,
    // so the counters stay at zero throughout.
    let cases: Vec<(String, &str)> = vec![
        (
            wire(vec![("stats", Value::Bool(true))]),
            "{\"cache\":{\"hits\":0,\"misses\":0,\"entries\":0}}\n",
        ),
        (
            wire(vec![("nonsense", Value::Int(1))]),
            "{\"error\":\"unknown request: expected `check`, `batch`, `stats`, `cache`, \
             `metrics` or `health`\"}\n",
        ),
        // Malformed JSON: the error names the byte offset where the parser
        // gave up.
        (
            "{\"check\": ".to_string(),
            "{\"error\":\"malformed request: unexpected end of input at byte 10\"}\n",
        ),
        // Bad field type.
        (
            wire(vec![("check", Value::Int(7))]),
            "{\"error\":\"the `check` field must be a string of source code\"}\n",
        ),
        (
            "{\"cache\": \"stats\"}".to_string(),
            "{\"cache\":{\"hits\":0,\"misses\":0,\"entries\":0,\"evictions\":0,\
             \"program_hits\":0,\"program_misses\":0,\"program_entries\":0,\
             \"def_entries\":0,\"loads\":0,\"saves\":0,\"file\":null,\"wal\":null}}\n",
        ),
    ];
    for (request, expected) in cases {
        assert_eq!(ndjson_request(daemon.addr, &request), expected, "{request}");
    }

    let summary = daemon.stop();
    assert!(summary.shutdown);
    assert_eq!(summary.errors, 3, "{summary:?}");
    assert_eq!(summary.conn_errors, 0);
}

#[test]
fn check_and_metrics_answer_on_ndjson() {
    let daemon = Daemon::start(2, |_| {});
    let src = "def not2 : boolr -> boolr = lam b. if b then false else true;";
    let request = wire(vec![("check", Value::Str(src.to_string()))]);

    // Timings and cache counters differ between executions, so `check`
    // conformance is structural: the verdict, the def name, the shape.
    let response = parse_line(&ndjson_request(daemon.addr, &request));
    assert_eq!(response.get("ok"), Some(&Value::Bool(true)));
    let Some(Value::Arr(defs)) = response.get("defs") else {
        panic!("no defs in {response}");
    };
    assert_eq!(defs.len(), 1);
    assert_eq!(
        defs[0].get("name"),
        Some(&Value::Str("not2".to_string())),
        "{response}"
    );

    // Metrics: histograms accumulate between any two requests, so check the
    // schema and the key set.  The answered check is on the one latency
    // series; there is no per-framing copy of it.
    let metrics = parse_line(&ndjson_request(daemon.addr, "{\"metrics\": \"dump\"}"));
    assert_eq!(
        metrics.get("metrics").and_then(|m| m.get("schema_version")),
        Some(&Value::Int(rel_obs::SCHEMA_VERSION as i64))
    );
    let Some(Value::Obj(histograms)) = metrics.get("metrics").and_then(|m| m.get("histograms"))
    else {
        panic!("no histograms in {metrics}");
    };
    let names: Vec<&str> = histograms.iter().map(|(k, _)| k.as_str()).collect();
    assert!(names.contains(&"serve.request_ns"), "{names:?}");
    assert!(
        !names.iter().any(|k| k.starts_with("serve.request_ns.")),
        "{names:?}"
    );

    daemon.stop();
}

#[test]
fn deadline_responses_are_pinned_bytes() {
    // A zero budget expires every request at the dequeue gate (or the
    // reactor's scan, whichever runs first — both build the same payload),
    // making the deadline response deterministic.
    let daemon = Daemon::start(2, |o| o.request_timeout = Some(Duration::ZERO));
    let request = wire(vec![
        ("id", Value::Int(9)),
        ("check", Value::Str("def x : boolr = true;".to_string())),
    ]);
    assert_eq!(
        ndjson_request(daemon.addr, &request),
        "{\"id\":9,\"error\":\"deadline\",\"timeout_ms\":0}\n"
    );
    let summary = daemon.stop();
    assert!(summary.deadlines >= 1, "{summary:?}");
}

#[test]
fn backpressure_refusals_are_pinned_bytes() {
    // One worker, queue depth one: park the worker on a held request, fill
    // the queue, and every further request must be refused immediately
    // with the structured backpressure error.
    let daemon = Daemon::start(1, |o| o.max_queue = 1);
    let hold = test_hooks::hold("held-backpressure");
    let mut busy = connect(daemon.addr);
    busy.write_all(b"{\"id\": \"held-backpressure\", \"stats\": true}\n")
        .unwrap();
    hold.wait_parked();
    // The worker is occupied; fill the queue with one more.
    let mut filler = connect(daemon.addr);
    filler
        .write_all(b"{\"id\": \"queued\", \"stats\": true}\n")
        .unwrap();
    std::thread::sleep(Duration::from_millis(100));

    for id in ["bp", "bp-again"] {
        let probe = wire(vec![
            ("id", Value::Str(id.to_string())),
            ("stats", Value::Bool(true)),
        ]);
        assert_eq!(
            ndjson_request(daemon.addr, &probe),
            format!("{{\"id\":\"{id}\",\"error\":\"backpressure\",\"max_queue\":1}}\n")
        );
    }

    // The refusals cost the queued work nothing: both in-flight requests
    // still answer.
    hold.release();
    let mut busy_reader = BufReader::new(busy);
    let mut response = String::new();
    busy_reader.read_line(&mut response).unwrap();
    assert!(
        response.contains("\"id\":\"held-backpressure\""),
        "{response}"
    );
    let mut filler_reader = BufReader::new(filler);
    response.clear();
    filler_reader.read_line(&mut response).unwrap();
    assert!(response.contains("\"id\":\"queued\""), "{response}");

    let summary = daemon.stop();
    assert!(summary.backpressure >= 2, "{summary:?}");
}

// ---------------------------------------------------------------------------
// Health probe
// ---------------------------------------------------------------------------

#[test]
fn health_probe_degrades_and_recovers() {
    use std::sync::Arc;

    use rel_persist::{Fault, FaultScript, FaultyFs, WalLimits};

    const CACHE: &str = "/d/cache";
    let limits = WalLimits {
        max_bytes: u64::MAX,
        max_records: u64::MAX,
    };
    let service = || {
        Service::new(ServiceConfig {
            workers: 2,
            cache_shards: 16,
        })
    };
    // Attaching an empty cache file costs a fixed number of file-system
    // operations; the next append opens the file and then writes, so
    // scripting the write after that open tears the first appended frame.
    let probe = FaultyFs::new();
    service().attach_cache_file_with(Arc::new(probe.clone()), CACHE, limits);
    let first_write = probe.op_count() + 1;
    let fs = FaultyFs::with_script(FaultScript::fault_at(first_write, Fault::ShortWrite(3)));

    // The probe must flip with the service's persistence state, so the test
    // keeps a handle on the service it serves.
    let service = service();
    let outcome = service.attach_cache_file_with(Arc::new(fs), CACHE, limits);
    assert_eq!(outcome.warning, None);
    let daemon = Daemon::serve(
        service.clone(),
        ReactorOptions {
            workers: 2,
            ..ReactorOptions::default()
        },
    );
    let health = || ndjson_request(daemon.addr, "{\"health\": true}");

    assert_eq!(health(), "{\"health\":\"ready\",\"reasons\":[]}\n");

    // Degrade: the check's first append is a short write, which poisons the
    // log's tail until the next compaction rewrites the file.
    let check = wire(vec![("check", Value::Str(bench_source("map")))]);
    let answer = ndjson_request(daemon.addr, &check);
    assert!(answer.starts_with("{\"ok\":true,"), "{answer}");
    let wal = service.persist_stats().wal.expect("wal attached");
    assert_eq!(wal.poisoned, 1, "{wal:?}");
    assert_eq!(
        health(),
        "{\"health\":\"degraded\",\"reasons\":[\"wal-poisoned\"]}\n"
    );

    // Recover: a compaction rewrites the file whole, which clears the
    // reason.
    service.save_cache().expect("compaction succeeds");
    assert_eq!(health(), "{\"health\":\"ready\",\"reasons\":[]}\n");

    daemon.stop();
}

// ---------------------------------------------------------------------------
// Multiplexing behavior
// ---------------------------------------------------------------------------

#[test]
fn ndjson_pipelining_answers_in_finish_order_with_id_echo() {
    let daemon = Daemon::start(2, |_| {});
    let mut stream = connect(daemon.addr);
    // The first request stays on its worker until the second has answered.
    let hold = test_hooks::hold("held-pipelining");
    let slow = wire(vec![
        ("id", Value::Str("held-pipelining".to_string())),
        ("check", Value::Str(bench_source("bsplit"))),
    ]);
    let fast = wire(vec![
        ("id", Value::Str("fast".to_string())),
        ("stats", Value::Bool(true)),
    ]);
    stream.write_all(slow.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    stream.write_all(fast.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();

    let mut reader = BufReader::new(stream);
    let mut first = String::new();
    reader.read_line(&mut first).unwrap();
    hold.release();
    let mut second = String::new();
    reader.read_line(&mut second).unwrap();
    // The cheap request overtakes the busy one on the same connection —
    // that is the multiplexing win, and why responses carry the id echo.
    assert!(first.contains("\"id\":\"fast\""), "{first}");
    assert!(second.contains("\"id\":\"held-pipelining\""), "{second}");
    daemon.stop();
}

#[test]
fn streaming_batch_answers_one_line_per_job() {
    let daemon = Daemon::start(2, |_| {});
    let sources = [bench_source("append"), bench_source("map")];
    let request = wire(vec![
        ("id", Value::Int(3)),
        (
            "batch",
            Value::Arr(sources.iter().map(|s| Value::Str(s.clone())).collect()),
        ),
        ("stream", Value::Bool(true)),
    ]);

    // The same batch twice on one connection.  Each pass answers one line
    // per job, then the terminal summary line.
    let mut stream = connect(daemon.addr);
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut passes = Vec::new();
    for _ in 0..2 {
        stream.write_all(request.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut lines = Vec::new();
        for _ in 0..3 {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            lines.push(parse_line(&line));
        }
        passes.push(lines);
    }

    for lines in &passes {
        for (seq, line) in lines[..2].iter().enumerate() {
            assert_eq!(line.get("id"), Some(&Value::Int(3)), "{line}");
            assert_eq!(line.get("seq"), Some(&Value::Int(seq as i64)), "{line}");
            let job = line.get("job").expect("job line");
            assert_eq!(job.get("ok"), Some(&Value::Bool(true)), "{line}");
        }
        let end = &lines[2];
        assert_eq!(end.get("done"), Some(&Value::Bool(true)), "{end}");
        assert_eq!(end.get("jobs"), Some(&Value::Int(2)), "{end}");
        assert_eq!(end.get("jobs_ok"), Some(&Value::Int(2)), "{end}");
    }
    // No cache file is attached, so incremental mode is off: the second
    // pass re-checks every definition instead of replaying the first's.
    for line in &passes[1][..2] {
        let Some(Value::Arr(defs)) = line.get("job").and_then(|j| j.get("defs")) else {
            panic!("job line without defs: {line}");
        };
        assert!(!defs.is_empty(), "{line}");
        for def in defs {
            assert_eq!(
                def.get("skipped_unchanged"),
                Some(&Value::Bool(false)),
                "{line}"
            );
        }
    }
    daemon.stop();
}

// ---------------------------------------------------------------------------
// Malformed input and abuse
// ---------------------------------------------------------------------------

#[test]
fn oversized_lines_get_a_final_response_then_the_connection_closes() {
    let daemon = Daemon::start(2, |o| o.max_request_bytes = 256);

    // A line over the limit answers the structured refusal and closes
    // (there is no trustworthy next line boundary).
    let mut stream = connect(daemon.addr);
    let long = format!("{{\"check\": \"{}\"}}\n", "x".repeat(1024));
    stream.write_all(long.as_bytes()).unwrap();
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .expect("final response then EOF");
    let text = String::from_utf8_lossy(&raw);
    assert!(
        text.starts_with("{\"error\":\"request too large: "),
        "{text}"
    );
    assert!(text.ends_with(",\"max_request_bytes\":256}\n"), "{text}");
    assert_eq!(text.matches('\n').count(), 1, "{text}");

    // The daemon survives it.
    let pulse = ndjson_request(daemon.addr, "{\"stats\": true}");
    assert!(pulse.contains("\"cache\""), "{pulse}");
    daemon.stop();
}

#[test]
fn truncated_requests_do_not_wedge_the_daemon() {
    let daemon = Daemon::start(2, |_| {});

    // A connection that dies mid-line (no newline) is just
    // garbage-collected; later traffic is unaffected.
    let mut nd = connect(daemon.addr);
    nd.write_all(b"{\"check\": \"trunca").unwrap();
    drop(nd);

    let pulse = ndjson_request(daemon.addr, "{\"stats\": true}");
    assert!(pulse.contains("\"cache\""), "{pulse}");
    let summary = daemon.stop();
    assert_eq!(summary.errors, 0, "{summary:?}");
}

#[test]
fn slow_loris_partial_line_is_reaped_by_the_idle_timeout() {
    let daemon = Daemon::start(2, |o| o.idle_timeout = Some(Duration::from_millis(200)));
    let baseline = rel_obs::global().counter("serve.idle_disconnects").get();

    let mut loris = connect(daemon.addr);
    loris.write_all(b"{\"check\": \"def x").unwrap(); // ...and then nothing
    let started = Instant::now();
    let mut raw = Vec::new();
    loris
        .read_to_end(&mut raw)
        .expect("server must close the connection");
    assert!(raw.is_empty(), "{:?}", String::from_utf8_lossy(&raw));
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "idle reap took {:?}",
        started.elapsed()
    );
    assert!(
        rel_obs::global().counter("serve.idle_disconnects").get() > baseline,
        "idle disconnect not counted"
    );
    let summary = daemon.stop();
    assert!(summary.idle_disconnects >= 1, "{summary:?}");
}

// ---------------------------------------------------------------------------
// The dequeue-time disconnect gate
// ---------------------------------------------------------------------------

/// Makes `close()` send RST instead of FIN, simulating a client process
/// killed mid-request (plain `drop` performs an orderly half-close, which a
/// server must keep serving — `printf req | nc` relies on it).
#[cfg(target_os = "linux")]
fn abort_connection(stream: TcpStream) {
    use std::os::unix::io::AsRawFd;
    #[repr(C)]
    struct Linger {
        l_onoff: i32,
        l_linger: i32,
    }
    extern "C" {
        fn setsockopt(
            fd: i32,
            level: i32,
            name: i32,
            value: *const std::ffi::c_void,
            len: u32,
        ) -> i32;
    }
    const SOL_SOCKET: i32 = 1;
    const SO_LINGER: i32 = 13;
    let linger = Linger {
        l_onoff: 1,
        l_linger: 0,
    };
    let rc = unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_LINGER,
            (&linger as *const Linger).cast(),
            std::mem::size_of::<Linger>() as u32,
        )
    };
    assert_eq!(rc, 0, "setsockopt(SO_LINGER)");
    drop(stream);
}

#[cfg(target_os = "linux")]
#[test]
fn disconnected_clients_queued_jobs_are_dropped_at_dequeue() {
    // One worker: park it on a held request, queue a job behind it, then
    // kill that job's connection abruptly.  Pre-reactor, the daemon would
    // compute the answer and discover the disconnect only at the failed
    // write; the dequeue-time gate must instead skip the work and count the
    // drop.
    let daemon = Daemon::start(1, |_| {});
    let baseline = rel_obs::global().counter("serve.conn_errors").get();

    let hold = test_hooks::hold("held-disconnect");
    let mut busy = connect(daemon.addr);
    busy.write_all(b"{\"id\": \"held-disconnect\", \"stats\": true}\n")
        .unwrap();
    hold.wait_parked();

    // Queue a cheap job behind the held one, then die without warning.
    let mut doomed = connect(daemon.addr);
    doomed.write_all(b"{\"stats\": true}\n").unwrap();
    std::thread::sleep(Duration::from_millis(100));
    abort_connection(doomed);
    // Two malformed lines are answered inline by the reactor loop; once the
    // second answer is back, the loop has run a full pass (read, flush,
    // close) after the reset arrived, so the doomed job is marked closed
    // before the worker is let go.
    for _ in 0..2 {
        let refusal = ndjson_request(daemon.addr, "not json");
        assert!(refusal.contains("\"error\""), "{refusal}");
    }

    // The held request still answers (the worker was never disturbed)...
    hold.release();
    let mut reader = BufReader::new(busy);
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    assert!(
        response.contains("\"id\":\"held-disconnect\""),
        "{response}"
    );

    // ...and the dead client's job was dropped at dequeue, under the
    // existing serve.conn_errors counter.  Eventual: the worker has to
    // reach the queued job first.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if rel_obs::global().counter("serve.conn_errors").get() > baseline {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "dequeue-time disconnect drop never counted"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let summary = daemon.stop();
    assert!(summary.conn_errors >= 1, "{summary:?}");
}

/// Nanoseconds the named thread of this process has spent on a CPU.
#[cfg(target_os = "linux")]
fn thread_cpu_ns(name: &str) -> u64 {
    for task in std::fs::read_dir("/proc/self/task").expect("/proc/self/task") {
        let dir = task.unwrap().path();
        let comm = std::fs::read_to_string(dir.join("comm")).unwrap_or_default();
        if comm.trim_end() == name {
            let schedstat = std::fs::read_to_string(dir.join("schedstat")).expect("schedstat");
            return schedstat
                .split_whitespace()
                .next()
                .and_then(|ns| ns.parse().ok())
                .expect("schedstat starts with the on-CPU nanoseconds");
        }
    }
    panic!("no thread named {name:?}");
}

#[cfg(target_os = "linux")]
#[test]
fn a_half_closed_ndjson_connection_is_not_busy_polled() {
    // A client that sends a request and shuts down its write side is still
    // owed the answer, but its socket reads EOF on every poll: the reactor
    // must stop polling that side instead of spinning until the work ends.
    const REACTOR: &str = "halfclose-rx";
    let service = Service::new(ServiceConfig {
        workers: 1,
        cache_shards: 4,
    });
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ndjson");
    let addr = listener.local_addr().unwrap();
    let options = ReactorOptions {
        workers: 1,
        ..ReactorOptions::default()
    };
    let reactor = std::thread::Builder::new()
        .name(REACTOR.to_string())
        .spawn(move || serve_reactor(&service, vec![(listener, CodecKind::Ndjson)], options))
        .unwrap();

    let hold = test_hooks::hold("held-halfclose");
    let mut client = connect(addr);
    client
        .write_all(b"{\"id\": \"held-halfclose\", \"stats\": true}\n")
        .unwrap();
    hold.wait_parked();
    client.shutdown(std::net::Shutdown::Write).unwrap();
    std::thread::sleep(Duration::from_millis(50));

    let (cpu0, wall0) = (thread_cpu_ns(REACTOR), Instant::now());
    std::thread::sleep(Duration::from_millis(300));
    let (cpu, wall) = (
        thread_cpu_ns(REACTOR) - cpu0,
        wall0.elapsed().as_nanos() as u64,
    );
    assert!(
        cpu < wall / 10,
        "the reactor spun on the half-closed connection: {cpu} ns on CPU in {wall} ns"
    );

    // The held request is still answered on the half-closed connection.
    hold.release();
    let mut response = String::new();
    BufReader::new(client).read_line(&mut response).unwrap();
    assert!(response.contains("\"id\":\"held-halfclose\""), "{response}");
    let bye = ndjson_request(addr, "{\"shutdown\": true}");
    assert_eq!(bye, "{\"bye\":true}\n");
    reactor
        .join()
        .expect("reactor thread")
        .expect("reactor I/O");
}
