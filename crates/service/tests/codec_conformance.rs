//! Protocol conformance for the two serving planes.
//!
//! The contract under test (DESIGN.md §10): the NDJSON and HTTP codecs are
//! *framings* of one content protocol, so for any request the response's
//! JSON content — the NDJSON line, the HTTP body — is byte-identical across
//! the planes.  The suite drives a live reactor with both listeners bound
//! and compares raw bytes for every deterministic response shape
//! (cache-stats, stats, error, deadline, backpressure), compares
//! nondeterministic ones (check timings, metrics counters) structurally,
//! and then feeds each plane the malformed input it is most likely to meet
//! in production: oversized frames, truncated requests, and a slow-loris
//! half-header that only `--idle-timeout-ms` can reap.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rel_service::json::{self, Value};
use rel_service::{
    serve_reactor, test_hooks, CodecKind, CodecLimits, ReactorOptions, ReactorSummary, Service,
    ServiceConfig,
};

const READ_TIMEOUT: Duration = Duration::from_secs(20);

/// A live reactor with one NDJSON and one HTTP listener over one service.
struct Planes {
    ndjson: SocketAddr,
    http: SocketAddr,
    handle: JoinHandle<std::io::Result<ReactorSummary>>,
}

impl Planes {
    fn start(workers: usize, configure: impl FnOnce(&mut ReactorOptions)) -> Planes {
        let service = Service::new(ServiceConfig {
            workers,
            cache_shards: 16,
        });
        let nd_listener = TcpListener::bind("127.0.0.1:0").expect("bind ndjson");
        let http_listener = TcpListener::bind("127.0.0.1:0").expect("bind http");
        let ndjson = nd_listener.local_addr().unwrap();
        let http = http_listener.local_addr().unwrap();
        let mut options = ReactorOptions {
            workers,
            ..ReactorOptions::default()
        };
        configure(&mut options);
        let handle = std::thread::spawn(move || {
            serve_reactor(
                &service,
                vec![
                    (nd_listener, CodecKind::Ndjson),
                    (http_listener, CodecKind::Http),
                ],
                options,
            )
        });
        Planes {
            ndjson,
            http,
            handle,
        }
    }

    /// Stops the reactor via the wire protocol and returns its summary.
    fn stop(self) -> ReactorSummary {
        let bye = ndjson_request(self.ndjson, "{\"shutdown\": true}");
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

/// One HTTP request on a fresh connection (`Connection: close`), returning
/// (status code, raw head, content bytes).  Chunked bodies are de-chunked so
/// the content compares 1:1 with NDJSON lines.
fn http_request(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> HttpResponse {
    let mut request = format!("{method} {path} HTTP/1.1\r\n");
    if let Some(body) = body {
        request.push_str(&format!("Content-Length: {}\r\n", body.len()));
    }
    request.push_str("Connection: close\r\n\r\n");
    if let Some(body) = body {
        request.push_str(body);
    }
    http_raw(addr, request.as_bytes())
}

struct HttpResponse {
    status: u16,
    head: String,
    content: Vec<u8>,
}

fn http_raw(addr: SocketAddr, request: &[u8]) -> HttpResponse {
    let mut stream = connect(addr);
    stream.write_all(request).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    parse_http(&raw)
}

fn parse_http(raw: &[u8]) -> HttpResponse {
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .unwrap_or_else(|| panic!("no head terminator in {:?}", String::from_utf8_lossy(raw)));
    let head = String::from_utf8_lossy(&raw[..head_end]).into_owned();
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line: {head}"));
    let body = &raw[head_end + 4..];
    let content = if head
        .to_ascii_lowercase()
        .contains("transfer-encoding: chunked")
    {
        dechunk(body)
    } else {
        body.to_vec()
    };
    HttpResponse {
        status,
        head,
        content,
    }
}

/// Decodes HTTP/1.1 chunked transfer encoding down to the content bytes.
fn dechunk(mut body: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    loop {
        let line_end = body
            .windows(2)
            .position(|w| w == b"\r\n")
            .expect("chunk size line");
        let size_text = std::str::from_utf8(&body[..line_end]).expect("chunk size utf8");
        let size = usize::from_str_radix(size_text.trim(), 16).expect("chunk size hex");
        body = &body[line_end + 2..];
        if size == 0 {
            return out;
        }
        out.extend_from_slice(&body[..size]);
        assert_eq!(&body[size..size + 2], b"\r\n", "chunk terminator");
        body = &body[size + 2..];
    }
}

fn parse_content(content: &[u8]) -> Value {
    json::parse(std::str::from_utf8(content).unwrap().trim()).expect("response JSON")
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

/// A `POST /check`-able wire object as a JSON string.
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
// Content identity
// ---------------------------------------------------------------------------

#[test]
fn deterministic_responses_are_byte_identical_across_planes() {
    let planes = Planes::start(2, |_| {});

    // Each (request, expected HTTP status) pair answers a response whose
    // content does not depend on timing, so the NDJSON line and the HTTP
    // body must match byte for byte.
    let cases: Vec<(String, u16)> = vec![
        (wire(vec![("stats", Value::Bool(true))]), 200),
        // Unknown request object → identical error text on both planes.
        (wire(vec![("nonsense", Value::Int(1))]), 400),
        // Malformed JSON: the same bytes hit the same parser, so even the
        // byte-offset in the error message agrees.
        ("{\"check\": ".to_string(), 400),
        // Bad field type.
        (wire(vec![("check", Value::Int(7))]), 400),
    ];
    for (request, expected_status) in cases {
        let nd_line = ndjson_request(planes.ndjson, &request);
        let http = http_request(planes.http, "POST", "/check", Some(&request));
        assert_eq!(
            nd_line.as_bytes(),
            http.content.as_slice(),
            "content diverged for {request}: ndjson={nd_line:?} http={:?}",
            String::from_utf8_lossy(&http.content)
        );
        assert_eq!(http.status, expected_status, "{request}: {}", http.head);
    }

    // The GET aliases answer the same content as their wire-object spellings
    // (no mutating traffic in between, so the counters cannot move).
    let nd_cache = ndjson_request(planes.ndjson, "{\"cache\": \"stats\"}");
    let http_cache = http_request(planes.http, "GET", "/cache/stats", None);
    assert_eq!(nd_cache.as_bytes(), http_cache.content.as_slice());
    assert_eq!(http_cache.status, 200);
    assert!(
        http_cache
            .head
            .contains("Content-Type: application/x-ndjson"),
        "{}",
        http_cache.head
    );

    let summary = planes.stop();
    assert!(summary.shutdown);
    assert_eq!(summary.conn_errors, 0);
}

#[test]
fn check_and_metrics_agree_across_planes() {
    let planes = Planes::start(2, |_| {});
    let src = "def not2 : boolr -> boolr = lam b. if b then false else true;";
    let request = wire(vec![("check", Value::Str(src.to_string()))]);

    // Timings and cache counters differ between two executions, so `check`
    // conformance is structural: same verdicts, same def names, same shape.
    let nd = parse_content(ndjson_request(planes.ndjson, &request).as_bytes());
    let http_response = http_request(planes.http, "POST", "/check", Some(&request));
    let http = parse_content(&http_response.content);
    assert_eq!(http_response.status, 200);
    for response in [&nd, &http] {
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
    }

    // Metrics: histograms accumulate between any two requests, so compare
    // the schema and the key sets — and require the per-codec latency series
    // to exist for both planes (both planes have answered by now).
    let nd_metrics =
        parse_content(ndjson_request(planes.ndjson, "{\"metrics\": \"dump\"}").as_bytes());
    let http_metrics = parse_content(&http_request(planes.http, "GET", "/metrics", None).content);
    let keys = |v: &Value, section: &str| -> Vec<String> {
        let Some(Value::Obj(entries)) = v.get("metrics").and_then(|m| m.get(section)) else {
            panic!("no {section} in {v}");
        };
        entries.iter().map(|(k, _)| k.clone()).collect()
    };
    for metrics in [&nd_metrics, &http_metrics] {
        assert_eq!(
            metrics.get("metrics").and_then(|m| m.get("schema_version")),
            Some(&Value::Int(rel_obs::SCHEMA_VERSION as i64))
        );
        let histograms = keys(metrics, "histograms");
        assert!(
            histograms.iter().any(|k| k == "serve.request_ns.ndjson"),
            "missing ndjson latency series: {histograms:?}"
        );
        assert!(
            histograms.iter().any(|k| k == "serve.request_ns.http"),
            "missing http latency series: {histograms:?}"
        );
    }
    assert_eq!(
        keys(&nd_metrics, "counters"),
        keys(&http_metrics, "counters")
    );
    assert_eq!(
        keys(&nd_metrics, "histograms"),
        keys(&http_metrics, "histograms")
    );

    planes.stop();
}

#[test]
fn deadline_responses_are_byte_identical_across_planes() {
    // A zero budget expires every request at the dequeue gate (or the
    // reactor's scan, whichever runs first — both build the same payload),
    // making the deadline response deterministic.
    let planes = Planes::start(2, |o| o.request_timeout = Some(Duration::ZERO));
    let request = wire(vec![
        ("id", Value::Int(9)),
        ("check", Value::Str("def x : boolr = true;".to_string())),
    ]);
    let nd_line = ndjson_request(planes.ndjson, &request);
    assert_eq!(
        nd_line,
        "{\"id\":9,\"error\":\"deadline\",\"timeout_ms\":0}\n"
    );
    let http = http_request(planes.http, "POST", "/check", Some(&request));
    assert_eq!(nd_line.as_bytes(), http.content.as_slice());
    assert_eq!(http.status, 504, "{}", http.head);
    let summary = planes.stop();
    assert!(summary.deadlines >= 2, "{summary:?}");
}

#[test]
fn backpressure_refusals_are_byte_identical_across_planes() {
    // One worker, queue depth one: park the worker on a held request, fill
    // the queue, and every further request must be refused immediately
    // with the structured backpressure error.
    let planes = Planes::start(1, |o| o.max_queue = 1);
    let hold = test_hooks::hold("held-backpressure");
    let mut busy = connect(planes.ndjson);
    busy.write_all(b"{\"id\": \"held-backpressure\", \"stats\": true}\n")
        .unwrap();
    hold.wait_parked();
    // The worker is occupied; fill the queue with one more.
    let mut filler = connect(planes.ndjson);
    filler
        .write_all(b"{\"id\": \"queued\", \"stats\": true}\n")
        .unwrap();
    std::thread::sleep(Duration::from_millis(100));

    let probe = wire(vec![
        ("id", Value::Str("bp".to_string())),
        ("stats", Value::Bool(true)),
    ]);
    let nd_line = ndjson_request(planes.ndjson, &probe);
    assert_eq!(
        nd_line,
        "{\"id\":\"bp\",\"error\":\"backpressure\",\"max_queue\":1}\n"
    );
    let http = http_request(planes.http, "POST", "/check", Some(&probe));
    assert_eq!(nd_line.as_bytes(), http.content.as_slice());
    assert_eq!(http.status, 503, "{}", http.head);

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

    let summary = planes.stop();
    assert!(summary.backpressure >= 2, "{summary:?}");
}

// ---------------------------------------------------------------------------
// Health probe
// ---------------------------------------------------------------------------

#[test]
fn health_probe_is_byte_identical_and_degrades_to_503() {
    use std::sync::Arc;

    use rel_service::{ReplicaOptions, SimNet};

    // A bespoke reactor start: the probe must flip with the service's
    // replication state, so the test owns the service instead of using
    // `Planes::start`.
    let service = Service::new(ServiceConfig {
        workers: 2,
        cache_shards: 16,
    });
    let nd_listener = TcpListener::bind("127.0.0.1:0").expect("bind ndjson");
    let http_listener = TcpListener::bind("127.0.0.1:0").expect("bind http");
    let ndjson = nd_listener.local_addr().unwrap();
    let http = http_listener.local_addr().unwrap();
    let reactor_service = service.clone();
    let handle = std::thread::spawn(move || {
        serve_reactor(
            &reactor_service,
            vec![
                (nd_listener, CodecKind::Ndjson),
                (http_listener, CodecKind::Http),
            ],
            ReactorOptions {
                workers: 2,
                ..ReactorOptions::default()
            },
        )
    });

    // Ready: byte-identical content on both planes, 200 over HTTP, and the
    // GET alias answers the same bytes as the wire-object spelling.
    let nd_line = ndjson_request(ndjson, "{\"health\": true}");
    assert_eq!(nd_line, "{\"health\":\"ready\",\"reasons\":[]}\n");
    let get = http_request(http, "GET", "/healthz", None);
    assert_eq!(nd_line.as_bytes(), get.content.as_slice());
    assert_eq!(get.status, 200, "{}", get.head);
    let post = http_request(http, "POST", "/check", Some("{\"health\": true}"));
    assert_eq!(nd_line.as_bytes(), post.content.as_slice());
    assert_eq!(post.status, 200, "{}", post.head);

    // Degrade: replication to a peer nobody listens on — all peers down.
    // A never-connected peer is treated as booting until its connect
    // attempts exhaust the health grace budget, so poll until the session
    // has provably failed enough times (tens of milliseconds at this
    // backoff schedule) rather than asserting the first probe.
    let net = SimNet::new();
    service.enable_replication(
        Arc::new(net.endpoint("probe")),
        ReplicaOptions {
            peers: vec!["ghost".to_string()],
            backoff_base_ms: 10,
            backoff_cap_ms: 50,
            ..ReplicaOptions::default()
        },
    );
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let nd_line = loop {
        let line = ndjson_request(ndjson, "{\"health\": true}");
        if line.contains("degraded") || std::time::Instant::now() >= deadline {
            break line;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    assert_eq!(
        nd_line,
        "{\"health\":\"degraded\",\"reasons\":[\"peers-down\"]}\n"
    );
    let get = http_request(http, "GET", "/healthz", None);
    assert_eq!(
        nd_line.as_bytes(),
        get.content.as_slice(),
        "degraded content diverged"
    );
    assert_eq!(get.status, 503, "{}", get.head);

    // Recover: dropping the replication plane clears the reason and the
    // HTTP status returns to 200.
    service.shutdown_replication();
    let get = http_request(http, "GET", "/healthz", None);
    assert_eq!(get.status, 200, "{}", get.head);
    assert_eq!(
        get.content.as_slice(),
        b"{\"health\":\"ready\",\"reasons\":[]}\n"
    );

    let bye = ndjson_request(ndjson, "{\"shutdown\": true}");
    assert_eq!(bye, "{\"bye\":true}\n");
    handle.join().expect("reactor thread").expect("reactor I/O");
}

// ---------------------------------------------------------------------------
// Multiplexing behavior
// ---------------------------------------------------------------------------

#[test]
fn ndjson_pipelining_answers_in_finish_order_with_id_echo() {
    let planes = Planes::start(2, |_| {});
    let mut stream = connect(planes.ndjson);
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
    planes.stop();
}

#[test]
fn streaming_batch_answers_per_job_on_both_planes() {
    let planes = Planes::start(2, |_| {});
    let sources = [bench_source("append"), bench_source("map")];
    let request = wire(vec![
        ("id", Value::Int(3)),
        (
            "batch",
            Value::Arr(sources.iter().map(|s| Value::Str(s.clone())).collect()),
        ),
        ("stream", Value::Bool(true)),
    ]);

    // NDJSON: one line per job, then the terminal summary line.
    let mut stream = connect(planes.ndjson);
    stream.write_all(request.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    let mut reader = BufReader::new(stream);
    let mut nd_lines = Vec::new();
    for _ in 0..3 {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        nd_lines.push(parse_content(line.as_bytes()));
    }

    // HTTP: the same frames as chunks of one chunked response.
    let http = http_request(planes.http, "POST", "/check", Some(&request));
    assert_eq!(http.status, 200);
    assert!(
        http.head
            .to_ascii_lowercase()
            .contains("transfer-encoding: chunked"),
        "{}",
        http.head
    );
    let http_lines: Vec<Value> = std::str::from_utf8(&http.content)
        .unwrap()
        .lines()
        .map(|l| parse_content(l.as_bytes()))
        .collect();

    for lines in [&nd_lines, &http_lines] {
        assert_eq!(lines.len(), 3);
        for (seq, line) in lines[..2].iter().enumerate() {
            assert_eq!(line.get("id"), Some(&Value::Int(3)), "{line}");
            assert_eq!(line.get("seq"), Some(&Value::Int(seq as i64)), "{line}");
            let job = line.get("job").expect("job frame");
            assert_eq!(job.get("ok"), Some(&Value::Bool(true)), "{line}");
        }
        let end = &lines[2];
        assert_eq!(end.get("done"), Some(&Value::Bool(true)), "{end}");
        assert_eq!(end.get("jobs"), Some(&Value::Int(2)), "{end}");
        assert_eq!(end.get("jobs_ok"), Some(&Value::Int(2)), "{end}");
    }
    // No cache file is attached, so incremental mode is off: the second
    // pass re-checks every definition instead of replaying the first's.
    for line in &http_lines[..2] {
        let Some(Value::Arr(defs)) = line.get("job").and_then(|j| j.get("defs")) else {
            panic!("job frame without defs: {line}");
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
    planes.stop();
}

#[test]
fn http_keep_alive_serves_sequential_requests() {
    let planes = Planes::start(2, |_| {});
    let mut stream = connect(planes.http);
    let body = "{\"stats\": true}";
    let one = format!(
        "POST /check HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    // Two pipelined requests on one connection: HTTP/1.1 keep-alive with
    // in-order responses (the half-duplex plane).
    stream.write_all(one.as_bytes()).unwrap();
    stream.write_all(one.as_bytes()).unwrap();
    let mut reader = BufReader::new(stream);
    for _ in 0..2 {
        let response = read_one_http_response(&mut reader);
        assert_eq!(response.status, 200);
        assert!(
            response.head.contains("Connection: keep-alive"),
            "{}",
            response.head
        );
        parse_content(&response.content);
    }
    planes.stop();
}

/// Reads exactly one `Content-Length`-framed response off a keep-alive
/// connection.
fn read_one_http_response(reader: &mut BufReader<TcpStream>) -> HttpResponse {
    let mut head = String::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line");
        if line == "\r\n" {
            break;
        }
        head.push_str(&line);
    }
    let length: usize = head
        .lines()
        .find_map(|l| {
            l.to_ascii_lowercase()
                .strip_prefix("content-length:")
                .map(str::to_string)
        })
        .and_then(|v| v.trim().parse().ok())
        .expect("Content-Length header");
    let mut content = vec![0u8; length];
    reader.read_exact(&mut content).expect("body");
    let status = head.split(' ').nth(1).unwrap().parse().unwrap();
    HttpResponse {
        status,
        head,
        content,
    }
}

// ---------------------------------------------------------------------------
// Malformed input and abuse
// ---------------------------------------------------------------------------

#[test]
fn oversized_frames_get_a_final_response_then_the_connection_closes() {
    let planes = Planes::start(2, |o| {
        o.limits = CodecLimits {
            max_request_bytes: 256,
            max_head_bytes: 256,
        };
    });

    // NDJSON: a line over the limit answers the structured refusal and
    // closes (there is no trustworthy next line boundary).
    let mut stream = connect(planes.ndjson);
    let long = format!("{{\"check\": \"{}\"}}\n", "x".repeat(1024));
    stream.write_all(long.as_bytes()).unwrap();
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .expect("final response then EOF");
    let text = String::from_utf8_lossy(&raw);
    assert!(text.contains("request too large"), "{text}");
    assert!(text.contains("\"max_request_bytes\":256"), "{text}");

    // HTTP: an oversized declared body is 413 + close, before the body is
    // even transmitted.
    let http = http_raw(
        planes.http,
        b"POST /check HTTP/1.1\r\nContent-Length: 100000\r\n\r\n",
    );
    assert_eq!(http.status, 413, "{}", http.head);
    assert!(http.head.contains("Connection: close"), "{}", http.head);

    // An oversized preamble is 431 + close.
    let mut huge_head = b"GET /metrics HTTP/1.1\r\n".to_vec();
    huge_head.extend_from_slice(format!("X-Junk: {}\r\n", "j".repeat(512)).as_bytes());
    huge_head.extend_from_slice(b"\r\n");
    let http = http_raw(planes.http, &huge_head);
    assert_eq!(http.status, 431, "{}", http.head);

    // The daemon survives all of it.
    let pulse = ndjson_request(planes.ndjson, "{\"stats\": true}");
    assert!(pulse.contains("\"cache\""), "{pulse}");
    planes.stop();
}

#[test]
fn truncated_requests_do_not_wedge_the_daemon() {
    let planes = Planes::start(2, |_| {});

    // A connection that dies mid-frame (no newline, no complete head) is
    // just garbage-collected; later traffic is unaffected.
    let mut nd = connect(planes.ndjson);
    nd.write_all(b"{\"check\": \"trunca").unwrap();
    drop(nd);
    let mut http = connect(planes.http);
    http.write_all(b"POST /check HTTP/1.1\r\nContent-Le")
        .unwrap();
    drop(http);

    let pulse = ndjson_request(planes.ndjson, "{\"stats\": true}");
    assert!(pulse.contains("\"cache\""), "{pulse}");
    let response = http_request(planes.http, "GET", "/cache/stats", None);
    assert_eq!(response.status, 200);
    planes.stop();
}

#[test]
fn slow_loris_partial_header_is_reaped_by_the_idle_timeout() {
    let planes = Planes::start(2, |o| o.idle_timeout = Some(Duration::from_millis(200)));
    let baseline = rel_obs::global().counter("serve.idle_disconnects").get();

    let mut loris = connect(planes.http);
    loris.write_all(b"POST /check HT").unwrap(); // ...and then nothing
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
    let summary = planes.stop();
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
    let planes = Planes::start(1, |_| {});
    let baseline = rel_obs::global().counter("serve.conn_errors").get();

    let hold = test_hooks::hold("held-disconnect");
    let mut busy = connect(planes.ndjson);
    busy.write_all(b"{\"id\": \"held-disconnect\", \"stats\": true}\n")
        .unwrap();
    hold.wait_parked();

    // Queue a cheap job behind the held one, then die without warning.
    let mut doomed = connect(planes.ndjson);
    doomed.write_all(b"{\"stats\": true}\n").unwrap();
    std::thread::sleep(Duration::from_millis(100));
    abort_connection(doomed);
    // Two malformed lines are answered inline by the reactor loop; once the
    // second answer is back, the loop has run a full pass (read, flush,
    // close) after the reset arrived, so the doomed job is marked closed
    // before the worker is let go.
    for _ in 0..2 {
        let refusal = ndjson_request(planes.ndjson, "not json");
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
    let summary = planes.stop();
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
