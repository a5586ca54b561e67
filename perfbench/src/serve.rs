//! The `serve_edit` workload: open-loop NDJSON traffic against an
//! in-process `serve_reactor` whose `Service` keeps a cache file
//! (incremental mode) and was primed with six cheap verified programs.
//! Every request submits a fresh alpha-renamed variant of one of them, so
//! every definition misses the def index, is re-typechecked against the
//! warm validity cache and appends a WAL frame.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use birelcost::Engine;
use rel_service::json::{self, Value};
use rel_service::{respond, serve_reactor, CodecKind, ReactorOptions, ReactorSummary, Service, ServiceConfig};
use rel_syntax::{parse_program, Program};

use crate::rename::VariantGen;
use crate::stats::{median, process_cpu_ms, quantile, ratio, Rng};
use crate::table1::Verdicts;
use crate::trace::Recorder;
use crate::Report;

/// The fixed offered rate, frozen at about half the knee the traced run
/// measured when the benchmark was defined: 679 rps on two seeds, on a
/// 2-core x86-64 VM (see `README.md`).
pub const RATE: f64 = 340.0;

/// The p99 latency limit of the knee search, ms.
pub const LIMIT_MS: f64 = 50.0;

/// Daemon set-ups per run; `setup_s` is their median and the last one
/// serves the run.
const SETUPS: usize = 5;

/// The six cheap verified Table-1 programs the daemon is primed with.
pub const BASES: [&str; 6] = ["append", "rev", "map", "zip", "flatten", "appSum"];

/// Knee-search rates are `rate · 2^(k/8)` for a whole `k` in this range.
const LADDER: std::ops::RangeInclusive<i32> = -16..=24;

/// How long a client waits for any one response before counting the rest
/// of its requests as failed.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(5);

fn base_sources() -> Vec<&'static str> {
    BASES
        .iter()
        .map(|name| rel_suite::benchmark(name).expect("bundled base program").source)
        .collect()
}

fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One planned request: its id and the base program it submits.
#[derive(Debug, Clone, Copy)]
struct Planned {
    id: u64,
    base: usize,
}

/// The request stream: fresh renamed variants of the base programs.
/// Requests are planned ahead (id and base) and their lines built when
/// sent, so a long run holds no request text.
struct Requests {
    rng: Rng,
    variants: VariantGen,
    next_id: u64,
}

impl Requests {
    fn new(seed: u64) -> Result<Requests, String> {
        Ok(Requests {
            rng: Rng::new(seed.wrapping_add(1)),
            variants: VariantGen::new(seed, &base_sources())?,
            next_id: 0,
        })
    }

    fn plan(&mut self, n: usize) -> Vec<Planned> {
        (0..n)
            .map(|_| {
                let p = Planned {
                    id: self.next_id,
                    base: self.rng.below(BASES.len()),
                };
                self.next_id += 1;
                p
            })
            .collect()
    }

    /// The NDJSON line, newline included, of a planned request.
    fn line(&self, p: Planned) -> String {
        let check = Value::Str(self.variants.variant(p.base, p.id));
        format!("{{\"id\":{},\"check\":{check}}}\n", p.id)
    }

    /// The next request: `(base program index, NDJSON line with newline)`.
    fn next(&mut self) -> (usize, String) {
        let p = self.plan(1)[0];
        (p.base, self.line(p))
    }

    fn batch(&mut self, n: usize) -> Vec<(usize, String)> {
        (0..n).map(|_| self.next()).collect()
    }
}

/// Per-definition verdicts of a check response, or why it is not one.
fn response_verdicts(response: &Value) -> Result<Verdicts, String> {
    if let Some(err) = response.get("error") {
        return Err(format!("error response: {err}"));
    }
    let Some(Value::Arr(defs)) = response.get("defs") else {
        return Err(format!("response without defs: {response}"));
    };
    Ok(defs
        .iter()
        .map(|d| {
            let ok = d.get("ok") == Some(&Value::Bool(true));
            (ok, ok && d.get("proved") == Some(&Value::Bool(true)))
        })
        .collect())
}

/// Def-index and validity-cache traffic seen in responses.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    defindex_hits: u64,
    defindex_lookups: u64,
    cache_hits: u64,
    cache_misses: u64,
}

impl Tally {
    fn add(&mut self, response: &Value) {
        let Some(Value::Arr(defs)) = response.get("defs") else {
            return;
        };
        for d in defs {
            self.defindex_lookups += 1;
            self.defindex_hits += u64::from(d.get("skipped_unchanged") == Some(&Value::Bool(true)));
            let int = |k: &str| d.get(k).and_then(Value::as_int).unwrap_or(0) as u64;
            self.cache_hits += int("cache_hits");
            self.cache_misses += int("cache_misses");
        }
    }
}

/// Parses one response line and finds the position of the request it
/// answers from its `id` echo.
fn match_response(line: &str, position: impl Fn(i64) -> Option<usize>) -> Result<(usize, Value), String> {
    let response = json::parse(line.trim()).map_err(|e| format!("unparsable response: {e}"))?;
    let id = response
        .get("id")
        .and_then(Value::as_int)
        .ok_or_else(|| format!("response without id: {response}"))?;
    let index = position(id).ok_or_else(|| format!("response to unknown id {id}"))?;
    Ok((index, response))
}

/// The daemon under test: a service with a cache file, the reactor serving
/// it on a loopback port, and a flusher calling `compact_if_due` once a
/// second as the `serve` command's flusher does.
struct Daemon {
    service: Service,
    addr: SocketAddr,
    reactor: JoinHandle<io::Result<ReactorSummary>>,
    stop_flusher: mpsc::Sender<()>,
    flusher: JoinHandle<Result<(), String>>,
    /// Nanoseconds spent inside the flusher's `compact_if_due` calls.
    compact_ns: Arc<AtomicU64>,
}

impl Daemon {
    fn start(dir: &Path) -> Result<Daemon, String> {
        if dir.exists() {
            std::fs::remove_dir_all(dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
        }
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let service = Service::new(ServiceConfig {
            workers: workers(),
            ..ServiceConfig::default()
        });
        let outcome = service.attach_cache_file(dir.join("cache.birelcost"));
        if let Some(warning) = outcome.warning {
            return Err(format!("cache file: {warning}"));
        }
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let options = ReactorOptions {
            workers: workers(),
            // Deep enough that a rung just past the knee queues instead of
            // being refused: the knee search reads latency, not refusals.
            max_queue: 4096,
            request_timeout: Some(RESPONSE_TIMEOUT),
            ..ReactorOptions::default()
        };
        let served = service.clone();
        let reactor = std::thread::spawn(move || serve_reactor(&served, vec![(listener, CodecKind::Ndjson)], options));
        let (stop_flusher, stopped) = mpsc::channel::<()>();
        let compact_ns = Arc::new(AtomicU64::new(0));
        let flusher = {
            let service = service.clone();
            let compact_ns = Arc::clone(&compact_ns);
            std::thread::spawn(move || {
                while let Err(mpsc::RecvTimeoutError::Timeout) = stopped.recv_timeout(Duration::from_secs(1)) {
                    let start = Instant::now();
                    let result = service.compact_if_due();
                    compact_ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    result.map_err(|e| format!("compaction failed: {e}"))?;
                }
                Ok(())
            })
        };
        Ok(Daemon {
            service,
            addr,
            reactor,
            stop_flusher,
            flusher,
            compact_ns,
        })
    }

    /// Checks each base program once over a socket, as set-up, and compares
    /// the verdicts with the in-process reference.
    fn prime(&self, sources: &[&str], expected: &[Verdicts]) -> Result<(), String> {
        let mut conn = Conn::open(self.addr)?;
        for (i, (source, want)) in sources.iter().zip(expected).enumerate() {
            let line = Value::obj([("id", Value::Int(i as i64)), ("check", Value::Str(source.to_string()))]).to_string();
            let response = conn.call(&(line + "\n"))?;
            let got = response_verdicts(&response)?;
            if got != *want {
                return Err(format!("priming {}: verdicts {got:?}, expected {want:?}", BASES[i]));
            }
        }
        Ok(())
    }

    fn stop(self) -> Result<ReactorSummary, String> {
        let bye = Conn::open(self.addr).and_then(|mut c| c.call("{\"shutdown\": true}\n"));
        let summary = self
            .reactor
            .join()
            .map_err(|_| "reactor panicked".to_string())?
            .map_err(|e| format!("reactor: {e}"))?;
        bye?;
        drop(self.stop_flusher);
        self.flusher.join().map_err(|_| "flusher panicked".to_string())??;
        Ok(summary)
    }
}

/// A closed-loop client connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_read_timeout(Some(RESPONSE_TIMEOUT)).map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
        })
    }

    fn call(&mut self, line: &str) -> Result<Value, String> {
        self.writer.write_all(line.as_bytes()).map_err(|e| format!("send: {e}"))?;
        let mut response = String::new();
        match self.reader.read_line(&mut response) {
            Ok(0) => Err("connection closed".to_string()),
            Ok(_) => json::parse(response.trim()).map_err(|e| format!("unparsable response: {e}")),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

fn sleep_until(at: Instant) {
    let now = Instant::now();
    if at > now {
        std::thread::sleep(at - now);
    }
}

/// The outcome of one open-loop phase.
#[derive(Debug, Default)]
struct Phase {
    sent: u64,
    failures: Vec<String>,
    /// Latency of each answered request from its scheduled send time, ms.
    latencies_ms: Vec<f64>,
    /// The same, split by base program.
    by_base_ms: Vec<Vec<f64>>,
    /// Base programs some answer gave a wrong verdict for.
    wrong_bases: Vec<bool>,
    /// How late the generator sent each request, ms.
    late_ms: Vec<f64>,
    /// Last completion minus last scheduled send, ms (a backlog left over
    /// when the schedule ended shows here).
    drain_ms: f64,
    tally: Tally,
}

impl Phase {
    fn p99_ms(&self) -> f64 {
        quantile(&mut self.latencies_ms.clone(), 0.99)
    }

    /// Met the latency limit with no failures and no backlog left over.
    fn keeps_up(&self, limit_ms: f64) -> bool {
        self.failures.is_empty() && self.p99_ms() <= limit_ms && self.drain_ms <= limit_ms
    }
}

/// Sends `requests` at `rate` over one connection, open loop: request `i`
/// is due at `start + i / rate` whatever the earlier responses did, and its
/// latency runs from that due time. One writer thread and the calling
/// thread as reader: two client threads in all.
fn open_loop(addr: SocketAddr, reqs: &Requests, requests: &[Planned], rate: f64, expected: &[Verdicts]) -> Phase {
    let mut phase = Phase {
        sent: requests.len() as u64,
        by_base_ms: vec![Vec::new(); expected.len()],
        wrong_bases: vec![false; expected.len()],
        ..Phase::default()
    };
    let conn = match Conn::open(addr) {
        Ok(c) => c,
        Err(e) => {
            phase.failures = vec![e; requests.len()];
            return phase;
        }
    };
    let _ = conn.writer.set_write_timeout(Some(RESPONSE_TIMEOUT));
    // Ids are assigned by the request stream; map them back to positions.
    let first_id = requests.first().map_or(0, |p| p.id as i64);
    let n = requests.len();
    let start = Instant::now() + Duration::from_millis(5);
    let due = move |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
    let position = move |id: i64| usize::try_from(id - first_id).ok().filter(|&i| i < n);
    let Conn { mut reader, writer } = conn;
    std::thread::scope(|scope| {
        let writer = scope.spawn(move || {
            let mut writer = writer;
            let mut late = Vec::with_capacity(n);
            for (i, planned) in requests.iter().enumerate() {
                let line = reqs.line(*planned);
                sleep_until(due(i));
                late.push(due(i).elapsed().as_secs_f64() * 1e3);
                if writer.write_all(line.as_bytes()).is_err() {
                    break;
                }
            }
            late
        });
        let mut answered = vec![false; n];
        let mut received = 0;
        // Failed lines that answer no known request: each leaves one
        // request without an answer and is already counted as a failure.
        let mut unmatched = 0;
        let mut last_done = start;
        let mut line = String::new();
        while received < n {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
            let done = Instant::now();
            received += 1;
            last_done = done;
            let (i, response) = match match_response(&line, position) {
                Ok(r) => r,
                Err(e) => {
                    phase.failures.push(e);
                    unmatched += 1;
                    continue;
                }
            };
            if std::mem::replace(&mut answered[i], true) {
                phase.failures.push(format!("request {i} answered twice"));
                continue;
            }
            let base = requests[i].base;
            match response_verdicts(&response) {
                Ok(got) if got == expected[base] => {
                    let ms = done.saturating_duration_since(due(i)).as_secs_f64() * 1e3;
                    phase.latencies_ms.push(ms);
                    phase.by_base_ms[base].push(ms);
                    phase.tally.add(&response);
                }
                Ok(got) => {
                    phase.wrong_bases[base] = true;
                    phase.failures.push(format!("{}: verdicts {got:?}, expected {:?}", BASES[base], expected[base]));
                }
                Err(e) => phase.failures.push(e),
            }
        }
        // Unblock the writer if the reader gave up early.
        let _ = reader.get_ref().shutdown(std::net::Shutdown::Both);
        phase.late_ms = writer.join().unwrap_or_default();
        let unanswered = answered.iter().filter(|a| !**a).count();
        let missing = unanswered.saturating_sub(unmatched);
        phase.failures.extend((0..missing).map(|_| "no response (timeout or disconnect)".to_string()));
        phase.drain_ms = last_done.saturating_duration_since(due(n.saturating_sub(1))).as_secs_f64() * 1e3;
    });
    phase
}

fn rung_rate(k: i32) -> f64 {
    RATE * 2f64.powf(f64::from(k) / 8.0)
}

/// Searches the fixed geometric ladder for its highest rate that keeps up
/// (see [`Phase::keeps_up`]), knowing from the latency phase whether the
/// base rate does: gallop four rungs at a time, then bisect. Returns the
/// knee rate, 0 when no rung tried kept up, and the phases run.
fn knee(addr: SocketAddr, reqs: &mut Requests, expected: &[Verdicts], base_ok: bool, budget: Duration) -> (f64, Vec<Phase>) {
    let (mut pass, mut fail) = if base_ok { (Some(0), None) } else { (None, Some(0)) };
    let rung = budget / 6;
    let end = Instant::now() + budget;
    let mut phases = Vec::new();
    while Instant::now() + rung <= end {
        let k = match (pass, fail) {
            (Some(p), None) => p + 4,
            (None, Some(f)) => f - 4,
            (Some(p), Some(f)) if f - p > 1 => (p + f) / 2,
            _ => break,
        };
        if !LADDER.contains(&k) {
            break;
        }
        let rate = rung_rate(k);
        let requests = reqs.plan((rate * rung.as_secs_f64()).ceil() as usize);
        let phase = open_loop(addr, reqs, &requests, rate, expected);
        let ok = phase.keeps_up(LIMIT_MS);
        eprintln!(
            "perfbench: knee rung {rate:.0} rps: p99 {:.2} ms, drain {:.2} ms, {} failed: {}",
            phase.p99_ms(),
            phase.drain_ms,
            phase.failures.len(),
            if ok { "keeps up" } else { "falls behind" }
        );
        if ok {
            pass = Some(k);
        } else {
            fail = Some(k);
        }
        phases.push(phase);
        std::thread::sleep(Duration::from_millis(50));
    }
    (pass.map_or(0.0, rung_rate), phases)
}

/// In-process reference verdicts of the base programs.
fn reference_verdicts(sources: &[&str]) -> Result<Vec<Verdicts>, String> {
    sources
        .iter()
        .map(|src| {
            let program = parse_program(src).map_err(|e| e.to_string())?;
            let report = Engine::new().check_program(&program);
            Ok(report.defs.iter().map(|d| (d.ok, d.ok && d.proved)).collect())
        })
        .collect()
}

pub fn run(seed: u64, seconds: f64, traced: bool, work: &Path, report: &mut Report) -> Result<Recorder, String> {
    let sources = base_sources();
    let expected = reference_verdicts(&sources)?;
    // Set-up, `SETUPS` times: service, cache-file attach, reactor bind and
    // priming. The last daemon serves the run.
    let mut setups = Vec::new();
    let mut daemon = None;
    for i in 0..SETUPS {
        if let Some(previous) = daemon.take() {
            Daemon::stop(previous)?;
        }
        let start = process_cpu_ms();
        let d = Daemon::start(&work.join(format!("daemon-{i}")))?;
        d.prime(&sources, &expected)?;
        setups.push((process_cpu_ms() - start) / 1e3);
        daemon = Some(d);
    }
    let daemon = daemon.expect("set-up ran");
    report.put("setup_s", median(&setups), "s");

    let mut reqs = Requests::new(seed)?;
    let wal_before = daemon.service.persist_stats().wal.unwrap_or_default();
    let compact_before = daemon.compact_ns.load(Ordering::Relaxed);
    let total = Duration::from_secs_f64(seconds);
    let mut recorder = Recorder::new(traced);
    let mut phases = Vec::new();
    if traced {
        traced_phases(&daemon, &mut reqs, &expected, total, &mut recorder, report, &mut phases)?;
    } else {
        let fixed = reqs.plan((RATE * total.as_secs_f64()).ceil() as usize);
        let cpu_start = process_cpu_ms();
        let phase = open_loop(daemon.addr, &reqs, &fixed, RATE, &expected);
        let answered = phase.latencies_ms.len().max(1) as f64;
        report.put("cpu_ms_per_op", (process_cpu_ms() - cpu_start) / answered, "ms");
        put_verdicts(&phase, &expected, report);
        phases.push(phase);
    }
    let wal_after = daemon.service.persist_stats().wal.unwrap_or_default();
    let compact_ms = (daemon.compact_ns.load(Ordering::Relaxed) - compact_before) as f64 / 1e6;
    let summary = daemon.stop()?;

    for phase in &phases {
        report.attempted += phase.sent;
        for failure in &phase.failures {
            report.fail(failure.clone());
        }
    }
    report.put("wal.appends", (wal_after.appends - wal_before.appends) as f64, "count");
    report.put("wal.bytes", wal_after.bytes as f64, "bytes");
    report.put("wal.compactions", (wal_after.compactions - wal_before.compactions) as f64, "count");
    report.put("wal.compact_ms", compact_ms, "ms");
    report.put("reactor.backpressure", summary.backpressure as f64, "count");
    report.put("reactor.deadlines", summary.deadlines as f64, "count");
    Ok(recorder)
}

/// The verdict counts of the fixed-rate phase.
fn put_verdicts(phase: &Phase, expected: &[Verdicts], report: &mut Report) {
    // Base programs with at least one answer, every answer matching the
    // reference verdicts (a mismatch is a failure), whose definitions all
    // check (and are proved).
    let served = |all: fn(&(bool, bool)) -> bool| {
        let bases = phase.by_base_ms.iter().zip(&phase.wrong_bases).zip(expected);
        bases
            .filter(|((lat, wrong), v)| !lat.is_empty() && !**wrong && v.iter().all(all))
            .count() as f64
    };
    report.put("verified", served(|d| d.0), "count");
    report.put("proved", served(|d| d.1), "count");
}

/// One request decomposed in-process: decode, parse, the daemon's check
/// and the typecheck/entailment replay, then the def-index hit path on the
/// unrenamed base program, then a whole `respond` on a second request and
/// the encoding of its answer.
fn decomposed_request(
    rec: &mut Recorder,
    owner: u64,
    service: &Service,
    bases: &[Program],
    first: &(usize, String),
    second: &(usize, String),
    expected: &[Verdicts],
) -> Result<(), String> {
    let index = service.incremental().then(|| &**service.def_index());
    rec.span("request", owner, |rec| {
        let request = rec
            .span("json.decode", owner, |_| json::parse(first.1.trim()))
            .map_err(|e| e.to_string())?;
        let source = request.get("check").and_then(Value::as_str).ok_or("request without source")?;
        let program = rec
            .span("syntax.parse", owner, |_| parse_program(source))
            .map_err(|e| e.to_string())?;
        let report = rec.span("daemon.check", owner, |_| {
            service.engine().check_program_with(&program, index)
        });
        let got: Verdicts = report.defs.iter().map(|d| (d.ok, d.ok && d.proved)).collect();
        if got != expected[first.0] {
            return Err(format!("{}: daemon check gave {got:?}", BASES[first.0]));
        }
        let replayed = crate::table1::replay(rec, owner, service.engine(), &program);
        if replayed != got {
            return Err(format!("{}: replay gave {replayed:?}, engine {got:?}", BASES[first.0]));
        }
        // The primed base program itself: every definition a def-index hit.
        let hit = rec.span("defindex.hit", owner, |_| {
            service.engine().check_program_with(&bases[first.0], index)
        });
        let got: Verdicts = hit.defs.iter().map(|d| (d.ok, d.ok && d.proved)).collect();
        if got != expected[first.0] || !hit.defs.iter().all(|d| d.skipped_unchanged) {
            return Err(format!("{}: primed program missed the def index", BASES[first.0]));
        }
        Ok(())
    })?;
    let response = rec.span("daemon.respond", owner, |_| respond(service, second.1.trim()));
    let text = rec.span("json.encode", owner, |_| response.to_string());
    let got = response_verdicts(&response)?;
    if got != expected[second.0] || text.is_empty() {
        return Err(format!("{}: respond gave {got:?}", BASES[second.0]));
    }
    Ok(())
}

/// The traced run: in-process decomposition (traced and untraced blocks,
/// for the overhead), unloaded socket round trips, the fixed-rate phase
/// for queueing, then the knee search.
fn traced_phases(
    daemon: &Daemon,
    reqs: &mut Requests,
    expected: &[Verdicts],
    total: Duration,
    recorder: &mut Recorder,
    report: &mut Report,
    phases: &mut Vec<Phase>,
) -> Result<(), String> {
    let service = &daemon.service;
    let bases = base_sources()
        .iter()
        .map(|src| parse_program(src).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let mut untraced = Recorder::new(false);
    let (mut wall_on, mut wall_off, mut n_on, mut n_off) = (Duration::ZERO, Duration::ZERO, 0u32, 0u32);
    let mut owner = 0u64;
    let mut decomposed = Phase::default();
    let end = Instant::now() + total.mul_f64(0.25);
    while Instant::now() < end {
        for on in [true, false] {
            let block = reqs.batch(40);
            let rec = if on { &mut *recorder } else { &mut untraced };
            let start = Instant::now();
            for pair in block.chunks(2) {
                decomposed.sent += 1;
                if let Err(e) = decomposed_request(rec, owner, service, &bases, &pair[0], &pair[1], expected) {
                    decomposed.failures.push(e);
                }
                owner += 1;
            }
            let wall = start.elapsed();
            if on {
                wall_on += wall;
                n_on += 20;
            } else {
                wall_off += wall;
                n_off += 20;
            }
        }
    }
    let per_on = wall_on.as_secs_f64() / f64::from(n_on.max(1));
    let per_off = wall_off.as_secs_f64() / f64::from(n_off.max(1));
    report.put("trace.overhead_pct", (per_on - per_off) / per_off * 100.0, "%");
    let by_name = recorder.self_time_by_owner();
    let per_request_us = |name: &str| -> f64 {
        let values: Vec<f64> = by_name
            .get(name)
            .map(|m| m.values().map(|ns| *ns as f64 / 1e3).collect())
            .unwrap_or_default();
        median(&values)
    };
    for (metric, span) in [
        ("json.decode_us", "json.decode"),
        ("json.encode_us", "json.encode"),
        ("syntax.parse_us", "syntax.parse"),
        ("daemon.check_us", "daemon.check"),
        ("daemon.respond_us", "daemon.respond"),
        ("bidir.typecheck_us", "bidir.typecheck"),
        ("solver.entails_us", "solver.entails"),
        ("defindex.hit_us", "defindex.hit"),
    ] {
        report.put(metric, per_request_us(span), "us");
    }
    phases.push(decomposed);

    // Unloaded round trips: one request in flight at a time.
    let mut unloaded = Phase::default();
    let mut conn = Conn::open(daemon.addr)?;
    let end = Instant::now() + total.mul_f64(0.1);
    while Instant::now() < end {
        let (base, line) = reqs.next();
        unloaded.sent += 1;
        let start = Instant::now();
        match conn.call(&line).and_then(|r| response_verdicts(&r)) {
            Ok(got) if got == expected[base] => unloaded.latencies_ms.push(start.elapsed().as_secs_f64() * 1e3),
            Ok(got) => unloaded.failures.push(format!("{}: verdicts {got:?}", BASES[base])),
            Err(e) => unloaded.failures.push(e),
        }
    }
    drop(conn);
    let unloaded_p50_ms = median(&unloaded.latencies_ms);
    report.put(
        "reactor.overhead_us",
        unloaded_p50_ms * 1e3 - per_request_us("daemon.respond"),
        "us",
    );
    phases.push(unloaded);

    let fixed = reqs.plan((RATE * total.as_secs_f64() * 0.25).ceil() as usize);
    let loaded = open_loop(daemon.addr, reqs, &fixed, RATE, expected);
    let p50_ms = quantile(&mut loaded.latencies_ms.clone(), 0.5);
    report.put("client.p50_ms", p50_ms, "ms");
    report.put("client.p99_ms", loaded.p99_ms(), "ms");
    report.put("daemon.wait_ms", p50_ms - unloaded_p50_ms, "ms");
    report.put("client.late_p99_ms", quantile(&mut loaded.late_ms.clone(), 0.99), "ms");
    let t = loaded.tally;
    report.put("defindex.hit_ratio", ratio(t.defindex_hits, t.defindex_lookups - t.defindex_hits), "ratio");
    report.put("defindex.lookups", t.defindex_lookups as f64, "count");
    report.put("cache.hit_ratio", ratio(t.cache_hits, t.cache_misses), "ratio");
    report.put("cache.lookups", (t.cache_hits + t.cache_misses) as f64, "count");
    let base_ok = loaded.keeps_up(LIMIT_MS);
    phases.push(loaded);

    // The knee: the highest ladder rate that keeps up, starting from the
    // fixed rate's outcome.
    let (knee_rps, rungs) = knee(daemon.addr, reqs, expected, base_ok, total.mul_f64(0.4));
    report.put("daemon.knee_rps", knee_rps, "1/s");
    phases.extend(rungs);
    Ok(())
}
