//! The serving plane: one `poll(2)` readiness loop multiplexing every
//! connection — sockets and stdio alike — over one bounded worker pool.
//!
//! The PR 1–7 daemon dedicated one OS thread to each connection; this module
//! replaces that with a `poll(2)`-driven reactor (an in-tree readiness loop —
//! the build environment is offline, so no tokio/mio) plus a bounded job
//! queue drained by a fixed worker pool:
//!
//! ```text
//!            ┌ listener (NDJSON) ┐             ┌ worker 0 ┐
//!  clients ──┤                   ├─ reactor ───┤ worker 1 ├── Service
//!            └ listener (HTTP)  ─┘   poll(2)   └ worker N ┘   (engine,
//!                 nonblocking        1 thread     bounded      caches)
//!                 sockets            owns conns   queue
//! ```
//!
//! * The **reactor thread** owns every connection: it accepts, reads bytes,
//!   runs each connection's [`Codec`] state machine, enqueues decoded
//!   requests, writes completed responses, and enforces per-request
//!   deadlines and per-connection idle timeouts.
//! * **Workers** pull jobs off the bounded queue and answer them against the
//!   shared [`Service`].  At dequeue time a job whose connection already
//!   closed is dropped (counted under `serve.conn_errors` — the PR 7 design
//!   would have computed it and discovered the disconnect only when the
//!   response write failed), and a job already past its deadline is answered
//!   with the structured deadline error without doing the work.
//! * **Backpressure is explicit**: when the queue is full the reactor
//!   immediately answers `{"error": "backpressure", ...}` (HTTP 503) instead
//!   of buffering unboundedly — the client knows to back off, and the
//!   daemon's memory stays bounded no matter the offered load.
//! * **Cancellation**: a request that blows
//!   [`ReactorOptions::request_timeout`] is answered with
//!   `{"error": "deadline", "timeout_ms": N}`.  If a worker is already
//!   running it, the work completes in the background (its cache stores
//!   still land) and the late response is dropped; if it is still queued,
//!   the dequeue check skips the work entirely.
//! * **Streaming**: `{"batch": [...], "stream": true}` answers one frame per
//!   job as it finishes (NDJSON lines on one plane, HTTP chunks on the
//!   other) and a terminal `{"done": true, ...}` summary, so a client
//!   replaying a large suite sees results as they land.
//! * **Stdio** ([`serve`]) is one more NDJSON connection: two copy threads
//!   bridge the reader and writer to a loopback socket pair, and a run with
//!   no listeners ends when its last connection has closed.  End of input
//!   is a half-close, so every request read before it is answered, and the
//!   workers are joined before [`serve`] returns.
//!
//! Responses on the NDJSON plane — stdio included — complete in *finish*
//! order, not submission order: pipelining clients tag requests with `"id"`
//! and match on the echo.  The HTTP plane is half-duplex per connection
//! (HTTP/1.1 responses must land in request order), so multiplexing there
//! comes from many connections.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::codec::{make_codec, Codec, CodecKind, CodecLimits, Decode};
use crate::daemon::{self, echo_id};
use crate::json::Value;
use crate::service::Service;

/// Knobs for [`serve_reactor`].
#[derive(Debug, Clone)]
pub struct ReactorOptions {
    /// Worker threads answering requests (defaults to the machine's
    /// parallelism).
    pub workers: usize,
    /// Bound on queued-but-not-started requests across all connections;
    /// excess requests are answered with an explicit backpressure error
    /// (the stdio session of [`serve`] is paced at this bound instead).
    pub max_queue: usize,
    /// Wall-clock budget per request (the PR 7 deadline machinery); `None`
    /// is unbounded.
    pub request_timeout: Option<Duration>,
    /// Disconnect a connection with no traffic and no in-flight work for
    /// this long (also what reaps slow-loris half-requests).
    pub idle_timeout: Option<Duration>,
    /// Codec size limits (request line / HTTP body / header caps).
    pub limits: CodecLimits,
}

impl Default for ReactorOptions {
    fn default() -> Self {
        let workers = crate::service::available_workers();
        ReactorOptions {
            workers,
            max_queue: (workers * 32).max(64),
            request_timeout: None,
            idle_timeout: None,
            limits: CodecLimits::default(),
        }
    }
}

/// Counters for one reactor run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReactorSummary {
    /// Requests decoded (including malformed ones answered with errors).
    pub requests: u64,
    /// Responses that carried an `error` field.
    pub errors: u64,
    /// Requests answered with the structured deadline error.
    pub deadlines: u64,
    /// Requests refused with the structured backpressure error.
    pub backpressure: u64,
    /// Connections that died with work pending: jobs dropped at dequeue
    /// after a disconnect, plus failed response writes.
    pub conn_errors: u64,
    /// Connections reaped by the idle timeout.
    pub idle_disconnects: u64,
    /// Connections served over the run: those accepted, plus the stdio
    /// session of [`serve`].
    pub connections: u64,
    /// Whether the run ended on a shutdown request (rather than at the end
    /// of its last connection, or on an error).
    pub shutdown: bool,
}

// ---------------------------------------------------------------------------
// Readiness (poll(2) on Linux, a sleep-scan fallback elsewhere)
// ---------------------------------------------------------------------------

#[cfg(target_os = "linux")]
mod sys {
    use std::os::raw::{c_int, c_ulong};

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: i16,
        pub revents: i16,
    }

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;
    pub const POLLNVAL: i16 = 0x020;

    // std already links libc on Linux; declaring the one symbol we need
    // keeps the reactor dependency-free in an offline build.
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }

    /// `poll(2)` with EINTR retry.  `revents` is populated in place.
    pub fn wait(fds: &mut [PollFd], timeout_ms: i32) -> std::io::Result<usize> {
        loop {
            let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) };
            if rc >= 0 {
                return Ok(rc as usize);
            }
            let err = std::io::Error::last_os_error();
            if err.kind() != std::io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

/// Readiness of one registered source after a wait.
#[derive(Debug, Clone, Copy, Default)]
struct Ready {
    readable: bool,
    hangup: bool,
}

/// One readiness wait over (listeners ∪ wake pipe ∪ connections).
///
/// On Linux this is one `poll(2)` call; elsewhere every registered source is
/// reported ready and the loop relies on nonblocking ops returning
/// `WouldBlock`, with a small sleep to avoid spinning.
#[cfg(target_os = "linux")]
fn wait_ready(
    sources: &[(&TcpStream, bool, bool)],
    listeners: &[&TcpListener],
    timeout: Duration,
) -> io::Result<(Vec<Ready>, Vec<bool>)> {
    use std::os::unix::io::AsRawFd;
    let mut fds: Vec<sys::PollFd> = Vec::with_capacity(sources.len() + listeners.len());
    for (stream, want_read, want_write) in sources {
        let mut events = 0i16;
        if *want_read {
            events |= sys::POLLIN;
        }
        if *want_write {
            events |= sys::POLLOUT;
        }
        fds.push(sys::PollFd {
            fd: stream.as_raw_fd(),
            events,
            revents: 0,
        });
    }
    for listener in listeners {
        fds.push(sys::PollFd {
            fd: listener.as_raw_fd(),
            events: sys::POLLIN,
            revents: 0,
        });
    }
    let timeout_ms = timeout.as_millis().min(i32::MAX as u128) as i32;
    sys::wait(&mut fds, timeout_ms)?;
    let ready = fds[..sources.len()]
        .iter()
        .map(|fd| Ready {
            readable: fd.revents & (sys::POLLIN | sys::POLLHUP | sys::POLLERR) != 0,
            hangup: fd.revents & (sys::POLLHUP | sys::POLLERR | sys::POLLNVAL) != 0,
        })
        .collect();
    let accept_ready = fds[sources.len()..]
        .iter()
        .map(|fd| fd.revents & sys::POLLIN != 0)
        .collect();
    Ok((ready, accept_ready))
}

#[cfg(not(target_os = "linux"))]
fn wait_ready(
    sources: &[(&TcpStream, bool, bool)],
    listeners: &[&TcpListener],
    timeout: Duration,
) -> io::Result<(Vec<Ready>, Vec<bool>)> {
    // Portable fallback: report everything ready and lean on nonblocking
    // I/O; the sleep bounds the scan rate.
    std::thread::sleep(timeout.min(Duration::from_millis(2)));
    Ok((
        sources
            .iter()
            .map(|(_, r, _)| Ready {
                readable: *r,
                hangup: false,
            })
            .collect(),
        listeners.iter().map(|_| true).collect(),
    ))
}

// ---------------------------------------------------------------------------
// Jobs, tokens, queues
// ---------------------------------------------------------------------------

/// Reactor-side identity of one request, shared with the worker that answers
/// it.  The `answered` flag is the cancellation handshake: whichever side
/// transitions it first (worker completing, or the reactor's deadline scan)
/// owns the response; the loser drops its frames.
#[derive(Debug)]
struct RequestToken {
    conn_id: u64,
    codec: CodecKind,
    /// Set by the reactor when the connection dies; checked by workers at
    /// dequeue so a dead client's queued work is skipped, not computed.
    conn_closed: Arc<AtomicBool>,
    answered: AtomicBool,
    enqueued: Instant,
    deadline: Option<Instant>,
    /// The request's `id` field, echoed into reactor-built responses
    /// (deadline errors; workers echo it through `respond_parsed`).
    id: Option<Value>,
    /// Configured timeout in ms (for the deadline error payload).
    timeout_ms: u64,
}

impl RequestToken {
    /// Claims the right to answer; `true` exactly once.
    fn try_answer(&self) -> bool {
        !self.answered.swap(true, Ordering::AcqRel)
    }

    fn expired(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| now >= d)
    }
}

/// One queued request.
struct Job {
    token: Arc<RequestToken>,
    request: Value,
    /// `{"batch": [...], "stream": true}` — answer frame-by-frame.
    streaming: bool,
}

/// A response frame traveling from a worker back to the reactor.
enum Frame {
    /// The single response of a non-streamed request.
    Response(Value),
    /// Opens a streamed response.
    StreamBegin,
    /// One streamed item.
    StreamItem(Value),
    /// The terminal summary of a streamed response.
    StreamEnd(Value),
}

struct Completion {
    token: Arc<RequestToken>,
    frame: Frame,
}

/// State shared between the reactor thread and the workers.
struct Shared {
    service: Service,
    /// Receiving end of the bounded job queue (a `sync_channel` of
    /// `max_queue`): the reactor's `try_send` refuses instead of blocking,
    /// and refusal is the backpressure signal it answers with an explicit
    /// error.  One idle worker waits in `recv` holding the lock.
    jobs: Mutex<mpsc::Receiver<Job>>,
    completions: Mutex<Vec<Completion>>,
    /// Write end of the wake pipe: one byte per completion batch, so the
    /// reactor's poll wakes as soon as a response is ready.
    waker: Mutex<TcpStream>,
    /// Jobs dropped at dequeue because their connection had closed.
    dropped_for_closed_conn: AtomicU64,
    /// Jobs answered with the deadline error at dequeue (already expired
    /// before any work started).
    expired_at_dequeue: AtomicU64,
}

impl Shared {
    /// Queues a frame for the reactor and kicks its poll loop.  A request's
    /// latency is observed here, when its final frame is produced, so a
    /// later request on the same connection already sees it in the metrics.
    fn complete(&self, token: Arc<RequestToken>, frame: Frame) {
        if matches!(frame, Frame::Response(_) | Frame::StreamEnd(_)) {
            observe_latency(&self.service, &token);
        }
        self.completions
            .lock()
            .expect("completions poisoned")
            .push(Completion { token, frame });
        let mut waker = self.waker.lock().expect("waker poisoned");
        wake(&mut waker);
    }
}

/// Writes one wake byte to the (nonblocking) wake pipe without ever
/// blocking a worker or losing a wakeup:
///
/// * `WouldBlock` means the pipe's buffer is full — at least one unread
///   byte is already pending, so the reactor's next poll wakes regardless
///   and this byte is redundant.
/// * `Interrupted` retries: a signal landing between the buffer push in
///   [`Shared::complete`] and the write must not swallow the wakeup.
/// * `Ok(0)`/other errors mean the reactor side is gone (shutdown teardown);
///   nothing to wake.
fn wake(waker: &mut TcpStream) {
    loop {
        match waker.write(&[1]) {
            Ok(_) => return,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
    }
}

/// A structured refusal, identical content on every codec:
/// `{"error": "deadline", "timeout_ms": N}` or
/// `{"error": "backpressure", "max_queue": N}`, after the request's `id`.
fn refusal(error: &str, (field, n): (&'static str, u64), id: Option<&Value>) -> Value {
    let mut payload = Value::obj([
        ("error", Value::Str(error.to_string())),
        (field, Value::Int(n as i64)),
    ]);
    echo_id(&mut payload, id);
    payload
}

// ---------------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------------

fn worker_loop(shared: &Shared) {
    loop {
        // Bound first, so the lock is released before the job runs.
        let next = shared.jobs.lock().expect("job queue poisoned").recv();
        let Ok(job) = next else {
            return; // the reactor has stopped and the queue is drained
        };
        let now = Instant::now();
        // Dequeue-time gates: never burn solver time for a client that is
        // gone, and answer an already-blown deadline without starting.
        if job.token.conn_closed.load(Ordering::Acquire) {
            shared
                .dropped_for_closed_conn
                .fetch_add(1, Ordering::Relaxed);
            rel_obs::counter!("serve.conn_errors").incr();
            continue;
        }
        if job.token.expired(now) && job.token.try_answer() {
            shared.expired_at_dequeue.fetch_add(1, Ordering::Relaxed);
            let timeout = ("timeout_ms", job.token.timeout_ms);
            let payload = refusal("deadline", timeout, job.token.id.as_ref());
            shared.complete(job.token, Frame::Response(payload));
            continue;
        }
        #[cfg(feature = "test-hooks")]
        crate::test_hooks::park(&job.request);
        if job.streaming {
            stream_batch(shared, &job);
            continue;
        }
        let payload = daemon::respond_parsed(&shared.service, &job.request);
        // The deadline scan may have answered while we were computing; the
        // work still warmed the caches, only the late response is dropped.
        if job.token.try_answer() {
            shared.complete(job.token, Frame::Response(payload));
        }
    }
}

/// Answers `{"batch": [...], "stream": true}`: one frame per job in
/// submission order as each finishes, then a terminal summary.  Claims the
/// answer up front — once frames are flowing, the deadline scan must not
/// interleave its own response into the stream.
fn stream_batch(shared: &Shared, job: &Job) {
    if !job.token.try_answer() {
        return; // deadline fired while queued
    }
    let id = job.token.id.as_ref();
    shared.complete(Arc::clone(&job.token), Frame::StreamBegin);
    let sources: Vec<String> = match job.request.get("batch") {
        Some(Value::Arr(items)) if items.iter().all(|v| v.as_str().is_some()) => items
            .iter()
            .map(|v| v.as_str().expect("checked").to_string())
            .collect(),
        _ => {
            shared.service.metrics().counter("serve.errors").incr();
            let mut payload = Value::obj([(
                "error",
                Value::Str("the `batch` field must be an array of source strings".to_string()),
            )]);
            echo_id(&mut payload, id);
            shared.complete(Arc::clone(&job.token), Frame::StreamEnd(payload));
            return;
        }
    };
    let mut jobs_ok = 0usize;
    let total = sources.len();
    let mut aborted = false;
    for (seq, source) in sources.iter().enumerate() {
        if job.token.conn_closed.load(Ordering::Acquire) {
            // The client is gone: stop checking the remainder (the frames
            // would be dropped anyway); this is the streaming face of the
            // dequeue-time disconnect gate.
            shared
                .dropped_for_closed_conn
                .fetch_add(1, Ordering::Relaxed);
            rel_obs::counter!("serve.conn_errors").incr();
            aborted = true;
            break;
        }
        let job_spec = crate::batch::BatchJob::new(format!("job-{seq}"), source.clone());
        let result = shared.service.check_job(&job_spec);
        if result.ok() {
            jobs_ok += 1;
        }
        let mut item = Value::obj([
            ("seq", Value::Int(seq as i64)),
            ("job", daemon::job_value(&result)),
        ]);
        echo_id(&mut item, id);
        shared.complete(Arc::clone(&job.token), Frame::StreamItem(item));
    }
    let mut end = Value::obj([
        ("done", Value::Bool(true)),
        ("ok", Value::Bool(jobs_ok == total && !aborted)),
        ("jobs_ok", Value::Int(jobs_ok as i64)),
        ("jobs", Value::Int(total as i64)),
        ("cache", daemon::cache_value(&shared.service)),
    ]);
    echo_id(&mut end, id);
    shared.complete(Arc::clone(&job.token), Frame::StreamEnd(end));
}

// ---------------------------------------------------------------------------
// Connections
// ---------------------------------------------------------------------------

struct Conn {
    stream: TcpStream,
    codec: Box<dyn Codec>,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    /// Shared with every token minted for this connection.
    closed: Arc<AtomicBool>,
    last_activity: Instant,
    /// Requests decoded but not yet fully answered.
    inflight: usize,
    /// HTTP half-duplex gate: stop decoding until the current request's
    /// response has been queued.
    awaiting_response: bool,
    /// Close once the write buffer drains and nothing is in flight (fatal
    /// framing error, HTTP `Connection: close`, shutdown's `{"bye": true}`).
    close_after_flush: bool,
    /// The peer shut down its write side (or the read failed): the socket is
    /// no longer polled for reading, and the connection closes once its
    /// in-flight requests are answered and flushed.
    read_closed: bool,
    /// Paced rather than refused: the stdio session's client is a pipe that
    /// cannot back off, so while `max_queue` of its requests are in flight
    /// the reactor stops reading it instead of answering backpressure.
    paced: bool,
}

impl Conn {
    fn new(stream: TcpStream, kind: CodecKind, limits: CodecLimits) -> Conn {
        Conn {
            stream,
            codec: make_codec(kind, limits),
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            closed: Arc::new(AtomicBool::new(false)),
            last_activity: Instant::now(),
            inflight: 0,
            awaiting_response: false,
            close_after_flush: false,
            read_closed: false,
            paced: false,
        }
    }

    /// Whether decoding must wait for an answer first: the HTTP half-duplex
    /// gate, or a paced connection at its in-flight bound.
    fn decode_gated(&self, max_queue: usize) -> bool {
        (self.codec.half_duplex() && self.awaiting_response)
            || (self.paced && self.inflight >= max_queue)
    }

    /// Every request it sent is answered and flushed.
    fn settled(&self) -> bool {
        self.inflight == 0 && self.write_buf.is_empty()
    }

    /// Whether the connection is finished: it was told to close, or its peer
    /// stopped sending, and it is settled.
    fn done(&self) -> bool {
        (self.close_after_flush || self.read_closed) && self.settled()
    }

    /// Flushes as much of the write buffer as the socket accepts.
    /// `Ok(true)` means fully drained.
    fn flush(&mut self) -> io::Result<bool> {
        while !self.write_buf.is_empty() {
            match self.stream.write(&self.write_buf) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.write_buf.drain(..n);
                    self.last_activity = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }
}

// ---------------------------------------------------------------------------
// The reactor proper
// ---------------------------------------------------------------------------

/// How long one poll sleeps when nothing is due sooner: bounds the latency
/// of deadline/idle scans without measurable idle cost (50 wakeups/s).
const TICK: Duration = Duration::from_millis(20);

/// Runs the multiplexed serving plane over `listeners` until a client sends
/// `{"shutdown": true}` (or `POST /shutdown`), answering every request
/// against `service`.  Each listener speaks the codec it is paired with;
/// all of them multiplex over one worker pool and one bounded queue.
pub fn serve_reactor(
    service: &Service,
    listeners: Vec<(TcpListener, CodecKind)>,
    options: ReactorOptions,
) -> io::Result<ReactorSummary> {
    run(service, listeners, None, options)
}

/// Serves one NDJSON session over `reader`/`writer` (`birelcost serve`'s
/// stdio) as a connection of the reactor, until `{"shutdown": true}` or the
/// end of `reader`.  Two copy threads bridge the pair to a loopback socket,
/// so the caller's descriptors stay blocking; the input thread is detached,
/// as after a shutdown it may still be blocked reading.  Every request read
/// before EOF is answered, and the workers (timed-out ones included) are
/// joined before this returns.  With more than one worker, responses arrive
/// in completion order: match them by `"id"`.
pub fn serve<R, W>(
    service: &Service,
    reader: R,
    writer: W,
    options: ReactorOptions,
) -> io::Result<ReactorSummary>
where
    R: Read + Send + 'static,
    W: Write + Send,
{
    let (bridge, conn) = loopback_pair()?;
    let input = bridge.try_clone()?;
    let (read_error, read_failed) = mpsc::channel();
    std::thread::spawn(move || pump_input(reader, input, read_error));
    std::thread::scope(|scope| {
        let output = scope.spawn(|| pump_output(&bridge, writer));
        let summary = run(service, Vec::new(), Some(conn), options);
        let written = output.join().expect("stdio output thread panicked");
        let summary = summary?;
        written?;
        match read_failed.try_recv() {
            Ok(error) => Err(error),
            Err(_) => Ok(summary),
        }
    })
}

/// Copies `reader` into the session socket, then half-closes it.  An
/// unterminated last line is still a request, so it gets its newline.  A
/// read error ends the input like EOF (what was read is still answered) and
/// is reported before the half-close, for [`serve`] to return.
fn pump_input<R: Read>(mut reader: R, mut socket: TcpStream, error: mpsc::Sender<io::Error>) {
    let mut buf = [0u8; 16 * 1024];
    let mut last = b'\n';
    loop {
        match reader.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                if socket.write_all(&buf[..n]).is_err() {
                    return; // the session is over (shutdown): stop reading
                }
                last = buf[n - 1];
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => {
                let _ = error.send(e);
                break;
            }
        }
    }
    if last != b'\n' {
        let _ = socket.write_all(b"\n");
    }
    let _ = socket.shutdown(Shutdown::Write);
}

/// Copies the session socket into `writer`, flushing after every read so an
/// interactive client sees each response as it lands, until the reactor
/// closes the connection.  A reset is a close too: after a shutdown request
/// the reactor closes with input still unread, and the kernel then resets
/// the connection — after delivering everything written before it.
fn pump_output<W: Write>(mut socket: &TcpStream, mut writer: W) -> io::Result<()> {
    let mut buf = [0u8; 16 * 1024];
    let mut written = Ok(());
    loop {
        let n = match socket.read(&mut buf) {
            Ok(0) => return written,
            Err(e) if e.kind() == io::ErrorKind::ConnectionReset => return written,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
            Ok(n) => n,
        };
        if written.is_ok() {
            written = writer.write_all(&buf[..n]).and_then(|()| writer.flush());
            if written.is_err() {
                // Nobody reads the answers any more: end the input, and keep
                // draining so the reactor can finish what is in flight.
                let _ = socket.shutdown(Shutdown::Write);
            }
        }
    }
}

/// A connected loopback TCP pair `(connecting end, accepted end)`: the
/// portable, dependency-free stand-in for `socketpair(2)` behind the wake
/// pipe and the stdio bridge.
fn loopback_pair() -> io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let near = TcpStream::connect(listener.local_addr()?)?;
    let far = accept_from(&listener, near.local_addr()?)?;
    Ok((near, far))
}

/// Accepts connections on `listener` until the one from `peer` arrives:
/// another local process may connect to the ephemeral port first, and it
/// must not become an end of the pair.
fn accept_from(listener: &TcpListener, peer: SocketAddr) -> io::Result<TcpStream> {
    loop {
        let (stream, from) = listener.accept()?;
        if from == peer {
            return Ok(stream);
        }
    }
}

/// The reactor over `listeners` plus, when given, one already-connected
/// NDJSON connection (the stdio bridge).  A run with no listeners ends when
/// its last connection has closed; either way the workers are joined before
/// this returns.
fn run(
    service: &Service,
    listeners: Vec<(TcpListener, CodecKind)>,
    adopted: Option<TcpStream>,
    options: ReactorOptions,
) -> io::Result<ReactorSummary> {
    for (listener, _) in &listeners {
        listener.set_nonblocking(true)?;
    }
    // Workers write a byte to unblock the poll as soon as a completion is
    // queued.  Both ends are nonblocking: a blocking write from a worker
    // against a full pipe buffer would park the worker (and with it the
    // waker mutex) until the reactor drains — a lost-wakeup deadlock if the
    // reactor is itself sleeping in poll.  `wake` treats WouldBlock as
    // success because pending bytes already guarantee the next poll wakes.
    let (wake_tx, wake_rx) = loopback_pair()?;
    wake_rx.set_nonblocking(true)?;
    wake_tx.set_nonblocking(true)?;

    let (jobs, queue) = mpsc::sync_channel(options.max_queue.max(1));
    let shared = Arc::new(Shared {
        service: service.clone(),
        jobs: Mutex::new(queue),
        completions: Mutex::new(Vec::new()),
        waker: Mutex::new(wake_tx),
        dropped_for_closed_conn: AtomicU64::new(0),
        expired_at_dequeue: AtomicU64::new(0),
    });
    let workers: Vec<_> = (0..options.workers.max(1))
        .map(|_| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || worker_loop(&shared))
        })
        .collect();

    let result = reactor_loop(&shared, &jobs, &listeners, adopted, &wake_rx, &options);

    drop(jobs);
    for handle in workers {
        let _ = handle.join();
    }
    let mut summary = result?;
    summary.conn_errors += shared.dropped_for_closed_conn.load(Ordering::Relaxed);
    summary.deadlines += shared.expired_at_dequeue.load(Ordering::Relaxed);
    Ok(summary)
}

fn reactor_loop(
    shared: &Shared,
    jobs: &SyncSender<Job>,
    listeners: &[(TcpListener, CodecKind)],
    adopted: Option<TcpStream>,
    wake_rx: &TcpStream,
    options: &ReactorOptions,
) -> io::Result<ReactorSummary> {
    let mut summary = ReactorSummary::default();
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_conn_id: u64 = 0;
    if let Some(stream) = adopted {
        stream.set_nonblocking(true)?;
        let mut conn = Conn::new(stream, CodecKind::Ndjson, options.limits);
        conn.paced = true;
        summary.connections += 1;
        conns.insert(next_conn_id, conn);
        next_conn_id += 1;
    }
    // Outstanding request tokens, scanned for deadline expiry.
    let mut outstanding: Vec<Arc<RequestToken>> = Vec::new();
    let mut stopping = false;

    loop {
        // ---- wait for readiness ------------------------------------------
        let mut ids: Vec<u64> = conns.keys().copied().collect();
        ids.sort_unstable();
        let sources: Vec<(&TcpStream, bool, bool)> = std::iter::once((wake_rx, true, false))
            .chain(ids.iter().map(|id| {
                let c = &conns[id];
                let want_read = !(c.read_closed
                    || c.close_after_flush
                    || stopping
                    || c.decode_gated(options.max_queue));
                (&c.stream, want_read, !c.write_buf.is_empty())
            }))
            .collect();
        let listener_refs: Vec<&TcpListener> = if stopping {
            Vec::new()
        } else {
            listeners.iter().map(|(l, _)| l).collect()
        };
        let timeout = poll_timeout(&outstanding, &conns, options);
        let (ready, accept_ready) = wait_ready(&sources, &listener_refs, timeout)?;

        // ---- drain the wake pipe -----------------------------------------
        if ready[0].readable {
            let mut scratch = [0u8; 256];
            loop {
                match (&*wake_rx).read(&mut scratch) {
                    Ok(0) => break,
                    Ok(_) => continue,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => break,
                }
            }
        }

        // ---- apply completions -------------------------------------------
        let completions: Vec<Completion> = {
            let mut pending = shared.completions.lock().expect("completions poisoned");
            std::mem::take(&mut *pending)
        };
        for completion in completions {
            let token = &completion.token;
            let Some(conn) = conns.get_mut(&token.conn_id) else {
                continue; // connection died; drop the frame
            };
            let finished = match &completion.frame {
                Frame::Response(payload) => {
                    conn.codec.encode_response(payload, &mut conn.write_buf);
                    if payload.get("error").is_some() {
                        summary.errors += 1;
                    }
                    true
                }
                Frame::StreamBegin => {
                    conn.codec.encode_stream_begin(&mut conn.write_buf);
                    false
                }
                Frame::StreamItem(payload) => {
                    conn.codec.encode_stream_item(payload, &mut conn.write_buf);
                    false
                }
                Frame::StreamEnd(payload) => {
                    conn.codec.encode_stream_end(payload, &mut conn.write_buf);
                    if payload.get("error").is_some() {
                        summary.errors += 1;
                    }
                    true
                }
            };
            if finished {
                conn.inflight = conn.inflight.saturating_sub(1);
                conn.awaiting_response = false;
                if conn.codec.close_after_response() {
                    conn.close_after_flush = true;
                }
            }
        }
        outstanding.retain(|t| !t.answered.load(Ordering::Acquire));

        // ---- deadline scan ------------------------------------------------
        let now = Instant::now();
        let mut expired: Vec<Arc<RequestToken>> = Vec::new();
        outstanding.retain(|t| {
            if t.expired(now) && t.try_answer() {
                expired.push(Arc::clone(t));
                false
            } else {
                true
            }
        });
        for token in expired {
            summary.deadlines += 1;
            shared.service.metrics().counter("serve.deadlines").incr();
            observe_latency(&shared.service, &token);
            if let Some(conn) = conns.get_mut(&token.conn_id) {
                let timeout = ("timeout_ms", token.timeout_ms);
                let payload = refusal("deadline", timeout, token.id.as_ref());
                conn.codec.encode_response(&payload, &mut conn.write_buf);
                summary.errors += 1;
                conn.inflight = conn.inflight.saturating_sub(1);
                conn.awaiting_response = false;
            }
        }

        // ---- resume gated pipelines ---------------------------------------
        // A keep-alive client (or the paced stdio session) may have
        // pipelined requests behind the ones just answered; those bytes are
        // already in `read_buf` and no further readable event will announce
        // them, so decode them now that the gate may have opened.
        if !stopping {
            let buffered: Vec<u64> = conns
                .iter()
                .filter(|(_, c)| !c.read_buf.is_empty())
                .map(|(id, _)| *id)
                .collect();
            for id in buffered {
                let conn = conns.get_mut(&id).expect("conn present");
                decode_conn(
                    shared,
                    jobs,
                    conn,
                    id,
                    &mut summary,
                    &mut outstanding,
                    &mut stopping,
                    options,
                );
            }
        }

        // ---- accept -------------------------------------------------------
        for (i, ready_flag) in accept_ready.iter().enumerate() {
            if !ready_flag {
                continue;
            }
            let (listener, kind) = &listeners[i];
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        // Small responses; write them as one segment.
                        let _ = stream.set_nodelay(true);
                        summary.connections += 1;
                        let id = next_conn_id;
                        next_conn_id += 1;
                        conns.insert(id, Conn::new(stream, *kind, options.limits));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        summary.conn_errors += 1;
                        rel_obs::counter!("serve.conn_errors").incr();
                        break;
                    }
                }
            }
        }

        // ---- read + decode ------------------------------------------------
        let mut to_close: Vec<(u64, bool)> = Vec::new(); // (conn, is_error)
        for (slot, id) in ids.iter().enumerate() {
            let readiness = ready[slot + 1];
            let Some(conn) = conns.get_mut(id) else {
                continue;
            };
            if readiness.hangup && conn.write_buf.is_empty() {
                // Not counted here: any job the dead client still has queued
                // is counted (once) by the dequeue-time check in the worker.
                to_close.push((*id, false));
                continue;
            }
            if !readiness.readable || stopping || conn.read_closed {
                continue;
            }
            if conn.decode_gated(options.max_queue) {
                continue;
            }
            let mut scratch = [0u8; 16 * 1024];
            let mut saw_eof = false;
            loop {
                match conn.stream.read(&mut scratch) {
                    Ok(0) => {
                        saw_eof = true;
                        break;
                    }
                    Ok(n) => {
                        conn.read_buf.extend_from_slice(&scratch[..n]);
                        conn.last_activity = Instant::now();
                        if n < scratch.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        to_close.push((*id, false));
                        saw_eof = true;
                        break;
                    }
                }
            }
            // Decode everything decodable before honoring EOF: a client may
            // send a request and immediately shut down its write side.
            decode_conn(
                shared,
                jobs,
                conn,
                *id,
                &mut summary,
                &mut outstanding,
                &mut stopping,
                options,
            );
            // EOF is a half-close: stop polling the read side (a readable
            // EOF would wake every poll) and keep the conn until its pending
            // responses are flushed.
            conn.read_closed |= saw_eof;
        }

        // ---- flush --------------------------------------------------------
        let flush_ids: Vec<u64> = conns.keys().copied().collect();
        for id in flush_ids {
            let conn = conns.get_mut(&id).expect("conn present");
            match conn.flush() {
                Ok(true) if conn.done() => to_close.push((id, false)),
                Ok(_) => {}
                Err(_) => {
                    // A computed response could not be delivered: that is a
                    // connection error in its own right (queued jobs, if
                    // any, are additionally counted at dequeue).
                    to_close.push((id, true));
                }
            }
        }

        // ---- close --------------------------------------------------------
        for (id, is_error) in to_close {
            if let Some(conn) = conns.remove(&id) {
                conn.closed.store(true, Ordering::Release);
                if is_error {
                    summary.conn_errors += 1;
                    rel_obs::counter!("serve.conn_errors").incr();
                }
            }
        }

        // ---- idle reaping -------------------------------------------------
        if let Some(idle) = options.idle_timeout {
            let now = Instant::now();
            let idle_ids: Vec<u64> = conns
                .iter()
                .filter(|(_, c)| c.settled() && now.duration_since(c.last_activity) >= idle)
                .map(|(id, _)| *id)
                .collect();
            for id in idle_ids {
                if let Some(conn) = conns.remove(&id) {
                    conn.closed.store(true, Ordering::Release);
                    summary.idle_disconnects += 1;
                    rel_obs::counter!("serve.idle_disconnects").incr();
                }
            }
        }

        // ---- shutdown -----------------------------------------------------
        if stopping && conns.values().all(Conn::settled) {
            summary.shutdown = true;
            for conn in conns.values() {
                conn.closed.store(true, Ordering::Release);
            }
            return Ok(summary);
        }
        // Nothing can connect to a run without listeners: it is over once
        // its last connection has closed.
        if listeners.is_empty() && conns.is_empty() {
            return Ok(summary);
        }
    }
}

/// Records one finished request on the service's latency histograms — the
/// all-plane `serve.request_ns` plus the per-codec
/// `serve.request_ns.{ndjson,http}` series the load harness reads back.
fn observe_latency(service: &Service, token: &RequestToken) {
    let elapsed = token.enqueued.elapsed();
    let metrics = service.metrics();
    metrics.histogram("serve.request_ns").observe(elapsed);
    metrics
        .histogram(&format!("serve.request_ns.{}", token.codec.label()))
        .observe(elapsed);
}

/// Decodes every complete request currently buffered on `conn`.
#[allow(clippy::too_many_arguments)]
fn decode_conn(
    shared: &Shared,
    jobs: &SyncSender<Job>,
    conn: &mut Conn,
    conn_id: u64,
    summary: &mut ReactorSummary,
    outstanding: &mut Vec<Arc<RequestToken>>,
    stopping: &mut bool,
    options: &ReactorOptions,
) {
    loop {
        if conn.decode_gated(options.max_queue) || conn.close_after_flush {
            return;
        }
        match conn.codec.decode(&mut conn.read_buf) {
            Decode::Incomplete => return,
            Decode::Fatal { response, .. } => {
                summary.requests += 1;
                summary.errors += 1;
                shared.service.metrics().counter("serve.requests").incr();
                shared.service.metrics().counter("serve.errors").incr();
                conn.write_buf.extend_from_slice(&response);
                conn.close_after_flush = true;
                return;
            }
            Decode::Request(request) => {
                summary.requests += 1;
                shared.service.metrics().counter("serve.requests").incr();
                let value = match request.payload {
                    Err(message) => {
                        summary.errors += 1;
                        shared.service.metrics().counter("serve.errors").incr();
                        let payload = Value::obj([("error", Value::Str(message))]);
                        conn.codec.encode_response(&payload, &mut conn.write_buf);
                        if conn.codec.close_after_response() {
                            conn.close_after_flush = true;
                        }
                        continue;
                    }
                    Ok(value) => value,
                };
                if matches!(value.get("shutdown"), Some(Value::Bool(true))) {
                    let payload = Value::obj([("bye", Value::Bool(true))]);
                    conn.codec.encode_response(&payload, &mut conn.write_buf);
                    conn.close_after_flush = true;
                    *stopping = true;
                    return;
                }
                let id = value.get("id").cloned();
                let streaming = value.get("batch").is_some()
                    && matches!(value.get("stream"), Some(Value::Bool(true)));
                let token = Arc::new(RequestToken {
                    conn_id,
                    codec: conn.codec.kind(),
                    conn_closed: Arc::clone(&conn.closed),
                    answered: AtomicBool::new(false),
                    enqueued: Instant::now(),
                    deadline: options.request_timeout.map(|t| Instant::now() + t),
                    id,
                    timeout_ms: options
                        .request_timeout
                        .map_or(0, |t| t.as_millis().min(u64::MAX as u128) as u64),
                });
                let job = Job {
                    token: Arc::clone(&token),
                    request: value,
                    streaming,
                };
                match jobs.try_send(job) {
                    Ok(()) => {
                        conn.inflight += 1;
                        outstanding.push(token);
                        if conn.codec.half_duplex() {
                            conn.awaiting_response = true;
                        }
                    }
                    Err(TrySendError::Full(job) | TrySendError::Disconnected(job)) => {
                        // Bounded queue refusal → explicit backpressure
                        // response, queued work untouched.
                        summary.backpressure += 1;
                        summary.errors += 1;
                        shared
                            .service
                            .metrics()
                            .counter("serve.backpressure")
                            .incr();
                        shared.service.metrics().counter("serve.errors").incr();
                        let bound = ("max_queue", options.max_queue as u64);
                        let payload = refusal("backpressure", bound, job.token.id.as_ref());
                        conn.codec.encode_response(&payload, &mut conn.write_buf);
                        if conn.codec.close_after_response() {
                            conn.close_after_flush = true;
                        }
                    }
                }
            }
        }
    }
}

/// Next poll timeout: the nearest pending deadline or idle expiry, clamped
/// to [1ms, TICK].
fn poll_timeout(
    outstanding: &[Arc<RequestToken>],
    conns: &HashMap<u64, Conn>,
    options: &ReactorOptions,
) -> Duration {
    let now = Instant::now();
    let mut timeout = TICK;
    for token in outstanding {
        if let Some(deadline) = token.deadline {
            timeout = timeout.min(deadline.saturating_duration_since(now));
        }
    }
    if let Some(idle) = options.idle_timeout {
        for conn in conns.values() {
            let expires = conn.last_activity + idle;
            timeout = timeout.min(expires.saturating_duration_since(now));
        }
    }
    timeout.max(Duration::from_millis(1))
}

#[cfg(test)]
mod syscall_tests {
    use super::*;

    /// Regression: a saturated wake pipe must not park the worker calling
    /// `wake` (the old blocking write could deadlock: worker parked holding
    /// the waker mutex, reactor asleep in poll).  WouldBlock is success —
    /// the unread bytes already guarantee the next poll wakes.
    #[test]
    fn wake_never_blocks_on_a_saturated_pipe() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut tx = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (rx, _) = listener.accept().unwrap();
        rx.set_nonblocking(true).unwrap();
        tx.set_nonblocking(true).unwrap();
        // Saturate: nobody drains rx, so the send buffer eventually refuses.
        let chunk = [1u8; 64 * 1024];
        loop {
            match tx.write(&chunk) {
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => panic!("unexpected write error: {e}"),
            }
        }
        // Must return promptly instead of parking.
        wake(&mut tx);
        wake(&mut tx);
        // And the wakeup is not lost: the read side reports pending bytes.
        let mut scratch = [0u8; 16];
        assert!(matches!((&rx).read(&mut scratch), Ok(n) if n > 0));
    }

    /// The pair helper takes only its own connection: a stranger that
    /// reaches the ephemeral port first is turned away.
    #[test]
    fn accept_from_skips_strangers() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stranger = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let ours = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let accepted = accept_from(&listener, ours.local_addr().unwrap()).unwrap();
        assert_eq!(accepted.peer_addr().unwrap(), ours.local_addr().unwrap());
        // The stranger's accepted end was dropped: it reads EOF (or a reset).
        let mut scratch = [0u8; 1];
        assert!(!matches!((&stranger).read(&mut scratch), Ok(n) if n > 0));
        let (near, far) = loopback_pair().unwrap();
        assert_eq!(far.peer_addr().unwrap(), near.local_addr().unwrap());
    }

    /// Regression: `sys::wait` must retry `poll(2)` after a signal instead
    /// of surfacing `EINTR` (which would tear down the whole serving plane).
    /// `poll` is never restarted by the kernel even under `SA_RESTART`
    /// (signal(7)), so a signal aimed at the polling thread reliably
    /// exercises the retry path: the observed sleep is the interrupted
    /// portion plus one full retried timeout — longer than the timeout
    /// itself, which a non-retrying implementation could never produce.
    #[cfg(target_os = "linux")]
    #[test]
    fn poll_wait_retries_after_eintr() {
        use std::os::raw::c_int;
        extern "C" {
            fn signal(signum: c_int, handler: usize) -> usize;
            fn pthread_self() -> usize;
            fn pthread_kill(thread: usize, sig: c_int) -> c_int;
        }
        extern "C" fn noop(_sig: c_int) {}
        const SIGUSR1: c_int = 10;
        unsafe { signal(SIGUSR1, noop as *const () as usize) };

        let target = unsafe { pthread_self() };
        let killer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(150));
            assert_eq!(unsafe { pthread_kill(target, SIGUSR1) }, 0);
        });

        let started = Instant::now();
        let mut fds: Vec<sys::PollFd> = Vec::new();
        let result = sys::wait(&mut fds, 400);
        let elapsed = started.elapsed();
        killer.join().unwrap();

        assert!(result.is_ok(), "EINTR leaked out of sys::wait: {result:?}");
        assert_eq!(result.unwrap(), 0, "nothing was ready");
        // ~150ms interrupted + 400ms retried ≥ 500ms; without the retry the
        // call returns at 400ms (or errors at 150ms).
        assert!(
            elapsed >= Duration::from_millis(500),
            "poll was not retried after the signal (elapsed {elapsed:?})"
        );
    }
}
