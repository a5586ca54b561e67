//! `rel-replica` — verdict replication between daemons (DESIGN.md §11).
//!
//! Each daemon ships its WAL frames to configured peers, and applies
//! inbound frames through the *same* validation path recovery uses
//! ([`rel_persist::validate_frame`]): per-frame checksum plus
//! engine-fingerprint check, so a mismatched or corrupt peer can never
//! fabricate a verdict — only be counted and dropped.  Soundness rests on
//! the bidirectional checker's determinism: a verdict is a pure function of
//! the query and the engine fingerprint, so replication is set union, and
//! applying a peer's frame is exactly as sound as replaying one's own log.
//!
//! ## Roles
//!
//! * **Outbound** (`ReplicaHub`): one supervised session per configured
//!   peer.  The store observers publish every freshly encoded WAL frame to
//!   a bounded per-peer queue (never blocking the client path); each
//!   session thread drains its queue, ships frames over a [`Transport`]
//!   wire, and reconnects with capped exponential backoff + jitter on any
//!   failure.  Queue overflow degrades to *anti-entropy*: the queue is
//!   cleared, the session notices the lag flag and re-syncs from the
//!   recent-frame ring — or, beyond the ring, by a full snapshot transfer:
//!   the compacted image of the sender's state, the same bytes a local
//!   compaction writes, validated frame by frame and applied only whole.
//! * **Inbound** (`ReplicaSink`): per-source positions and counters.  The
//!   daemon applies a frame only if it validates; fresh verdicts re-enter
//!   the local store (and therefore the local WAL and the local outbound
//!   sessions), which is what makes chains `A → B → C` converge without a
//!   full mesh.  Already-present entries are counted as duplicates and do
//!   not re-ship, so replication traffic terminates.
//!
//! ## Protocol
//!
//! One JSON object per line, request/response in lockstep (the replica
//! plane is half-duplex, like the HTTP plane):
//!
//! ```text
//! → {"replica":"hello","v":1,"node":"<token>","fp":"<16-hex>"}
//! ← {"replica":"state","applied":N,"fp":"<16-hex>"}
//! → {"replica":"frame","node":"<token>","seq":N,"data":"<hex frame>"}
//! ← {"replica":"ack","applied":N}
//! → {"replica":"snapshot","node":"<token>","seq":N,"data":"<hex image>"}
//! ← {"replica":"ack","applied":N}
//! ```
//!
//! `node` is a session-unique token: positions are meaningful only within
//! one sender session, so a restarted sender presents a fresh token, reads
//! `applied: 0` back, and heals the gap with a snapshot transfer.  `applied`
//! in an ack is the receiver's *contiguous* position — an ack below the
//! shipped sequence is a rewind request (frames were lost to a drop fault
//! or an overflow on the way), and the sender re-sends from there.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use rel_obs::Backoff;

use crate::faultnet::{Transport, Wire};
use crate::json::{self, Value};

/// Replication protocol version (in every hello).
pub const REPLICA_PROTOCOL_VERSION: i64 = 1;

/// The error marker a receiver answers when the sender's engine
/// fingerprint is foreign: the sender parks the session as incompatible
/// instead of retrying hot.
pub const FINGERPRINT_MISMATCH: &str = "replica-fingerprint-mismatch";

/// Idle inbox waits between wire heartbeats (each wait is 200 ms, so a
/// session probes a quiet peer roughly once a second).  The heartbeat is a
/// re-sent hello: it detects a silently dead connection without waiting for
/// the next store, and its `state` reply exposes a peer that restarted
/// empty (position rewound) so anti-entropy can heal it immediately.
const HEARTBEAT_IDLE_TICKS: u64 = 5;

/// Configuration of the outbound replication plane.
#[derive(Debug, Clone)]
pub struct ReplicaOptions {
    /// Peer addresses (transport-specific: `host:port` under TCP, endpoint
    /// names under the in-memory `SimNet`).
    pub peers: Vec<String>,
    /// Per-peer replication queue bound.  Overflow clears the queue and
    /// degrades that peer to anti-entropy catch-up — client requests are
    /// never delayed by a slow peer.
    pub queue: usize,
    /// Recent-frame ring capacity: how far behind a peer may fall and still
    /// catch up by suffix instead of full snapshot transfer.
    pub ring: usize,
    /// Backoff base delay after the first failure (milliseconds).
    pub backoff_base_ms: u64,
    /// Backoff ceiling (milliseconds).
    pub backoff_cap_ms: u64,
    /// Session-unique node token; `None` generates one.
    pub node: Option<String>,
}

impl Default for ReplicaOptions {
    fn default() -> ReplicaOptions {
        ReplicaOptions {
            peers: Vec::new(),
            queue: 1024,
            ring: 4096,
            backoff_base_ms: 100,
            backoff_cap_ms: 15_000,
            node: None,
        }
    }
}

/// Lowercase hex of `bytes`.
pub(crate) fn to_hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push(char::from_digit((b >> 4) as u32, 16).expect("nibble"));
        out.push(char::from_digit((b & 0xf) as u32, 16).expect("nibble"));
    }
    out
}

/// Decodes lowercase/uppercase hex; `None` on odd length or a bad digit.
pub(crate) fn from_hex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let digits: Vec<u32> = s.chars().map(|c| c.to_digit(16)).collect::<Option<_>>()?;
    Some(
        digits
            .chunks_exact(2)
            .map(|p| ((p[0] << 4) | p[1]) as u8)
            .collect(),
    )
}

/// A session-unique node token: fingerprint + pid + wall-clock nanos, so
/// two daemons — or two runs of one daemon — never collide.
pub(crate) fn generate_node_token(fingerprint: u64) -> String {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    format!("{fingerprint:016x}-{}-{nanos:x}", std::process::id())
}

// ---------------------------------------------------------------------------
// Inbound: per-source positions + counters
// ---------------------------------------------------------------------------

/// Where one inbound frame landed positionally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SeqClass {
    /// At or below the contiguous position: already covered.
    Duplicate,
    /// Above it: fresh (possibly out of order).
    Fresh,
}

#[derive(Debug, Default)]
struct SourceState {
    /// Highest contiguous sequence applied from this source.
    applied: u64,
    /// Sequences applied above the contiguous position (reordered
    /// arrivals), drained as the gap fills.
    pending: BTreeSet<u64>,
}

impl SourceState {
    fn observe(&mut self, seq: u64) -> SeqClass {
        if seq <= self.applied {
            return SeqClass::Duplicate;
        }
        self.pending.insert(seq);
        while self.pending.remove(&(self.applied + 1)) {
            self.applied += 1;
        }
        SeqClass::Fresh
    }

    /// A snapshot transfer covers everything through `seq`.
    fn jump_to(&mut self, seq: u64) {
        if seq > self.applied {
            self.applied = seq;
        }
        self.pending.retain(|s| *s > self.applied);
        while self.pending.remove(&(self.applied + 1)) {
            self.applied += 1;
        }
    }
}

/// The inbound side of replication: positions per source node and the
/// counters `{"replica":"status"}` reports.  Validation and application of
/// record *content* happen in the service (it owns the caches); the sink
/// owns everything positional.
#[derive(Debug, Default)]
pub(crate) struct ReplicaSink {
    sources: Mutex<HashMap<String, SourceState>>,
    pub(crate) frames_applied: AtomicU64,
    pub(crate) frames_duplicate: AtomicU64,
    pub(crate) frames_rejected: AtomicU64,
    pub(crate) snapshots_applied: AtomicU64,
    pub(crate) hellos: AtomicU64,
    pub(crate) hellos_rejected: AtomicU64,
}

impl ReplicaSink {
    /// Registers a hello from `node` and returns its applied position.
    pub(crate) fn hello(&self, node: &str) -> u64 {
        self.hellos.fetch_add(1, Ordering::Relaxed);
        self.sources
            .lock()
            .expect("replica sink poisoned")
            .entry(node.to_string())
            .or_default()
            .applied
    }

    /// Classifies `seq` from `node` and advances the contiguous position.
    /// Returns the class and the position after the observation.
    pub(crate) fn observe(&self, node: &str, seq: u64) -> (SeqClass, u64) {
        let mut sources = self.sources.lock().expect("replica sink poisoned");
        let state = sources.entry(node.to_string()).or_default();
        let class = state.observe(seq);
        (class, state.applied)
    }

    /// Marks everything through `seq` covered (snapshot transfer) and
    /// returns the position after the jump.
    pub(crate) fn jump_to(&self, node: &str, seq: u64) -> u64 {
        let mut sources = self.sources.lock().expect("replica sink poisoned");
        let state = sources.entry(node.to_string()).or_default();
        state.jump_to(seq);
        state.applied
    }

    /// Number of distinct source nodes seen.
    pub(crate) fn source_count(&self) -> u64 {
        self.sources.lock().expect("replica sink poisoned").len() as u64
    }
}

// ---------------------------------------------------------------------------
// Outbound: hub, peer state, supervised sessions
// ---------------------------------------------------------------------------

/// What a peer session is currently doing (surfaced in
/// `{"replica":"status"}` and the chaos assertions).
const STATE_CONNECTING: &str = "connecting";
const STATE_CATCH_UP: &str = "catch-up";
const STATE_STREAMING: &str = "streaming";
const STATE_BACKOFF: &str = "backoff";
const STATE_INCOMPATIBLE: &str = "incompatible";
const STATE_STOPPED: &str = "stopped";

#[derive(Debug, Default)]
struct Inbox {
    queue: VecDeque<(u64, Arc<Vec<u8>>)>,
    /// Set when overflow cleared the queue: the session must re-sync from
    /// the ring or a snapshot before streaming on.
    lagging: bool,
}

#[derive(Debug)]
struct PeerState {
    addr: String,
    inbox: Mutex<Inbox>,
    wake: Condvar,
    shipped: AtomicU64,
    acked: AtomicU64,
    reconnects: AtomicU64,
    snapshots_sent: AtomicU64,
    queue_dropped: AtomicU64,
    incompatible: AtomicU64,
    connected: AtomicBool,
    /// Whether this session has ever completed a handshake: health treats
    /// a never-connected peer as *booting*, not down, until its connect
    /// attempts exhaust the grace budget.
    ever_connected: AtomicBool,
    backoff_ms: AtomicU64,
    state: Mutex<&'static str>,
}

impl PeerState {
    fn new(addr: String) -> PeerState {
        PeerState {
            addr,
            inbox: Mutex::new(Inbox::default()),
            wake: Condvar::new(),
            shipped: AtomicU64::new(0),
            acked: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
            snapshots_sent: AtomicU64::new(0),
            queue_dropped: AtomicU64::new(0),
            incompatible: AtomicU64::new(0),
            connected: AtomicBool::new(false),
            ever_connected: AtomicBool::new(false),
            backoff_ms: AtomicU64::new(0),
            state: Mutex::new(STATE_CONNECTING),
        }
    }

    fn set_state(&self, s: &'static str) {
        *self.state.lock().expect("peer state poisoned") = s;
    }
}

/// One peer's row in [`ReplicaStatus`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerStatus {
    /// The configured address.
    pub addr: String,
    /// Session state: `connecting`, `catch-up`, `streaming`, `backoff`,
    /// `incompatible`, or `stopped`.
    pub state: String,
    /// Whether the session currently holds a live connection.
    pub connected: bool,
    /// Whether the session has ever completed a handshake this run.
    pub ever_connected: bool,
    /// Frames shipped over this session (re-sends included).
    pub shipped: u64,
    /// The peer's last acknowledged contiguous position.
    pub acked: u64,
    /// Frames published but not yet acknowledged by this peer.
    pub lag: u64,
    /// Reconnect attempts made.
    pub reconnects: u64,
    /// Full snapshot transfers sent (anti-entropy beyond the ring).
    pub snapshots_sent: u64,
    /// Frames dropped by queue overflow (each drop degrades to catch-up).
    pub queue_dropped: u64,
    /// Handshakes rejected for an engine-fingerprint mismatch.
    pub incompatible: u64,
    /// The current backoff delay, 0 when not backing off.
    pub backoff_ms: u64,
}

/// Inbound counters in [`ReplicaStatus`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InboundStatus {
    /// Distinct source nodes that have said hello.
    pub sources: u64,
    /// Hellos answered.
    pub hellos: u64,
    /// Hellos refused for an engine-fingerprint mismatch.  Counted apart
    /// from `frames_rejected`, which is reserved for frame validation
    /// failures: a mid-upgrade peer's handshake must never read as frame
    /// corruption.
    pub hellos_rejected: u64,
    /// Frames validated and applied.
    pub frames_applied: u64,
    /// Frames that were positional or content duplicates (dropped, sound).
    pub frames_duplicate: u64,
    /// Frames rejected by checksum/fingerprint/decode — counted, never
    /// applied.
    pub frames_rejected: u64,
    /// Snapshot transfers validated and applied.
    pub snapshots_applied: u64,
}

/// A point-in-time view of the whole replication plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaStatus {
    /// This daemon's session token.
    pub node: String,
    /// Frames published to the outbound plane this session.
    pub published: u64,
    /// One row per configured peer.
    pub peers: Vec<PeerStatus>,
    /// Inbound counters.
    pub inbound: InboundStatus,
}

/// Produces the compacted image of the current state (the bytes a
/// compaction writes) for anti-entropy transfer.  Provided by the service
/// (it owns the caches).
pub(crate) type SnapshotSource = Arc<dyn Fn() -> Vec<u8> + Send + Sync>;

/// The outbound replication plane: the published-frame ring, one supervised
/// session per peer, and the shutdown latch.
pub(crate) struct ReplicaHub {
    node: String,
    transport: Arc<dyn Transport>,
    options: ReplicaOptions,
    snapshot_source: SnapshotSource,
    /// Frames published this session (sequence numbers start at 1).
    seq: AtomicU64,
    ring: Mutex<VecDeque<(u64, Arc<Vec<u8>>)>>,
    peers: Vec<Arc<PeerState>>,
    shutdown: AtomicBool,
    /// Interruptible sleep for backoff waits: signaled on shutdown.
    gate: Mutex<()>,
    gate_cv: Condvar,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for ReplicaHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaHub")
            .field("node", &self.node)
            .field("peers", &self.peers.len())
            .field("seq", &self.seq.load(Ordering::Relaxed))
            .finish()
    }
}

impl ReplicaHub {
    /// Builds the hub and spawns one supervised session thread per peer.
    pub(crate) fn start(
        fingerprint: u64,
        transport: Arc<dyn Transport>,
        options: ReplicaOptions,
        snapshot_source: SnapshotSource,
    ) -> Arc<ReplicaHub> {
        let node = options
            .node
            .clone()
            .unwrap_or_else(|| generate_node_token(fingerprint));
        let peers: Vec<Arc<PeerState>> = options
            .peers
            .iter()
            .map(|a| Arc::new(PeerState::new(a.clone())))
            .collect();
        let hub = Arc::new(ReplicaHub {
            node,
            transport,
            options,
            snapshot_source,
            seq: AtomicU64::new(0),
            ring: Mutex::new(VecDeque::new()),
            peers,
            shutdown: AtomicBool::new(false),
            gate: Mutex::new(()),
            gate_cv: Condvar::new(),
            threads: Mutex::new(Vec::new()),
        });
        let mut threads = hub.threads.lock().expect("hub threads poisoned");
        for (i, peer) in hub.peers.iter().enumerate() {
            let hub = Arc::clone(&hub);
            let peer = Arc::clone(peer);
            let fp = fingerprint;
            threads.push(
                std::thread::Builder::new()
                    .name(format!("replica-peer-{i}"))
                    .spawn(move || run_session(&hub, &peer, fp))
                    .expect("spawn replica session"),
            );
        }
        drop(threads);
        hub
    }

    /// This daemon's session token.
    pub(crate) fn node(&self) -> &str {
        &self.node
    }

    /// Publishes one encoded WAL frame to every peer queue.  Never blocks
    /// on I/O: overflow clears the slow peer's queue and flags it lagging.
    ///
    /// Sequence assignment and ring/inbox insertion happen as one unit
    /// under the ring lock: concurrent store observers (the reactor worker
    /// pool serves checks in parallel) would otherwise interleave between
    /// the two and land frames out of sequence order — and catch-up ships
    /// the ring in ring order, treating an ack below the shipped sequence
    /// as a protocol anomaly, so one inverted pair would put the peer
    /// session into a reconnect loop until the pair fell off the ring.
    pub(crate) fn publish(&self, frame: Vec<u8>) {
        let frame = Arc::new(frame);
        let mut ring = self.ring.lock().expect("replica ring poisoned");
        let seq = self.seq.fetch_add(1, Ordering::SeqCst) + 1;
        ring.push_back((seq, Arc::clone(&frame)));
        while ring.len() > self.options.ring {
            ring.pop_front();
        }
        for peer in &self.peers {
            let mut inbox = peer.inbox.lock().expect("peer inbox poisoned");
            if inbox.queue.len() >= self.options.queue {
                peer.queue_dropped
                    .fetch_add(inbox.queue.len() as u64, Ordering::Relaxed);
                inbox.queue.clear();
                inbox.lagging = true;
            }
            inbox.queue.push_back((seq, Arc::clone(&frame)));
            drop(inbox);
            peer.wake.notify_one();
        }
    }

    /// Frames published this session.
    pub(crate) fn published(&self) -> u64 {
        self.seq.load(Ordering::SeqCst)
    }

    /// The ring suffix after position `applied`, or `None` when the ring no
    /// longer reaches back that far (snapshot transfer required).
    fn ring_suffix(&self, applied: u64) -> Option<Vec<(u64, Arc<Vec<u8>>)>> {
        let ring = self.ring.lock().expect("replica ring poisoned");
        let floor = match ring.front() {
            Some((s, _)) => *s,
            None => return Some(Vec::new()),
        };
        if applied + 1 < floor {
            return None;
        }
        Some(
            ring.iter()
                .filter(|(s, _)| *s > applied)
                .map(|(s, f)| (*s, Arc::clone(f)))
                .collect(),
        )
    }

    /// Signals every session to stop and joins them.
    pub(crate) fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for peer in &self.peers {
            peer.wake.notify_all();
        }
        self.gate_cv.notify_all();
        let mut threads = self.threads.lock().expect("hub threads poisoned");
        for t in threads.drain(..) {
            let _ = t.join();
        }
        for peer in &self.peers {
            peer.set_state(STATE_STOPPED);
            peer.connected.store(false, Ordering::Relaxed);
        }
    }

    /// Sleeps up to `ms`, returning early (true) on shutdown.
    fn wait_shutdown(&self, ms: u64) -> bool {
        let gate = self.gate.lock().expect("hub gate poisoned");
        if self.shutdown.load(Ordering::SeqCst) {
            return true;
        }
        let (_gate, _timeout) = self
            .gate_cv
            .wait_timeout(gate, Duration::from_millis(ms))
            .expect("hub gate poisoned");
        self.shutdown.load(Ordering::SeqCst)
    }

    /// One status row per peer.
    pub(crate) fn peer_status(&self) -> Vec<PeerStatus> {
        let published = self.published();
        self.peers
            .iter()
            .map(|p| {
                let acked = p.acked.load(Ordering::Relaxed);
                PeerStatus {
                    addr: p.addr.clone(),
                    state: p.state.lock().expect("peer state poisoned").to_string(),
                    connected: p.connected.load(Ordering::Relaxed),
                    ever_connected: p.ever_connected.load(Ordering::Relaxed),
                    shipped: p.shipped.load(Ordering::Relaxed),
                    acked,
                    lag: published.saturating_sub(acked),
                    reconnects: p.reconnects.load(Ordering::Relaxed),
                    snapshots_sent: p.snapshots_sent.load(Ordering::Relaxed),
                    queue_dropped: p.queue_dropped.load(Ordering::Relaxed),
                    incompatible: p.incompatible.load(Ordering::Relaxed),
                    backoff_ms: p.backoff_ms.load(Ordering::Relaxed),
                }
            })
            .collect()
    }
}

/// What the inbox wait produced.
enum InboxEvent {
    Frame(u64, Arc<Vec<u8>>),
    Lagging,
    Idle,
    Shutdown,
}

fn wait_inbox(hub: &ReplicaHub, peer: &PeerState, timeout: Duration) -> InboxEvent {
    let deadline = std::time::Instant::now() + timeout;
    let mut inbox = peer.inbox.lock().expect("peer inbox poisoned");
    loop {
        if hub.shutdown.load(Ordering::SeqCst) {
            return InboxEvent::Shutdown;
        }
        if inbox.lagging {
            inbox.lagging = false;
            inbox.queue.clear();
            return InboxEvent::Lagging;
        }
        if let Some((seq, frame)) = inbox.queue.pop_front() {
            return InboxEvent::Frame(seq, frame);
        }
        let now = std::time::Instant::now();
        if now >= deadline {
            return InboxEvent::Idle;
        }
        let (guard, _timeout) = peer
            .wake
            .wait_timeout(inbox, deadline - now)
            .expect("peer inbox poisoned");
        inbox = guard;
    }
}

/// A parsed response line from the peer.
enum Reply {
    State { applied: u64, fp: u64 },
    Ack { applied: u64 },
    Mismatch,
    Other(String),
}

fn parse_reply(line: &str) -> Reply {
    let Ok(v) = json::parse(line) else {
        return Reply::Other(format!("unparseable reply: {line}"));
    };
    if let Some(err) = v.get("error").and_then(Value::as_str) {
        if err == FINGERPRINT_MISMATCH {
            return Reply::Mismatch;
        }
        return Reply::Other(err.to_string());
    }
    match v.get("replica").and_then(Value::as_str) {
        Some("state") => {
            let applied = v.get("applied").and_then(Value::as_int).unwrap_or(0) as u64;
            let fp = v
                .get("fp")
                .and_then(Value::as_str)
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .unwrap_or(0);
            Reply::State { applied, fp }
        }
        Some("ack") => Reply::Ack {
            applied: v.get("applied").and_then(Value::as_int).unwrap_or(0) as u64,
        },
        _ => Reply::Other(format!("unexpected reply: {line}")),
    }
}

fn send_recv(wire: &mut Box<dyn Wire>, line: &str) -> io::Result<Reply> {
    wire.send(line)?;
    Ok(parse_reply(&wire.recv()?))
}

/// Ships one frame and folds the ack into `applied`.  `Ok(false)` means the
/// receiver is behind what we just sent (a gap on its side): the caller
/// should rewind to `applied` and re-send.
fn ship_frame(
    hub: &ReplicaHub,
    peer: &PeerState,
    wire: &mut Box<dyn Wire>,
    seq: u64,
    frame: &[u8],
    applied: &mut u64,
) -> io::Result<bool> {
    let msg = Value::obj([
        ("replica", Value::Str("frame".to_string())),
        ("node", Value::Str(hub.node.clone())),
        ("seq", Value::Int(seq as i64)),
        ("data", Value::Str(to_hex(frame))),
    ]);
    match send_recv(wire, &msg.to_string())? {
        Reply::Ack { applied: a } => {
            peer.shipped.fetch_add(1, Ordering::Relaxed);
            *applied = a.max(*applied);
            peer.acked.store(*applied, Ordering::Relaxed);
            Ok(a >= seq)
        }
        Reply::Mismatch => Err(io::Error::other(FINGERPRINT_MISMATCH)),
        Reply::State { .. } => Err(io::Error::other("unexpected state reply to frame")),
        Reply::Other(e) => Err(io::Error::other(e)),
    }
}

/// Brings the peer from `applied` up to the currently published position,
/// by ring suffix when it reaches, by full snapshot transfer otherwise.
fn catch_up(
    hub: &ReplicaHub,
    peer: &PeerState,
    wire: &mut Box<dyn Wire>,
    applied: &mut u64,
) -> io::Result<()> {
    peer.set_state(STATE_CATCH_UP);
    loop {
        let published = hub.published();
        if *applied >= published {
            return Ok(());
        }
        match hub.ring_suffix(*applied) {
            Some(frames) => {
                for (seq, frame) in frames {
                    if seq <= *applied {
                        continue;
                    }
                    if !ship_frame(hub, peer, wire, seq, &frame, applied)? {
                        // The receiver reported a position below this frame
                        // even after receiving it in order — protocol
                        // anomaly; reconnect rather than spin.
                        return Err(io::Error::other("peer position regressed in catch-up"));
                    }
                }
            }
            None => {
                // Beyond the ring: transfer the whole state.  Read the
                // position *before* capturing, so anything memoized during
                // the capture stays above the transferred position and is
                // streamed (or deduplicated) afterwards.
                let position = hub.published();
                let bytes = (hub.snapshot_source)();
                let msg = Value::obj([
                    ("replica", Value::Str("snapshot".to_string())),
                    ("node", Value::Str(hub.node.clone())),
                    ("seq", Value::Int(position as i64)),
                    ("data", Value::Str(to_hex(&bytes))),
                ]);
                match send_recv(wire, &msg.to_string())? {
                    Reply::Ack { applied: a } => {
                        peer.snapshots_sent.fetch_add(1, Ordering::Relaxed);
                        *applied = a.max(*applied);
                        peer.acked.store(*applied, Ordering::Relaxed);
                        if *applied < position {
                            return Err(io::Error::other("snapshot transfer not applied"));
                        }
                    }
                    Reply::Mismatch => return Err(io::Error::other(FINGERPRINT_MISMATCH)),
                    Reply::State { .. } | Reply::Other(_) => {
                        return Err(io::Error::other("unexpected reply to snapshot"));
                    }
                }
            }
        }
    }
}

/// The supervised per-peer session: connect → handshake → catch-up →
/// stream, restarting with capped exponential backoff + jitter on any
/// failure, parking at the cap on fingerprint incompatibility.
fn run_session(hub: &ReplicaHub, peer: &PeerState, fingerprint: u64) {
    let seed = {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        (hub.node.as_str(), peer.addr.as_str()).hash(&mut h);
        h.finish()
    };
    let mut backoff = Backoff::new(
        hub.options.backoff_base_ms,
        hub.options.backoff_cap_ms,
        seed,
    );
    'supervise: while !hub.shutdown.load(Ordering::SeqCst) {
        peer.set_state(STATE_CONNECTING);
        peer.connected.store(false, Ordering::Relaxed);
        let mut wire = match hub.transport.connect(&peer.addr) {
            Ok(wire) => wire,
            Err(_) => {
                peer.reconnects.fetch_add(1, Ordering::Relaxed);
                let delay = backoff.next_delay_ms();
                peer.backoff_ms.store(delay, Ordering::Relaxed);
                peer.set_state(STATE_BACKOFF);
                if hub.wait_shutdown(delay) {
                    break;
                }
                continue;
            }
        };

        // Handshake: present our token, learn the peer's position.
        let hello = Value::obj([
            ("replica", Value::Str("hello".to_string())),
            ("v", Value::Int(REPLICA_PROTOCOL_VERSION)),
            ("node", Value::Str(hub.node.clone())),
            ("fp", Value::Str(format!("{fingerprint:016x}"))),
        ]);
        let mut applied = match send_recv(&mut wire, &hello.to_string()) {
            Ok(Reply::State { applied, fp }) if fp == fingerprint => applied,
            Ok(Reply::State { .. }) | Ok(Reply::Mismatch) => {
                // A foreign engine: its verdicts would never validate here
                // and ours never there.  Park at the cap instead of
                // hammering — the peer may be mid-upgrade.
                peer.incompatible.fetch_add(1, Ordering::Relaxed);
                peer.set_state(STATE_INCOMPATIBLE);
                peer.backoff_ms
                    .store(hub.options.backoff_cap_ms, Ordering::Relaxed);
                if hub.wait_shutdown(hub.options.backoff_cap_ms) {
                    break;
                }
                continue;
            }
            Ok(_) | Err(_) => {
                peer.reconnects.fetch_add(1, Ordering::Relaxed);
                let delay = backoff.next_delay_ms();
                peer.backoff_ms.store(delay, Ordering::Relaxed);
                peer.set_state(STATE_BACKOFF);
                if hub.wait_shutdown(delay) {
                    break;
                }
                continue;
            }
        };
        backoff.reset();
        peer.backoff_ms.store(0, Ordering::Relaxed);
        peer.connected.store(true, Ordering::Relaxed);
        peer.ever_connected.store(true, Ordering::Relaxed);
        peer.acked.store(applied, Ordering::Relaxed);

        // Anti-entropy first, then stream.
        let mut idle_ticks: u64 = 0;
        let mut step = || -> io::Result<()> {
            catch_up(hub, peer, &mut wire, &mut applied)?;
            peer.set_state(STATE_STREAMING);
            loop {
                match wait_inbox(hub, peer, Duration::from_millis(200)) {
                    InboxEvent::Shutdown => return Ok(()),
                    InboxEvent::Lagging => catch_up(hub, peer, &mut wire, &mut applied)?,
                    InboxEvent::Idle => {
                        // Residual drift (a dropped publish before this
                        // session connected, or a nack rewind target) heals
                        // here rather than waiting for the next store.
                        if applied < hub.published() {
                            catch_up(hub, peer, &mut wire, &mut applied)?;
                            peer.set_state(STATE_STREAMING);
                            continue;
                        }
                        // Heartbeat: an idle wire proves nothing about the
                        // peer.  Re-present the hello so a silently dead
                        // connection fails *now* instead of at the next
                        // store, and a peer that restarted empty reports its
                        // rewound position and is healed immediately.
                        idle_ticks += 1;
                        if !idle_ticks.is_multiple_of(HEARTBEAT_IDLE_TICKS) {
                            continue;
                        }
                        match send_recv(&mut wire, &hello.to_string())? {
                            Reply::State { applied: peers, fp } if fp == fingerprint => {
                                if peers < applied {
                                    applied = peers;
                                    peer.acked.store(applied, Ordering::Relaxed);
                                    catch_up(hub, peer, &mut wire, &mut applied)?;
                                    peer.set_state(STATE_STREAMING);
                                }
                            }
                            Reply::State { .. } | Reply::Mismatch => {
                                return Err(io::Error::other(FINGERPRINT_MISMATCH));
                            }
                            Reply::Ack { .. } | Reply::Other(_) => {
                                return Err(io::Error::other("unexpected reply to heartbeat"));
                            }
                        }
                    }
                    InboxEvent::Frame(seq, frame) => {
                        if seq <= applied {
                            continue;
                        }
                        if !ship_frame(hub, peer, &mut wire, seq, &frame, &mut applied)? {
                            // The receiver has a gap below this frame: walk
                            // back and refill it from the ring.
                            catch_up(hub, peer, &mut wire, &mut applied)?;
                            peer.set_state(STATE_STREAMING);
                        }
                    }
                }
            }
        };
        match step() {
            Ok(()) => break,
            Err(e) if e.to_string().contains(FINGERPRINT_MISMATCH) => {
                peer.connected.store(false, Ordering::Relaxed);
                peer.incompatible.fetch_add(1, Ordering::Relaxed);
                peer.set_state(STATE_INCOMPATIBLE);
                peer.backoff_ms
                    .store(hub.options.backoff_cap_ms, Ordering::Relaxed);
                if hub.wait_shutdown(hub.options.backoff_cap_ms) {
                    break;
                }
                continue 'supervise;
            }
            Err(_) => {
                peer.connected.store(false, Ordering::Relaxed);
                peer.reconnects.fetch_add(1, Ordering::Relaxed);
                let delay = backoff.next_delay_ms();
                peer.backoff_ms.store(delay, Ordering::Relaxed);
                peer.set_state(STATE_BACKOFF);
                if hub.wait_shutdown(delay) {
                    break;
                }
                continue 'supervise;
            }
        }
    }
    peer.set_state(STATE_STOPPED);
    peer.connected.store(false, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trips() {
        let bytes = vec![0x00, 0x7f, 0xff, 0x10, 0xab];
        assert_eq!(from_hex(&to_hex(&bytes)).unwrap(), bytes);
        assert_eq!(from_hex("zz"), None);
        assert_eq!(from_hex("abc"), None);
    }

    #[test]
    fn source_positions_advance_contiguously_across_reorder() {
        let mut s = SourceState::default();
        assert_eq!(s.observe(1), SeqClass::Fresh);
        assert_eq!(s.applied, 1);
        // Out-of-order: 3 before 2 — the contiguous position waits.
        assert_eq!(s.observe(3), SeqClass::Fresh);
        assert_eq!(s.applied, 1);
        assert_eq!(s.observe(2), SeqClass::Fresh);
        assert_eq!(s.applied, 3);
        // Duplicates below the position are recognized.
        assert_eq!(s.observe(2), SeqClass::Duplicate);
    }

    #[test]
    fn snapshot_jump_clears_pending_below() {
        let mut s = SourceState::default();
        s.observe(5);
        s.observe(7);
        s.jump_to(6);
        assert_eq!(s.applied, 7, "pending 7 drains after the jump to 6");
        s.jump_to(3);
        assert_eq!(s.applied, 7, "jumps never regress");
    }

    #[test]
    fn node_tokens_are_unique_per_call() {
        assert_ne!(generate_node_token(1), generate_node_token(1));
    }

    /// A transport that never connects: the session thread parks in
    /// backoff, leaving the ring and inbox to the test.
    #[derive(Debug)]
    struct NoConnect;

    impl Transport for NoConnect {
        fn connect(&self, _addr: &str) -> io::Result<Box<dyn Wire>> {
            Err(io::ErrorKind::ConnectionRefused.into())
        }
    }

    /// Regression: publish assigns the sequence and inserts into the ring
    /// and every inbox as one unit.  With assignment and insertion split,
    /// concurrent publishers interleave and land frames out of order,
    /// which catch-up escalates into a reconnect loop.
    #[test]
    fn concurrent_publishes_stay_in_sequence_order() {
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 200;
        let hub = ReplicaHub::start(
            1,
            Arc::new(NoConnect),
            ReplicaOptions {
                peers: vec!["unreachable".to_string()],
                queue: (THREADS * PER_THREAD) as usize + 1,
                ring: (THREADS * PER_THREAD) as usize + 1,
                // Park the session after its first failed connect.
                backoff_base_ms: 60_000,
                backoff_cap_ms: 60_000,
                node: Some("seq-order-test".to_string()),
            },
            Arc::new(Vec::new),
        );
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                let hub = Arc::clone(&hub);
                std::thread::spawn(move || {
                    for _ in 0..PER_THREAD {
                        hub.publish(vec![0]);
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().expect("publisher");
        }

        let total = THREADS * PER_THREAD;
        assert_eq!(hub.published(), total);
        let ring_seqs: Vec<u64> = {
            let ring = hub.ring.lock().expect("ring");
            ring.iter().map(|(s, _)| *s).collect()
        };
        assert_eq!(ring_seqs, (1..=total).collect::<Vec<_>>());
        let inbox_seqs: Vec<u64> = {
            let inbox = hub.peers[0].inbox.lock().expect("inbox");
            assert!(!inbox.lagging, "queue bound must not have tripped");
            inbox.queue.iter().map(|(s, _)| *s).collect()
        };
        assert_eq!(inbox_seqs, (1..=total).collect::<Vec<_>>());
        hub.shutdown();
    }
}
