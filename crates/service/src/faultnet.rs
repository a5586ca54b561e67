//! `FaultNet` — the network seam for the replication plane, mirroring the
//! persistence layer's `FaultFs` (DESIGN.md §9.2): every byte a peer
//! session sends or receives goes through the [`Transport`] / [`Wire`]
//! traits, so the same supervised state machine runs over real TCP in
//! production ([`RealNet`]) and over an in-memory fault-injecting network
//! ([`SimNet`]) in the chaos tests.
//!
//! `SimNet` executes *scripted* faults the way `FaultScript` does: each
//! link (ordered endpoint pair) carries an op-counted script, and the k-th
//! operation on the link — connects and sends both count — can be made to
//! drop, delay, duplicate, reorder, or sever.  Partitions are modeled
//! separately as a symmetric relation toggled by the test ([`SimNet::partition`]
//! / [`SimNet::heal`]) because a partition is a *state*, not an event: it
//! fails every connect, send, and receive on the pair until healed.
//!
//! The wire protocol carried over this seam is line-oriented (one JSON
//! object per line, exactly the daemon's NDJSON plane), so `Wire` speaks
//! lines, not bytes: `send` ships one line, `recv` blocks for one line up
//! to the wire's timeout.  Fault injection at line granularity is what the
//! replication protocol has to survive anyway — TCP never tears a line in
//! half without also erroring the connection, and `SimNet`'s per-line
//! drop/reorder faults model the reorderings a session sees across
//! reconnects.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::io::{self, BufRead, BufReader, Write as _};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A connection factory: the only way a peer session reaches the network.
pub trait Transport: Send + Sync + fmt::Debug {
    /// Opens a line-oriented connection to `addr`.
    fn connect(&self, addr: &str) -> io::Result<Box<dyn Wire>>;
}

/// One open line-oriented connection.
pub trait Wire: Send {
    /// Ships one line (newline appended by the wire).
    fn send(&mut self, line: &str) -> io::Result<()>;
    /// Blocks for the next line, up to the wire's timeout.
    fn recv(&mut self) -> io::Result<String>;
}

// ---------------------------------------------------------------------------
// RealNet: TCP with timeouts
// ---------------------------------------------------------------------------

/// The production transport: TCP with connect/read/write timeouts, so a
/// hung peer stalls one session thread for a bounded time, never forever.
#[derive(Debug, Clone)]
pub struct RealNet {
    /// Ceiling on connection establishment.
    pub connect_timeout: Duration,
    /// Ceiling on any single read or write.
    pub io_timeout: Duration,
}

impl Default for RealNet {
    fn default() -> RealNet {
        RealNet {
            connect_timeout: Duration::from_secs(5),
            io_timeout: Duration::from_secs(10),
        }
    }
}

impl Transport for RealNet {
    fn connect(&self, addr: &str) -> io::Result<Box<dyn Wire>> {
        let mut last = io::Error::new(io::ErrorKind::InvalidInput, "no addresses resolved");
        for resolved in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&resolved, self.connect_timeout) {
                Ok(stream) => {
                    stream.set_read_timeout(Some(self.io_timeout))?;
                    stream.set_write_timeout(Some(self.io_timeout))?;
                    stream.set_nodelay(true).ok();
                    let reader = BufReader::new(stream.try_clone()?);
                    return Ok(Box::new(TcpWire { stream, reader }));
                }
                Err(e) => last = e,
            }
        }
        Err(last)
    }
}

struct TcpWire {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Wire for TcpWire {
    fn send(&mut self, line: &str) -> io::Result<()> {
        self.stream.write_all(line.as_bytes())?;
        self.stream.write_all(b"\n")?;
        self.stream.flush()
    }

    fn recv(&mut self) -> io::Result<String> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }
}

// ---------------------------------------------------------------------------
// SimNet: in-memory network with scripted faults
// ---------------------------------------------------------------------------

/// One scripted network fault, executed at a specific operation index on a
/// link (mirror of `persist::Fault`, but for the wire).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFault {
    /// The line vanishes; the sender sees success.
    Drop,
    /// The line is delivered after a pause of this many milliseconds.
    DelayMs(u64),
    /// The line is delivered twice.
    Duplicate,
    /// The line is held back and delivered *after* the next line on the
    /// link (lost instead if the link closes first).
    Reorder,
    /// The connection is severed; the sender sees `ConnectionReset` and the
    /// other side sees end-of-stream.
    Sever,
}

/// An op-counted fault schedule for one directed link.  Connects and sends
/// on the link each consume one op; the k-th op (0-based) executes the
/// fault scripted at k, if any.
#[derive(Debug, Clone, Default)]
pub struct NetScript {
    at_op: BTreeMap<u64, NetFault>,
}

impl NetScript {
    /// An empty (fault-free) script.
    pub fn new() -> NetScript {
        NetScript::default()
    }

    /// Schedules `fault` at operation index `op` (builder style).
    pub fn fault_at(mut self, op: u64, fault: NetFault) -> NetScript {
        self.at_op.insert(op, fault);
        self
    }
}

/// An undirected endpoint pair, normalized so `(a, b)` and `(b, a)` collide.
fn pair(a: &str, b: &str) -> (String, String) {
    if a <= b {
        (a.to_string(), b.to_string())
    } else {
        (b.to_string(), a.to_string())
    }
}

#[derive(Default)]
struct SimState {
    /// Listening endpoints: name → acceptor channel.
    listeners: HashMap<String, Sender<SimConn>>,
    /// Symmetric partition relation (normalized pairs).
    partitions: HashSet<(String, String)>,
    /// Per-directed-link fault schedules and op counters.
    links: HashMap<(String, String), LinkState>,
}

#[derive(Default)]
struct LinkState {
    script: NetScript,
    ops: u64,
}

impl SimState {
    fn partitioned(&self, a: &str, b: &str) -> bool {
        self.partitions.contains(&pair(a, b))
    }

    /// Consumes one op on the directed link `src → dst` and returns the
    /// fault scripted there, if any.
    fn charge(&mut self, src: &str, dst: &str) -> Option<NetFault> {
        let link = self
            .links
            .entry((src.to_string(), dst.to_string()))
            .or_default();
        let op = link.ops;
        link.ops += 1;
        link.script.at_op.get(&op).copied()
    }
}

/// The in-memory fault-injecting network: endpoints by name, scripted
/// faults per directed link, and test-controlled partitions.
#[derive(Clone, Default)]
pub struct SimNet {
    state: Arc<Mutex<SimState>>,
}

impl fmt::Debug for SimNet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimNet").finish()
    }
}

/// One inbound connection handed to a listener's accept loop.
pub struct SimConn {
    /// The connecting endpoint's name.
    pub peer: String,
    /// The server side of the wire.
    pub wire: Box<dyn Wire>,
}

impl SimNet {
    /// A fresh, fully connected, fault-free network.
    pub fn new() -> SimNet {
        SimNet::default()
    }

    /// A connector bound to `name` (implements [`Transport`]; its connects
    /// originate from `name` for partition and script purposes).
    pub fn endpoint(&self, name: &str) -> SimEndpoint {
        SimEndpoint {
            name: name.to_string(),
            state: Arc::clone(&self.state),
        }
    }

    /// Registers `name` as a listener and returns its accept channel.
    /// Dropping the receiver un-registers it (connects start failing), which
    /// is how chaos tests model a killed node.
    pub fn listen(&self, name: &str) -> Receiver<SimConn> {
        let (tx, rx) = mpsc::channel();
        self.state
            .lock()
            .expect("simnet poisoned")
            .listeners
            .insert(name.to_string(), tx);
        rx
    }

    /// Removes `name`'s listener without touching established wires —
    /// models a node that stops accepting but hasn't died.
    pub fn unlisten(&self, name: &str) {
        self.state
            .lock()
            .expect("simnet poisoned")
            .listeners
            .remove(name);
    }

    /// Installs the fault schedule for the directed link `src → dst`
    /// (replacing any previous schedule; the op counter keeps running).
    pub fn script(&self, src: &str, dst: &str, script: NetScript) {
        self.state
            .lock()
            .expect("simnet poisoned")
            .links
            .entry((src.to_string(), dst.to_string()))
            .or_default()
            .script = script;
    }

    /// Partitions `a` from `b` (symmetric): connects refuse, and both ends
    /// of every established wire between them error until [`SimNet::heal`].
    pub fn partition(&self, a: &str, b: &str) {
        self.state
            .lock()
            .expect("simnet poisoned")
            .partitions
            .insert(pair(a, b));
    }

    /// Heals the partition between `a` and `b`.
    pub fn heal(&self, a: &str, b: &str) {
        self.state
            .lock()
            .expect("simnet poisoned")
            .partitions
            .remove(&pair(a, b));
    }
}

/// A named connector over a [`SimNet`].
#[derive(Clone)]
pub struct SimEndpoint {
    name: String,
    state: Arc<Mutex<SimState>>,
}

impl fmt::Debug for SimEndpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimEndpoint")
            .field("name", &self.name)
            .finish()
    }
}

impl Transport for SimEndpoint {
    fn connect(&self, addr: &str) -> io::Result<Box<dyn Wire>> {
        let fault = {
            let mut state = self.state.lock().expect("simnet poisoned");
            if state.partitioned(&self.name, addr) {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionRefused,
                    format!("simnet: {} ⇹ {} partitioned", self.name, addr),
                ));
            }
            state.charge(&self.name, addr)
        };
        match fault {
            Some(NetFault::Drop) | Some(NetFault::Sever) => {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionRefused,
                    "simnet: scripted connect failure",
                ));
            }
            Some(NetFault::DelayMs(ms)) => std::thread::sleep(Duration::from_millis(ms)),
            Some(NetFault::Duplicate) | Some(NetFault::Reorder) | None => {}
        }
        let (client_tx, server_rx) = mpsc::channel();
        let (server_tx, client_rx) = mpsc::channel();
        let client = SimWire {
            state: Arc::clone(&self.state),
            local: self.name.clone(),
            remote: addr.to_string(),
            tx: client_tx,
            rx: client_rx,
            held: None,
            severed: false,
            recv_timeout: SIM_RECV_TIMEOUT,
        };
        let server = SimWire {
            state: Arc::clone(&self.state),
            local: addr.to_string(),
            remote: self.name.clone(),
            tx: server_tx,
            rx: server_rx,
            held: None,
            severed: false,
            recv_timeout: SIM_RECV_TIMEOUT,
        };
        let listener = self
            .state
            .lock()
            .expect("simnet poisoned")
            .listeners
            .get(addr)
            .cloned();
        let Some(listener) = listener else {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                format!("simnet: no listener at {addr}"),
            ));
        };
        listener
            .send(SimConn {
                peer: self.name.clone(),
                wire: Box::new(server),
            })
            .map_err(|_| {
                io::Error::new(
                    io::ErrorKind::ConnectionRefused,
                    format!("simnet: listener at {addr} is gone"),
                )
            })?;
        Ok(Box::new(client))
    }
}

/// How long a simulated `recv` blocks before reporting `TimedOut`.  Short,
/// because chaos tests lean on it: a dropped line surfaces as a timed-out
/// response, which the session layer treats as a dead connection.
const SIM_RECV_TIMEOUT: Duration = Duration::from_millis(500);

struct SimWire {
    state: Arc<Mutex<SimState>>,
    local: String,
    remote: String,
    tx: Sender<String>,
    rx: Receiver<String>,
    /// A line held back by a `Reorder` fault, delivered after the next send.
    held: Option<String>,
    severed: bool,
    recv_timeout: Duration,
}

impl SimWire {
    fn deliver(&self, line: &str) -> io::Result<()> {
        self.tx
            .send(line.to_string())
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "simnet: peer wire dropped"))
    }
}

impl Wire for SimWire {
    fn send(&mut self, line: &str) -> io::Result<()> {
        if self.severed {
            return Err(io::ErrorKind::ConnectionReset.into());
        }
        let fault = {
            let mut state = self.state.lock().expect("simnet poisoned");
            if state.partitioned(&self.local, &self.remote) {
                return Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    format!("simnet: {} ⇹ {} partitioned", self.local, self.remote),
                ));
            }
            state.charge(&self.local, &self.remote)
        };
        match fault {
            Some(NetFault::Drop) => Ok(()),
            Some(NetFault::DelayMs(ms)) => {
                std::thread::sleep(Duration::from_millis(ms));
                self.deliver(line)
            }
            Some(NetFault::Duplicate) => {
                self.deliver(line)?;
                self.deliver(line)
            }
            Some(NetFault::Reorder) => {
                self.held = Some(line.to_string());
                Ok(())
            }
            Some(NetFault::Sever) => {
                self.severed = true;
                Err(io::ErrorKind::ConnectionReset.into())
            }
            None => {
                self.deliver(line)?;
                if let Some(held) = self.held.take() {
                    self.deliver(&held)?;
                }
                Ok(())
            }
        }
    }

    fn recv(&mut self) -> io::Result<String> {
        if self.severed {
            return Err(io::ErrorKind::ConnectionReset.into());
        }
        if self
            .state
            .lock()
            .expect("simnet poisoned")
            .partitioned(&self.local, &self.remote)
        {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                format!("simnet: {} ⇹ {} partitioned", self.local, self.remote),
            ));
        }
        match self.rx.recv_timeout(self.recv_timeout) {
            Ok(line) => Ok(line),
            Err(RecvTimeoutError::Timeout) => Err(io::ErrorKind::TimedOut.into()),
            Err(RecvTimeoutError::Disconnected) => Err(io::ErrorKind::UnexpectedEof.into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wire_pair(net: &SimNet) -> (Box<dyn Wire>, Box<dyn Wire>) {
        let accept = net.listen("b");
        let client = net.endpoint("a").connect("b").expect("connect");
        let conn = accept.recv().expect("accepted");
        assert_eq!(conn.peer, "a");
        (client, conn.wire)
    }

    #[test]
    fn lines_flow_both_ways() {
        let net = SimNet::new();
        let (mut a, mut b) = wire_pair(&net);
        a.send("ping").unwrap();
        assert_eq!(b.recv().unwrap(), "ping");
        b.send("pong").unwrap();
        assert_eq!(a.recv().unwrap(), "pong");
    }

    #[test]
    fn connect_refused_without_listener() {
        let net = SimNet::new();
        let err = net.endpoint("a").connect("nowhere").err().expect("refused");
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
    }

    #[test]
    fn dropped_listener_refuses_connects() {
        let net = SimNet::new();
        let accept = net.listen("b");
        drop(accept);
        let err = net.endpoint("a").connect("b").err().expect("refused");
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
    }

    #[test]
    fn scripted_drop_loses_exactly_one_line() {
        let net = SimNet::new();
        // Op 0 is the connect; op 1 the first send.
        net.script("a", "b", NetScript::new().fault_at(1, NetFault::Drop));
        let (mut a, mut b) = wire_pair(&net);
        a.send("lost").unwrap();
        a.send("kept").unwrap();
        assert_eq!(b.recv().unwrap(), "kept");
    }

    #[test]
    fn scripted_duplicate_delivers_twice() {
        let net = SimNet::new();
        net.script("a", "b", NetScript::new().fault_at(1, NetFault::Duplicate));
        let (mut a, mut b) = wire_pair(&net);
        a.send("twice").unwrap();
        assert_eq!(b.recv().unwrap(), "twice");
        assert_eq!(b.recv().unwrap(), "twice");
    }

    #[test]
    fn scripted_reorder_swaps_adjacent_lines() {
        let net = SimNet::new();
        net.script("a", "b", NetScript::new().fault_at(1, NetFault::Reorder));
        let (mut a, mut b) = wire_pair(&net);
        a.send("first").unwrap();
        a.send("second").unwrap();
        assert_eq!(b.recv().unwrap(), "second");
        assert_eq!(b.recv().unwrap(), "first");
    }

    #[test]
    fn scripted_sever_errors_the_sender() {
        let net = SimNet::new();
        net.script("a", "b", NetScript::new().fault_at(1, NetFault::Sever));
        let (mut a, _b) = wire_pair(&net);
        assert_eq!(
            a.send("boom").unwrap_err().kind(),
            io::ErrorKind::ConnectionReset
        );
        assert_eq!(
            a.send("after").unwrap_err().kind(),
            io::ErrorKind::ConnectionReset
        );
    }

    #[test]
    fn partition_fails_connect_send_and_recv_until_healed() {
        let net = SimNet::new();
        let (mut a, mut b) = wire_pair(&net);
        net.partition("a", "b");
        assert!(net.endpoint("a").connect("b").is_err());
        assert!(a.send("x").is_err());
        assert!(b.recv().is_err());
        net.heal("a", "b");
        a.send("back").unwrap();
        assert_eq!(b.recv().unwrap(), "back");
    }

    #[test]
    fn recv_times_out_on_silence() {
        let net = SimNet::new();
        let (_a, mut b) = wire_pair(&net);
        assert_eq!(b.recv().unwrap_err().kind(), io::ErrorKind::TimedOut);
    }

    #[test]
    fn peer_drop_surfaces_as_eof() {
        let net = SimNet::new();
        let (a, mut b) = wire_pair(&net);
        drop(a);
        assert_eq!(b.recv().unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
    }
}
