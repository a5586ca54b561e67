//! Fault-injected replication fleets over the in-memory `SimNet`.
//!
//! The contract under test (DESIGN.md §11): a fleet of daemons shipping WAL
//! frames to each other converges to the *union* of every acknowledged
//! verdict, and a frame can only ever be applied after passing the same
//! checksum + engine-fingerprint validation as crash recovery — so a faulty
//! link (drops, duplicates, reorders, partitions) or a killed-and-restarted
//! node can delay convergence, never corrupt it.
//!
//! Each scenario builds a small fleet where every node is a real [`Service`]
//! with a real accept loop answering the replica wire protocol through
//! [`respond`], connected through the scripted [`SimNet`] transport.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use rel_persist::{encode_frame, WalRecord};
use rel_service::json::Value;
use rel_service::{
    respond, NetFault, NetScript, ReplicaOptions, Service, ServiceConfig, SimConn, SimNet,
};

/// Fleets settle in well under a second on an idle machine; the margin is
/// for loaded CI runners.
const SETTLE: Duration = Duration::from_secs(30);

// ---------------------------------------------------------------------------
// Fleet harness
// ---------------------------------------------------------------------------

/// One daemon in the fleet: a service plus its accept pump on the `SimNet`.
struct Node {
    name: &'static str,
    service: Service,
    net: SimNet,
    kill: Arc<AtomicBool>,
}

impl Node {
    /// Starts a node listening as `name`, replicating to `peers`.
    fn start(net: &SimNet, name: &'static str, peers: &[&str]) -> Node {
        Node::start_with(net, name, peers, |_| {})
    }

    fn start_with(
        net: &SimNet,
        name: &'static str,
        peers: &[&str],
        tune: impl FnOnce(&mut ReplicaOptions),
    ) -> Node {
        let service = Service::new(ServiceConfig {
            workers: 1,
            cache_shards: 4,
        });
        let kill = Arc::new(AtomicBool::new(false));
        let inbox = net.listen(name);
        {
            let service = service.clone();
            let kill = Arc::clone(&kill);
            thread::spawn(move || {
                while let Ok(conn) = inbox.recv() {
                    if kill.load(Ordering::SeqCst) {
                        return;
                    }
                    let service = service.clone();
                    let kill = Arc::clone(&kill);
                    thread::spawn(move || serve_conn(&service, &kill, conn));
                }
            });
        }
        let mut options = ReplicaOptions {
            peers: peers.iter().map(|p| p.to_string()).collect(),
            backoff_base_ms: 10,
            backoff_cap_ms: 200,
            ..ReplicaOptions::default()
        };
        tune(&mut options);
        if !options.peers.is_empty() {
            service.enable_replication(Arc::new(net.endpoint(name)), options);
        }
        Node {
            name,
            service,
            net: net.clone(),
            kill,
        }
    }

    /// `kill -9`: tears down the listener and abandons the service state.
    /// Existing connection handlers die at their next receive.
    fn kill(&self) {
        self.kill.store(true, Ordering::SeqCst);
        self.net.unlisten(self.name);
        self.service.shutdown_replication();
    }

    /// Orderly stop at the end of a scenario.
    fn stop(&self) {
        self.kill();
    }
}

/// The per-connection server loop: the replica wire protocol is plain
/// daemon traffic, so every inbound line goes through [`respond`].
fn serve_conn(service: &Service, kill: &AtomicBool, mut conn: SimConn) {
    loop {
        if kill.load(Ordering::SeqCst) {
            return;
        }
        let line = match conn.wire.recv() {
            Ok(line) => line,
            Err(e) if e.kind() == std::io::ErrorKind::TimedOut => continue,
            Err(_) => return,
        };
        let response = respond(service, &line);
        if conn.wire.send(&response.to_string()).is_err() {
            return;
        }
    }
}

/// Waits until every outbound session in the fleet is connected with zero
/// lag — the quiescent state after which stores are fully shipped.
fn await_settled(nodes: &[&Node]) {
    let deadline = Instant::now() + SETTLE;
    loop {
        let settled = nodes.iter().all(|n| {
            let status = n.service.replica_status();
            status.peers.iter().all(|p| p.connected && p.lag == 0)
        });
        if settled {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "fleet never settled: {:#?}",
            nodes
                .iter()
                .map(|n| (n.name, n.service.replica_status()))
                .collect::<Vec<_>>()
        );
        thread::sleep(Duration::from_millis(20));
    }
}

/// The union cardinality the fleet must converge to: verdict keys are
/// deterministic across instances, so an offline service that checks every
/// source holds exactly the union of the fleet's verdicts.
fn union_entries(sources: &[String]) -> u64 {
    let oracle = Service::new(ServiceConfig {
        workers: 1,
        cache_shards: 4,
    });
    for src in sources {
        oracle.check_source(src).expect("parse");
    }
    oracle.cache_stats().entries
}

/// Waits until every node holds the full union of verdicts.  Unlike
/// [`await_settled`], this is a receiver-side condition: it cannot be
/// fooled by a sender still acking into a silently dead connection (the
/// kill scenarios), only satisfied once heartbeats notice and anti-entropy
/// actually heals the restarted peer.
fn await_converged(nodes: &[&Node], expected_entries: u64) {
    let deadline = Instant::now() + SETTLE;
    loop {
        if nodes
            .iter()
            .all(|n| n.service.cache_stats().entries == expected_entries)
        {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "fleet never converged to {expected_entries} entries: {:?}",
            nodes
                .iter()
                .map(|n| (n.name, n.service.cache_stats().entries))
                .collect::<Vec<_>>()
        );
        thread::sleep(Duration::from_millis(20));
    }
}

/// A program whose entailment queries are distinct per `depth` (the cost
/// bound of the nested body differs), with names parameterized by `tag` so
/// renamed copies re-check defs against the same queries.
fn source(tag: &str, depth: usize) -> String {
    let mut body = String::from("b");
    for _ in 0..depth {
        body = format!("neg_{tag} ({body})");
    }
    format!(
        "def neg_{tag} : boolr -> boolr = lam b. if b then false else true;\n\
         def use_{tag} : boolr -> boolr = lam b. {body};"
    )
}

/// Asserts `node` answers every program without any solver work: the
/// replicated def index skips unchanged defs, and any re-checked def's
/// queries hit the replicated validity cache.
fn assert_warm(node: &Node, sources: &[String]) {
    for src in sources {
        let report = node.service.check_source(src).expect("parse");
        assert_eq!(
            report.solve_stats().cache_misses,
            0,
            "node {} had to re-solve `{}`",
            node.name,
            &src[..src.len().min(60)]
        );
    }
}

/// Asserts no node ever applied a frame that failed validation — the
/// zero-fabrication invariant.
fn assert_no_rejects(nodes: &[&Node]) {
    for node in nodes {
        let inbound = node.service.replica_status().inbound;
        assert_eq!(
            inbound.frames_rejected, 0,
            "node {} rejected frames: {inbound:?}",
            node.name
        );
    }
}

// ---------------------------------------------------------------------------
// Fleet scenarios
// ---------------------------------------------------------------------------

#[test]
fn two_nodes_converge_over_a_faulty_link() {
    let net = SimNet::new();
    // Drop, duplicate and reorder scripted into both directions of the
    // replica traffic: retry/backoff plus idempotent application must
    // absorb all of it.
    net.script(
        "a",
        "b",
        NetScript::new()
            .fault_at(3, NetFault::Drop)
            .fault_at(5, NetFault::Duplicate)
            .fault_at(7, NetFault::Reorder)
            .fault_at(11, NetFault::Sever)
            .fault_at(15, NetFault::Drop),
    );
    net.script(
        "b",
        "a",
        NetScript::new()
            .fault_at(2, NetFault::Drop)
            .fault_at(6, NetFault::Sever)
            .fault_at(9, NetFault::Duplicate),
    );
    let a = Node::start(&net, "a", &["b"]);
    let b = Node::start(&net, "b", &["a"]);

    // Different work on each side: convergence is the union, not one-way
    // mirroring.
    let on_a: Vec<String> = (1..=3).map(|d| source("left", d)).collect();
    let on_b: Vec<String> = (1..=3).map(|d| source("right", d)).collect();
    for src in &on_a {
        a.service.check_source(src).expect("parse");
    }
    for src in &on_b {
        b.service.check_source(src).expect("parse");
    }

    await_settled(&[&a, &b]);
    let everything: Vec<String> = on_a.iter().chain(&on_b).cloned().collect();
    assert_warm(&a, &everything);
    assert_warm(&b, &everything);
    assert_no_rejects(&[&a, &b]);

    // The faulty link really fired: severs force reconnects.
    let status = a.service.replica_status();
    assert!(
        status.peers[0].reconnects >= 1,
        "sever never exercised the retry path: {status:?}"
    );
    a.stop();
    b.stop();
}

#[test]
fn chain_replication_is_transitive() {
    // a ships only to b, b only to c: frames applied at b re-enter b's own
    // WAL/observer path and ship onward, so work done at a lands at c.
    let net = SimNet::new();
    let a = Node::start(&net, "a", &["b"]);
    let b = Node::start(&net, "b", &["c"]);
    let c = Node::start(&net, "c", &[]);

    let programs: Vec<String> = (1..=3).map(|d| source("chain", d)).collect();
    for src in &programs {
        a.service.check_source(src).expect("parse");
    }

    await_settled(&[&a, &b]);
    // b's outbound lag covers frames b re-published from a's stores; once
    // both hops report zero lag the tail node holds everything.
    assert_warm(&c, &programs);
    // A renamed copy re-checks defs (fresh hashes) but every entailment
    // query must hit c's replicated validity cache — verdict replication,
    // not just def skipping.
    let renamed: Vec<String> = (1..=3).map(|d| source("renamed", d)).collect();
    assert_warm(&c, &renamed);
    assert_no_rejects(&[&a, &b, &c]);
    a.stop();
    b.stop();
    c.stop();
}

#[test]
fn partition_heals_by_anti_entropy() {
    let net = SimNet::new();
    // queue: 2 so the partition overflows the replication queue and the
    // session degrades to catch-up instead of buffering unboundedly.
    let a = Node::start_with(&net, "a", &["b"], |o| o.queue = 2);
    let b = Node::start(&net, "b", &[]);

    let before = [source("pre", 1)];
    a.service.check_source(&before[0]).expect("parse");
    await_settled(&[&a]);

    net.partition("a", "b");
    // Work done during the partition: more stores than the queue holds.
    let during: Vec<String> = (1..=4).map(|d| source("cut", d)).collect();
    for src in &during {
        a.service.check_source(src).expect("parse");
    }
    // Let the session discover the dead link and start backing off.
    let deadline = Instant::now() + SETTLE;
    loop {
        let peer = &a.service.replica_status().peers[0];
        if !peer.connected && peer.reconnects >= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "partition never observed");
        thread::sleep(Duration::from_millis(20));
    }

    net.heal("a", "b");
    await_settled(&[&a]);
    let everything: Vec<String> = before.iter().chain(&during).cloned().collect();
    assert_warm(&b, &everything);
    assert_no_rejects(&[&a, &b]);

    let peer = &a.service.replica_status().peers[0];
    assert!(
        peer.queue_dropped > 0 || peer.snapshots_sent > 0 || peer.acked > 0,
        "healed session shows no anti-entropy evidence: {peer:?}"
    );
    a.stop();
    b.stop();
}

#[test]
fn killed_node_restarts_empty_and_heals_by_snapshot() {
    let net = SimNet::new();
    // ring: 1 forces any meaningful catch-up past the ring, so the restart
    // heals by full snapshot transfer rather than suffix replay.
    let a = Node::start_with(&net, "a", &["b"], |o| o.ring = 1);
    let b = Node::start(&net, "b", &[]);

    let first: Vec<String> = (1..=2).map(|d| source("one", d)).collect();
    for src in &first {
        a.service.check_source(src).expect("parse");
    }
    await_settled(&[&a]);

    // kill -9: b's listener and state vanish mid-stream.
    b.kill();
    // The second batch publishes at least two frames past the kill, so a's
    // one-frame ring starts above any position b (or a fresh b) can hold,
    // however many frames each program writes.  Depths beyond the first
    // batch's give queries no verdict cache holds yet.
    let at_kill = a.service.replica_status().published;
    let mut second = Vec::new();
    for depth in 3.. {
        if a.service.replica_status().published >= at_kill + 2 {
            break;
        }
        assert!(depth <= 16, "the second batch published no new frames");
        let src = source("two", depth);
        a.service.check_source(&src).expect("parse");
        second.push(src);
    }

    // Restart: a *fresh* service re-listens under the same address.  a's
    // session may still be acking into the dead wire — the heartbeat
    // notices, reconnects, reads applied=0 (behind a's one-frame ring by
    // construction), and must heal by full snapshot.
    let b2 = Node::start(&net, "b", &[]);
    let everything: Vec<String> = first.iter().chain(&second).cloned().collect();
    await_converged(&[&a, &b2], union_entries(&everything));
    await_settled(&[&a]);
    assert_warm(&b2, &everything);
    assert_no_rejects(&[&a, &b2]);
    let peer = &a.service.replica_status().peers[0];
    assert!(
        peer.snapshots_sent >= 1,
        "restart must heal by snapshot transfer: {peer:?}"
    );
    assert!(
        peer.reconnects >= 1,
        "the kill must force a reconnect: {peer:?}"
    );
    a.stop();
    b2.stop();
}

#[test]
fn three_node_fleet_survives_kill_partition_and_restart() {
    // The full chaos matrix on one fleet: a ring of three daemons, one
    // partition, one kill -9 + restart, new work at every stage — and the
    // survivors still converge to the union with zero fabricated verdicts.
    let net = SimNet::new();
    let a = Node::start(&net, "a", &["b", "c"]);
    let b = Node::start(&net, "b", &["c", "a"]);
    let c = Node::start(&net, "c", &["a", "b"]);

    let stage1: Vec<String> = (1..=2).map(|d| source("s1", d)).collect();
    for src in &stage1 {
        a.service.check_source(src).expect("parse");
    }
    await_settled(&[&a, &b, &c]);

    net.partition("a", "b");
    let stage2 = vec![source("s2", 1)];
    b.service.check_source(&stage2[0]).expect("parse");

    c.kill();
    let stage3 = vec![source("s3", 1)];
    a.service.check_source(&stage3[0]).expect("parse");

    net.heal("a", "b");
    let c2 = Node::start(&net, "c", &["a", "b"]);
    let everything: Vec<String> = stage1
        .iter()
        .chain(&stage2)
        .chain(&stage3)
        .cloned()
        .collect();
    await_converged(&[&a, &b, &c2], union_entries(&everything));
    await_settled(&[&a, &b, &c2]);
    for node in [&a, &b, &c2] {
        assert_warm(node, &everything);
    }
    assert_no_rejects(&[&a, &b, &c2]);
    a.stop();
    b.stop();
    c2.stop();
}

// ---------------------------------------------------------------------------
// The validation gate, frame by frame
// ---------------------------------------------------------------------------

fn to_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn frame_request(seq: u64, data: &str) -> String {
    format!("{{\"replica\":\"frame\",\"node\":\"matrix\",\"seq\":{seq},\"data\":\"{data}\"}}")
}

fn inbound_counter(service: &Service, key: &str) -> i64 {
    respond(service, "{\"replica\":\"status\"}")
        .get("replica")
        .and_then(|r| r.get("inbound"))
        .and_then(|i| i.get(key))
        .and_then(Value::as_int)
        .expect("inbound counter")
}

/// The unit matrix for inbound validation: a mismatched or corrupted frame
/// is *never* applied — it answers the structured error and bumps
/// `frames_rejected` — while the same bytes with the right fingerprint ack.
#[test]
fn fingerprint_mismatch_matrix_rejects_without_applying() {
    let service = Service::new(ServiceConfig {
        workers: 1,
        cache_shards: 4,
    });
    let fp = service.engine().fingerprint();
    let record = WalRecord::Compaction { folded: 0 };

    // A foreign engine's frame: valid checksum, wrong fingerprint.
    let foreign = encode_frame(fp ^ 0xdead_beef, &record);
    let response = respond(&service, &frame_request(1, &to_hex(&foreign)));
    assert_eq!(
        response.get("error").and_then(Value::as_str),
        Some("replica-fingerprint-mismatch"),
        "{response}"
    );

    // A bit flip in the payload: checksum reject.
    let mut corrupt = encode_frame(fp, &record);
    let last = corrupt.len() - 1;
    corrupt[last] ^= 0x01;
    let response = respond(&service, &frame_request(1, &to_hex(&corrupt)));
    assert!(
        response.get("error").is_some(),
        "corrupt frame must not ack: {response}"
    );

    // A torn frame: truncated mid-payload.
    let whole = encode_frame(fp, &record);
    let torn = &whole[..whole.len() - 2];
    let response = respond(&service, &frame_request(1, &to_hex(torn)));
    assert!(
        response.get("error").is_some(),
        "torn frame must not ack: {response}"
    );

    // Not hex at all.
    let response = respond(&service, &frame_request(1, "zz"));
    assert!(response.get("error").is_some(), "{response}");

    // Every reject was counted; nothing was applied.
    assert_eq!(inbound_counter(&service, "frames_rejected"), 4);
    assert_eq!(inbound_counter(&service, "frames_applied"), 0);

    // The same record under the right fingerprint validates and acks.
    let good = encode_frame(fp, &record);
    let response = respond(&service, &frame_request(1, &to_hex(&good)));
    assert_eq!(
        response.get("replica").and_then(Value::as_str),
        Some("ack"),
        "{response}"
    );
    assert_eq!(
        response.get("applied").and_then(Value::as_int),
        Some(1),
        "{response}"
    );
    // A compaction marker advances the position but carries no state, so it
    // lands under the duplicate counter, not applied.
    assert_eq!(inbound_counter(&service, "frames_applied"), 0);
    assert_eq!(inbound_counter(&service, "frames_duplicate"), 1);
    assert_eq!(inbound_counter(&service, "frames_rejected"), 4);
}

/// A hello with a foreign fingerprint parks the handshake: the structured
/// mismatch error, no state answer, and the reject is counted under
/// `hellos_rejected` — never `frames_rejected`, which is reserved for
/// frame validation failures (a rolling engine upgrade must not read as
/// frame corruption).
#[test]
fn foreign_fingerprint_hello_is_refused() {
    let service = Service::new(ServiceConfig {
        workers: 1,
        cache_shards: 4,
    });
    let fp = service.engine().fingerprint();

    let hello = |fp_hex: &str| {
        respond(
            &service,
            &format!("{{\"replica\":\"hello\",\"v\":1,\"node\":\"h\",\"fp\":\"{fp_hex}\"}}"),
        )
    };

    let refused = hello(&format!("{:016x}", fp ^ 1));
    assert_eq!(
        refused.get("error").and_then(Value::as_str),
        Some("replica-fingerprint-mismatch"),
        "{refused}"
    );

    // The right fingerprint answers the state position.
    let state = hello(&format!("{fp:016x}"));
    assert_eq!(
        state.get("replica").and_then(Value::as_str),
        Some("state"),
        "{state}"
    );
    assert_eq!(state.get("applied").and_then(Value::as_int), Some(0));
    assert_eq!(
        state.get("fp").and_then(Value::as_str),
        Some(format!("{fp:016x}").as_str())
    );

    // An unsupported protocol version is refused before the fingerprint.
    let response = respond(
        &service,
        &format!("{{\"replica\":\"hello\",\"v\":99,\"node\":\"h\",\"fp\":\"{fp:016x}\"}}"),
    );
    assert!(
        response
            .get("error")
            .and_then(Value::as_str)
            .unwrap()
            .contains("version"),
        "{response}"
    );
    assert_eq!(inbound_counter(&service, "hellos_rejected"), 1);
    assert_eq!(inbound_counter(&service, "frames_rejected"), 0);
}

/// Health treats a never-connected peer as booting, not down: a fresh
/// daemon with peers configured answers ready until the session burns
/// through the connect grace budget, then flips to `peers-down`.
#[test]
fn health_grants_never_connected_peers_a_boot_grace() {
    let net = SimNet::new();
    let service = Service::new(ServiceConfig {
        workers: 1,
        cache_shards: 4,
    });

    // A huge backoff parks the session after its first failed connect:
    // one attempt is inside the grace, so the probe stays ready.
    service.enable_replication(
        Arc::new(net.endpoint("grace-a")),
        ReplicaOptions {
            peers: vec!["ghost".to_string()],
            backoff_base_ms: 60_000,
            backoff_cap_ms: 60_000,
            ..ReplicaOptions::default()
        },
    );
    let deadline = Instant::now() + SETTLE;
    loop {
        let status = service.replica_status();
        let attempted = status.peers.iter().any(|p| p.reconnects >= 1);
        let health = service.health();
        assert!(
            health.ready,
            "one failed connect must stay inside the boot grace: {health:?}"
        );
        if attempted || Instant::now() >= deadline {
            assert!(attempted, "session never attempted a connect");
            break;
        }
        thread::sleep(Duration::from_millis(5));
    }
    service.shutdown_replication();

    // A tight backoff exhausts the grace in tens of milliseconds: the
    // same unreachable peer is then provably down.
    service.enable_replication(
        Arc::new(net.endpoint("grace-b")),
        ReplicaOptions {
            peers: vec!["ghost".to_string()],
            backoff_base_ms: 5,
            backoff_cap_ms: 20,
            ..ReplicaOptions::default()
        },
    );
    let deadline = Instant::now() + SETTLE;
    loop {
        let health = service.health();
        if !health.ready {
            assert_eq!(health.reasons, vec!["peers-down".to_string()]);
            break;
        }
        assert!(
            Instant::now() < deadline,
            "unreachable peer never established as down"
        );
        thread::sleep(Duration::from_millis(5));
    }
    service.shutdown_replication();
    assert!(service.health().ready, "no peers configured means ready");
}

/// A peer that completed a handshake and then died is down without any
/// grace: `ever_connected` distinguishes "was up, now is not" from a
/// session still booting.
#[test]
fn health_reports_peers_down_once_a_connected_peer_dies() {
    let net = SimNet::new();
    let b = Node::start(&net, "health-b", &[]);
    // A huge backoff keeps reconnect attempts below the boot grace, so
    // only the ever-connected path can flip the probe.
    let a = Node::start_with(&net, "health-a", &["health-b"], |o| {
        o.backoff_base_ms = 60_000;
        o.backoff_cap_ms = 60_000;
    });
    await_settled(&[&a]);
    assert!(a.service.health().ready, "connected fleet must probe ready");

    b.kill();
    let deadline = Instant::now() + SETTLE;
    loop {
        let health = a.service.health();
        if !health.ready {
            assert_eq!(health.reasons, vec!["peers-down".to_string()]);
            break;
        }
        assert!(
            Instant::now() < deadline,
            "dead peer never reported down: {:?}",
            a.service.replica_status()
        );
        thread::sleep(Duration::from_millis(10));
    }
    a.stop();
}

/// Regression: the hub's snapshot source must not capture the service (or
/// strong store Arcs) — the store observers hold the hub, so that capture
/// is an Arc cycle and a service dropped *without* `shutdown_replication`
/// (library and test users) would leak the engine, persistence state and
/// caches for the lifetime of the parked session threads.
#[test]
fn dropping_a_service_without_shutdown_frees_it() {
    let net = SimNet::new();
    let service = Service::new(ServiceConfig {
        workers: 1,
        cache_shards: 4,
    });
    let engine = Arc::downgrade(service.engine());
    service.enable_replication(
        Arc::new(net.endpoint("leak-probe")),
        ReplicaOptions {
            peers: vec!["ghost".to_string()],
            backoff_base_ms: 60_000,
            backoff_cap_ms: 60_000,
            ..ReplicaOptions::default()
        },
    );
    drop(service);
    assert!(
        engine.upgrade().is_none(),
        "service state leaked through the replication hub"
    );
}
