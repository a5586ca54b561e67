//! Property tests for replication convergence, thread-free and fully
//! deterministic.
//!
//! Instead of live sessions, each case builds 2–4 services with attached
//! WAL files, harvests the frames each service's own WAL accumulates
//! (exactly the bytes an outbound session would ship), and delivers them
//! along a random strongly connected topology through the daemon's
//! `{"replica": ...}` wire objects — with checks interleaved into the
//! delivery rounds and scripted drop/duplicate/reorder/partition faults on
//! every link.  The property: once the links go quiet, every node holds
//! exactly the union of every checked program's verdicts, with zero
//! rejected frames.  A second property mutates frames and full-state
//! transfers (compacted images) and asserts each mutation is rejected
//! whole.
//!
//! The generator is the workspace `proptest` shim's splitmix64 stream; the
//! full `proptest!` macro's 256 cases are too many for fleet cases, so the
//! suite drives [`TestRng`] directly over a fixed case count.

use std::path::PathBuf;

use proptest::TestRng;
use rel_persist::{compacted_image, validate_frame, WalRecord};
use rel_service::json::Value;
use rel_service::{respond, Service, ServiceConfig};

/// Random fleet cases per property.
const CASES: usize = 12;

/// WAL file header bytes ahead of the first frame (magic + version +
/// fingerprint).
const WAL_FILE_HEADER: usize = 16;

/// Delivery-round ceiling; a case that cannot quiesce within this is a
/// convergence bug, not slowness (everything is in-process).
const MAX_ROUNDS: usize = 60;

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

struct SimNode {
    service: Service,
    /// The node's cache file: one log, appended to by every store.
    wal: PathBuf,
    token: String,
}

fn fresh_node(case: usize, index: usize) -> SimNode {
    let dir = std::env::temp_dir().join(format!(
        "birelcost-repl-props-{}-{case}-{index}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cache.birelcost");
    let service = Service::new(ServiceConfig {
        workers: 1,
        cache_shards: 4,
    });
    let outcome = service.attach_cache_file(&path);
    assert_eq!(outcome.warning, None);
    SimNode {
        service,
        wal: path,
        token: format!("n{index}"),
    }
}

/// Reads every validated frame out of a node's WAL file — the same bytes
/// an outbound session ships, in append order.
fn harvest(node: &SimNode, fp: u64) -> Vec<Vec<u8>> {
    let Ok(bytes) = std::fs::read(&node.wal) else {
        return Vec::new();
    };
    let mut frames = Vec::new();
    let mut off = WAL_FILE_HEADER;
    while off < bytes.len() {
        match validate_frame(&bytes[off..], fp) {
            Ok((_, used)) => {
                frames.push(bytes[off..off + used].to_vec());
                off += used;
            }
            Err(_) => break,
        }
    }
    frames
}

fn to_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// `from` says hello to `to`: returns `to`'s contiguous applied position
/// for that source.
fn hello(to: &SimNode, from_token: &str, fp: u64) -> u64 {
    let response = respond(
        &to.service,
        &format!(
            "{{\"replica\":\"hello\",\"v\":1,\"node\":\"{from_token}\",\"fp\":\"{fp:016x}\"}}"
        ),
    );
    assert_eq!(
        response.get("replica").and_then(Value::as_str),
        Some("state"),
        "{response}"
    );
    response
        .get("applied")
        .and_then(Value::as_int)
        .expect("applied position") as u64
}

/// Delivers one frame; the response must be an ack (same engine, valid
/// bytes — a reject here would be fabricated-verdict paranoia tripping on
/// honest traffic).
fn ship(to: &SimNode, from_token: &str, seq: u64, frame: &[u8]) {
    let response = respond(
        &to.service,
        &format!(
            "{{\"replica\":\"frame\",\"node\":\"{from_token}\",\"seq\":{seq},\"data\":\"{}\"}}",
            to_hex(frame)
        ),
    );
    assert_eq!(
        response.get("replica").and_then(Value::as_str),
        Some("ack"),
        "{response}"
    );
}

/// A program whose entailment queries are distinct per `depth`.
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

fn inbound_counter(service: &Service, key: &str) -> i64 {
    respond(service, "{\"replica\":\"status\"}")
        .get("replica")
        .and_then(|r| r.get("inbound"))
        .and_then(|i| i.get(key))
        .and_then(Value::as_int)
        .expect("inbound counter")
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

#[test]
fn random_fleets_converge_to_the_union_of_checked_programs() {
    for case in 0..CASES {
        let mut rng = TestRng::from_label(&format!("replication-props-{case}"));
        let n = 2 + (rng.next_u64() % 3) as usize;
        let nodes: Vec<SimNode> = (0..n).map(|i| fresh_node(case, i)).collect();
        let fp = nodes[0].service.engine().fingerprint();
        assert!(nodes.iter().all(|x| x.service.engine().fingerprint() == fp));

        // Topology: a directed ring (strong connectivity, so the union can
        // reach everyone) plus random extra edges.
        let mut edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        for i in 0..n {
            for j in 0..n {
                if i != j && !edges.contains(&(i, j)) && rng.next_u64().is_multiple_of(3) {
                    edges.push((i, j));
                }
            }
        }

        // Work: five distinct programs; each checked by a random non-empty
        // subset of nodes, in shuffled order, interleaved with delivery.
        let sources: Vec<String> = (1..=5).map(|d| source("p", d)).collect();
        let mut work: Vec<(usize, usize)> = Vec::new();
        for s in 0..sources.len() {
            let owner = (rng.next_u64() % n as u64) as usize;
            for i in 0..n {
                if i == owner || rng.next_u64().is_multiple_of(3) {
                    work.push((i, s));
                }
            }
        }
        for k in (1..work.len()).rev() {
            work.swap(k, (rng.next_u64() % (k as u64 + 1)) as usize);
        }

        let mut rounds = 0;
        loop {
            rounds += 1;
            assert!(
                rounds <= MAX_ROUNDS,
                "case {case}: no fixpoint after {MAX_ROUNDS} rounds"
            );

            // Interleave some checks into this round.
            let quota = 1 + (rng.next_u64() % 3) as usize;
            for _ in 0..quota {
                let Some((i, s)) = work.pop() else { break };
                nodes[i].service.check_source(&sources[s]).expect("parse");
            }
            // Links stay faulty while stores are still landing; the drain
            // rounds afterwards are clean, so quiescence is reachable.
            let faulty = !work.is_empty();

            for &(i, j) in &edges {
                if faulty && rng.next_u64().is_multiple_of(4) {
                    continue; // partitioned this round
                }
                let frames = harvest(&nodes[i], fp);
                let applied = hello(&nodes[j], &nodes[i].token, fp) as usize;
                let mut batch: Vec<(u64, Vec<u8>)> = frames
                    .iter()
                    .enumerate()
                    .skip(applied)
                    .map(|(k, f)| (k as u64 + 1, f.clone()))
                    .collect();
                if faulty {
                    // Reorder: swap a random adjacent pair.
                    if batch.len() >= 2 {
                        let k = (rng.next_u64() % (batch.len() as u64 - 1)) as usize;
                        batch.swap(k, k + 1);
                    }
                    let mut faulted = Vec::new();
                    for entry in batch {
                        match rng.next_u64() % 8 {
                            0 | 1 => {} // dropped
                            2 => {
                                faulted.push(entry.clone());
                                faulted.push(entry); // duplicated
                            }
                            _ => faulted.push(entry),
                        }
                    }
                    batch = faulted;
                }
                for (seq, frame) in batch {
                    ship(&nodes[j], &nodes[i].token, seq, &frame);
                }
            }

            // Quiescent: all work done and every edge fully acknowledged.
            if work.is_empty() {
                let done = edges.iter().all(|&(i, j)| {
                    let published = harvest(&nodes[i], fp).len() as u64;
                    hello(&nodes[j], &nodes[i].token, fp) == published
                });
                if done {
                    break;
                }
            }
        }

        // The union: an offline oracle checking every program holds exactly
        // the verdicts the fleet must converge to.
        let oracle = Service::new(ServiceConfig {
            workers: 1,
            cache_shards: 4,
        });
        for src in &sources {
            oracle.check_source(src).expect("parse");
        }
        let union = oracle.cache_stats().entries;
        for node in &nodes {
            assert_eq!(
                node.service.cache_stats().entries,
                union,
                "case {case}: node {} does not hold the union",
                node.token
            );
            assert_eq!(
                inbound_counter(&node.service, "frames_rejected"),
                0,
                "case {case}: honest traffic was rejected at {}",
                node.token
            );
            for src in &sources {
                let report = node.service.check_source(src).expect("parse");
                assert_eq!(
                    report.solve_stats().cache_misses,
                    0,
                    "case {case}: node {} re-solved a replicated program",
                    node.token
                );
            }
        }
        assert!(
            nodes
                .iter()
                .any(|x| inbound_counter(&x.service, "frames_applied") > 0),
            "case {case}: nothing replicated"
        );
    }
}

#[test]
fn corrupted_frames_are_always_rejected_and_never_applied() {
    let mut rng = TestRng::from_label("replication-props-corruption");
    let producer = fresh_node(usize::MAX, 0);
    let fp = producer.service.engine().fingerprint();
    producer
        .service
        .check_source(&source("c", 3))
        .expect("parse");
    let frames = harvest(&producer, fp);
    assert!(!frames.is_empty());
    // The full-state transfer: exactly the compacted image a compaction
    // writes, read back from the producer's cache file.
    producer.service.save_cache().expect("compaction");
    let image = std::fs::read(&producer.wal).expect("compacted image");
    let (mut verdicts, mut defs) = (Vec::new(), Vec::new());
    // Offsets where a frame ends short of the image's end: a cut there
    // leaves a well-framed prefix that only the closing marker betrays.
    let mut boundaries = vec![WAL_FILE_HEADER];
    for frame in harvest(&producer, fp) {
        boundaries.push(boundaries.last().unwrap() + frame.len());
        match validate_frame(&frame, fp).expect("image frame").0 {
            WalRecord::Verdict(key, verdict) => verdicts.push((key, verdict)),
            WalRecord::Def {
                input_hash,
                verify_hash,
                def,
            } => defs.push((input_hash, verify_hash, def)),
            WalRecord::Compaction { .. } => {}
        }
    }
    assert_eq!(compacted_image(fp, &verdicts, &defs), image);
    assert_eq!(boundaries.pop(), Some(image.len()));

    let victim = fresh_node(usize::MAX, 1);
    let mut attempts = 0i64;
    for _ in 0..64 {
        let frame = &frames[(rng.next_u64() % frames.len() as u64) as usize];
        let mutated = match rng.next_u64() % 3 {
            // A single bit flip anywhere in the frame: length, checksum,
            // fingerprint or payload — validation must catch all of them.
            0 => {
                let mut bytes = frame.clone();
                let k = (rng.next_u64() % bytes.len() as u64) as usize;
                bytes[k] ^= 1 << (rng.next_u64() % 8);
                bytes
            }
            // Truncation at a random point: a torn frame.
            1 => {
                let keep = (rng.next_u64() % frame.len() as u64) as usize;
                frame[..keep].to_vec()
            }
            // A well-formed frame from a foreign engine: re-encoded under a
            // perturbed fingerprint, checksum and all.
            _ => {
                let (record, _) = validate_frame(frame, fp).expect("producer frame");
                rel_persist::encode_frame(fp ^ (1 + rng.next_u64() % 0xffff), &record)
            }
        };
        attempts += 1;
        let response = respond(
            &victim.service,
            &format!(
                "{{\"replica\":\"frame\",\"node\":\"evil\",\"seq\":{attempts},\"data\":\"{}\"}}",
                to_hex(&mutated)
            ),
        );
        assert!(
            response.get("error").is_some(),
            "mutated frame was accepted: {response}"
        );

        // The same three mutations of a full-state transfer.  The position
        // jumps to `seq` when a transfer applies, so a mutated image must be
        // rejected whole — never applied minus the frames that failed.
        let mutated = match rng.next_u64() % 3 {
            0 => {
                let mut bytes = image.clone();
                let k = (rng.next_u64() % bytes.len() as u64) as usize;
                bytes[k] ^= 1 << (rng.next_u64() % 8);
                bytes
            }
            // A cut mid-frame, or on a frame boundary: the image must end
            // in its own marker.
            1 => {
                let keep = if rng.next_u64().is_multiple_of(2) {
                    (rng.next_u64() % image.len() as u64) as usize
                } else {
                    boundaries[(rng.next_u64() % boundaries.len() as u64) as usize]
                };
                image[..keep].to_vec()
            }
            _ => compacted_image(fp ^ (1 + rng.next_u64() % 0xffff), &verdicts, &defs),
        };
        attempts += 1;
        let response = respond(
            &victim.service,
            &format!(
                "{{\"replica\":\"snapshot\",\"node\":\"evil\",\"seq\":{},\"data\":\"{}\"}}",
                1_000 + attempts,
                to_hex(&mutated)
            ),
        );
        assert!(
            response.get("error").is_some(),
            "mutated transfer was accepted: {response}"
        );
        assert_eq!(
            hello(&victim, "evil", fp),
            0,
            "a rejected transfer moved the position"
        );
    }
    assert_eq!(
        inbound_counter(&victim.service, "frames_rejected"),
        attempts
    );
    assert_eq!(inbound_counter(&victim.service, "frames_applied"), 0);
    assert_eq!(inbound_counter(&victim.service, "snapshots_applied"), 0);
    assert_eq!(victim.service.cache_stats().entries, 0);

    // Control: the untouched image applies whole and jumps the position.
    let response = respond(
        &victim.service,
        &format!(
            "{{\"replica\":\"snapshot\",\"node\":\"honest\",\"seq\":7,\"data\":\"{}\"}}",
            to_hex(&image)
        ),
    );
    assert_eq!(response.get("applied").and_then(Value::as_int), Some(7));
    assert_eq!(
        victim.service.cache_stats().entries,
        producer.service.cache_stats().entries
    );
}
