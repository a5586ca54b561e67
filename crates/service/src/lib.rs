//! `rel-service`: a concurrent batch-checking service for BiRelCost.
//!
//! The checker in [`birelcost`] is a one-shot library call; this crate turns
//! it into a serving subsystem (DESIGN.md §5):
//!
//! * [`batch`] — a batch scheduler that checks many programs concurrently on
//!   a `std::thread` worker pool, aggregating per-job
//!   [`DefReport`](birelcost::DefReport)/[`PhaseTimings`](birelcost::PhaseTimings);
//! * [`service`] — the [`Service`] façade wiring a shared
//!   [`Engine`](birelcost::Engine) to a sharded
//!   [constraint-validity cache](rel_constraint::ShardedValidityCache), so
//!   verdicts computed for one request are reused by every later request;
//! * [`daemon`] — the request protocol behind `birelcost serve`:
//!   `{"check": "<source>"}` → per-def verdicts, timings and cache
//!   counters, so external harnesses can drive sustained traffic;
//! * [`codec`] — the wire-format seam: NDJSON and hand-rolled HTTP/1.1
//!   framings of the *same* JSON content, so both planes answer
//!   byte-identical payloads (DESIGN.md §10);
//! * [`reactor`] — the one serving loop: a `poll(2)` readiness loop
//!   driving many connections (stdio is one of them) over one bounded
//!   worker queue, with per-request deadlines, explicit backpressure and
//!   streamed batches;
//! * [`json`] — the minimal JSON layer backing the protocol (no external
//!   dependencies are available in this build environment).
//!
//! # Quick start
//!
//! ```
//! use rel_service::{BatchJob, Service, ServiceConfig};
//!
//! // workers: 1 keeps this doctest deterministic; with N workers identical
//! // jobs that run *simultaneously* can both miss before either stores.
//! let service = Service::new(ServiceConfig { workers: 1, cache_shards: 16 });
//! let src = "
//!     def not2 : boolr -> boolr = lam b. if b then false else true;
//!     def use : boolr -> boolr = lam b. not2 (not2 b);
//! ";
//! let jobs = vec![BatchJob::new("a", src), BatchJob::new("b", src)];
//! let results = service.check_batch(&jobs);
//! assert!(results.iter().all(|r| r.ok()));
//! // The second identical job was answered from the validity cache.
//! assert!(service.cache_stats().hits > 0);
//! ```

pub mod batch;
pub mod codec;
pub mod daemon;
pub mod faultnet;
pub mod json;
pub mod reactor;
pub mod replica;
pub mod schema;
pub mod service;
#[cfg(feature = "test-hooks")]
pub mod test_hooks;

pub use batch::{
    check_batch, check_batch_with, check_job, check_job_with, BatchJob, BatchResult, BatchStats,
};
pub use codec::{content_line, make_codec, Codec, CodecKind, CodecLimits, Decode};
pub use daemon::respond;
pub use faultnet::{NetFault, NetScript, RealNet, SimConn, SimNet, Transport, Wire};
pub use reactor::{serve, serve_reactor, ReactorOptions, ReactorSummary};
pub use replica::{ReplicaOptions, ReplicaStatus};
pub use schema::{validate_metrics, MetricsSummary};
pub use service::{
    available_workers, Health, LoadOutcome, PeriodicSave, PersistStats, Service, ServiceConfig,
};
