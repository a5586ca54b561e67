//! `rel-obs`: the flight recorder for the BiRelCost pipeline.
//!
//! The checker is a multi-layer decision pipeline (symbolic search →
//! Fourier–Motzkin proving behind a whole-query memo → indexed existential
//! elimination → compiled grid sweeps); this crate is the window into it.
//! It is deliberately dependency-free — the build environment has no
//! registry access, so `tracing`/`metrics` crates are out — and splits into
//! three pieces (DESIGN.md §8):
//!
//! * [`recorder`] — a lock-cheap span/event recorder: thread-local ring
//!   buffers of fixed-size raw events, monotonic timestamps against one
//!   process-start epoch, `u16`-interned span names, and an explicit
//!   [`SpanGuard`] RAII type.  Recording is off by default; when off, the
//!   hot-path entry points are a single relaxed atomic load and **zero
//!   allocations** (counter-asserted in `tests/zero_alloc.rs`).
//! * [`metrics`] — a named-counter + log-scaled latency-histogram registry.
//!   The [`counter!`]/[`histogram!`] macros cache the handle in a per-call-
//!   site static, so after the first call an increment is one atomic add.
//!   [`global`] is the process-wide registry the solver layers publish into;
//!   services own additional private [`Registry`] instances for per-request
//!   metrics that must not bleed between instances.
//! * [`chrome`] — the chrome://tracing JSON exporter (`--trace-out`) plus
//!   the span-tree builder behind the `birelcost explain` verdict narrative.
//!
//! The metrics JSON schema is versioned ([`metrics::SCHEMA_VERSION`]); the
//! field table lives in DESIGN.md §8.2 and `rel-service` ships the checker.

pub mod backoff;
pub mod chrome;
pub mod metrics;
pub mod recorder;

pub use backoff::Backoff;
pub use chrome::{build_trees, chrome_trace, SpanNode, ThreadTree};
pub use metrics::{
    global, Counter, Histogram, HistogramSnapshot, Registry, RegistrySnapshot, Timer,
    SCHEMA_VERSION,
};
pub use recorder::{
    check_well_nested, event, event_with, recording, set_recording, span, span_with, take_events,
    Event, EventKind, SpanGuard,
};

/// The observability configuration of one process: whether the span/event
/// recorder is armed.  Metrics counters are *always* live — they are plain
/// atomics with no allocation or locking on the increment path — so the
/// only thing worth a switch is the recorder, whose events occupy memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RelObsConfig {
    /// Record spans and events into the thread-local ring buffers.
    pub record_spans: bool,
}

impl RelObsConfig {
    /// Everything off: span entry points return inert guards without
    /// touching thread-local state (the zero-allocation mode the solver hot
    /// path runs under by default).
    pub fn off() -> RelObsConfig {
        RelObsConfig {
            record_spans: false,
        }
    }

    /// Recorder armed (used by `--trace-out` and `birelcost explain`).
    pub fn on() -> RelObsConfig {
        RelObsConfig { record_spans: true }
    }

    /// Installs this configuration process-wide.
    pub fn apply(&self) {
        recorder::set_recording(self.record_spans);
    }
}

impl Default for RelObsConfig {
    fn default() -> Self {
        RelObsConfig::off()
    }
}
