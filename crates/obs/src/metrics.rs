//! Named counters and log-scaled latency histograms behind one registry.
//!
//! Two kinds of registry exist in a process:
//!
//! * [`global()`] — the process-wide registry the solver layers publish
//!   monotonic counters into (`SolveStats::publish` in rel-constraint,
//!   persist load/save counters, …).  Handles are cached per call site by
//!   the [`counter!`](crate::counter!)/[`histogram!`](crate::histogram!)
//!   macros, so after the first call an increment is a single atomic add:
//!   no locking, no allocation.
//! * Private [`Registry`] instances — `rel-service` gives every `Service`
//!   its own registry for per-request latency histograms and cache gauges,
//!   so parallel services (and parallel tests in one binary) never bleed
//!   into each other.
//!
//! A snapshot serializes to the versioned JSON schema documented in
//! DESIGN.md §8.2; [`SCHEMA_VERSION`] bumps on any breaking field change.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Version stamp of the metrics JSON schema (the `schema_version` field of
/// every dump).  Bump on any field rename, removal or type change.
pub const SCHEMA_VERSION: u64 = 1;

/// Histogram bucket count: bucket `i` holds observations whose bit length
/// is `i` (i.e. values in `[2^(i-1), 2^i)`), so nanosecond latencies from
/// 1 ns to ~146 years land in distinct buckets.
const BUCKETS: usize = 64;

/// A monotonic named counter.  Cloning shares the underlying atomic.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        if n != 0 {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one to the counter.
    #[inline]
    pub fn incr(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistInner {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl HistInner {
    fn new() -> HistInner {
        HistInner {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// A log-scaled latency histogram (nanosecond observations).  Cloning
/// shares the underlying buckets.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistInner>);

/// Bucket index of a value: its bit length, clamped to the table.
#[inline]
fn bucket_index(v: u64) -> usize {
    (64 - v.leading_zeros() as usize).min(BUCKETS - 1)
}

/// Upper bound of a bucket, used as the representative value when reading
/// percentiles back out (pessimistic by at most 2x, which is the deal one
/// signs with log-scale buckets).
fn bucket_upper(idx: usize) -> u64 {
    if idx == 0 {
        0
    } else if idx >= 63 {
        u64::MAX
    } else {
        (1u64 << idx) - 1
    }
}

impl Histogram {
    /// Records one observation (typically a span duration in nanoseconds).
    #[inline]
    pub fn observe_ns(&self, v: u64) {
        let inner = &self.0;
        inner.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        inner.sum.fetch_add(v, Ordering::Relaxed);
        inner.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records a [`std::time::Duration`] observation.
    #[inline]
    pub fn observe(&self, d: std::time::Duration) {
        self.observe_ns(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Starts an RAII timer that observes the elapsed wall clock on this
    /// histogram when dropped — the shape serving loops want around a
    /// request body with several exit paths.
    pub fn start_timer(&self) -> Timer {
        Timer {
            histogram: self.clone(),
            start: std::time::Instant::now(),
        }
    }

    /// Reads a consistent-enough snapshot (relaxed loads; counts may lag
    /// concurrent writers by a few observations, which is fine for a dump).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let inner = &self.0;
        let mut buckets = [0u64; BUCKETS];
        let mut count = 0u64;
        for (i, b) in inner.buckets.iter().enumerate() {
            buckets[i] = b.load(Ordering::Relaxed);
            count += buckets[i];
        }
        let percentile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
            let mut seen = 0u64;
            for (i, &n) in buckets.iter().enumerate() {
                seen += n;
                if seen >= rank {
                    return bucket_upper(i);
                }
            }
            bucket_upper(BUCKETS - 1)
        };
        HistogramSnapshot {
            count,
            sum_ns: inner.sum.load(Ordering::Relaxed),
            p50_ns: percentile(0.50),
            p90_ns: percentile(0.90),
            p99_ns: percentile(0.99),
            max_ns: inner.max.load(Ordering::Relaxed),
        }
    }
}

/// RAII guard from [`Histogram::start_timer`]: records the elapsed time on
/// drop, so every return path of a request handler is measured without a
/// per-path `observe` call.
#[derive(Debug)]
pub struct Timer {
    histogram: Histogram,
    start: std::time::Instant,
}

impl Drop for Timer {
    fn drop(&mut self) {
        self.histogram.observe(self.start.elapsed());
    }
}

/// Point-in-time summary of one histogram, as exported in the JSON dump.
/// Percentiles are bucket upper bounds (within 2x of the true value); the
/// max is exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum_ns: u64,
    pub p50_ns: u64,
    pub p90_ns: u64,
    pub p99_ns: u64,
    pub max_ns: u64,
}

/// A named-metric registry: counters, gauges and latency histograms.
///
/// Lookup by name takes a mutex, so callers on hot paths cache the handle
/// (see [`counter!`](crate::counter!)/[`histogram!`](crate::histogram!));
/// the handles themselves are lock-free.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, i64>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Returns the counter registered under `name`, creating it at zero on
    /// first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.counters.lock().expect("counter map poisoned");
        map.entry(name.to_owned())
            .or_insert_with(|| Counter(Arc::new(AtomicU64::new(0))))
            .clone()
    }

    /// Returns the histogram registered under `name`, creating it empty on
    /// first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = self.histograms.lock().expect("histogram map poisoned");
        map.entry(name.to_owned())
            .or_insert_with(|| Histogram(Arc::new(HistInner::new())))
            .clone()
    }

    /// Sets a gauge to an absolute value.  Gauges are for level quantities
    /// (cache entries, bytes on disk) refreshed at snapshot time, not for
    /// hot-path increments.
    pub fn set_gauge(&self, name: &str, value: i64) {
        let mut map = self.gauges.lock().expect("gauge map poisoned");
        map.insert(name.to_owned(), value);
    }

    /// Reads every metric into a sorted snapshot.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let counters = {
            let map = self.counters.lock().expect("counter map poisoned");
            map.iter().map(|(k, v)| (k.clone(), v.get())).collect()
        };
        let gauges = {
            let map = self.gauges.lock().expect("gauge map poisoned");
            map.iter().map(|(k, v)| (k.clone(), *v)).collect()
        };
        let histograms = {
            let map = self.histograms.lock().expect("histogram map poisoned");
            map.iter().map(|(k, v)| (k.clone(), v.snapshot())).collect()
        };
        RegistrySnapshot {
            schema_version: SCHEMA_VERSION,
            counters,
            gauges,
            histograms,
        }
    }

    /// Serializes [`Registry::snapshot`] to the versioned JSON schema.
    pub fn dump_json(&self) -> String {
        self.snapshot().to_json()
    }
}

/// A point-in-time dump of a registry, sorted by name within each section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegistrySnapshot {
    pub schema_version: u64,
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, i64)>,
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl RegistrySnapshot {
    /// The value of a counter by name, when present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// The value of a gauge by name, when present.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Serializes to the versioned schema:
    ///
    /// ```json
    /// {"schema_version": 1,
    ///  "counters": {"fm.proved": 12, ...},
    ///  "gauges": {"cache.validity.entries": 40, ...},
    ///  "histograms": {"serve.request_ns": {"count": 3, "sum_ns": ...,
    ///     "p50_ns": ..., "p90_ns": ..., "p99_ns": ..., "max_ns": ...}}}
    /// ```
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"schema_version\":");
        out.push_str(&self.schema_version.to_string());
        out.push_str(",\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(&mut out, name);
            out.push(':');
            out.push_str(&v.to_string());
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(&mut out, name);
            out.push(':');
            out.push_str(&v.to_string());
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(&mut out, name);
            out.push_str(&format!(
                ":{{\"count\":{},\"sum_ns\":{},\"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{},\"max_ns\":{}}}",
                h.count, h.sum_ns, h.p50_ns, h.p90_ns, h.p99_ns, h.max_ns
            ));
        }
        out.push_str("}}");
        out
    }
}

/// Appends `s` as a JSON string literal (quotes included).
pub(crate) fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The process-wide registry.  Solver layers publish monotonic counters
/// here; snapshot consumers merge it with any service-private registries.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// A counter on the [`global`] registry, with the handle cached in a
/// per-call-site static: the registry mutex is taken once per call site
/// per process, after which this is one relaxed atomic add.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<$crate::metrics::Counter> =
            ::std::sync::OnceLock::new();
        HANDLE
            .get_or_init(|| $crate::metrics::global().counter($name))
            .clone()
    }};
}

/// A histogram on the [`global`] registry, handle cached per call site
/// like [`counter!`](crate::counter!).
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<$crate::metrics::Histogram> =
            ::std::sync::OnceLock::new();
        HANDLE
            .get_or_init(|| $crate::metrics::global().histogram($name))
            .clone()
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share() {
        let reg = Registry::new();
        let a = reg.counter("a");
        let a2 = reg.counter("a");
        a.add(3);
        a2.incr();
        assert_eq!(a.get(), 4);
        assert_eq!(reg.counter("a").get(), 4);
        assert_eq!(reg.counter("b").get(), 0);
    }

    #[test]
    fn bucket_index_is_bit_length() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 63);
    }

    #[test]
    fn histogram_percentiles_are_bucket_upper_bounds() {
        let reg = Registry::new();
        let h = reg.histogram("lat");
        // 90 fast observations, 10 slow ones.
        for _ in 0..90 {
            h.observe_ns(100); // bucket 7, upper 127
        }
        for _ in 0..10 {
            h.observe_ns(1_000_000); // bucket 20, upper (1<<20)-1
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum_ns, 90 * 100 + 10 * 1_000_000);
        assert_eq!(s.p50_ns, 127);
        assert_eq!(s.p90_ns, 127);
        assert_eq!(s.p99_ns, (1 << 20) - 1);
        assert_eq!(s.max_ns, 1_000_000);
    }

    #[test]
    fn empty_histogram_snapshot_is_zero() {
        let reg = Registry::new();
        let s = reg.histogram("empty").snapshot();
        assert_eq!(
            s,
            HistogramSnapshot {
                count: 0,
                sum_ns: 0,
                p50_ns: 0,
                p90_ns: 0,
                p99_ns: 0,
                max_ns: 0
            }
        );
    }

    #[test]
    fn dump_json_is_sorted_and_versioned() {
        let reg = Registry::new();
        reg.counter("zeta").add(2);
        reg.counter("alpha").incr();
        reg.set_gauge("g", -5);
        reg.histogram("h").observe_ns(1);
        let json = reg.dump_json();
        assert!(json.starts_with("{\"schema_version\":1,"));
        let alpha = json.find("\"alpha\":1").expect("alpha missing");
        let zeta = json.find("\"zeta\":2").expect("zeta missing");
        assert!(alpha < zeta, "counters must be name-sorted");
        assert!(json.contains("\"g\":-5"));
        assert!(json.contains(
            "\"h\":{\"count\":1,\"sum_ns\":1,\"p50_ns\":1,\"p90_ns\":1,\"p99_ns\":1,\"max_ns\":1}"
        ));
    }

    #[test]
    fn json_strings_are_escaped() {
        let mut out = String::new();
        push_json_str(&mut out, "a\"b\\c\nd");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn timer_observes_on_every_exit_path() {
        let reg = Registry::new();
        let h = reg.histogram("timed");
        {
            let _t = h.start_timer();
        }
        let early_return = || -> Result<(), ()> {
            let _t = h.start_timer();
            Err(())? // the guard records even when the body bails
        };
        let _ = early_return();
        assert_eq!(h.snapshot().count, 2);
    }

    #[test]
    fn global_macros_cache_handles() {
        let c = counter!("obs.test.macro_counter");
        c.incr();
        let again = counter!("obs.test.macro_counter");
        again.incr();
        assert!(global().counter("obs.test.macro_counter").get() >= 2);
        let h = histogram!("obs.test.macro_hist");
        h.observe_ns(7);
        assert!(global().histogram("obs.test.macro_hist").snapshot().count >= 1);
    }
}
