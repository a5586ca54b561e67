//! The repository's benchmark: a cold Table-1 workload and a daemon
//! workload of edits, each driven through the public APIs of
//! the checker's crates, with an optional traced run that breaks the time
//! down by layer. See `README.md` beside this crate for the metrics.

pub mod rename;
pub mod serve;
pub mod stats;
pub mod table1;
pub mod trace;

use rel_service::json::Value;

/// The workloads, by the name `--workload` takes.
pub const WORKLOADS: [&str; 2] = ["table1", "serve_edit"];

/// End-to-end metrics every workload reports with tracing off. Each has one
/// definition on every workload (see `README.md`). Times are CPU time,
/// which leaves out the steal of a shared host: an operation is a program's
/// cold check on `table1` and a request on `serve_edit`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("cpu_ms_per_op", "ms"),
    ("verified", "count"),
    ("proved", "count"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics every workload reports with tracing on (a layer the
/// workload does not exercise reads 0), apart from the per-program
/// `check_ms.<program>` rows of [`per_layer_catalogue`].
pub const PER_LAYER: [(&str, &str); 46] = [
    ("suite_wall_s", "s"),
    ("syntax.parse_ms", "ms"),
    ("bidir.typecheck_ms", "ms"),
    ("solver.entails_ms", "ms"),
    ("engine.other_ms", "ms"),
    ("trace.residual_pct", "%"),
    ("solver.queries", "count"),
    ("exelim.attempts", "count"),
    ("exelim.pruned", "count"),
    ("fm.proved", "count"),
    ("fm.refuted", "count"),
    ("fm.projections", "count"),
    ("fm.memo_hit_ratio", "ratio"),
    ("fm.memo_lookups", "count"),
    ("grid.numeric_checks", "count"),
    ("grid.points", "count"),
    ("grid.programs_compiled", "count"),
    ("grid.accepted", "count"),
    ("bidir.constraint_atoms", "count"),
    ("bidir.existential_vars", "count"),
    ("json.decode_us", "us"),
    ("json.encode_us", "us"),
    ("syntax.parse_us", "us"),
    ("daemon.check_us", "us"),
    ("daemon.respond_us", "us"),
    ("bidir.typecheck_us", "us"),
    ("solver.entails_us", "us"),
    ("defindex.hit_us", "us"),
    ("reactor.overhead_us", "us"),
    ("daemon.wait_ms", "ms"),
    ("defindex.hit_ratio", "ratio"),
    ("defindex.lookups", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.lookups", "count"),
    ("wal.appends", "count"),
    ("wal.bytes", "bytes"),
    ("wal.compactions", "count"),
    ("wal.compact_ms", "ms"),
    ("reactor.backpressure", "count"),
    ("reactor.deadlines", "count"),
    ("client.p50_ms", "ms"),
    ("client.p99_ms", "ms"),
    ("client.late_p99_ms", "ms"),
    ("daemon.knee_rps", "1/s"),
    ("trace.overhead_pct", "%"),
    ("fail_frac", "ratio"),
];

/// Every per-layer metric name with its unit, `check_ms.<program>` rows
/// included, in report order.
pub fn per_layer_catalogue() -> Vec<(String, &'static str)> {
    let programs = rel_suite::all_benchmarks()
        .into_iter()
        .map(|b| (format!("check_ms.{}", b.name), "ms"));
    PER_LAYER
        .iter()
        .map(|(n, u)| (n.to_string(), *u))
        .chain(programs)
        .collect()
}

/// What one run measured and whether its outputs were right.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed operation (printed to stderr).
    pub failures: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Records (or overwrites) a metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        match self.metrics.iter_mut().find(|(n, _, _)| *n == name) {
            Some(slot) => *slot = (name, value, unit),
            None => self.metrics.push((name, value, unit)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _, _)| n == name).map(|m| m.1)
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    /// The result line: the catalogue's metrics for this mode, in catalogue
    /// order, a missing per-layer metric reading 0.
    pub fn to_json(&self, traced: bool) -> Value {
        let catalogue: Vec<(String, &str)> = if traced {
            per_layer_catalogue()
        } else {
            END_TO_END.iter().map(|(n, u)| (n.to_string(), *u)).collect()
        };
        let metrics = catalogue
            .into_iter()
            .map(|(name, unit)| {
                let value = self.get(&name).unwrap_or(0.0);
                let entry = Value::obj([("value", Value::Num(value)), ("unit", Value::Str(unit.to_string()))]);
                (name, entry)
            })
            .collect();
        Value::obj([
            ("correct", Value::Bool(self.failed == 0)),
            ("attempted", Value::Int(self.attempted as i64)),
            ("failed", Value::Int(self.failed as i64)),
            ("metrics", Value::Obj(metrics)),
        ])
    }
}
