//! Service-level WAL recovery: verdicts survive a daemon that never flushed,
//! compaction fires from the thresholds, a failing periodic save backs off
//! and degrades health, the wire protocol exposes WAL counters, and request
//! deadlines degrade to structured errors.

use std::io::Cursor;
use std::sync::Arc;
use std::time::Duration;

use rel_persist::{Fault, FaultScript, FaultyFs, UnsyncedSurvival, WalLimits};
use rel_service::json::{self, Value};
use rel_service::{serve, PeriodicSave, ReactorOptions, Service, ServiceConfig};

const CACHE: &str = "/d/cache";

fn service() -> Service {
    Service::new(ServiceConfig {
        workers: 1,
        cache_shards: 4,
    })
}

/// A source whose check actually stores constraint verdicts (the boolean
/// toys never consult the validity cache): the `map` benchmark drives the
/// FM layer and the existential search.
fn src() -> String {
    rel_suite::benchmark("map")
        .unwrap()
        .source
        .replace('\n', " ")
}

/// Reactor options for a one-worker stdio session with `request_timeout`.
fn options(request_timeout: Option<Duration>) -> ReactorOptions {
    ReactorOptions {
        workers: 1,
        request_timeout,
        ..ReactorOptions::default()
    }
}

fn wide_limits() -> WalLimits {
    WalLimits {
        max_bytes: u64::MAX,
        max_records: u64::MAX,
    }
}

#[test]
fn verdicts_survive_a_crash_without_any_explicit_flush() {
    let fs = FaultyFs::new();
    let first = service();
    let outcome = first.attach_cache_file_with(Arc::new(fs.clone()), CACHE, wide_limits());
    assert_eq!(outcome.warning, None);

    let report = first.check_source(&src()).expect("source checks");
    assert!(report.all_ok());
    let stored = first.cache_stats().entries;
    assert!(stored > 0, "the check stored verdicts");
    let wal = first.persist_stats().wal.expect("wal attached");
    assert!(wal.appends >= stored, "every verdict store hit the log");
    assert_eq!(wal.append_errors, 0);

    // Kill it: no save_cache(), no drop-order courtesy.  Only synced bytes
    // survive — append_verdict syncs, so everything acked is on "disk".
    drop(first);
    let survivor = fs.surviving();

    let second = service();
    let outcome = second.attach_cache_file_with(Arc::new(survivor), CACHE, wide_limits());
    assert_eq!(outcome.warning, None, "clean replay: {:?}", outcome.warning);
    assert_eq!(outcome.verdicts, 0, "no snapshot was ever written");
    assert!(outcome.wal_records > 0, "recovery came from the wal suffix");
    assert_eq!(outcome.wal_anomalies, 0);

    let report = second.check_source(&src()).expect("source re-checks");
    assert!(report.all_ok());
    // The replayed def-index entries let every unchanged definition skip
    // re-verification outright — warm recovery without a single flush.
    assert!(
        report.skipped_unchanged() > 0,
        "replayed def hashes answered the second run"
    );
}

#[test]
fn torn_wal_tail_degrades_to_a_warning_and_a_prefix() {
    // Crash mid-append with a 1-byte torn tail surviving.
    let fs = FaultyFs::new();
    let first = service();
    first.attach_cache_file_with(Arc::new(fs.clone()), CACHE, wide_limits());
    let probe_ops = {
        // Count ops of a clean run on a scratch fs to find a mid-run index.
        let scratch = FaultyFs::new();
        let s = service();
        s.attach_cache_file_with(Arc::new(scratch.clone()), CACHE, wide_limits());
        s.check_source(&src()).unwrap();
        scratch.op_count()
    };
    let fs = FaultyFs::with_script(FaultScript::crash_at(
        probe_ops.saturating_sub(2),
        UnsyncedSurvival::Prefix(1),
    ));
    let first = service();
    first.attach_cache_file_with(Arc::new(fs.clone()), CACHE, wide_limits());
    let _ = first.check_source(&src());
    drop(first);

    let second = service();
    let outcome = second.attach_cache_file_with(Arc::new(fs.surviving()), CACHE, wide_limits());
    // Whatever happened, attach recovered a consistent prefix and, because
    // the tail was torn, flagged it and folded the log on startup.
    if outcome.wal_anomalies > 0 {
        let warning = outcome.warning.expect("anomalies carry a warning");
        assert!(warning.contains("wal"), "unexpected warning: {warning}");
    }
    assert!(second.check_source(&src()).expect("still serves").all_ok());
}

#[test]
fn compaction_threshold_folds_the_log_into_the_snapshot() {
    let fs = FaultyFs::new();
    let svc = service();
    let limits = WalLimits {
        max_bytes: u64::MAX,
        max_records: 1,
    };
    svc.attach_cache_file_with(Arc::new(fs.clone()), CACHE, limits);
    svc.check_source(&src()).expect("source checks");

    // More than one record appended → the observer marked compaction due.
    assert_eq!(svc.compact_if_due(), Ok(true));
    assert_eq!(
        svc.compact_if_due(),
        Ok(false),
        "due flag is edge-triggered"
    );
    let wal = svc.persist_stats().wal.expect("wal attached");
    assert_eq!(wal.compactions, 1);
    assert_eq!(wal.records, 0, "nothing appended since the compaction");
    drop(svc);

    // The compacted image now carries the verdicts; the suffix is empty.
    let second = service();
    let outcome = second.attach_cache_file_with(Arc::new(fs.surviving()), CACHE, limits);
    assert_eq!(outcome.warning, None);
    assert!(outcome.verdicts > 0, "folded verdicts live in the image");
    assert_eq!(outcome.wal_records, 0);
    let report = second.check_source(&src()).expect("serves");
    assert!(report.all_ok());
    assert!(
        report.skipped_unchanged() > 0,
        "the image warmed the def index"
    );

    // The limit counts the suffix, not the image: a store whose image alone
    // holds far more than `max_records` is due only once its suffix is.
    assert!(outcome.verdicts + outcome.defs > limits.max_records);
    let def = birelcost::StoredDef {
        name: "probe".to_string(),
        ok: true,
        proved: true,
        error: None,
    };
    second.def_index().insert(1, 2, def.clone());
    assert_eq!(second.compact_if_due(), Ok(false), "suffix of one record");
    second.def_index().insert(3, 4, def);
    assert_eq!(second.compact_if_due(), Ok(true), "suffix of two records");
}

#[test]
fn cache_stats_response_carries_the_wal_counters() {
    let fs = FaultyFs::new();
    let svc = service();
    svc.attach_cache_file_with(Arc::new(fs), CACHE, wide_limits());
    svc.check_source(&src()).expect("source checks");

    let mut output = Vec::new();
    serve(
        &svc,
        Cursor::new("{\"cache\": \"stats\"}"),
        &mut output,
        options(None),
    )
    .expect("in-memory I/O");
    let response = json::parse(String::from_utf8(output).unwrap().lines().next().unwrap())
        .expect("valid JSON");
    let wal = response
        .get("cache")
        .and_then(|c| c.get("wal"))
        .expect("cache.wal object");
    for field in [
        "records",
        "bytes",
        "appends",
        "append_errors",
        "compactions",
        "replayed",
        "truncated_tails",
        "corrupt_skipped",
        "fingerprint_rejected",
        "tmp_reaped",
    ] {
        assert!(
            wal.get(field).and_then(Value::as_int).is_some(),
            "cache.wal.{field} missing in {wal}"
        );
    }
    assert!(wal.get("appends").and_then(Value::as_int).unwrap() > 0);
}

#[test]
fn a_zero_deadline_times_out_with_a_structured_error() {
    let svc = service();
    let req = format!("{{\"id\": 7, \"check\": \"{}\"}}", src());
    let mut output = Vec::new();
    let summary = serve(
        &svc,
        Cursor::new(req),
        &mut output,
        options(Some(Duration::ZERO)),
    )
    .expect("in-memory I/O");
    assert_eq!(summary.requests, 1);
    assert_eq!(summary.deadlines, 1);

    let response = json::parse(String::from_utf8(output).unwrap().lines().next().unwrap()).unwrap();
    assert_eq!(
        response.get("error").and_then(Value::as_str),
        Some("deadline")
    );
    assert_eq!(response.get("id").and_then(Value::as_int), Some(7));
    assert_eq!(response.get("timeout_ms").and_then(Value::as_int), Some(0));

    // The workers were joined before `serve` returned; the service is
    // intact.
    assert!(svc.check_source(&src()).expect("still serves").all_ok());
}

#[test]
fn generous_deadlines_do_not_interfere_with_answers() {
    let svc = service();
    let req = format!("{{\"check\": \"{}\"}}", src());
    let mut output = Vec::new();
    let summary = serve(
        &svc,
        Cursor::new(req),
        &mut output,
        options(Some(Duration::from_secs(60))),
    )
    .expect("in-memory I/O");
    assert_eq!(summary.deadlines, 0);
    let response = json::parse(String::from_utf8(output).unwrap().lines().next().unwrap()).unwrap();
    assert_eq!(response.get("ok"), Some(&Value::Bool(true)));
}

#[test]
fn a_failing_periodic_save_backs_off_and_degrades_health() {
    // Attaching and checking on a fault-free disk costs a fixed number of
    // operations; the compaction after them starts with its temp write.
    let probe = FaultyFs::new();
    let svc = service();
    svc.attach_cache_file_with(Arc::new(probe.clone()), CACHE, wide_limits());
    svc.check_source(&src()).expect("source checks");
    let compaction_write = probe.op_count();

    let fs = FaultyFs::with_script(FaultScript::fault_at(compaction_write, Fault::Enospc));
    let svc = service();
    svc.attach_cache_file_with(Arc::new(fs), CACHE, wide_limits());
    assert!(svc.check_source(&src()).expect("source checks").all_ok());
    assert!(svc.health().ready, "{:?}", svc.health());

    let PeriodicSave::Failed {
        error,
        warn,
        backoff_ms,
    } = svc.periodic_save()
    else {
        panic!("the save must hit the injected ENOSPC");
    };
    assert!(error.contains("no space left"), "{error}");
    assert!(warn, "entering the failing state warns once");
    assert!(backoff_ms > 0);
    assert_eq!(
        svc.periodic_save(),
        PeriodicSave::Deferred,
        "inside the backoff window nothing is attempted"
    );
    let health = svc.health();
    assert!(!health.ready);
    assert_eq!(health.reasons, vec!["save-backoff".to_string()]);
    assert_eq!(
        svc.metrics_snapshot().counter("persist.save_failures"),
        Some(1)
    );
}
