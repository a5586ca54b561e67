//! Warm-start persistence end to end at the service layer: compaction and
//! replay across *service instances* (standing in for processes), the
//! incremental skip path, and the daemon's `{"cache": ...}` commands.

use std::path::PathBuf;

use rel_service::{json::Value, respond, Service, ServiceConfig};

const SRC: &str = r#"
    def not2 : boolr -> boolr = lam b. if b then false else true;
    def use : boolr -> boolr = lam b. not2 (not2 b);
"#;

/// The same two definitions under fresh names: unchanged-def skipping does
/// not apply (new input hashes), but every entailment query is identical —
/// the shape of an edited file re-using a persisted validity cache.
const SRC_RENAMED: &str = r#"
    def negate : boolr -> boolr = lam b. if b then false else true;
    def twice : boolr -> boolr = lam b. negate (negate b);
"#;

fn service() -> Service {
    Service::new(ServiceConfig {
        workers: 1,
        cache_shards: 4,
    })
}

fn temp_cache_file(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("birelcost-warm-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("cache.birelcost")
}

#[test]
fn second_service_instance_starts_warm_from_the_cache_file() {
    let path = temp_cache_file("restart");
    let _ = std::fs::remove_file(&path);

    // First "process": cold check, then save.
    let first = service();
    let outcome = first.attach_cache_file(&path);
    assert_eq!(outcome.warning, None);
    assert_eq!(outcome.verdicts, 0, "no cache file yet");
    let cold = first.check_source(SRC).unwrap();
    assert!(cold.all_ok());
    assert_eq!(cold.skipped_unchanged(), 0);
    assert!(cold.solve_stats().cache_misses > 0);
    first.save_cache().unwrap();
    assert!(path.exists());

    // Second "process": replays the image and skips every unchanged def —
    // zero solver work of any kind.
    let second = service();
    let outcome = second.attach_cache_file(&path);
    assert_eq!(outcome.warning, None);
    assert!(outcome.verdicts > 0, "the image must carry verdicts");
    assert_eq!(outcome.defs, 2, "the image must carry both def hashes");
    let warm = second.check_source(SRC).unwrap();
    assert!(warm.all_ok());
    assert_eq!(warm.skipped_unchanged(), 2);
    assert_eq!(warm.solve_stats().points_evaluated, 0);
    assert_eq!(warm.solve_stats().cache_misses, 0);
    assert_eq!(warm.solve_stats().programs_compiled, 0);

    // Third "process", checking a *renamed* copy: defs re-check (new
    // hashes) but the persisted validity cache answers their queries.
    let third = service();
    third.attach_cache_file(&path);
    let renamed = third.check_source(SRC_RENAMED).unwrap();
    assert!(renamed.all_ok());
    assert_eq!(renamed.skipped_unchanged(), 0);
    assert!(
        renamed.solve_stats().cache_hits > 0,
        "identical queries from renamed defs must hit the persisted cache"
    );
    assert_eq!(
        renamed.solve_stats().cache_misses,
        0,
        "every entailment of the renamed copy was persisted"
    );
}

#[test]
fn corrupt_cache_files_degrade_to_a_cold_start_with_a_warning() {
    // Garbage, and a file in the retired snapshot format (its magic, a
    // format version and a plausible header) — both are rejected whole.
    let mut retired = b"BRCS".to_vec();
    retired.extend_from_slice(&2u32.to_le_bytes());
    retired.extend_from_slice(&Service::default().engine().fingerprint().to_le_bytes());
    retired.extend_from_slice(&[0u8; 24]);
    for (tag, bytes) in [
        ("corrupt", b"definitely not a cache file".to_vec()),
        ("retired", retired),
    ] {
        let path = temp_cache_file(tag);
        std::fs::write(&path, bytes).unwrap();

        let service = service();
        let outcome = service.attach_cache_file(&path);
        let warning = outcome.warning.expect("a rejected file must warn");
        assert!(warning.contains("ignoring cache file"), "{tag}: {warning}");
        assert!(!warning.contains("; "), "{tag}: one warning, got {warning}");
        assert_eq!(
            (outcome.verdicts, outcome.defs, outcome.wal_records),
            (0, 0, 0)
        );

        // The service still works (cold), and the next compaction leaves a
        // file that reloads clean.
        let cold = service.check_source(SRC).unwrap();
        assert!(cold.all_ok());
        assert!(
            cold.solve_stats().cache_misses > 0,
            "{tag}: nothing was loaded"
        );
        service.save_cache().unwrap();
        let recovered = Service::default().attach_cache_file(&path);
        assert_eq!(recovered.warning, None, "{tag}");
        assert!(recovered.verdicts > 0, "{tag}");
        assert_eq!(recovered.defs, 2, "{tag}");
    }
}

#[test]
fn dirty_checked_flush_skips_when_nothing_changed() {
    let path = temp_cache_file("dirty");
    let _ = std::fs::remove_file(&path);
    let service = service();

    // No cache file configured: an error, like save_cache.
    assert!(service.save_cache_if_dirty().is_err());

    service.attach_cache_file(&path);
    service.check_source(SRC).unwrap();
    assert_eq!(service.save_cache_if_dirty(), Ok(true), "first flush saves");
    assert_eq!(
        service.save_cache_if_dirty(),
        Ok(false),
        "idle flush is skipped"
    );
    assert_eq!(service.persist_stats().saves, 1);

    // New work re-dirties the state.
    service.check_source(SRC_RENAMED).unwrap();
    assert_eq!(service.save_cache_if_dirty(), Ok(true));
    assert_eq!(service.persist_stats().saves, 2);

    // An explicit save always writes, and resets the dirty stamp.
    service.save_cache().unwrap();
    assert_eq!(service.persist_stats().saves, 3);
    assert_eq!(service.save_cache_if_dirty(), Ok(false));
}

#[test]
fn an_identical_rerun_does_not_rewrite_the_cache_file() {
    let path = temp_cache_file("rerun");
    let _ = std::fs::remove_file(&path);
    let first = service();
    first.attach_cache_file(&path);
    first.check_source(SRC).unwrap();
    assert_eq!(first.save_cache_if_dirty(), Ok(true), "the cold run saves");
    let image = std::fs::read(&path).unwrap();

    // A second process attaches, checks the same source (every def is
    // skipped, nothing is memoized) and flushes: the file is left alone.
    let second = service();
    let outcome = second.attach_cache_file(&path);
    assert_eq!(outcome.warning, None);
    assert_eq!(outcome.wal_records, 0, "the image replayed with no suffix");
    let warm = second.check_source(SRC).unwrap();
    assert_eq!(warm.skipped_unchanged(), 2);
    assert_eq!(second.save_cache_if_dirty(), Ok(false));
    assert_eq!(second.persist_stats().saves, 0);
    assert_eq!(std::fs::read(&path).unwrap(), image);

    // Only the one cache file exists: no sidecar log beside it.
    let dir = path.parent().unwrap();
    let names: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(names, vec![path.file_name().unwrap().to_os_string()]);
}

#[test]
fn daemon_cache_commands_stats_flush_clear() {
    let path = temp_cache_file("daemon");
    let _ = std::fs::remove_file(&path);
    let service = service();
    service.attach_cache_file(&path);

    let check = respond(&service, &format!("{}", check_request(SRC)));
    assert_eq!(check.get("ok"), Some(&Value::Bool(true)));

    // stats: full counters, including the def index and the configured file.
    let stats = respond(&service, r#"{"cache": "stats"}"#);
    let cache = stats.get("cache").expect("cache object");
    assert_eq!(cache.get("def_entries").and_then(Value::as_int), Some(2));
    assert_eq!(cache.get("saves").and_then(Value::as_int), Some(0));
    assert!(cache.get("entries").and_then(Value::as_int).unwrap() > 0);
    assert!(cache.get("file").and_then(Value::as_str).is_some());

    // flush: compacts the cache file and reports it.
    let flush = respond(&service, r#"{"cache": "flush"}"#);
    assert_eq!(flush.get("flushed"), Some(&Value::Bool(true)));
    assert!(flush.get("verdicts").and_then(Value::as_int).unwrap() > 0);
    assert!(path.exists());
    let stats = respond(&service, r#"{"cache": "stats"}"#);
    assert_eq!(
        stats
            .get("cache")
            .unwrap()
            .get("saves")
            .and_then(Value::as_int),
        Some(1)
    );

    // clear: every memoized layer drops to empty.
    let clear = respond(&service, r#"{"cache": "clear"}"#);
    assert_eq!(clear.get("cleared"), Some(&Value::Bool(true)));
    let cache = clear.get("cache").unwrap();
    assert_eq!(cache.get("entries").and_then(Value::as_int), Some(0));
    assert_eq!(cache.get("def_entries").and_then(Value::as_int), Some(0));
    assert_eq!(
        cache.get("program_entries").and_then(Value::as_int),
        Some(0)
    );

    // An unknown cache command is an error response, not a dead daemon.
    let bad = respond(&service, r#"{"cache": "explode"}"#);
    assert!(bad
        .get("error")
        .and_then(Value::as_str)
        .unwrap()
        .contains("explode"));

    // A daemon without a cache file reports flush as an error.
    let no_file = Service::default();
    let flush = respond(&no_file, r#"{"cache": "flush"}"#);
    assert!(flush
        .get("error")
        .and_then(Value::as_str)
        .unwrap()
        .contains("no cache file"));
}

/// Builds a `{"check": SRC}` request line with proper JSON escaping.
fn check_request(source: &str) -> Value {
    Value::Obj(vec![("check".to_string(), Value::Str(source.to_string()))])
}
