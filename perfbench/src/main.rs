//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! --work-dir <dir>`
//!
//! Runs one workload and prints, as its last stdout line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics` (the end-to-end
//! metrics with `--trace 0`, the per-layer ones with `--trace 1`). Exits 1
//! when any verdict was wrong or any operation failed, 2 on bad arguments.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::{serve, stats, table1, Report, END_TO_END, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut traced, mut work) = (None, None, None, false, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => traced = value == "1",
            "--work-dir" => work = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; expected one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced,
        work: work.ok_or("--work-dir is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("perfbench: creating {}: {e}", args.work.display());
        return ExitCode::from(1);
    }
    let mut report = Report::default();
    let work = args.work.join(format!("{}-{}", args.workload, std::process::id()));
    let outcome = match args.workload.as_str() {
        "table1" => table1::run(args.seed, args.seconds, args.traced, &mut report),
        _ => serve::run(args.seed, args.seconds, args.traced, &work, &mut report),
    };
    let recorder = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            let _ = std::fs::remove_dir_all(&work);
            return ExitCode::from(1);
        }
    };
    let fail_frac = report.failed as f64 / report.attempted.max(1) as f64;
    report.put("peak_rss_mb", stats::peak_rss_mb(), "MiB");
    report.put("fail_frac", fail_frac, "ratio");
    let _ = std::fs::remove_dir_all(&work);
    if args.traced {
        let path = args.work.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = recorder.write_jsonl(&path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
    } else if let Some((missing, _)) = END_TO_END.iter().find(|(n, _)| report.get(n).is_none()) {
        eprintln!("perfbench: {} did not measure {missing}", args.workload);
        return ExitCode::from(1);
    }
    for failure in report.failures.iter().take(20) {
        eprintln!("perfbench: failed: {failure}");
    }
    println!(
        "{}: fail_frac {fail_frac} ratio ({} failed of {} attempted)",
        args.workload,
        report.failed,
        report.attempted
    );
    println!("{}", report.to_json(args.traced));
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
