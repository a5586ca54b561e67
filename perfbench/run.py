#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

One workload, with the flags every measured run takes:

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 40 --trace 0

relays the workload's output; its last line is the JSON result
(`correct`, `attempted`, `failed`, `metrics`).

Every workload, each in its own process:

    python3 perfbench/run.py [--seed N] [--seconds S] [--trace 0|1]

prints every metric by name with its unit, plus each workload's failed and
attempted counts and their ratio `fail_frac`, and exits non-zero when any
verdict was wrong. The run length defaults to `run_seconds` in
`BENCHMARK.json`.

Run it from the repository root. The build goes to `$CARGO_TARGET_DIR`
(default `.bench_build`), scratch files to `.bench_work`.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["table1", "serve_edit"]
# A first run builds and then runs; together they stay under 900 s.
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def build():
    """Builds the release binary; returns its path, or None on failure."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print(f"run.py: build failed with exit code {done.returncode}", file=sys.stderr)
        return None
    return os.path.join(target, "release", "perfbench")


def run_one(binary, workload, seed, seconds, trace):
    """Runs one workload in its own process; returns (exit code, stdout)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--work-dir", os.path.join(ROOT, ".bench_work")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} ran past {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, ""
    return done.returncode, done.stdout


def run_all(binary, seed, seconds, trace):
    ok = True
    for workload in WORKLOADS:
        code, out = run_one(binary, workload, seed, seconds, trace)
        lines = out.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{workload}: no result (exit code {code})")
            ok = False
            continue
        attempted, failed = result["attempted"], result["failed"]
        print(f"{workload}: correct={str(result['correct']).lower()} attempted={attempted} failed={failed}")
        print(f"  {'fail_frac':<24} {failed / attempted:>14.6g} ratio")
        for name, m in result["metrics"].items():
            print(f"  {name:<24} {m['value']:>14.6g} {m['unit']}")
        ok = ok and code == 0 and result["correct"] and failed == 0
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS + ["all"], default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    seconds = args.seconds
    if seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            seconds = json.load(f)["run_seconds"]

    binary = build()
    if binary is None:
        return 1
    if args.workload == "all":
        return run_all(binary, args.seed, seconds, args.trace)
    code, out = run_one(binary, args.workload, args.seed, seconds, args.trace)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
