#!/usr/bin/env python3
"""End-to-end benchmark of asketchd (see BENCHMARK.json at the repo root).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the asketch library, asketchd and
the load generator (perfbench/e2e.cc, perfbench/layers.cc) from source into
.bench_build/perfbench with CMake, then runs one measurement:

  * asketchd runs as its own process with 2 shards; the generator opens
    2 ingest connections and 2 read connections (QUERY_BATCH + TOPK, and
    STATS polls), one thread each;
  * every tuple and query key is generated from --seed before any clock
    starts;
  * --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
    metrics (traced rounds plus in-process timings of each layer's public
    calls) and writes a Chrome trace next to the results.

Workloads: ingest-head, ingest-tail, ingest-head-delta, read-heavy
(parameters and reasons in BENCHMARK.json and perfbench/e2e.cc).

Gated (--trace 0) metrics: setup_s, applied_tps, cpu_ns_per_tuple,
staleness_p50_ms, are_tail. setup_s, closed-loop applied_tps and staleness
count only steal-free time: each interval's wall time is scaled by 1 - the
share of CPU time the hypervisor stole during it (from /proc/stat), because
on a shared VM steal swings between 1% and 28% for minutes at a time. Read
latencies, p99s, peak RSS, are_head and failed_ratio are printed with the
per-layer metrics under --trace 1: across seeds they spread too widely on
such a machine to gate a change, or are 0 on a correct run.

The last line of stdout is the result JSON:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The line before it records the machine and build fingerprint (nproc, CPU
model and flags, compiler, build type, git SHA when the checkout is a git
repository, a hash of the sources, the exact asketchd argv, the seed) and
run diagnostics, including how late the open-loop schedules ran. Both are
also saved to .bench_build/perfbench/results/.

`failed` counts tuples shed, requests that failed, one-sided violations
and failed identity checks; failed / attempted is the run's failure ratio.
The exit code is 0 only for a correct run; without the repository sources
the script exits 2 before printing a result.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RESULTS_DIR = BUILD_DIR / "results"
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures once and builds asketchd + asketch_e2e; returns paths."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file() or not (
        ROOT / "tools" / "asketchd.cc"
    ).is_file():
        log(f"repository sources not found under {ROOT}")
        sys.exit(2)
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                  "--target", "asketchd", "asketch_e2e"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("build failed: " + " ".join(step))
            sys.exit(2)
    return BUILD_DIR / "asketchd", BUILD_DIR / "asketch_e2e"


def source_hash():
    """SHA-256 over the sources the benchmark builds."""
    digest = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*"))
    files.append(ROOT / "tools" / "asketchd.cc")
    files += sorted(p for p in BENCH_DIR.rglob("*")
                    if "__pycache__" not in p.parts)
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists():
        return "none"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "none"


def run_generator(binary, asketchd, args, extra=()):
    """Runs asketch_e2e in its own process group; returns (code, lines)."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--asketchd", str(asketchd),
               "--out-dir", str(RESULTS_DIR), "--git-sha", git_sha(),
               "--source-hash", source_hash(), *extra]
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                               cwd=ROOT, start_new_session=True)
    try:
        out, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The group holds the generator and the asketchd it started.
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1, []
    return process.returncode, out.splitlines()


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    asketchd, binary = build()
    started = time.time()
    code, lines = run_generator(binary, asketchd, args)
    try:
        fingerprint = json.loads(lines[-2])
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        log(f"no result from the generator (exit code {code})")
        return 1
    fingerprint["wall_s"] = time.time() - started
    record = RESULTS_DIR / (f"{args.workload}-seed{args.seed}"
                            f"-trace{args.trace}.json")
    record.write_text(json.dumps({**fingerprint, "result": result}, indent=1))
    print(json.dumps(fingerprint))
    print(json.dumps(result), flush=True)
    return 0 if code == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
