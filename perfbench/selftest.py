#!/usr/bin/env python3
"""Tiny-scale self-test of the end-to-end benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout (it builds like run.py). It checks that:

  * every workload in BENCHMARK.json runs correctly at a tiny scale and
    prints exactly the metrics BENCHMARK.json lists, each with its unit:
    the end-to-end metrics with --trace 0 (times, rates and sizes
    positive), the per-layer metrics with --trace 1;
  * each correctness check fails the run when its expected value is made
    wrong on purpose (--break-check one_sided | ingested | conservation);
  * in a directory holding only BENCHMARK.json and perfbench/, run.py
    exits non-zero without printing a result.

Exit code 0 when every check passes.
"""

import argparse
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SCALE = ["--scale", "0.02"]
failures = []


def expect(condition, message):
    print(("ok    " if condition else "FAIL  ") + message, flush=True)
    if not condition:
        failures.append(message)


def generate(binary, asketchd, workload, trace, extra=()):
    args = argparse.Namespace(workload=workload, seed=7, seconds=1,
                              trace=trace)
    code, lines = run.run_generator(binary, asketchd, args,
                                    [*SCALE, *extra])
    try:
        return code, json.loads(lines[-2]), json.loads(lines[-1])
    except (IndexError, ValueError):
        return code, {}, {}


def check_workload(binary, asketchd, workload, trace, listed):
    tag = f"{workload} --trace {trace}"
    code, _, result = generate(binary, asketchd, workload, trace)
    expect(code == 0 and result.get("correct") is True
           and result.get("failed") == 0, f"{tag}: correct, nothing failed")
    metrics = result.get("metrics", {})
    expect(sorted(metrics) == sorted(m["name"] for m in listed),
           f"{tag}: prints exactly the listed metrics")
    for m in listed:
        value = metrics.get(m["name"], {})
        number = value.get("value")
        finite = isinstance(number, (int, float)) and math.isfinite(number)
        # Times, rates and sizes are never 0; error ratios may be at this
        # scale, where the sketches barely collide.
        positive = finite and number >= 0 and (
            trace == 1 or m["unit"] == "ratio" or number > 0)
        expect(value.get("unit") == m["unit"] and positive,
               f"{tag}: {m['name']} in {m['unit']}")


def check_broken_checks(binary, asketchd):
    for check in ("one_sided", "ingested", "conservation"):
        code, fingerprint, result = generate(
            binary, asketchd, "ingest-head", 0, ["--break-check", check])
        problems = fingerprint.get("diagnostics", {}).get("problems", [])
        expect(code != 0 and result.get("correct") is False
               and result.get("failed", 0) >= 1 and problems,
               f"--break-check {check}: run fails ({problems})")


def check_bare_directory():
    bare = run.BUILD_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in run.BENCH_DIR.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    done = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", "ingest-head",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170)
    printed_result = any('"correct"' in line
                         for line in done.stdout.splitlines())
    expect(done.returncode != 0 and not printed_result,
           "bare directory: non-zero exit, no result")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    asketchd, binary = run.build()
    for workload in spec["workloads"]:
        check_workload(binary, asketchd, workload["name"], 0,
                       spec["end_to_end"])
        check_workload(binary, asketchd, workload["name"], 1,
                       spec["per_layer"])
    check_broken_checks(binary, asketchd)
    check_bare_directory()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
