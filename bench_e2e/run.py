#!/usr/bin/env python3
"""Build and run the end-to-end job benchmark (bench_e2e).

Run from the repository root:

    python3 bench_e2e/run.py --workload dsearch --seed 1 --seconds 10 --trace 0
    python3 bench_e2e/run.py --self-test

The first call configures and compiles this directory (and the repo's
libraries under src/) into .bench_build/bench_e2e; later calls only
rebuild what changed. The benchmark's last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. This
script checks that the metric names are exactly the ones BENCHMARK.json
declares for the mode (end_to_end for --trace 0, per_layer for --trace 1)
and exits non-zero otherwise, or when the build or the run fails.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "bench_e2e")
BINARY = os.path.join(BUILD, "bench_e2e")
# A run must end within 180 s; leave room for the build check and output.
RUN_TIMEOUT_S = 170
SELF_TEST_TIMEOUT_S = 600


def build():
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
        subprocess.run(
            ["cmake", "--build", BUILD, "--target", "bench_e2e",
             "-j", str(min(4, os.cpu_count() or 1))],
            stdout=sys.stderr, check=True)


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys: %s" % sorted(result))
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = declared_metrics(trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        raise ValueError("metrics differ from BENCHMARK.json: missing %s, "
                         "extra %s, wrong unit %s" % (missing, extra, wrong))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("bench_e2e: build failed: %s" % e, file=sys.stderr)
        return 1

    work = os.path.join(BUILD, "work")
    os.makedirs(work, exist_ok=True)
    cmd = [BINARY, "--work-dir", work]
    if args.self_test:
        cmd.append("--self-test")
        return subprocess.run(cmd, timeout=SELF_TEST_TIMEOUT_S).returncode

    cmd += ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-%d.jsonl" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("bench_e2e: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        print("bench_e2e: exit code %d" % proc.returncode, file=sys.stderr)
        return proc.returncode or 1
    try:
        check_result(lines[-1], args.trace)
    except (ValueError, KeyError, TypeError) as e:
        print("bench_e2e: bad result: %s" % e, file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
