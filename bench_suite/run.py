#!/usr/bin/env python3
"""Builds bench_suite from source and runs it.

    python3 bench_suite/run.py [--workload NAME] [--seed N] [--seconds S]
                               [--trace 0|1] [--out PATH] [bench_suite flags]

The build goes to .bench_build/ at the root of the source tree (configured
on first use, incremental afterwards; build output goes to stderr). With
--workload, the workload runs in one bench_suite process and its output is
passed through: the last stdout line is the result JSON (correct, attempted,
failed, metrics). Without --workload, every workload runs in its own
process, so peak_rss_mb belongs to that workload alone; the last line then
merges them, with metrics named "<workload>/<metric>", and --out receives
one suite JSON holding every workload's record.

Exits non-zero when the source tree is incomplete, the build fails, any
workload breaks a check, or the metrics printed differ from the ones
BENCHMARK.json declares for the mode (end_to_end, or per_layer with --trace 1).
"""

import argparse
import json
import os
import subprocess
import sys

SUITE_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(SUITE_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "bench_suite")
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    BENCH = json.load(_f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def build():
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.exit(f"run.py: {os.path.join(ROOT, needed)} is missing; bench_suite "
                     "builds the simulator from the source tree it sits in")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SUITE_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "bench_suite", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(step))


def run_one(workload, trace, passthrough, out):
    """Runs one workload; returns (exit code, result dict or None)."""
    cmd = [BINARY, "--workload", workload, "--trace", trace] + passthrough
    if out:
        cmd += ["--out", out]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            print(lines[-1])
    if result is not None:
        declared = {m["name"] for m in BENCH["per_layer" if trace == "1" else "end_to_end"]}
        if set(result["metrics"]) != declared:
            print(f"run.py: {workload} printed metrics {sorted(result['metrics'])}, "
                  f"BENCHMARK.json declares {sorted(declared)}", file=sys.stderr)
            return 1, None
    return proc.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--out")
    args, passthrough = parser.parse_known_args()
    build()

    if args.workload:
        code, result = run_one(args.workload, args.trace, passthrough, args.out)
        if result is not None:
            print(json.dumps(result))
        return code

    parts_dir = os.path.join(BUILD_DIR, "parts")
    os.makedirs(parts_dir, exist_ok=True)
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    suite = None
    code = 0
    for workload in WORKLOADS:
        part = os.path.join(parts_dir, workload + ".json")
        workload_code, result = run_one(workload, args.trace, passthrough, part)
        code = code or workload_code
        if result is None:
            merged["correct"] = False
            continue
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}/{name}"] = metric
        with open(part) as f:
            record = json.load(f)
        if suite is None:
            suite = record
        else:
            suite["workloads"].update(record["workloads"])
    if args.out and suite is not None:
        with open(args.out, "w") as f:
            json.dump(suite, f, indent=1)
            f.write("\n")
    print(json.dumps(merged))
    return code


if __name__ == "__main__":
    sys.exit(main())
