#!/usr/bin/env python3
"""Compares bench_suite runs of a parent commit and a change.

    python3 bench_suite/compare_suite.py PARENT_DIR CHANGE_DIR [--bench BENCHMARK.json]
    python3 bench_suite/compare_suite.py --self-test

Each directory holds suite JSONs written by `run.py --out` (10 or more per
side; the i-th file of each side, by name, forms pair i). For every
workload x end-to-end metric of BENCHMARK.json it prints each side's median
and quartiles, the fraction of pairs the change wins, and a verdict:

  improved    the change wins >= 9/10 of the pairs and the medians differ by
              more than the parent's interquartile range;
  unresolved  the parent's spread (IQR / median) is wider than the metric's
              bound, unless every change run beats every parent run;
  worse       the change's median is worse than the parent's by more than
              the bound;
  no worse    otherwise.

Runs of the same workload and seed must produce the same sim_digest on both
sides unless the change meant to alter the model; every mismatch is
flagged. Exits 1 when a verdict is "worse", 0 otherwise.
"""

import argparse
import glob
import json
import os
import statistics
import sys

DEFAULT_BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "BENCHMARK.json")


def load_runs(directory):
    """Suite JSONs in `directory`, sorted by file name."""
    runs = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            runs.append(json.load(f))
    return runs


def values(runs, workload, metric):
    out = []
    for run in runs:
        record = run.get("workloads", {}).get(workload)
        if record is not None and metric in record["end_to_end"]:
            out.append(record["end_to_end"][metric]["value"])
    return out


def quartiles(vals):
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, statistics.median(vals), q3


def verdict(parent, change, better, bound):
    """Returns (verdict, win fraction) for one workload x metric."""
    sign = 1 if better == "higher" else -1
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    win_frac = wins / len(pairs) if pairs else 0.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    gain = sign * (c_med - p_med)
    if win_frac >= 0.9 and gain > p_q3 - p_q1:
        return "improved", win_frac
    spread = (p_q3 - p_q1) / abs(p_med) if p_med else 0.0
    if spread > bound:
        all_better = min(change) > max(parent) if sign > 0 else max(change) < min(parent)
        return ("no worse" if all_better else "unresolved"), win_frac
    if -gain > bound * abs(p_med):
        return "worse", win_frac
    return "no worse", win_frac


def digest_mismatches(parent_runs, change_runs):
    """(workload, seed, parent digest, change digest) for every disagreement."""
    def index(runs):
        out = {}
        for run in runs:
            for workload, record in run.get("workloads", {}).items():
                out[(workload, run.get("seed"))] = record.get("sim_digest")
        return out
    parent, change = index(parent_runs), index(change_runs)
    return [(w, s, parent[(w, s)], change[(w, s)])
            for (w, s) in sorted(parent.keys() & change.keys(), key=str)
            if parent[(w, s)] != change[(w, s)]]


def compare(parent_runs, change_runs, bench, out=sys.stdout):
    """Prints the comparison table; returns the list of (workload, metric, verdict)."""
    workloads = [w["name"] for w in bench["workloads"]]
    rows = []
    print(f"{'workload':18s} {'metric':17s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'wins':>5s}  verdict", file=out)
    for workload in workloads:
        for metric in bench["end_to_end"]:
            parent = values(parent_runs, workload, metric["name"])
            change = values(change_runs, workload, metric["name"])
            if not parent or not change:
                continue
            result, win_frac = verdict(parent, change, metric["better"], metric["bound"])
            p_q1, p_med, p_q3 = quartiles(parent)
            c_q1, c_med, c_q3 = quartiles(change)
            print(f"{workload:18s} {metric['name']:17s} "
                  f"{p_med:12.6g} [{p_q1:9.4g}, {p_q3:9.4g}] "
                  f"{c_med:12.6g} [{c_q1:9.4g}, {c_q3:9.4g}] {win_frac:5.2f}  {result}",
                  file=out)
            rows.append((workload, metric["name"], result))
    for workload, seed, p, c in digest_mismatches(parent_runs, change_runs):
        print(f"DIGEST MISMATCH {workload} seed {seed}: parent {p} change {c}", file=out)
    if len(parent_runs) < 10 or len(change_runs) < 10:
        print(f"note: {len(parent_runs)} parent and {len(change_runs)} change runs; "
              "a claim needs at least 10 pairs", file=out)
    return rows


def self_test():
    bench = {"workloads": [{"name": "w"}],
             "end_to_end": [{"name": "fast", "better": "higher", "bound": 0.08},
                            {"name": "slow", "better": "lower", "bound": 0.1},
                            {"name": "flat", "better": "lower", "bound": 0.05},
                            {"name": "noisy", "better": "higher", "bound": 0.05}]}

    def run(seed, digest, fast, slow, flat, noisy):
        metrics = {"fast": fast, "slow": slow, "flat": flat, "noisy": noisy}
        return {"seed": seed, "workloads": {"w": {
            "sim_digest": digest,
            "end_to_end": {k: {"value": v, "unit": "x"} for k, v in metrics.items()}}}}

    wobble = [0.0, 0.01, -0.01, 0.005, -0.005, 0.002, -0.002, 0.008, -0.008, 0.0]
    swing = [0.3, -0.3, 0.25, -0.25, 0.2, -0.2, 0.1, -0.1, 0.0, 0.05]
    parent = [run(i, "d%d" % i, 100 * (1 + e), 10 * (1 + e), 5 * (1 + e), 50 * (1 + s))
              for i, (e, s) in enumerate(zip(wobble, swing))]
    # fast +20% (improved), slow +30% (worse), flat unchanged, noisy unresolved.
    change = [run(i, "d%d" % i if i != 3 else "tampered", 120 * (1 + e), 13 * (1 + e),
                  5 * (1 + e), 50 * (1 - s)) for i, (e, s) in enumerate(zip(wobble, swing))]
    sink = open(os.devnull, "w")
    got = {metric: result for _, metric, result in compare(parent, change, bench, sink)}
    want = {"fast": "improved", "slow": "worse", "flat": "no worse", "noisy": "unresolved"}
    failures = [f"{m}: got {got.get(m)}, want {v}" for m, v in want.items() if got.get(m) != v]
    mismatches = digest_mismatches(parent, change)
    if mismatches != [("w", 3, "d3", "tampered")]:
        failures.append(f"digest mismatches: got {mismatches}")
    # A change that is only better, on a metric whose spread exceeds its bound.
    better = [run(i, "d%d" % i, 0, 0, 0, 200) for i in range(10)]
    got = {metric: result for _, metric, result in compare(parent, better, bench, sink)}
    if got["noisy"] != "improved":
        failures.append(f"noisy all-better: got {got['noisy']}, want improved")
    for failure in failures:
        print("self-test FAILED:", failure)
    print("self-test", "failed" if failures else "passed")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir", nargs="?")
    parser.add_argument("change_dir", nargs="?")
    parser.add_argument("--bench", default=DEFAULT_BENCH)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.parent_dir or not args.change_dir:
        parser.error("PARENT_DIR and CHANGE_DIR are required")
    with open(args.bench) as f:
        bench = json.load(f)
    rows = compare(load_runs(args.parent_dir), load_runs(args.change_dir), bench)
    return 1 if any(result == "worse" for _, _, result in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
