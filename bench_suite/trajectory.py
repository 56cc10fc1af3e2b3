#!/usr/bin/env python3
"""Merges bench_suite runs into one trajectory point.

    python3 bench_suite/trajectory.py RUN_DIR TRACED_JSON OUT --commit SHA

RUN_DIR holds the suite JSONs of 10 or more default invocations
(`run.py --seed N --out RUN_DIR/runN.json`); TRACED_JSON is one traced
invocation (`run.py --trace 1 --out ...`). OUT receives, per workload and
end-to-end metric, the median, min and max over the runs, the traced run's
per-layer table, and the machine and build the numbers came from.
"""

import argparse
import glob
import json
import os
import platform
import statistics


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("run_dir")
    parser.add_argument("traced_json")
    parser.add_argument("out")
    parser.add_argument("--commit", required=True)
    args = parser.parse_args()

    runs = []
    for path in sorted(glob.glob(os.path.join(args.run_dir, "*.json"))):
        with open(path) as f:
            runs.append(json.load(f))
    with open(args.traced_json) as f:
        traced = json.load(f)
    if not runs:
        parser.error(f"no suite JSONs in {args.run_dir}")

    workloads = {}
    for name in runs[0]["workloads"]:
        records = [run["workloads"][name] for run in runs if name in run["workloads"]]
        end_to_end = {}
        for metric, first in records[0]["end_to_end"].items():
            vals = [r["end_to_end"][metric]["value"] for r in records]
            end_to_end[metric] = {"unit": first["unit"], "median": statistics.median(vals),
                                  "min": min(vals), "max": max(vals)}
        traced_record = traced["workloads"][name]
        workloads[name] = {
            "runs": len(records),
            "seeds": [run["seed"] for run in runs if name in run["workloads"]],
            "all_correct": all(r["correct"] for r in records),
            "end_to_end": end_to_end,
            "traced_seed": traced["seed"],
            "traced_sim_digest": traced_record["sim_digest"],
            "per_layer": {k: v["value"] for k, v in traced_record["per_layer"].items()},
            "links_summed": traced_record["links_summed"],
        }

    point = {
        "commit": args.commit,
        "build_type": runs[0]["build_type"],
        "nproc": runs[0]["nproc"],
        "cpu_model": cpu_model(),
        "seconds_per_run": runs[0]["seconds"],
        "workloads": workloads,
    }
    with open(args.out, "w") as f:
        json.dump(point, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
