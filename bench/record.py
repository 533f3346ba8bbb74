"""Run every workload over several seeds and record the numbers.

    python3 bench/record.py --out bench/baseline.json

Each run is `bench/run.py` in its own interpreter, one after another:
every workload of BENCHMARK.json on seeds 1 to 10.  For each end-to-end
metric the record keeps every value, the median and
the quartile spread (q3 - q1) / median, checked against a third of the
metric's bound in BENCHMARK.json.  Then one traced run per workload, on
the first seed, adds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = list(range(1, 11))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the record here as JSON")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {
        "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seconds": spec["run_seconds"],
        "seeds": SEEDS,
        "workloads": {},
    }
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        results = [run(workload, seed, spec["run_seconds"], 0) for seed in record["seeds"]]
        entry = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {},
        }
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            ok = spread < bounds[name] / 3
            steady &= ok
            entry["end_to_end"][name] = {
                "unit": results[0]["metrics"][name]["unit"],
                "median": median, "q1": q1, "q3": q3, "spread": spread, "values": values,
            }
            print(f"{workload:20s} {name:12s} median {median:10.4f}  spread {spread:.4f}  "
                  f"bound/3 {bounds[name] / 3:.4f}  {'ok' if ok else 'WIDE'}", flush=True)
        traced = run(workload, record["seeds"][0], spec["run_seconds"], 1)
        entry["traced_seed"] = record["seeds"][0]
        entry["traced_correct"] = traced["correct"]
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        record["workloads"][workload] = entry
        print(f"{workload:20s} correct {entry['correct']} failed {entry['failed']}/{entry['attempted']}",
              flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
