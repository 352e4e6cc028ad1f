#!/usr/bin/env python3
"""Measure how steady the benchmark is: run workloads over several seeds
and print, per end-to-end metric, the median, the quartiles and the
quartile spread (Q3 - Q1) / median, probe-normalised next to raw.

    python3 perfbench/steadiness.py [--workloads a,b] [--seeds 1,2,...]
                                    [--seconds S] [--threads 1,2]

Run from the root of a checkout; each run goes through `perfbench/run.py`,
one process at a time. With several thread counts, each seed runs at every
count in turn, so the counts see the same machine. The spread is computed
the way the acceptance check computes it: `statistics.quantiles(values,
n=4)`.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def raw_medians(stderr):
    """The raw (unnormalised) medians the run prints on standard error."""
    m = re.search(r"^raw medians: setup_raw_s ([0-9.]+) wall_raw_s ([0-9.]+)$", stderr, re.M)
    if not m:
        raise ValueError("run printed no raw medians")
    return {"setup_s": float(m.group(1)), "wall_s": float(m.group(2))}


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default=",".join(str(s) for s in range(1, 11)))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--threads", default="1")
    args = ap.parse_args()
    threads = args.threads.split(",")
    print("| workload | threads | metric | kind | median | Q1 | Q3 | spread |")
    print("|---|---|---|---|---|---|---|---|")
    for workload in args.workloads.split(","):
        norm, raw = {}, {}
        for seed in args.seeds.split(","):
            for t in threads:
                cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", seed,
                       "--seconds", str(args.seconds), "--trace", "0", "--threads", t]
                run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
                if run.returncode != 0:
                    sys.exit(f"{workload} seed {seed} failed:\n{run.stderr[-3000:]}")
                result = json.loads(run.stdout.strip().splitlines()[-1])
                for name, m in result["metrics"].items():
                    norm.setdefault((t, name), []).append(m["value"])
                for name, v in raw_medians(run.stderr).items():
                    raw.setdefault((t, name), []).append(v)
                print(f"<!-- {workload} seed {seed} threads {t}: {json.dumps(result['metrics'])} -->",
                      flush=True)
        for (t, name), values in norm.items():
            rows = [("reported", values)] + ([("raw", raw[t, name])] if (t, name) in raw else [])
            for kind, v in rows:
                med, q1, q3, spread = summary(v)
                print(f"| {workload} | {t} | {name} | {kind} | {med:.4f} | {q1:.4f} | {q3:.4f} | "
                      f"{spread:.3f} |", flush=True)


if __name__ == "__main__":
    main()
