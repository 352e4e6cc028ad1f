#!/usr/bin/env python3
"""Build and run the fediscope benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The script builds the `perfbench` package
(a workspace of its own that uses the repository's crates by path) in
release mode into `$CARGO_TARGET_DIR` (default `.bench_build`), runs one
workload in one process, checks that the result line names exactly the
metrics `BENCHMARK.json` declares, and passes that line through as the last
line of its standard output. A traced run (`--trace 1`) also leaves its
spans in `$CARGO_TARGET_DIR/spans-<workload>-<seed>.jsonl`. It exits non-zero, without printing a result,
when the build fails, the run fails or times out, or an output check fails.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join("perfbench", "Cargo.toml")
# A run must end within 180 s; leave room for start-up and this script.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def flag(argv, name):
    if name not in argv[:-1]:
        fail(f"missing {name}")
    return argv[argv.index(name) + 1]


def main(argv):
    os.chdir(ROOT)
    for needed in ("BENCHMARK.json", MANIFEST, os.path.join("crates", "core", "Cargo.toml")):
        if not os.path.isfile(needed):
            fail(f"{needed} not found: run from the root of a full checkout")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    trace = flag(argv, "--trace")
    if trace not in ("0", "1"):
        fail("--trace must be 0 or 1")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace == "1" else "end_to_end"]}
    if flag(argv, "--workload") not in {w["name"] for w in spec["workloads"]}:
        fail("unknown workload")

    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
            env=env,
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if build.returncode != 0:
        fail(f"build failed with code {build.returncode}")

    binary = os.path.join(target, "release", "perfbench")
    extra = []
    if trace == "1":
        name = f"spans-{flag(argv, '--workload')}-{flag(argv, '--seed')}.jsonl"
        extra = ["--spans", os.path.join(target, name)]
    try:
        run = subprocess.run([binary] + argv + extra, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        fail(f"run failed with code {run.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result has keys {sorted(result)}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != declared:
        missing = sorted(set(declared) - set(got))
        extra = sorted(set(got) - set(declared))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, undeclared {extra}, or units differ")
    if result["correct"] is not True or result["attempted"] < 1:
        fail("output check failed")
    print("\n".join(lines))


if __name__ == "__main__":
    main(sys.argv[1:])
