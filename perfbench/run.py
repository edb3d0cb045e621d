#!/usr/bin/env python3
"""Builds and runs one benchmark workload (README.md in this directory).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The first call configures and compiles the
library and the driver into $CARGO_TARGET_DIR (default .bench_build);
later calls only rebuild what changed.  The driver's stdout passes through:
an environment-stamp line, then the result JSON as the last line.  The
result is checked against BENCHMARK.json before it is printed: every metric
of the mode, by name and unit, and nothing else.  Exits non-zero without a
result when the build, the run or that check fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build(out_dir):
    """Configures once, then builds incrementally; compiler output -> stderr."""
    tmp = out_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (out_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out_dir), "-j", str(os.cpu_count() or 1)])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, env=env).returncode != 0:
            fail("build failed: " + " ".join(step))
    return out_dir / "nopfs_perfbench"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build(build_dir())
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if run.returncode != 0:
        fail(f"{args.workload} exited with {run.returncode}")
    lines = run.stdout.strip().splitlines()
    if not lines:
        fail(f"{args.workload} printed no result")
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        fail(f"result keys {sorted(result)} != {sorted(RESULT_KEYS)}")
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != expected_metrics(args.trace):
        fail("printed metrics differ from BENCHMARK.json")
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
