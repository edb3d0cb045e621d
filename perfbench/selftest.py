#!/usr/bin/env python3
"""Seconds-long smoke of every benchmark workload (README.md in this directory).

    python3 perfbench/selftest.py

Run from the repository root.  For each workload in BENCHMARK.json it runs
run.py for one second untraced and traced with seed 1, and untraced with
seed 2, and asserts that
  - every metric BENCHMARK.json names for the mode is printed with its unit,
    and the run is correct with at least one operation and no failure;
  - the workload's reference digest for seeds 1 and 2 equals the pin below;
  - the second seed changes the digest.
Exits non-zero on the first failed assertion.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Reference digest of each workload for seeds 1 and 2: the delivered-order
# digest the access stream implies (training) or sim::sweep_results_digest
# of the serial reference pass (simulator).
PINS = {
    "train-cache-resident": {1: "6fde8f0e71bdfd2d", 2: "8495df7492f155fd"},
    "train-pfs-stream": {1: "d77ee9fab8f6d5c6", 2: "18a2e7fe28dd13c3"},
    "sim-fig10-imagenet1k": {1: "cf8eba165035db76", 2: "833d9b6d26c86e6a"},
}


def run(workload, seed, trace):
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    check(done.returncode == 0, f"{workload} seed {seed} trace {trace}: exit {done.returncode}")
    lines = done.stdout.strip().splitlines()
    check(len(lines) >= 2, f"{workload}: expected an environment line and a result")
    return json.loads(lines[-2])["env"], json.loads(lines[-1])


def check(ok, message):
    if not ok:
        print(f"selftest: FAIL: {message}", file=sys.stderr)
        sys.exit(1)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check(set(PINS) == {w["name"] for w in spec["workloads"]}, "pins cover other workloads")
    for workload in PINS:
        digests = {}
        for seed, trace in ((1, 0), (1, 1), (2, 0)):
            env, result = run(workload, seed, trace)
            expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            check(printed == expected, f"{workload} trace {trace}: metrics {printed}")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{workload} seed {seed} trace {trace}: {result}")
            check(env["seed"] == str(seed), f"{workload}: stamp seed {env['seed']}")
            digests.setdefault(seed, env["digest"])
            check(env["digest"] == digests[seed], f"{workload}: traced digest differs")
        for seed, digest in digests.items():
            check(digest == PINS[workload][seed],
                  f"{workload} seed {seed}: digest {digest}, pinned {PINS[workload][seed]}")
        check(digests[1] != digests[2], f"{workload}: seed 2 did not change the digest")
        print(f"selftest: {workload} ok ({digests[1]}, {digests[2]})", flush=True)
    print("selftest: all workloads ok")


if __name__ == "__main__":
    main()
