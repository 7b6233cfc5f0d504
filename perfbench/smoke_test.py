#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

Usage (from the root of a checkout): python3 perfbench/smoke_test.py

Runs every workload at a shortened length (--quick) through run.py,
in both the end-to-end and the per-layer mode, and checks that:

  * the last stdout line is the result object with exactly the keys
    correct / attempted / failed / metrics, and correct is true;
  * it names every metric BENCHMARK.json lists for that mode, with the
    same unit, and nothing else; every end-to-end value is positive;
  * each correctness check really fails when its input is corrupted
    (a dropped op, a digest that differs between engine thread
    counts, a 2B-SSD speedup outside its Fig. 9 band): exit code 1,
    correct false and the check named on stderr.

Exit code 0 when everything holds, 1 otherwise.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("cluster-steady", "cluster-burst-move", "apps-wal")
CORRUPTIONS = (
    ("cluster-steady", "drop-op", "ops completed"),
    ("cluster-burst-move", "digest", "state digest differs"),
    ("apps-wal", "band", "outside the Fig. 9 band"),
)


def run(workload, trace, corrupt=None):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "1",
           "--seconds", "0", "--trace", str(trace), "--quick"]
    if corrupt:
        cmd += ["--corrupt", corrupt]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return p.returncode, result, p.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []

    for workload in WORKLOADS:
        for trace in (0, 1):
            tag = f"{workload} --trace {trace}"
            code, res, err = run(workload, trace)
            if code != 0 or res is None:
                problems.append(f"{tag}: exit {code}\n{err}")
                continue
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(res)}")
                continue
            if res["correct"] is not True or res["attempted"] < 1:
                problems.append(f"{tag}: correct {res['correct']}, "
                                f"attempted {res['attempted']}")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{tag}: metric names/units differ from "
                                "BENCHMARK.json")
            for name, v in res["metrics"].items():
                value = v["value"]
                if not isinstance(value, (int, float)) or \
                        not math.isfinite(value) or \
                        (trace == 0 and value <= 0):
                    problems.append(f"{tag}: {name} = {value}")
            print(f"ok   {tag}: {len(got)} metrics", flush=True)

    for workload, corrupt, needle in CORRUPTIONS:
        tag = f"{workload} --corrupt {corrupt}"
        code, res, err = run(workload, 0, corrupt)
        if code != 1 or res is None or res["correct"] is not False or \
                needle not in err:
            problems.append(f"{tag}: check did not fail (exit {code})")
        else:
            print(f"ok   {tag}: check failed as it should", flush=True)

    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
