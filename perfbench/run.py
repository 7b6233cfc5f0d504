#!/usr/bin/env python3
"""Build the repository benchmark from source and run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload cluster-steady --seed 1 \
        --seconds 20 --trace 0

Workloads: cluster-steady, cluster-burst-move, apps-wal (README.md in
this directory gives the reason for each and every metric). The first
call configures and builds perfbench/ plus the simulator libraries of
src/ into .bench_build/perfbench (Release); later calls only re-check
the build. Build output goes to stderr, so the last stdout line is the
benchmark's JSON result. The exit code is the benchmark's: 0 when
every correctness check passed, 1 when one failed, 2 on a usage or
build error.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("cluster-steady", "cluster-burst-move", "apps-wal")


def build():
    """Configure (once) and build the perfbench binary; return its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no simulator sources at src/ beside perfbench/",
              file=sys.stderr)
        sys.exit(2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD_DIR, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--quick", action="store_true",
                    help="shortened workloads (smoke test)")
    ap.add_argument("--corrupt", choices=("drop-op", "digest", "band"),
                    help="corrupt one check's input (smoke test)")
    args = ap.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.quick:
        cmd.append("--quick")
    if args.corrupt:
        cmd += ["--corrupt", args.corrupt]
    sys.stdout.flush()
    code = subprocess.run(cmd).returncode
    return code if code >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())
