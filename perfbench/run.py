#!/usr/bin/env python3
"""Build the iScope benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 20 --trace 0

The first call configures and builds perfbench/ (the simulator libraries,
the iscope_serve daemon and iscope_perfbench) into .bench_build/; later calls
rebuild incrementally. Build output goes to stderr, so the last line of
stdout is always iscope_perfbench's JSON result. Its exit code is
passed through: non-zero when a build step or an output check fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("paper_sweep", "hyperscale_shards", "serve_stream")
# iscope_perfbench paces itself to --seconds plus set-up; this guard only
# stops a hung run before a run's 180 s limit.
RUN_TIMEOUT_S = 175


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: no iScope sources under " + os.path.join(ROOT, "src"),
              file=sys.stderr)
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "iscope_perfbench", "iscope_serve"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("run.py: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not build():
        return 2
    runner = os.path.join(BUILD, "iscope_perfbench")
    serve = os.path.join(BUILD, "iscope", "service", "iscope_serve")
    cmd = [runner, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--serve-bin", serve,
           # Relative to cwd=ROOT: keeps the daemon's unix socket path short.
           "--work-dir", os.path.relpath(BUILD, ROOT)]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: iscope_perfbench timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
