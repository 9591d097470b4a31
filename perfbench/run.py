#!/usr/bin/env python3
"""Builds the engine and the perfbench harness from source, then runs one
workload and relays its output.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to .bench_build/perfbench (an
incremental no-op after the first run); traces and per-run scratch files go
to .bench_out. The last line of stdout is the harness's JSON result; the
exit code is the harness's (non-zero on a wrong result or a bad argument).
See perfbench/README.md for the workloads and metrics.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def main():
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        print("perfbench: engine sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return 2

    build_dir = os.path.join(root, ".bench_build", "perfbench")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        try:
            built = subprocess.run(step, cwd=root, stdout=sys.stderr,
                                   stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print("perfbench: build timed out", file=sys.stderr)
            return 2
        if built.returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 2

    command = [os.path.join(build_dir, "perfbench"), *sys.argv[1:],
               "--out", os.path.join(root, ".bench_out")]
    try:
        ran = subprocess.run(command, cwd=root, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
