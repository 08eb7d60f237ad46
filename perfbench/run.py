#!/usr/bin/env python3
"""Build and run one perfbench workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
benchmark (the libraries under src/ plus the program in perfbench/src/) into
.bench_build/perfbench with CMake; later calls rebuild only what changed.
Build output goes to stderr; the workload's last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    """Configures (once) and builds the benchmark; exits non-zero on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "nash.hpp")):
        sys.exit("perfbench: library sources (src/) not found under " + ROOT)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(step))


def main():
    build()
    # The program validates its own arguments; exec replaces this process,
    # so nothing is left running when the workload ends.
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(BINARY, [BINARY] + sys.argv[1:])


if __name__ == "__main__":
    main()
