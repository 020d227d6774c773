#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload bert256 --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout. It configures and builds
perfbench/ (which compiles the simulator library from src/) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs
one measurement. Build output goes to stderr; the last line of stdout
is the JSON result. Exits non-zero without a result when the build
fails.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("bert256", "hac-sync", "fuzz-observed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                         "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    for step in (["cmake", "-S", here, "-B", build,
                  "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                 ["cmake", "--build", build, "-j", jobs]):
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            print("run.py: build failed: " + " ".join(step), file=sys.stderr)
            return 1

    sys.stdout.flush()
    return subprocess.run([
        os.path.join(build, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--scenario", os.path.join(here, "fig18_bert_scaling_256.json"),
    ]).returncode


if __name__ == "__main__":
    sys.exit(main())
