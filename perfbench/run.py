#!/usr/bin/env python3
"""Build and run the mvsched benchmark.

    python3 perfbench/run.py --workload s1_closed --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds the
library sources under src/ plus the benchmark binary (Release) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later runs only
rebuild what changed. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. Exits non-zero without a result when
the sources or the build are missing.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("s1_closed", "city_paced", "plane_steady", "plane_churn")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    """Configure (once) and build the benchmark; return the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no src/ tree next to perfbench/; nothing to build")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target",
                    "perfbench_mvs"], check=True, stdout=sys.stderr,
                   stderr=sys.stderr)
    return os.path.join(out, "perfbench_mvs")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        binary = build(build_dir())
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit(f"perfbench: build failed: {err}")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
