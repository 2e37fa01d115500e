#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload fleet-csv --seed 1 --seconds 10 --trace 0

Configures and builds perfbench/ (Release) under $CARGO_TARGET_DIR (default
.bench_build) in the current checkout, then runs one workload. Build output
goes to stderr; the last line of stdout is the result JSON. Inputs are
generated from --seed into a scratch directory under the build directory,
which is removed when the run ends.
"""

import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4", "--target", "sentinel_perfbench"],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "sentinel_perfbench")


def main():
    root = os.getcwd()
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    data_dir = tempfile.mkdtemp(prefix="run-", dir=build_dir)
    try:
        return subprocess.run([binary, "--data-dir", data_dir] + sys.argv[1:]).returncode
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
