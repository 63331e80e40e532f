#!/usr/bin/env python3
"""Build perf.exe from source and run one benchmark measurement.

Run from the root of the repository:

    python3 perfbench/run.py --workload fig3 --seed 1 --seconds 10 --trace 0

It builds perfbench/perf.exe with dune (release profile, build directory
.bench_build, dune cache off so nothing is written outside the tree),
then runs `perf.exe run` with the same arguments. The last line of
standard output is perf.exe's result object. Exits non-zero, printing no
result, when the tree holds no buildable repository.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perf.exe")


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("run.py: run from the repository root (no dune-project or lib/ here)", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "--profile", "release",
         "./perfbench/perf.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode
    return subprocess.run([EXE, "run"] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
