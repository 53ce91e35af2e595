#!/usr/bin/env python3
"""Build phomd and the benchmark from this checkout, then run one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload serve-warm --seed 1 --seconds 10 --trace 0

Workloads: serve-warm, serve-churn, exact (see perfbench/work.ml). The last
line of standard output is the JSON result; build output goes to standard
error. The exit code is the benchmark's: 0 when every reply passed its
check, non-zero otherwise (and when there is no source tree to build).
"""

import os
import subprocess
import sys

BUILD_TARGETS = ["./bin/phomd.exe", "./perfbench/main.exe"]


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: no phom source tree here; run from the repository root",
              file=sys.stderr)
        return 2
    # keep dune's shared cache out of it: the build reads and writes only
    # inside the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(["dune", "build", "--root", "."] + BUILD_TARGETS,
                           stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    phomd = os.path.join("_build", "default", "bin", "phomd.exe")
    return subprocess.call([exe, "--phomd", phomd] + sys.argv[1:], env=env)


if __name__ == "__main__":
    sys.exit(main())
