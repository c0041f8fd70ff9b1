#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout of the repository.  It builds
perfbench/main.exe with dune (build output goes to standard error, so
the last line of standard output stays the benchmark's JSON result) and
passes its arguments on.  Its exit code is the benchmark's: 0 when every
leg ran and passed the output checks.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("run.py: no dune-project and lib/ here; run it from the root "
              "of a checkout of the repository", file=sys.stderr)
        return 2
    # The shared dune cache lives outside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("run.py: the build failed", file=sys.stderr)
        return build.returncode
    return subprocess.run([EXE] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
