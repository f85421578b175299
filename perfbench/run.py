#!/usr/bin/env python3
"""Build the ecstore benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of an ecstore checkout.  The benchmark executable is
built with dune next to the library sources it measures, with dune's
shared cache off so the build writes only inside the checkout; build
output goes to stderr, so the last line of stdout is the benchmark's
JSON result.  Exits non-zero without a result when the sources are
missing or the build or the run fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = "./perfbench/perfbench.exe"


def main():
    for need in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, need)):
            print(f"perfbench: {need} not found next to the benchmark; "
                  "run it from an ecstore checkout", file=sys.stderr)
            return 2
    build = subprocess.run(["dune", "build", "--root", ROOT,
                            "--cache=disabled", TARGET],
                           cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
