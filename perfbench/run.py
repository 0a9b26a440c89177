#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The executable is built with dune into
.bench_build (apart from a developer's _build; dune's shared cache is
off, so the build writes only inside the checkout) and then run with the
same arguments.  Its standard output, whose last line is the JSON
result, passes through untouched, and its exit code is returned.  A
build failure exits non-zero without printing a result.
"""

import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/perfbench.exe"


def dune():
    found = shutil.which("dune")
    return [found] if found else ["opam", "exec", "--", "dune"]


def main():
    build = subprocess.run(
        dune() + ["build", "--root", ".", "--build-dir", BUILD_DIR, TARGET],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=dict(os.environ, DUNE_CACHE="disabled"),
    )
    if build.returncode != 0:
        sys.stderr.write(build.stdout.decode(errors="replace"))
        sys.stderr.write("perfbench: build failed\n")
        return 1
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
