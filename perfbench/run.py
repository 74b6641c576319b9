#!/usr/bin/env python3
"""Build and run the end-to-end serving benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload walk-http --seed 1 --seconds 30 --trace 0

The load generator is the Go module in perfbench/ (it imports the
repository's packages through a local replace directive). It is built
into .bench_build/ with its Go build cache kept there as well, so a run
reads and writes nothing outside the checkout. The generator's last
stdout line is the JSON result; its exit code is passed through. A
checkout without the repository's sources fails the build and exits 2
without printing a result.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    os.makedirs(os.path.join(build, "tmp"), exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomod"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=os.path.join(build, "tmp"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=here, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if built.returncode != 0:
        print("perfbench: build failed (is this a full checkout?)", file=sys.stderr)
        return 2
    work = os.path.join(build, "work")
    os.makedirs(work, exist_ok=True)
    return subprocess.run([binary, "--workdir", work] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
