#!/usr/bin/env python3
"""Build the lab's benchmark from source and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cold|measure|serve --seed N --seconds S --trace 0|1

The Go program in this directory (its own module, importing the lab's
packages from the checkout) is built into .bench_build/, with the Go build
cache and temporary files kept there too, then run with the given
arguments.  Its last line of standard output is the JSON result.  The exit
code is the benchmark's, or 1 when the build fails or the run overruns.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")

# The first build compiles the standard library into an empty cache.
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def go_env():
    env = dict(os.environ)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env.update(
        GOCACHE=os.path.join(BUILD, "go-cache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        TMPDIR=tmp,
        GOENV="off",
        GOFLAGS="",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    return env


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("perfbench: %s holds no lab source (go.mod missing)" % ROOT, file=sys.stderr)
        return 1
    env = go_env()
    binary = os.path.join(BUILD, "perfbench")
    try:
        subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                       stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1
    try:
        return subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env,
                              timeout=RUN_TIMEOUT_S).returncode
    except (OSError, subprocess.SubprocessError) as e:
        print("perfbench: run failed: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
