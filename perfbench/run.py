#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload batch-bmm --seed 1 --seconds 20 --trace 0

The Go program in this directory is built from source into the build
directory ($CARGO_TARGET_DIR, default .bench_build, relative to the working
directory), with every Go cache and temporary directory kept inside it and
module downloads disabled. The flags are passed on to the program; its
standard output ends with the one-line JSON result. Traced runs also leave
their spans under <build dir>/spans.
"""

import os
import subprocess
import sys

# One run must end within 180 s; the program stops itself at 170 s.
RUN_TIMEOUT_S = 178


def main():
    root = os.getcwd()
    src = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        GOTMPDIR=os.path.join(build, "tmp"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOFLAGS="",
        CGO_ENABLED="0",
    )
    for d in ("gocache", "gopath", "tmp", "config"):
        os.makedirs(os.path.join(build, d), exist_ok=True)
    binary = os.path.join(build, "perfbench")
    # Build output goes to stderr: standard output carries only results.
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=src, env=env,
                           stdout=sys.stderr, stdin=subprocess.DEVNULL)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    env["PERFBENCH_SPAN_DIR"] = os.path.join(build, "spans")
    try:
        ran = subprocess.run([binary] + sys.argv[1:], cwd=root, env=env,
                             stdin=subprocess.DEVNULL, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
