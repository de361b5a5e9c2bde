#!/usr/bin/env python3
"""Build the perfbench Go package from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload cold-search --seed 1 --seconds 20 --trace 0

Every argument is passed on to the benchmark binary. The build, the Go
build cache and the run's scratch files live under the build directory
($CARGO_TARGET_DIR, default .bench_build), so nothing is written outside
the checkout. Result files with the host stamp (and spans, on a traced
run) go to <build dir>/results. The exit code is the benchmark's; a
failed build exits non-zero without printing a result.
"""

import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    build = os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build"))
    for sub in ("gocache", "gopath", "tmp", "home", "results"):
        os.makedirs(os.path.join(build, sub), exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=os.path.join(build, "tmp"),
        TMPDIR=os.path.join(build, "tmp"),
        HOME=os.path.join(build, "home"),
        XDG_CONFIG_HOME=os.path.join(build, "home"),
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOTELEMETRY="off",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("run.py: building perfbench failed", file=sys.stderr)
        return built.returncode or 1

    work = tempfile.mkdtemp(prefix="work-", dir=build)
    try:
        ran = subprocess.run([binary, *sys.argv[1:], "--workdir", work,
                              "--out", os.path.join(build, "results")],
                             cwd=ROOT, env=env)
        return ran.returncode
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
