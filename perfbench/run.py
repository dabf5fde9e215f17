#!/usr/bin/env python3
"""Build the perfbench Go benchmark from source and run it once.

Run from the repository root:

    python3 perfbench/run.py --workload grid --seed 1 --seconds 10 --trace 0

The arguments pass through to the benchmark binary, whose last line of
standard output is the JSON result. Everything the build and the run write
stays under the build directory (CARGO_TARGET_DIR if set, else
.bench_build), including the Go build cache, so a fresh checkout's first run
also compiles the standard library. A failed build exits non-zero without
printing a result.
"""

import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def go_env(build):
    """The environment for go and the benchmark: toolchain state, caches and
    temporary files live under the build directory, and nothing is fetched."""
    home = os.path.join(build, "home")
    tmp = os.path.join(build, "tmp")
    for d in (home, tmp):
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "HOME": home,
        "XDG_CONFIG_HOME": os.path.join(home, ".config"),
        "XDG_CACHE_HOME": os.path.join(home, ".cache"),
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=mod",
        "GOWORK": "off",
        "GOTELEMETRY": "off",
    })
    return env


def main():
    build = build_dir()
    out = os.path.join(build, "perfbench")
    os.makedirs(out, exist_ok=True)
    env = go_env(build)
    go = shutil.which("go")
    if go is None:
        print("perfbench: go toolchain not found on PATH", file=sys.stderr)
        return 2
    binary = os.path.join(out, "perfbench")
    try:
        built = subprocess.run([go, "build", "-o", binary, "."], cwd=BENCH_DIR, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    try:
        ran = subprocess.run([binary, *sys.argv[1:], "--out", out], cwd=ROOT, env=env,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
