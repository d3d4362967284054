#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload pr-rmat21 --seed 1 --seconds 35 --trace 0

Run from the repository root. The Go toolchain's caches, the benchmark
binary, the cached inputs and the run records all go under
.bench_build/ in the checkout, so the benchmark reads and writes
nothing outside it. The last line of standard output is the result
JSON object; any failure exits non-zero without printing one.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench_dir = Path(__file__).resolve().parent
    root = bench_dir.parent
    out = root / ".bench_build"
    env = dict(os.environ)
    env.update(
        GOCACHE=str(out / "gocache"),
        GOPATH=str(out / "gopath"),
        GOMODCACHE=str(out / "gopath" / "pkg" / "mod"),
        XDG_CONFIG_HOME=str(out / "config"),
        GOENV="off",
        GOFLAGS="-mod=mod",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOSUMDB="off",
        CGO_ENABLED="0",
    )
    binary = out / "perfbench-bin"
    try:
        build = subprocess.run(
            ["go", "build", "-o", str(binary), "."],
            cwd=bench_dir, env=env, timeout=BUILD_TIMEOUT_S,
            stdout=sys.stderr, stderr=sys.stderr,
        )
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build: {err}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [
        str(binary),
        "-workload", args.workload,
        "-seed", str(args.seed),
        "-seconds", str(args.seconds),
        "-trace", str(args.trace),
        "-dir", str(out / "perfbench"),
    ]
    try:
        run = subprocess.run(cmd, cwd=root, env=env, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        # subprocess.run kills the child on timeout and waits for it.
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
