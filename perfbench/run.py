#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload rbtree --seed 1 --seconds 30 --trace 0

Run from the repository root. The first run configures and builds the
stm library and the benchmark in Release under $CARGO_TARGET_DIR
(default .bench_build), in perfbench/ below it; later runs only check
that the build is current. Build output goes to stderr, so the last line
of stdout is the benchmark's JSON result. A traced run (--trace 1) also
writes its sampled spans to <build>/trace-<workload>-<seed>.jsonl.

Exits non-zero, printing no result, when the build fails (for instance
outside a full checkout), when the benchmark fails, or when its output is
not a result object.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("rbtree", "stmbench7-write")
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out: Path) -> Path:
    """Configures (once) and builds the benchmark; returns the binary."""
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, **quiet)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "-j", jobs,
                    "--target", "perfbench"], check=True, **quiet)
    return out / "perfbench"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "stm").is_dir():
        print("perfbench: no stm sources next to perfbench/", file=sys.stderr)
        return 2
    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                str(out / f"trace-{args.workload}-{args.seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: benchmark exited with {proc.returncode}",
              file=sys.stderr)
        return 3
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print("perfbench: last line is not JSON", file=sys.stderr)
        return 3
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("perfbench: result has the wrong keys", file=sys.stderr)
        return 3
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
