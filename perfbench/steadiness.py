#!/usr/bin/env python3
"""Runs two interleaved sets of benchmark runs and compares them.

    python3 perfbench/steadiness.py --runs 10 [--workload W ...]
                                    [--a DIR] [--b DIR] [--seconds S]

Set A runs in checkout DIR --a and set B in checkout --b (both default to
the current directory, which makes an A/A comparison of one tree). Run i
of both sets uses seed i + 1; within each pair the side that goes first
alternates. For every workload and end-to-end metric it prints
each set's median and quartiles, each set's spread (interquartile range
over median, as statistics.quantiles(n=4) gives them), the change of B's
median against A's in the metric's worse direction, and:

  spread  each set's spread is within the metric's bound, for every
          metric but setup_s (see UNGATED_SPREAD), whose spread is
          printed and marked "n/g";
  agree   B's median is not worse than A's by more than the bound, and
          A's is not worse than B's by more than the bound;
  wins    pairs in which B was better than A (ties count for neither).

It also checks that every run prints exactly the manifest's end-to-end
metrics and that the share of failed operations is identical in the two
sets. Bounds, run length and workloads come from --a's
BENCHMARK.json. Exits 1 if any check fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

# setup_s is one cold set-up per run, timed from the process start: tens
# of milliseconds, so one host stall inside it moves that run by half or
# more, and no longer run can average it out. Its median over the set
# is still compared (agree); its per-run spread is shown but not gated.
UNGATED_SPREAD = {"setup_s"}


def run_once(checkout: Path, workload: str, seed: int, seconds: int,
             names: set) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"run failed in {checkout}: {' '.join(cmd)}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"incorrect run in {checkout}: {' '.join(cmd)}")
    if set(result["metrics"]) != names:
        raise SystemExit(f"run in {checkout} printed metrics "
                         f"{sorted(result['metrics'])}, the manifest lists "
                         f"{sorted(names)}: {' '.join(cmd)}")
    return result


def spread(values: list) -> tuple:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def worse_by(new: float, old: float, better: str) -> float:
    """Share by which new is worse than old (negative when better)."""
    change = (new - old) / old if old else 0.0
    return -change if better == "higher" else change


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a", type=Path, default=Path("."))
    ap.add_argument("--b", type=Path, default=None)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=None)
    args = ap.parse_args()
    a = args.a.resolve()
    b = (args.b or args.a).resolve()

    spec = json.loads((a / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    raw = {side: {w: [] for w in workloads} for side in "AB"}
    for i in range(args.runs):
        seed = i + 1
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for w in workloads:
            for side in order:
                res = run_once(a if side == "A" else b, w, seed, seconds,
                               set(metrics))
                raw[side][w].append(res)
                print(f"run {i + 1}/{args.runs} {w} set {side} seed {seed}",
                      file=sys.stderr)

    ok = True
    print(f"# {args.runs} interleaved runs per set, {seconds} s each; "
          f"A={a} B={b}")
    print("| workload | metric | A median [q1, q3] | A spread | "
          "B median [q1, q3] | B spread | B worse by | bound | spread | "
          "agree | B wins |")
    print("|---|---|---|---|---|---|---|---|---|---|---|")
    for w in workloads:
        shares = {side: {r["failed"] / r["attempted"] for r in raw[side][w]}
                  for side in "AB"}
        if shares["A"] != shares["B"] or len(shares["A"]) != 1:
            ok = False
            print(f"{w}: failed shares differ: {shares}")
        for name in sorted(metrics):
            m = metrics[name]
            va = [r["metrics"][name]["value"] for r in raw["A"][w]]
            vb = [r["metrics"][name]["value"] for r in raw["B"][w]]
            a1, am, a3, sa = spread(va)
            b1, bm, b3, sb = spread(vb)
            bound = m["bound"]
            gated = name not in UNGATED_SPREAD
            spread_ok = not gated or (sa <= bound and sb <= bound)
            change = worse_by(bm, am, m["better"])
            agree = (change <= bound and worse_by(am, bm, m["better"]) <= bound)
            wins = sum(1 for x, y in zip(va, vb)
                       if worse_by(y, x, m["better"]) < 0)
            ok &= spread_ok and agree
            print(f"| {w} | {name} | {am:.6g} [{a1:.6g}, {a3:.6g}] | "
                  f"{sa:.3f} | {bm:.6g} [{b1:.6g}, {b3:.6g}] | {sb:.3f} | "
                  f"{change:+.3f} | {bound} | "
                  f"{'n/g' if not gated else 'ok' if spread_ok else 'WIDE'} | "
                  f"{'ok' if agree else 'NO'} | {wins}/{len(va)} |")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
