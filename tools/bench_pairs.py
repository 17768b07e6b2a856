"""Alternating parent/change pairs of the benchmark, with each metric's medians and wins.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload W --pairs N [--seconds S]

Each pair runs ``perfbench/run.py --workload W --seed 90317 --seconds S --trace 0``
once in each checkout, from the checkout's root, one process at a time.  Odd
pairs run the parent first and even pairs the change, so drift in the host's
speed falls on both sides.  ``--seconds`` defaults to BENCHMARK.json's
``run_seconds``.  The two checkouts must resolve to paths of equal length,
since the heap's placement, and with it ``peak_rss_mib``, can depend on the
path; the script exits 2 before any run when they do not.

The end-to-end metrics of every pair are printed as they come in.  At the end,
for each metric: the parent's median and quartiles, the change's median, the
ratio of the medians (change / parent), the pairs the change won, ties
counting for neither side, and a verdict, with the direction each metric
improves in and its bound from BENCHMARK.json.  The verdict is
``unresolved`` when the parent's interquartile range is wider than the
metric's bound (a share of the parent's median), unless the runs do not
overlap: every change run beats every parent run, or every parent run beats
every change run.  Otherwise it is ``gain`` when the change won at least
9/10 of the pairs and the medians differ by more than the parent's
interquartile range in the better direction, ``worse`` when the change's
median is worse than the parent's by more than the bound, and ``-``
otherwise.  The
script exits 1, after printing what it has, when a run exits non-zero or
reports a failed job.  It writes only what ``run.py`` itself writes, in each
checkout's ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from statistics import median, quantiles

SEED = 90317  # the benchmark's held-out seed (perfbench/README.md)
RUN_TIMEOUT_S = 900.0  # run.py stops each workload at 170 s; "all" runs three


def run_once(checkout: str, workload: str, seconds: float) -> dict:
    """The metrics {name: value} of one run.py process in ``checkout``; raises on a failure."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"run.py in {checkout} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["failed"] or not result["correct"]:
        raise RuntimeError(f"run.py in {checkout}: {result['failed']} of "
                           f"{result['attempted']} jobs failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values: list) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = quantiles(values, n=4, method="inclusive")
    return q1, q3


def report(pairs: list, spec: dict) -> None:
    """Per metric: parent median [quartiles], change median, ratio, pairs won and verdict."""
    print(f"\n{'metric':24s} {'parent median [q1, q3]':34s} {'change':>10s} "
          f"{'ratio':>7s} {'won':>5s} verdict")
    for name in pairs[0][0]:
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        metric = spec[name.rsplit(".", 1)[-1]]
        sign = -1.0 if metric["better"] == "lower" else 1.0
        won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        q1, q3 = quartiles(parent)
        ratio = median(change) / median(parent) if median(parent) else float("nan")
        gap = sign * (median(change) - median(parent))  # > 0 when the change is better
        bound = metric["bound"] * abs(median(parent))
        gaps = [sign * (c - p) for c in change for p in parent]  # every run against every run
        if q3 - q1 > bound and not (min(gaps) > 0 or max(gaps) < 0):
            verdict = "unresolved"
        elif 10 * won >= 9 * len(pairs) and gap > q3 - q1:
            verdict = "gain"
        elif -gap > bound:
            verdict = "worse"
        else:
            verdict = "-"
        base = f"{median(parent):.4g} [{q1:.4g}, {q3:.4g}]"
        print(f"{name:24s} {base:34s} {median(change):10.4g} {ratio:7.3f} "
              f"{f'{won}/{len(pairs)}':>5s} {verdict}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True, help="walk, scan, spectral or all")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, help="run length (default: BENCHMARK.json's)")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    checkouts = {side: os.path.realpath(getattr(args, side)) for side in ("parent", "change")}
    if len(checkouts["parent"]) != len(checkouts["change"]):
        ap.error(f"--parent {checkouts['parent']} and --change {checkouts['change']} resolve to "
                 f"paths of different lengths; peak_rss_mib can depend on the path's length")
    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    pairs = []
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        got = {}
        try:
            for side in order:
                got[side] = run_once(checkouts[side], args.workload, seconds)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"pair {i + 1}: {exc}", file=sys.stderr)
            if pairs:
                report(pairs, metrics)
            return 1
        pairs.append((got["parent"], got["change"]))
        print(f"pair {i + 1} ({order[0]} first): " + ", ".join(
            f"{name} {got['parent'][name]:.4g}/{got['change'][name]:.4g}"
            for name in got["parent"]), flush=True)
    report(pairs, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
