#!/usr/bin/env python3
"""Alternating A/B pairs of the benchmark between two checkouts.

    python3 tools/ab.py PARENT CHANGE --out BENCH_18.json \
        [--workloads catalog-sweep dense-sweep geodesic-long] [--description TEXT] \
        [--traced K]

PARENT and CHANGE are the roots of two warpcurv checkouts.  Each run is
`python3 bench/run.py --workload W --seed 1 --seconds 30 --trace 0` started
from one checkout's root, so each side runs its own bench/ against its own
src/; nothing under bench/ is changed or copied.  Runs go one at a time,
ten pairs per workload.  Pair k of a workload runs the parent first when k is even and the change
first when k is odd.  With --traced K, each workload's pairs are followed
by K rounds of `--trace 1` runs, one per checkout, alternating the same way.

The output file is rewritten after every pair, so an interrupted run
leaves the pairs it finished.  Its layout:

    {"description": ...,
     "workloads": {W: {"summary": {metric: {"parent_median", "parent_quartiles",
                                             "change_median", "change_quartiles",
                                             "ratio", "change_lower_pairs"},
                                   "attempted": {"parent_median", "change_median"},
                                   "failed": {"parent", "change"}, "pairs": n},
                       "pairs": [{"seed", "first", "parent": run, "change": run}],
                       "traced": [{"seed", "first", "parent": traced, "change": traced}]}}}

where a run holds each end-to-end metric's value, attempted, failed and
correct, ratio is change_median / parent_median, and a traced run holds
attempted, failed, correct and layer_sum_error_p99 (the traced run's check
that layer self times sum to each operation's wall time).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

WORKLOADS = ("catalog-sweep", "dense-sweep", "geodesic-long")
METRICS = ("setup_s", "op_ms_tail", "peak_rss_mb")
PAIRS = 10  # the fewest pairs a claim rests on
SEED = 1
SECONDS = 30  # BENCHMARK.json's run_seconds


def run(root: Path, workload: str, trace: int = 0) -> dict:
    """One benchmark run in a checkout: its counts, and its end-to-end
    metrics, or with trace 1 its layer-sum error."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=False)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if trace:
        spans = json.loads(lines[-2])["details"]["spans"]
        out = {"layer_sum_error_p99": spans["layer_sum_error_p99"]}
    else:
        out = {name: result["metrics"][name]["value"] for name in METRICS}
    out.update(attempted=result["attempted"], failed=result["failed"], correct=result["correct"])
    return out


def alternating(roots: dict, workload: str, k: int, trace: int = 0) -> dict:
    """Round k: one run per checkout, the parent first when k is even."""
    order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
    out = {"seed": SEED, "first": order[0]}
    for side in order:
        out[side] = run(roots[side], workload, trace)
    return out


def _r(x: float) -> float:
    return round(float(x), 5)


def summary(pairs: list) -> dict:
    out = {}
    for name in METRICS:
        parent = np.array([p["parent"][name] for p in pairs])
        change = np.array([p["change"][name] for p in pairs])
        out[name] = {
            "parent_median": _r(np.median(parent)),
            "parent_quartiles": [_r(q) for q in np.percentile(parent, [25, 75])],
            "change_median": _r(np.median(change)),
            "change_quartiles": [_r(q) for q in np.percentile(change, [25, 75])],
            "ratio": round(float(np.median(change) / np.median(parent)), 4),
            "change_lower_pairs": int((change < parent).sum()),
        }
    out["attempted"] = {f"{side}_median": int(np.median([p[side]["attempted"] for p in pairs]))
                        for side in ("parent", "change")}
    out["failed"] = {side: sum(p[side]["failed"] for p in pairs) for side in ("parent", "change")}
    out["pairs"] = len(pairs)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    ap.add_argument("--description", default="")
    ap.add_argument("--traced", type=int, default=0, metavar="K",
                    help="after each workload's pairs, K rounds of --trace 1 runs")
    args = ap.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    doc = {"description": args.description, "workloads": {}}
    for workload in args.workloads:
        pairs = []
        for k in range(PAIRS):
            pair = alternating(roots, workload, k)
            pairs.append(pair)
            doc["workloads"][workload] = {"summary": summary(pairs), "pairs": pairs}
            args.out.write_text(json.dumps(doc, indent=1) + "\n")
            print(workload, k, {s: pair[s]["op_ms_tail"] for s in roots}, flush=True)
        traced = doc["workloads"][workload]["traced"] = []
        for k in range(args.traced):
            traced.append(alternating(roots, workload, k, trace=1))
            args.out.write_text(json.dumps(doc, indent=1) + "\n")
            print(workload, "traced", k, {s: traced[-1][s]["correct"] for s in roots}, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
