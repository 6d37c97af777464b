#!/usr/bin/env python3
"""Smoke test of the benchmark harness itself, at tiny sizes.

    python3 bench/smoke.py      # from the root of a warpcurv checkout

Checks that:
- every workload prints every metric named in BENCHMARK.json, with its
  unit, untraced (end-to-end) and traced (per layer);
- in a traced run the layer self times add up to each operation's wall time,
  and every span lies inside its parent without overlapping its siblings;
- that sum check fails when a span belongs to no reported layer;
- a failed correctness check is counted in `failed` and clears `correct`,
  for a sweep point and for a geodesic segment;
- without the package beside it the benchmark exits non-zero and prints no
  result.

Exits 0 when every check holds; prints one line per check.
"""

import contextlib
import io
import itertools
import json
import math
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import run
import tracer as tracing
import workloads

ROOT = Path.cwd()
RUN = ["bench/run.py"]
failures = []


def check(ok: bool, what: str):
    print(f"[{'ok' if ok else 'FAIL'}] {what}")
    if not ok:
        failures.append(what)


def result_of(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, *RUN, "--workload", workload, "--seed", "0", "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def every_metric_printed(spec: dict):
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for w in spec["workloads"]:
        for trace in (0, 1):
            proc = bench(ROOT, w["name"], trace)
            if proc.returncode != 0:
                check(False, f"{w['name']} --trace {trace} exits 0 ({proc.stderr.strip()[-200:]})")
                continue
            res = result_of(proc.stdout)
            details = json.loads(proc.stdout.strip().splitlines()[-2])["details"]
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            finite = all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                         for v in res["metrics"].values())
            check(
                set(res) == {"correct", "attempted", "failed", "metrics"}
                and got == wanted[trace] and finite and res["attempted"] >= 1 and res["correct"],
                f"{w['name']} --trace {trace}: every metric with its unit, correct",
            )
            if trace:
                check(details["spans"]["layer_sum_error_p99"] <= run.SELF_SUM_TOL,
                      f"{w['name']}: layer self times sum to each operation's wall time")
                check(spans_nest(ROOT / details["spans"]["file"]),
                      f"{w['name']}: children lie inside their parent and never overlap")


def spans_nest(path: Path) -> bool:
    """Self time = duration - children's durations counts nothing twice only
    if every child lies inside its parent and siblings do not overlap."""
    with np.load(path) as z:
        parent, start, end = z["parent"], z["start"], z["end"]
    kids = np.flatnonzero(parent >= 0)
    inside = np.all(start[kids] >= start[parent[kids]]) and np.all(end[kids] <= end[parent[kids]])
    order = kids[np.lexsort((start[kids], parent[kids]))]
    same = parent[order[1:]] == parent[order[:-1]]
    disjoint = np.all(start[order[1:]][same] >= end[order[:-1]][same])
    return bool(inside and disjoint and np.all(end >= start))


def stray_span_caught():
    """Time spent in a span of no reported layer leaves a gap in the sum."""
    tr = tracing.Tracer()
    stray = tr.wrap("stray.wait", lambda: time.sleep(0.002))
    op = tr.wrap(tracing.OP, lambda: stray())
    t0 = time.perf_counter()
    op()
    wall = time.perf_counter() - t0
    errors = tracing.Analysis(tr).layer_sum_errors([wall], run.LAYERS)
    check(errors.max() > run.SELF_SUM_TOL, "a span of no reported layer fails the sum check")


def corrupted(name: str, wrap_result, nth: int):
    """make_api whose `name` entry point corrupts the result of its nth call."""
    real = run.make_api

    def make_api(wc, tracer=None):
        api = real(wc, tracer)
        good = getattr(api, name)
        calls = itertools.count()

        def bad(*args, **kwargs):
            out = good(*args, **kwargs)
            return wrap_result(out) if next(calls) == nth else out

        setattr(api, name, bad)
        return api

    return make_api


def injected_failure(workload: str, name: str, wrap_result, nth: int, units: int, reason: str):
    real = run.make_api
    run.make_api = corrupted(name, wrap_result, nth)
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = run.main(["--workload", workload, "--seed", "0", "--seconds", "1"])
    finally:
        run.make_api = real
    res = result_of(buf.getvalue())
    details = json.loads(buf.getvalue().strip().splitlines()[-2])["details"]
    check(
        code == 0 and res["failed"] == units and not res["correct"]
        and res["attempted"] > units and reason in details["failures"]
        and details["failed_share"] == units / res["attempted"],
        f"{workload}: one corrupted result counts {units} failed unit(s) as {reason}",
    )


def bump_scalar(bundle):
    bundle.scalar += 1.0
    return bundle


def bend_trajectory(traj):
    traj.samples[-1].position.base_coords[0] += 1e-6
    return traj


def no_package_no_result():
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(ROOT / "bench", tmp / "bench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = bench(tmp, "catalog-sweep", 0)
    check(proc.returncode != 0 and proc.stdout.strip() == "",
          "without src/warpcurv: non-zero exit, no result printed")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    every_metric_printed(spec)
    stray_span_caught()
    warm = len(workloads.CATALOG)  # warm-up points before the measured ones
    injected_failure("catalog-sweep", "bundle_closed", bump_scalar, warm + 3, 1, "criterion1:scalar")
    # calls 0-5 are the warm-up round; call 6 is the first measured full segment
    injected_failure("geodesic-long", "integrate", bend_trajectory, 6, 2 * workloads.CHUNK,
                     "split-vs-full")
    no_package_no_result()
    print("smoke:", "FAILED " + "; ".join(failures) if failures else "all checks hold")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
