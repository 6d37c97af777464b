#!/usr/bin/env python3
"""warpcurv benchmark: curvature sweeps and long geodesics, timed end to end
and per layer.

    python3 bench/run.py --workload catalog-sweep --seed 1 --seconds 30 --trace 0

Run it from the root of a warpcurv source checkout; the package is imported
from ./src.  One process, one caller, closed loop, BLAS/OpenMP pinned to one
thread.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  The line before it holds
the details: machine, tail percentile and sample counts, the workload's own
figures and every failure reason.  bench/README.md maps metrics to layers
and workloads.
"""

import os

# Pinned before numpy loads its BLAS.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import importlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).parent
# Set-up repetitions spread evenly over the measured window, one after each
# slice of operations, so that they see the same mix of machine speeds as
# the operations do.
SETUP_REPS = 60
TRACED_SETUPS = 9  # traced set-up passes for manifest.load and as_plain_metric
# The tail is p90 on every workload: at this benchmark's run length it has
# hundreds of samples above it, and p99 swung by a quarter between seeds on
# a shared 2-vCPU machine where p90 held to under a fifth.
TAIL_PCT = 90.0
# setup_s is the same percentile of the set-up repetitions.  On a machine
# whose speed flips between two levels for minutes at a time, the median
# follows the share of time spent at the faster level, while p90 stays at
# the slower one unless a whole run is fast.
SETUP_PCT = TAIL_PCT
# Layer self times of a traced operation must add up to its wall time,
# timed outside the root span, within this share on 99% of operations.  The
# root wrapper's own cost, a microsecond or two, is the expected difference;
# a garbage-collection pause or a preemption that lands in it reached 2e-3
# of a catalog round on a rare operation.  A span charged to no reported
# layer shows on every operation that makes the call.
SELF_SUM_TOL = 5e-3
SELF_SUM_PCT = 99.0
clock = time.perf_counter

# Throughput and the median round latency are reported in the details, not
# here: both follow the share of time the machine spends at its faster
# speed, and over ten seeds they spread up to 0.36 and 0.58 where the p90
# tail spread at most 0.18.
END_TO_END = {
    "setup_s": "s",
    "op_ms_tail": "ms",
    "peak_rss_mb": "MB",
}
LAYERS = ("bench", "expr", "geometry", "warped", "closed_form", "oracle", "geodesics")
BASELINE_ENTRIES = ("unit-sphere", "schwarzschild-exterior-slice", "robertson-walker")


def import_fresh(src: Path):
    """Import warpcurv from the checkout, dropping any copy already loaded,
    so every set-up repetition pays for the import."""
    for name in [n for n in sys.modules if n == "warpcurv" or n.startswith("warpcurv.")]:
        del sys.modules[name]
    wc = importlib.import_module("warpcurv")
    if Path(wc.__file__).resolve().parent != (src / "warpcurv").resolve():
        raise ImportError(f"warpcurv came from {wc.__file__}, not from {src}")
    return wc


def measure_setup(workload, src: Path):
    """Import, load or parse every manifest, splice each into a plain
    chart.  Returns the time taken and the set-up."""
    t0 = clock()
    wc = import_fresh(src)
    entries = workloads.load_entries(wc, workload.sources)
    return clock() - t0, wc, entries


def make_api(wc, tracer=None):
    """The package entry points the workloads call, wrapped when tracing."""
    calls = {key: getattr(wc, key) for key in tracing.ENTRY_SPANS}
    if tracer is not None:
        calls = {key: tracer.wrap(tracing.ENTRY_SPANS[key], fn) for key, fn in calls.items()}
    return SimpleNamespace(
        **calls,
        ProductPoint=wc.ProductPoint,
        GeodesicState=wc.GeodesicState,
        WarpcurvError=wc.WarpcurvError,
        tag=tracer.tag if tracer is not None else (lambda label: None),
    )


@dataclass
class OpResult:
    label: str
    units: int
    seconds: float
    failed: int  # units
    reasons: list
    parts: dict  # seconds per entry (sweeps) or per RHS (geodesic-long)


def timed(op, api, tracer=None):
    """Run one operation through `api`; only the program calls are timed.
    Returns its output (or the exception it raised), seconds and parts."""
    fn = op.run
    if tracer is not None:
        tracer.tag(op.label)
        fn = tracer.wrap(tracing.OP, fn)
    t0 = clock()
    try:
        out = fn(api)
    except Exception as exc:  # the run goes on; the check counts it as failed
        out = exc
    return out, clock() - t0, dict(op.parts)


def run_ops(ops, api, seconds=None, count=None) -> list:
    """Closed loop: the next operation starts when the previous one and its
    check are done.  Stops after `seconds` of wall time or `count` ops."""
    results = []
    deadline = None if seconds is None else clock() + seconds
    for op in itertools.islice(ops, count):
        out, dt, parts = timed(op, api)
        failed, reasons = op.check(out)
        results.append(OpResult(op.label, op.units, dt, failed, reasons, parts))
        if deadline is not None and clock() >= deadline:
            break
    return results


def run_paired(ops, api, api_traced, tracer, package, seconds) -> tuple:
    """Each operation twice, untraced and traced, in alternating order, so
    that both halves of a pair see the same machine speed.  The traced
    output is checked; the untraced result carries the same verdict.
    Returns the untraced and the traced results."""

    def traced_run(op):
        with tracer.installed(package):
            return timed(op, api_traced, tracer)

    plain, traced = [], []
    deadline = clock() + seconds
    for i, op in enumerate(ops):
        if i % 2:
            t_out, t_dt, t_parts = traced_run(op)
            _, u_dt, u_parts = timed(op, api)
        else:
            _, u_dt, u_parts = timed(op, api)
            t_out, t_dt, t_parts = traced_run(op)
        failed, reasons = op.check(t_out)
        plain.append(OpResult(op.label, op.units, u_dt, failed, reasons, u_parts))
        traced.append(OpResult(op.label, op.units, t_dt, failed, reasons, t_parts))
        if clock() >= deadline:
            break
    return plain, traced


def latency(results) -> dict:
    ms = np.array([r.seconds / r.units * 1e3 for r in results])
    tail = float(np.percentile(ms, TAIL_PCT))
    return {
        "p50": float(np.median(ms)),
        "tail": tail,
        "tail_percentile": TAIL_PCT,
        "samples": len(ms),
        "beyond_tail": int((ms > tail).sum()),
    }


def throughput(results) -> float:
    return sum(r.units for r in results) / sum(r.seconds for r in results)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def machine_info() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def figures(workload, results) -> dict:
    """Latency medians and the figures named for this workload alone,
    beside the end-to-end metrics."""
    out = {"op_ms_p50": (latency(results)["p50"], "ms")}
    if workload.unit == "point":
        ms = np.array([t * 1e3 for r in results for t in r.parts.values()])
        out["points_per_s"] = (throughput(results), "1/s")
        out["point_ms_p50"] = (float(np.median(ms)), "ms")
        out["point_ms_tail"] = (float(np.percentile(ms, TAIL_PCT)), "ms")
    else:
        steps = sum(r.units for r in results) / 2  # each RHS ran half the steps
        for rhs in ("full", "split"):
            out[f"{rhs}_steps_per_s"] = (steps / sum(r.parts[rhs] for r in results), "1/s")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}


def end_to_end(setup_times, results) -> dict:
    lat = latency(results)
    values = {
        "setup_s": float(np.percentile(setup_times, SETUP_PCT)),
        "op_ms_tail": lat["tail"],
        "peak_rss_mb": peak_rss_mb(),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer(workload, an: tracing.Analysis, untraced, traced) -> dict:
    units = sum(r.units for r in traced)
    m = {}

    def put(name, value, unit):
        m[name] = {"value": float(value), "unit": unit}

    for kind in ("evaluate", "value_and_gradient", "jet2"):
        put(f"expr.{kind}.calls", an.calls(f"expr.{kind}") / units, "calls/unit")
        put(f"expr.{kind}.us_p50", an.us_p50(f"expr.{kind}"), "us")
    put("geometry.christoffels_of.calls", an.calls("geometry.christoffels_of") / units, "calls/unit")
    put("geometry.christoffels_of.us_p50", an.us_p50("geometry.christoffels_of"), "us")
    put("warped.assemble_metric.calls", an.calls("warped.assemble_metric") / units, "calls/unit")
    put("warped.assemble_metric.us_p50", an.us_p50("warped.assemble_metric"), "us")
    put("warped.as_plain_metric.ms", an.ms_p50_outside_ops("warped.as_plain_metric"), "ms")
    for name in ("bundle_closed", "christoffels_closed", "_point_data"):
        put(f"closed_form.{name}.us_p50", an.us_p50(f"closed_form.{name}"), "us")
    put("oracle.bundle_fd.product.us_p50", an.us_p50("oracle.bundle_fd.product"), "us")
    put("oracle.bundle_fd.factor.calls", an.calls("oracle.bundle_fd.factor") / units, "calls/unit")
    put("oracle.bundle_fd.factor.us_p50", an.us_p50("oracle.bundle_fd.factor"), "us")
    put("oracle.compare_bundles.us_p50", an.us_p50("oracle.compare_bundles"), "us")
    put("geodesics.rhs_full.us_p50", an.us_p50("geodesics.rhs_full"), "us")
    put("geodesics.rhs_split.us_p50", an.us_p50("geodesics.rhs_split"), "us")
    rhs_calls = an.calls("geodesics.rhs_full") + an.calls("geodesics.rhs_split")
    put("geodesics.rhs.calls", rhs_calls / units, "calls/unit")
    put("geodesics.integrate.self_share", an.span_share("geodesics.integrate"), "ratio")
    put("manifest.load.ms", an.ms_p50_outside_ops("manifest.load"), "ms")
    for layer in LAYERS:
        put(f"{layer}.self_share", an.layer_share(layer), "ratio")

    by_label = collections.defaultdict(list)
    for r in untraced:
        for label, seconds in r.parts.items():
            by_label[label].append(seconds * 1e3)
    for name in workloads.CATALOG:
        ms = by_label.get(name) if workload.name == "catalog-sweep" else None
        put(f"catalog.{name}.point_ms_p50", np.median(ms) if ms else 0.0, "ms")
    for name in BASELINE_ENTRIES:
        put(f"catalog.{name}.bundle_closed.us_p50", an.us_p50("closed_form.bundle_closed", name), "us")
        put(f"catalog.{name}.bundle_fd.us_p50", an.us_p50("oracle.bundle_fd.product", name), "us")
        put(f"geodesic.{name}.rhs_full.us_p50", an.us_p50("geodesics.rhs_full", name), "us")
        put(f"geodesic.{name}.rhs_split.us_p50", an.us_p50("geodesics.rhs_split", name), "us")

    # Each operation traced against its own untraced twin, both timed
    # outside op.run.
    base = sum(r.seconds for r in untraced)
    put("trace.overhead_share", (sum(r.seconds for r in traced) - base) / base, "ratio")
    return m


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        ap.error("--seconds must be >= 1 and --seed >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = Path.cwd() / "src"
    if not (src / "warpcurv" / "__init__.py").is_file():
        print(f"bench: no package at {src / 'warpcurv'}; run from the root of a warpcurv checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workload = workloads.make(args.workload, args.seed)
    try:
        first_setup, wc, entries = measure_setup(workload, src)
    except ImportError as exc:
        print(f"bench: cannot import warpcurv: {exc}", file=sys.stderr)
        return 2

    api = make_api(wc)
    run_ops(workload.ops(entries, api, args.seed + 2**40), api, count=1)  # warm-up round

    details = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "unit": workload.unit,
        "loop": "closed, one caller",
        "machine": machine_info(),
        "first_setup_s": first_setup,
    }
    ops = workload.ops(entries, api, args.seed)
    if args.trace == 0:
        # The first set-up also loads the modules warpcurv imports and is
        # left out of the median; the others follow slices of the window.
        results, setup_times = [], []
        for _ in range(SETUP_REPS):
            results += run_ops(ops, api, seconds=args.seconds / SETUP_REPS)
            setup_times.append(measure_setup(workload, src)[0])
        metrics = end_to_end(setup_times, results)
        lat = latency(results)
        details["setup_reps_s"] = setup_times
        details["tail"] = {k: lat[k] for k in ("tail_percentile", "samples", "beyond_tail")}
        details["figures"] = figures(workload, results)
        self_sum_ok = True
    else:
        tracer = tracing.Tracer()
        api_traced = make_api(wc, tracer)
        with tracer.installed(wc):
            for _ in range(TRACED_SETUPS):
                workloads.load_entries(api_traced, workload.sources)
        plain, results = run_paired(ops, api, api_traced, tracer, wc, args.seconds)
        an = tracing.Analysis(tracer)
        metrics = per_layer(workload, an, plain, results)
        out_dir = BENCH_DIR / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{workload.name}.npz"
        tracer.save(spans_path)
        errors = an.layer_sum_errors([r.seconds for r in results], LAYERS)
        sum_error = float(np.percentile(errors, SELF_SUM_PCT))
        details["spans"] = {"file": str(spans_path), "count": len(an.dur),
                            "layer_sum_error_p99": sum_error,
                            "layer_sum_error_max": float(errors.max())}
        self_sum_ok = sum_error <= SELF_SUM_TOL

    attempted = sum(r.units for r in results)
    failed = sum(r.failed for r in results)
    details["failed_share"] = failed / attempted
    details["failures"] = dict(collections.Counter(x for r in results for x in r.reasons))
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": failed == 0 and self_sum_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
