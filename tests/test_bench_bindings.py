"""The benchmark wraps package functions by module and attribute name
(bench/tracer.py) and calls the package's entry points from its workloads
(bench/workloads.py).  A rename, deletion or changed signature there breaks
only benchmark runs, so both are checked here."""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import warpcurv
from warpcurv import geodesics

BENCH = Path(__file__).parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_bindings_resolve():
    tracer = _load("tracer")
    for module, attr, _ in tracer.WRAP_POINTS:
        assert callable(getattr(getattr(warpcurv, module), attr, None)), (module, attr)
    for key, _ in tracer.RHS_POINTS:
        assert key in geodesics._RHS, key
    for name in tracer.ENTRY_SPANS:
        assert name in warpcurv.__all__ and callable(getattr(warpcurv, name)), name


def test_benchmark_rounds_run_clean():
    """One operation of each workload, through the entry points the
    benchmark's runner hands it, fails no unit."""
    workloads = _load("workloads")
    api = SimpleNamespace(
        **{name: getattr(warpcurv, name) for name in _load("tracer").ENTRY_SPANS},
        ProductPoint=warpcurv.ProductPoint,
        GeodesicState=warpcurv.GeodesicState,
        WarpcurvError=warpcurv.WarpcurvError,
        tag=lambda label: None,
    )
    for name in workloads.WORKLOADS:
        workload = workloads.make(name, 1)
        entries = workloads.load_entries(warpcurv, workload.sources)
        op = next(workload.ops(entries, api, 1))
        failed, reasons = op.check(op.run(api))
        assert failed == 0, (name, reasons)
