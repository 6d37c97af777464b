"""The benchmark wraps package functions by module and attribute name
(bench/tracer.py).  A rename or deletion there breaks only traced benchmark
runs, so the names are checked here."""

import importlib.util
from pathlib import Path

import warpcurv
from warpcurv import geodesics

TRACER = Path(__file__).parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_bindings_resolve():
    tracer = _load_tracer()
    for module, attr, _ in tracer.WRAP_POINTS:
        assert callable(getattr(getattr(warpcurv, module), attr, None)), (module, attr)
    for key, _ in tracer.RHS_POINTS:
        assert key in geodesics._RHS, key
    for name in tracer.ENTRY_SPANS:
        assert name in warpcurv.__all__ and callable(getattr(warpcurv, name)), name
