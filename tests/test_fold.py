"""The closed form evaluates a constant factor metric and a constant warp
once and caches them.  Every number it gives must be bitwise what the
per-point evaluation gives, and a fold that fails must not be cached."""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from warpcurv import bundle_closed, christoffels_closed, rhs_full, rhs_split
from warpcurv.closed_form import (
    _christoffels_from_data,
    _point_data,
    _ricci_from_data,
    _riemann_and_ricci,
    _riemann_from_data,
    _scalar_paths_from_data,
)
from warpcurv.errors import DegenerateMetricError, NonpositiveWarpError
from warpcurv.expr import jet2, value_and_gradient
from warpcurv.geodesics import GeodesicState
from warpcurv.geometry import (
    MetricSpec,
    _christoffels_from_parts,
    _inverse_of,
    _metric_and_first_derivs,
    _metric_jets,
)
from warpcurv.manifest import catalog_names, load_catalog, load_manifest, parse_manifest
from warpcurv.warped import ProductPoint, WarpedProductSpec

ROOT = Path(__file__).parents[1]


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _manifests():
    """(label, loader) of every catalog entry, both valid fixtures and the
    benchmark's dense manifests of seeds 1 to 3; each call of a loader
    builds a fresh spec, with nothing evaluated yet."""
    out = [(name, lambda name=name: load_catalog(name)) for name in catalog_names()]
    for name in ("shifted-warp", "doubly-exp-2x2"):
        path = ROOT / "tests" / "fixtures" / f"{name}.json"
        out.append((name, lambda path=path: load_manifest(path)))
    workloads = _workloads()
    for seed in (1, 2, 3):
        for doc in workloads.dense_manifests(seed):
            label = f"{doc['name']}@{seed}"
            out.append((label, lambda doc=doc, label=label: parse_manifest(doc, source=label)))
    return out


MANIFESTS = _manifests()


def _unfolded_factor(factor, coords, warp, which, own, hessians):
    """The per-point evaluation of one factor's record, with no cache."""
    k = factor.dim
    DD = None
    if hessians and k > 1:
        g, D, DD = _metric_jets(factor, coords)
    else:
        g, D = _metric_and_first_derivs(factor, coords)
    ginv = _inverse_of(g)
    gamma = _christoffels_from_parts(ginv, D)
    if hessians:
        jet = jet2(warp.expr, coords)
        w, dw = jet.value, jet.gradient
    else:
        w, dw = value_and_gradient(warp.expr, coords)
    if not w > 0.0:
        raise NonpositiveWarpError(which, w)
    dwU = ginv @ dw
    H = lap = nw2 = riem = ric = None
    if hessians:
        H = jet.hessian - (dw @ gamma.reshape(k, k * k)).reshape(k, k)
        lap = float(np.vdot(ginv, H))
        nw2 = float(dw @ dwU)
        if DD is None:
            riem, ric = np.zeros((k, k, k, k)), np.zeros((k, k))
        else:
            riem, ric = _riemann_and_ricci(g, ginv, gamma, DD)
    return SimpleNamespace(
        own=own, dim=k, w=w, g=g, ginv=ginv, gamma=gamma,
        dwU=dwU, lw=dw / w, H=H, lap=lap, nw2=nw2, riem=riem, ric=ric,
    )


def _unfolded(spec, x, hessians):
    m, dim = spec.base.dim, spec.dim
    return (
        _unfolded_factor(spec.base, x[:m], spec.f, "f", slice(0, m), hessians),
        _unfolded_factor(spec.fiber, x[m:], spec.h, "h", slice(m, dim), hessians),
    )


def _bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


def _same_records(got, want):
    for A, B in zip(got, want):
        assert A.own == B.own and A.dim == B.dim
        for key in ("w", "g", "ginv", "gamma", "dwU", "lw", "H", "lap", "nw2", "riem", "ric"):
            a, b = getattr(A, key), getattr(B, key)
            assert (a is None) == (b is None), key
            if a is not None:
                assert _bits(a) == _bits(b), key


def _split_reference(d, v):
    accel = []
    for A, O in (d, d[::-1]):
        vA, vO = v[A.own], v[O.own]
        accel.append(
            -((A.gamma @ vA) @ vA)
            + (A.w / O.w**2) * float(vO @ O.g @ vO) * A.dwU
            - 2.0 * float(O.lw @ vO) * vA
        )
    return np.concatenate(accel)


@pytest.mark.parametrize("label,load", MANIFESTS, ids=[label for label, _ in MANIFESTS])
def test_folded_point_data_is_bitwise_the_unfolded(label, load):
    mf = load()
    spec = mf.spec
    rng = np.random.default_rng(list(label.encode()))
    box = np.asarray(mf.box)
    for _ in range(40):
        x = box[:, 0] + (box[:, 1] - box[:, 0]) * rng.random(spec.dim)
        v = rng.standard_normal(spec.dim)
        pp = ProductPoint.from_full(x, spec.base.dim)
        lean, full = _unfolded(spec, x, False), _unfolded(spec, x, True)
        _same_records(_point_data(spec, pp, with_hessians=False), lean)
        _same_records(_point_data(spec, pp), full)
        gamma = _christoffels_from_data(lean)
        assert _bits(christoffels_closed(spec, x)) == _bits(gamma)
        state = GeodesicState(0.0, pp, v)
        assert _bits(rhs_full(spec, state)) == _bits(-((gamma @ v) @ v))
        assert _bits(rhs_split(spec, state)) == _bits(_split_reference(lean, v))
        b = bundle_closed(spec, x, None, "common")
        ric = _ricci_from_data(full)
        assert _bits(b.christoffel) == _bits(_christoffels_from_data(full))
        assert _bits(b.riemann) == _bits(_riemann_from_data(full))
        assert _bits(b.ricci) == _bits(ric)
        assert _bits(b.scalar) == _bits(_scalar_paths_from_data(full, ric)[0])


def _folds(spec):
    return [spec.base._fold, spec.fiber._fold, spec.f.expr._fold, spec.h.expr._fold]


@pytest.mark.parametrize("label,load", MANIFESTS, ids=[label for label, _ in MANIFESTS])
def test_building_folds_nothing_and_the_cache_is_read_only(label, load):
    mf = load()
    spec = mf.spec
    assert _folds(spec) == [None] * 4
    x = np.asarray(mf.box).mean(axis=1)
    _point_data(spec, x)
    base, fiber = _point_data(spec, x, with_hessians=False)
    for factor, warp, record in ((spec.base, spec.f, base), (spec.fiber, spec.h, fiber)):
        assert (factor._fold is not None) == all(
            e._constant is not None for row in factor.components for e in row
        )
        assert (warp.expr._fold is not None) == (getattr(warp.expr, "_constant", None) is not None)
        cached = []
        if factor._fold is not None:
            cached += factor._fold
            assert record.g is factor._fold[0] and record.gamma is factor._fold[2]
        if warp.expr._fold is not None:
            cached += warp.expr._fold[1:]
            assert record.lw is warp.expr._fold[2]
        for a in cached:
            assert isinstance(a, np.ndarray) and not a.flags.writeable
            with pytest.raises(ValueError):
                a[(0,) * a.ndim] = 1.0


LINE = MetricSpec.from_strings(1, [["1"]])


@pytest.mark.parametrize("hessians", [False, True])
def test_a_failing_fold_is_not_cached_and_raises_in_order(hessians):
    # the base metric is checked before f, so the degenerate base wins
    flat0 = MetricSpec.from_strings(1, [["0"]])
    bad = WarpedProductSpec.build(flat0, LINE, "-1", "1")
    calls = [
        lambda x: _point_data(bad, x, with_hessians=hessians),
        lambda x: christoffels_closed(bad, x),
        lambda x: bundle_closed(bad, x),
        lambda x: rhs_split(bad, GeodesicState(0.0, ProductPoint.from_full(x, 1), [1.0, 0.0])),
    ]
    for x in ([0.3, 0.1], [0.3, 0.1], [-2.0, 5.0]):
        for call in calls:
            with pytest.raises(DegenerateMetricError):
                call(np.array(x))
    assert bad.base._fold is None and bad.f.expr._fold is None
    # with a healthy base, f is the first check to fail, every time
    spec = WarpedProductSpec.build(MetricSpec.from_strings(1, [["1"]]), LINE, "-1", "1")
    for x in ([0.3, 0.1], [-2.0, 5.0]):
        with pytest.raises(NonpositiveWarpError) as exc:
            _point_data(spec, np.array(x), with_hessians=hessians)
        assert str(exc.value) == "warp function f must be positive, got -1.0"
    assert spec.f.expr._fold is None and spec.base._fold is not None
