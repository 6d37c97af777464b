"""The closed form evaluates a constant factor metric once and caches it,
and gives a constant warp its cached value and shared read-only zero
derivatives.  Every number it gives must be bitwise what the per-point
evaluation gives, and a fold that fails must not be cached."""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from warpcurv import bundle_closed, christoffels_closed, rhs_full, rhs_split
from warpcurv.closed_form import _blocks, _christoffels_from_data, _point_data, _zero_jet
from warpcurv.errors import DegenerateMetricError, NonpositiveWarpError
from warpcurv.expr import jet2, value_and_gradient
from warpcurv.geodesics import GeodesicState, _accel_full
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
    hess = None
    if hessians:
        jet = jet2(warp, coords)
        w, dw, hess = jet.value, jet.gradient, jet.hessian
    else:
        w, dw = value_and_gradient(warp, coords)
    if not w > 0.0:
        raise NonpositiveWarpError(which, w)
    return SimpleNamespace(
        own=own, dim=k, w=w, constant=False, g=g, ginv=ginv, gamma=gamma,
        dw=dw, dwU=ginv @ dw, lw=dw / w, DD=DD, hess=hess,
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
        for key in ("w", "g", "ginv", "gamma", "dw", "dwU", "lw", "DD", "hess"):
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
        want = -((gamma @ v) @ v)
        folded = _accel_full(_point_data(spec, pp, with_hessians=False), v)
        assert _bits(folded) == _bits(_accel_full(lean, v)) == _bits(want)
        # the public right-hand sides run their routes' programs, not point
        # data: each agrees with its formula on the records to roundoff
        assert np.abs(rhs_full(spec, state) - want).max() <= 1e-13 * np.abs(want).max()
        want = _split_reference(lean, v)
        assert np.abs(rhs_split(spec, state) - want).max() <= 1e-13 * np.abs(want).max()
        # the curvature programs read the records alone: on the unfolded
        # ones they give bitwise bundle_closed's numbers
        b = bundle_closed(spec, x, None, "common")
        riem, ric, scal, _ = _blocks(spec, full).curvature(full)
        assert _bits(b.christoffel) == _bits(_christoffels_from_data(full))
        assert _bits(b.riemann) == _bits(riem)
        assert _bits(b.ricci) == _bits(ric)
        assert _bits(b.scalar) == _bits(scal)


def _folds(spec):
    """Each factor metric's cached arrays and each warp's cached constant
    value, "unset" until it is first asked for."""
    return [spec.base._fold, spec.fiber._fold,
            getattr(spec.f, "_constant", "unset"), getattr(spec.h, "_constant", "unset")]


@pytest.mark.parametrize("label,load", MANIFESTS, ids=[label for label, _ in MANIFESTS])
def test_building_folds_nothing_and_the_cache_is_read_only(label, load):
    mf = load()
    spec = mf.spec
    assert _folds(spec) == [None, None, "unset", "unset"]
    x = np.asarray(mf.box).mean(axis=1)
    _point_data(spec, x)
    base, fiber = _point_data(spec, x, with_hessians=False)
    # each route's program is built by the route's first right-hand side,
    # by nothing before it, and by no other route
    assert spec._programs == {}
    state = GeodesicState(0.0, ProductPoint.from_full(x, spec.base.dim), np.ones(spec.dim))
    rhs_full(spec, state)
    assert list(spec._programs) == ["full"]
    rhs_split(spec, state)
    assert spec._programs["full"] is not spec._programs["split"]
    other = load().spec
    rhs_split(other, state)
    assert list(other._programs) == ["split"]
    for factor, warp, record in ((spec.base, spec.f, base), (spec.fiber, spec.h, fiber)):
        assert (factor._fold is not None) == all(
            e._constant is not None for row in factor.components for e in row
        )
        cached = []
        if factor._fold is not None:
            cached += factor._fold
            assert record.g is factor._fold[0] and record.gamma is factor._fold[2]
        zeros = _zero_jet(warp.arity)
        assert record.constant == (warp._constant is not None)
        assert (record.lw is zeros[0]) == record.constant
        if warp._constant is not None:
            assert _bits(record.w) == _bits(warp._constant)
            assert not any(z.any() for z in zeros)
            cached += zeros
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
    assert bad.base._fold is None
    # with a healthy base, f is the first check to fail, every time
    spec = WarpedProductSpec.build(MetricSpec.from_strings(1, [["1"]]), LINE, "-1", "1")
    for x in ([0.3, 0.1], [-2.0, 5.0]):
        with pytest.raises(NonpositiveWarpError) as exc:
            _point_data(spec, np.array(x), with_hessians=hessians)
        assert str(exc.value) == "warp function f must be positive, got -1.0"
    # the value is cached, and rejected at every call
    assert spec.f._constant == -1.0 and spec.base._fold is not None
