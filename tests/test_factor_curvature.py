"""The closed route's factor curvature: exact from second-order metric jets,
independent of the oracle, and untouched by the differencing policy."""

import json
from pathlib import Path

import numpy as np
import pytest

from test_bench_bindings import _load

import warpcurv
from warpcurv import errors, expr, geometry, kernel, oracle
from warpcurv.cli import main
from warpcurv.closed_form import _point_data, bundle_closed, christoffels_closed
from warpcurv.geometry import _metric_and_first_derivs, _metric_jets
from warpcurv.manifest import catalog_names, load_catalog, load_manifest, parse_manifest
from warpcurv.oracle import DiffPolicy, bundle_fd
from warpcurv.warped import ProductPoint, WarpedProductSpec


def _manifests():
    """Every catalog entry, the valid fixtures and the benchmark's nine
    dense manifests, dense_manifests(1..3)."""
    mfs = [load_catalog(name) for name in catalog_names()]
    mfs += [
        load_manifest(Path(__file__).parent / "fixtures" / f"{name}.json")
        for name in ("doubly-exp-2x2", "shifted-warp")
    ]
    dense = _load("workloads").dense_manifests
    mfs += [parse_manifest(doc, source=doc["name"]) for s in (1, 2, 3) for doc in dense(s)]
    return mfs


MANIFESTS = _manifests()
IDS = [f"{mf.name}-{i}" for i, mf in enumerate(MANIFESTS)]


def _points(mf, count, seed):
    box = np.asarray(mf.box, dtype=float)
    rng = np.random.default_rng(seed)
    for _ in range(count):
        x = box[:, 0] + (box[:, 1] - box[:, 0]) * rng.random(mf.dim)
        yield ProductPoint.from_full(x, mf.spec.base.dim)


def _unit_warps(spec):
    """The product of spec's factors with f = h = 1: its curvature programs
    place each factor's own Riemann and Ricci tensors, as the programs of
    spec compute them, on its diagonal blocks, and nothing else."""
    return WarpedProductSpec.build(spec.base, spec.fiber, "1", "1")


def _factor_curvature(unit, pp):
    """[(Riemann 'common', Ricci) of the base, and of the fiber] at pp."""
    b = bundle_closed(unit, pp, convention="common")
    m = unit.base.dim
    return [(b.riemann[s, s, s, s], b.ricci[s, s]) for s in (slice(0, m), slice(m, None))]


@pytest.mark.parametrize("mf", MANIFESTS, ids=IDS)
def test_factor_curvature_matches_oracle(mf):
    unit = _unit_warps(mf.spec)
    for pp in _points(mf, 20, 2027):
        for (riem, ric), factor, coords in zip(
            _factor_curvature(unit, pp),
            (mf.spec.base, mf.spec.fiber),
            (pp.base_coords, pp.fiber_coords),
        ):
            ref = bundle_fd(factor, coords, convention="common")
            for got, want in ((riem, ref.riemann), (ric, ref.ricci)):
                scale = max(1.0, float(np.abs(want).max()))
                assert np.abs(got - want).max() <= 1e-9 * scale, (factor.name, coords)


def test_round_sphere_fiber_ricci_is_its_metric():
    # the unit 2-sphere has Ric = (n - 1) g = g
    mf = load_catalog("schwarzschild-exterior-slice")
    unit = _unit_warps(mf.spec)
    for pp in _points(mf, 25, 11):
        fiber = _point_data(mf.spec, pp)[1]
        _, (_, ric) = _factor_curvature(unit, pp)
        assert np.abs(ric - fiber.g).max() <= 1e-12


def test_metric_jets_extend_the_first_derivative_pass():
    for mf in MANIFESTS:
        for factor in (mf.spec.base, mf.spec.fiber):
            c = next(_points(mf, 1, 5))
            c = c.base_coords if factor is mf.spec.base else c.fiber_coords
            g, D, DD = _metric_jets(factor, c)
            g1, D1 = _metric_and_first_derivs(factor, c)
            assert np.array_equal(g, g1) and np.array_equal(D, D1)
            if DD is None:
                assert not any(
                    geometry._constant_value(e) is None for row in factor.components for e in row
                )
                continue
            assert np.array_equal(DD, DD.transpose(1, 0, 2, 3))
            assert np.array_equal(DD, DD.transpose(0, 1, 3, 2))


def _refuse(*args, **kwargs):
    raise AssertionError("the closed route called a differencing helper")


def test_closed_route_needs_no_oracle_or_stencil(monkeypatch):
    """Every binding of the oracle's bundle and stencil helpers, of the
    stencil kernels' builder and runner, and of the runner over columns,
    raises; bundle_closed still returns, and its Christoffels are bitwise
    those of the geodesic path."""
    targets = {
        oracle.bundle_fd,
        oracle._dgamma,
        geometry._christoffels_stacked,
        kernel.stencil,
        kernel.stencil_rows,
        expr._columns,
    }
    modules = [getattr(warpcurv, name) for name in dir(warpcurv)]
    patched = set()
    for module in [m for m in modules if getattr(m, "__name__", "").startswith("warpcurv.")]:
        for attr, value in list(vars(module).items()):
            if callable(value) and any(value is t for t in targets):
                monkeypatch.setattr(module, attr, _refuse)
                patched.add(f"{module.__name__}.{attr}")
    assert {
        "warpcurv.closed_form.bundle_fd",
        "warpcurv.oracle._dgamma",
        "warpcurv.geometry._christoffels_stacked",
        "warpcurv.kernel.stencil",
        "warpcurv.kernel.stencil_rows",
    } <= patched
    for mf in MANIFESTS:
        for pp in _points(mf, 3, 19):
            b = bundle_closed(mf.spec, pp, mf.policy, convention=mf.convention)
            assert np.array_equal(b.christoffel, christoffels_closed(mf.spec, pp))
            assert np.isfinite(b.scalar)


def test_closed_form_binds_only_bundle_fd_from_the_oracle():
    """The closed route imports nothing from the oracle but bundle_fd,
    which bench/tracer.py wraps by name there."""
    from warpcurv import closed_form

    bound = {name for name, value in vars(closed_form).items()
             if getattr(value, "__module__", None) == oracle.__name__}
    assert bound == {"bundle_fd"}


def test_policy_does_not_reach_the_closed_route():
    coarse = DiffPolicy(base_step=0.3, richardson_levels=1)
    for mf in MANIFESTS:
        for pp in _points(mf, 3, 23):
            a = bundle_closed(mf.spec, pp, DiffPolicy())
            b = bundle_closed(mf.spec, pp, coarse)
            for t in ("christoffel", "riemann", "ricci"):
                assert np.array_equal(getattr(a, t), getattr(b, t)), (mf.name, t)
            assert a.scalar == b.scalar


# A factor metric must be twice differentiable at the point: the closed
# route takes its second derivatives, where the oracle differences first
# derivatives over a stencil around the point.
ROOT_METRIC = {
    "name": "power-one-and-a-half",
    "base": {"dim": 2, "metric": [["1 + x0^1.5", "0"], ["0", "1"]]},
    "fiber": {"dim": 1, "metric": [["1"]]},
    "warp_f": "1",
    "warp_h": "1",
}


def test_closed_domain_is_where_the_metric_has_a_hessian(tmp_path, capsys):
    mf = parse_manifest(ROOT_METRIC)
    near = ProductPoint([1e-5, 0.0], [0.0])
    # g00 depends on x0 alone, so the chart is flat: exact zeros
    b = bundle_closed(mf.spec, near)
    assert not b.riemann.any() and not b.ricci.any() and b.scalar == 0.0
    # the oracle's stencil reaches x0 < 0, where x0^1.5 does not exist
    with pytest.raises(errors.StencilDomainError):
        bundle_fd(warpcurv.as_plain_metric(mf.spec), near.full)
    # at 0 the value and gradient exist but the Hessian does not
    with pytest.raises(errors.EvalDomainError, match="math domain error"):
        bundle_closed(mf.spec, ProductPoint([0.0, 0.0], [0.0]))

    path = tmp_path / "root.json"
    path.write_text(json.dumps(ROOT_METRIC))
    assert main(["curvature", str(path), "--point", "1e-5,0,0"]) == 0
    capsys.readouterr()
    assert main(["curvature", str(path), "--point", "0,0,0"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "domain error: '^': math domain error\n"
