"""Every derivative the curvature and geodesics read, against sympy.

The closed form and the geodesic programs take the factor metrics' and
the warps' gradients and Hessians from derivative trees (the derivative
module), and the oracle differences the metric's first derivatives from
them.  Here value_and_gradient and jet2 are held to sympy's derivatives of
every live metric component and warp of each catalog entry and valid
fixture, at seeded points of its box.
"""

from pathlib import Path

import numpy as np
import pytest

from sympy_reference import jet_reference
from warpcurv.expr import evaluate, jet2, value_and_gradient
from warpcurv.geometry import _constant_value
from warpcurv.manifest import catalog_names, load_catalog, load_manifest

FIXTURES = Path(__file__).parent / "fixtures"
MANIFESTS = [load_catalog(name) for name in catalog_names()] + [
    load_manifest(FIXTURES / f"{name}.json") for name in ("doubly-exp-2x2", "shifted-warp")
]


def _live_fields(spec):
    """(expression, its factor's slice of the product coordinates) of each
    live metric component, i <= j, and each warp that reads a variable."""
    m = spec.base.dim
    fields = []
    sides = ((spec.base, spec.f, slice(0, m)), (spec.fiber, spec.h, slice(m, None)))
    for factor, warp, own in sides:
        upper = [factor.components[i][j] for i in range(factor.dim) for j in range(i, factor.dim)]
        fields += [(e, own) for e in upper + [warp] if _constant_value(e) is None]
    return fields


@pytest.mark.parametrize("mf", MANIFESTS, ids=[mf.name for mf in MANIFESTS])
def test_metric_and_warp_derivatives_match_sympy(mf):
    box = np.asarray(mf.box, dtype=float)
    rng = np.random.default_rng(list(mf.name.encode()))
    xs = box[:, 0] + (box[:, 1] - box[:, 0]) * rng.random((20, len(box)))
    for expr, own in _live_fields(mf.spec):
        reference = jet_reference(expr)
        for x in xs:
            point = x[own]
            value, gradient = value_and_gradient(expr, point)
            jet = jet2(expr, point)
            # each order extends the one below it bitwise
            assert value == jet.value == evaluate(expr, point)
            assert np.array_equal(gradient, jet.gradient)
            assert np.array_equal(jet.hessian, jet.hessian.T)
            want = reference(point)
            assert want is not None, (mf.name, point)
            np.testing.assert_allclose(value, want[0], rtol=1e-14, atol=0.0)
            np.testing.assert_allclose(gradient, want[1], rtol=1e-14, atol=0.0)
            np.testing.assert_allclose(jet.hessian, want[2], rtol=1e-14, atol=0.0)
