"""Both curvature routes against an exact symbolic reference.

sympy assembles h(y)^2 g_B + f(x)^2 g_F from the manifest's own
expressions and differentiates it twice (sympy_reference.
curvature_reference): Christoffels, Riemann, Ricci and scalar curvature of
the plain product metric, with no block formula and nothing of the
package's differentiator.  The closed form (the paper's block formulas as
programs over derivative trees) is held to it to 1e-10, and the
finite-difference oracle to acceptance criterion 1's bounds, at seeded
points of every catalog entry's and valid fixture's box.  A deviation is
relative to max(1, the reference's largest entry): shifted-warp is flat,
and against its exact zeros the oracle's roundoff has no relative size.
"""

from pathlib import Path

import numpy as np
import pytest

from sympy_reference import curvature_reference
from warpcurv.bundle import CurvatureBundle
from warpcurv.closed_form import bundle_closed
from warpcurv.manifest import catalog_names, load_catalog, load_manifest
from warpcurv.oracle import bundle_fd
from warpcurv.warped import as_plain_metric

FIXTURES = Path(__file__).parent / "fixtures"
MANIFESTS = [load_catalog(name) for name in catalog_names()] + [
    load_manifest(FIXTURES / f"{name}.json") for name in ("doubly-exp-2x2", "shifted-warp")
]
IDS = [mf.name for mf in MANIFESTS]

_REFERENCES = {}  # manifest name -> its lambdified reference, built once


def _reference(mf, x, convention: str) -> CurvatureBundle:
    if mf.name not in _REFERENCES:
        _REFERENCES[mf.name] = curvature_reference(mf.spec)
    gamma, riem, ric, scal = _REFERENCES[mf.name](x)
    return CurvatureBundle(gamma, -riem if convention == "paper" else riem, ric, scal, convention)


def _deviations(got: CurvatureBundle, want: CurvatureBundle):
    for name in ("christoffel", "riemann", "ricci", "scalar"):
        a, b = np.asarray(getattr(got, name)), np.asarray(getattr(want, name))
        yield name, float(np.abs(a - b).max()) / max(1.0, float(np.abs(b).max()))


def _points(mf, count: int):
    box = np.asarray(mf.box, dtype=float)
    rng = np.random.default_rng(list(mf.name.encode()))
    for _ in range(count):
        yield box[:, 0] + (box[:, 1] - box[:, 0]) * rng.random(mf.dim)


@pytest.mark.parametrize("mf", MANIFESTS, ids=IDS)
def test_bundle_closed_matches_sympy(mf):
    for x in _points(mf, 20):
        for convention in ("paper", "common"):
            got = bundle_closed(mf.spec, x, mf.policy, convention)
            for name, dev in _deviations(got, _reference(mf, x, convention)):
                assert dev <= 1e-10, (name, x)


@pytest.mark.parametrize("mf", MANIFESTS, ids=IDS)
def test_bundle_fd_matches_sympy_to_criterion_1(mf):
    plain = as_plain_metric(mf.spec)
    bounds = {"christoffel": 1e-5, "riemann": 1e-5, "ricci": 1e-4, "scalar": 1e-4}
    for x in _points(mf, 5):
        got = bundle_fd(plain, x, mf.policy, mf.convention)
        for name, dev in _deviations(got, _reference(mf, x, mf.convention)):
            assert dev <= bounds[name], (name, x)
