"""The geodesic right-hand sides against an independent derivative source.

sympy differentiates the manifest's own expression text; the paper's
factor form is then contracted from those derivatives with numpy:

    a_A = -Gamma_A(v_A, v_A) + (w_A / w_O^2) <v_O, v_O>_O grad_A w_A
          - 2 (d ln w_O / ds) v_A.

Both right-hand sides are programs over the same derivative trees (the
derivative module) and differ only in how they contract them, so sympy is
the reference their derivatives are held to.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from sympy_reference import sympy, to_sympy
from warpcurv.geodesics import GeodesicState, rhs_full, rhs_split
from warpcurv.manifest import (
    catalog_names,
    load_catalog,
    load_manifest,
    parse_manifest,
)
from warpcurv.warped import ProductPoint

ROOT = Path(__file__).parents[1]


def _factor(metric, warp, symbols):
    """(metric entries, their gradients, warp, its gradient) as one list of
    sympy expressions."""
    k = metric.dim
    g = [to_sympy(metric.components[i][j], symbols) for i in range(k) for j in range(k)]
    w = to_sympy(warp, symbols)
    dg = [sympy.diff(e, x) for e in g for x in symbols]
    dw = [sympy.diff(w, x) for x in symbols]
    return g + dg + [w] + dw


def _reference(spec):
    """state -> the factor-form acceleration from sympy's derivatives."""
    m, n = spec.base.dim, spec.fiber.dim
    xs = sympy.symbols(f"x0:{m}")
    ys = sympy.symbols(f"y0:{n}")
    base = sympy.lambdify([xs], _factor(spec.base, spec.f, xs), modules="math")
    fiber = sympy.lambdify([ys], _factor(spec.fiber, spec.h, ys), modules="math")

    def parts(values, k):
        values = np.array(values, dtype=float)
        g = values[: k * k].reshape(k, k)
        dg = values[k * k : k * k + k**3].reshape(k, k, k)  # [i, j, a] = d_a g_ij
        w, dw = values[k * k + k**3], values[k * k + k**3 + 1 :]
        return g, dg, w, dw

    def accel(x, v):
        B = parts(base(x[:m]), m) + (v[:m],)
        F = parts(fiber(x[m:]), n) + (v[m:],)
        out = []
        for (g, dg, w, dw, u), (gO, _, wO, dwO, uO) in ((B, F), (F, B)):
            ginv = np.linalg.inv(g)
            # Gamma^k_ab = g^kl (d_a g_lb + d_b g_la - d_l g_ab) / 2
            lowered = 0.5 * (dg.transpose(0, 2, 1) + dg.transpose(0, 1, 2)
                             - dg.transpose(2, 0, 1))  # [l, a, b]
            gamma = np.einsum("kl,lab->kab", ginv, lowered)
            out.append(-np.einsum("kab,a,b->k", gamma, u, u)
                       + (w / wO**2) * (uO @ gO @ uO) * (ginv @ dw)
                       - 2.0 * (dwO @ uO / wO) * u)
        return np.concatenate(out)

    return accel


def _workloads():
    path = ROOT / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _manifests():
    out = [load_catalog(name) for name in catalog_names()]
    out += [load_manifest(ROOT / "tests" / "fixtures" / f"{n}.json")
            for n in ("shifted-warp", "doubly-exp-2x2")]
    out += [parse_manifest(doc, source=doc["name"]) for doc in _workloads().dense_manifests(1)]
    return out


MANIFESTS = _manifests()


@pytest.mark.parametrize("mf", MANIFESTS, ids=[mf.name for mf in MANIFESTS])
def test_both_right_hand_sides_match_sympy(mf):
    spec = mf.spec
    accel = _reference(spec)
    rng = np.random.default_rng(list(mf.name.encode()))
    box = np.asarray(mf.box)
    for _ in range(10):
        x = box[:, 0] + (box[:, 1] - box[:, 0]) * rng.random(spec.dim)
        v = rng.standard_normal(spec.dim)
        want = accel(x, v)
        state = GeodesicState(0.0, ProductPoint.from_full(x, spec.base.dim), v)
        scale = max(1.0, np.abs(want).max())
        for rhs in (rhs_split, rhs_full):
            got = rhs(spec, state)
            assert np.abs(got - want).max() <= 1e-13 * scale, (rhs.__name__, x.tolist())
