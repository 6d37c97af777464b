"""Brute-force curvature of an arbitrary chart metric.

This route knows nothing about product structure: it differentiates the
Christoffel symbols of whatever metric it is handed.  The Christoffels
themselves are exact (derivative trees, the derivative module); only their
derivatives are numerical, so a single layer of central differences with
Richardson extrapolation is the entire error budget.

bundle_fd is the curvature entry point.  It evaluates the centre point
alone, in one pass through the steps of christoffels_of (metric and first
derivatives, inverse, Christoffels), so a bundle's Christoffels and the
errors raised at the centre are those of the geometry module, and the
inverse metric that raises the Ricci index is the one that built them.
The 2*d*L stencil points around the centre are stacked and evaluated in
one batched pass (one run of the metric's order-1 program over the columns
of every point, stacked inverse, one einsum).  That program holds each
live component of the chart, its first derivatives and each repeated
subtree once: on a plain chart h^2 g_B + f^2 g_F, the warps are
evaluated once per point, not once per component, and the constant zeros
of the cross blocks not at all.  When that pass fails, the stencil is
walked again point by point in the order axis, level, +h before -h, so
that StencilDomainError names the first failing point.

Deliberately imports nothing from the warped-product or closed-form
modules: its value as a cross-check depends on that separation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bundle import CurvatureBundle
from .errors import (
    DegenerateMetricError,
    EvalDomainError,
    NumericalInstabilityError,
    StencilDomainError,
)
from .geometry import (
    MetricSpec,
    christoffels_of,
    metric_at,  # unused here; bench/tracer.py wraps oracle.metric_at by name
    _christoffels_from_parts,
    _christoffels_stacked,
    _coords,
    _inverse_of,
    _metric_and_first_derivs,
)

__all__ = [
    "DiffPolicy",
    "bundle_fd",
    "TensorComparison",
    "ComparisonReport",
    "compare_bundles",
]


@dataclass(frozen=True)
class DiffPolicy:
    """Step-size and extrapolation policy for the single derivative layer.

    base_step is scaled per coordinate by (1 + |x_i|) when relative_scaling
    is on.  richardson_levels counts central-difference evaluations at
    h, h/2, h/4, ... combined by one Neville tableau; level 2 is the
    default (error falls from h^2 to h^4).
    """

    base_step: float = 1e-4
    richardson_levels: int = 2
    relative_scaling: bool = True

    def __post_init__(self):
        if not (self.base_step > 0.0 and math.isfinite(self.base_step)):
            raise ValueError("base_step must be positive and finite")
        if self.richardson_levels not in (1, 2, 3):
            raise ValueError("richardson_levels must be 1, 2, or 3")

    def steps_at(self, coords: np.ndarray) -> np.ndarray:
        if self.relative_scaling:
            return self.base_step * (1.0 + np.abs(coords))
        return np.full(len(coords), self.base_step)


def _gamma_shifted(spec: MetricSpec, coords: np.ndarray, axis: int, delta: float):
    x = coords.copy()
    x[axis] += delta
    try:
        return christoffels_of(spec, x)
    except (EvalDomainError, DegenerateMetricError) as exc:
        raise StencilDomainError(
            f"stencil point at x{axis} {delta:+.3e} failed: {exc}"
        ) from exc


def _dgamma(spec: MetricSpec, coords: np.ndarray, policy: DiffPolicy) -> np.ndarray:
    """out[l, k, i, j] = d_l Gamma^k_ij by extrapolated central differences."""
    d = spec.dim
    levels = policy.richardson_levels
    h = policy.steps_at(coords)[:, None] / 2.0 ** np.arange(levels)  # [axis, level]
    deltas = np.stack([h, -h], axis=-1)  # [axis, level, sign]: +h, then -h
    xs = np.tile(coords, (d, levels, 2, 1))
    for axis in range(d):
        xs[axis, :, :, axis] += deltas[axis]
    try:
        gammas = _christoffels_stacked(spec, xs.reshape(-1, d))
    except (EvalDomainError, DegenerateMetricError):
        # Redo the stencil point by point in the same order, so that the
        # error names the first point that fails.
        gammas = np.array(
            [
                _gamma_shifted(spec, coords, axis, deltas[axis, level, sign])
                for axis in range(d)
                for level in range(levels)
                for sign in range(2)
            ]
        )
    gammas = gammas.reshape(d, levels, 2, d, d, d)
    tableau = (gammas[:, :, 0] - gammas[:, :, 1]) / (2.0 * h)[:, :, None, None, None]
    for k in range(1, levels):
        fac = 4.0**k
        tableau = (fac * tableau[:, 1:] - tableau[:, :-1]) / (fac - 1.0)
    return tableau[:, 0]


def _riemann_common(gamma: np.ndarray, dgamma: np.ndarray) -> np.ndarray:
    """R^mu_{nu lam rho} = d_lam G^mu_{rho nu} - d_rho G^mu_{lam nu}
    + G^mu_{lam s} G^s_{rho nu} - G^mu_{rho s} G^s_{lam nu}."""
    a = dgamma.transpose(1, 3, 0, 2)  # [m,n,l,r] = dgamma[l, m, r, n]
    b = dgamma.transpose(1, 3, 2, 0)  # [m,n,l,r] = dgamma[r, m, l, n]
    t1 = np.einsum("mls,srn->mnlr", gamma, gamma)
    t2 = np.einsum("mrs,sln->mnlr", gamma, gamma)
    return a - b + t1 - t2


def _ricci_from_common(riem_common: np.ndarray) -> np.ndarray:
    ric = np.einsum("mnmr->nr", riem_common)
    scale = max(1.0, float(np.abs(ric).max()))
    asym = float(np.abs(ric - ric.T).max())
    if asym > 1e-8 * scale:
        raise NumericalInstabilityError(
            f"Ricci asymmetry {asym:.3e} exceeds 1e-8 of scale {scale:.3e}"
        )
    return 0.5 * (ric + ric.T)


@np.errstate(all="ignore")
def bundle_fd(
    spec: MetricSpec, point, policy: DiffPolicy | None = None, convention: str = "paper"
) -> CurvatureBundle:
    """All four tensors from one centre pass and one pass of stencil
    evaluations.  The Ricci tensor is contracted so that the round sphere
    comes out positive."""
    if policy is None:
        policy = DiffPolicy()
    c = _coords(point, spec.dim)
    g, D = _metric_and_first_derivs(spec, c)
    ginv = _inverse_of(g)
    gamma = _christoffels_from_parts(ginv, D)
    riem_common = _riemann_common(gamma, _dgamma(spec, c, policy))
    ric = _ricci_from_common(riem_common)
    scal = float(np.einsum("ij,ij->", ginv, ric))
    riem = riem_common if convention == "common" else -riem_common
    return CurvatureBundle(gamma, riem, ric, scal, convention)


# ---------------------------------------------------------------------------
# Bundle comparison


@dataclass
class TensorComparison:
    max_abs: float
    max_rel: float
    worst_index: tuple

    def as_dict(self):
        return {
            "max_abs": self.max_abs,
            "max_rel": self.max_rel,
            "worst_index": list(self.worst_index),
        }


@dataclass
class ComparisonReport:
    tensors: dict
    max_rel: float

    def as_dict(self):
        return {
            "tensors": {k: v.as_dict() for k, v in self.tensors.items()},
            "max_rel": self.max_rel,
        }

    def within(self, tol: float) -> bool:
        return self.max_rel <= tol


def _compare_arrays(a: np.ndarray, b: np.ndarray, floor: float = 0.0) -> TensorComparison:
    diff = np.abs(a - b)
    max_abs = float(diff.max()) if diff.size else 0.0
    scale = max(
        float(np.abs(a).max()) if a.size else 0.0,
        float(np.abs(b).max()) if b.size else 0.0,
        floor,
    )
    max_rel = (max_abs / scale) if scale > 0.0 else 0.0
    worst = np.unravel_index(int(diff.argmax()), diff.shape) if diff.size else ()
    return TensorComparison(max_abs, max_rel, tuple(int(i) for i in worst))


def compare_bundles(a: CurvatureBundle, b: CurvatureBundle) -> ComparisonReport:
    """Per-tensor deviation summary: worst absolute and relative slot.

    The relative deviation is max|a-b| divided by the larger of the two
    tensors' max magnitudes (0 when both vanish identically).  The scalar
    is additionally measured against the Ricci magnitude: it is a trace of
    Ricci, so when that trace cancels to a mathematical zero the roundoff
    residue should be judged relative to what was summed, not to itself.
    """
    if a.convention != b.convention:
        raise ValueError(
            f"bundles use different conventions: {a.convention!r} vs {b.convention!r}"
        )
    if a.dim != b.dim:
        raise ValueError("bundles have different dimensions")
    ricci_scale = max(float(np.abs(a.ricci).max()), float(np.abs(b.ricci).max()))
    tensors = {
        "christoffel": _compare_arrays(a.christoffel, b.christoffel),
        "riemann": _compare_arrays(a.riemann, b.riemann),
        "ricci": _compare_arrays(a.ricci, b.ricci),
        "scalar": _compare_arrays(
            np.asarray([a.scalar]), np.asarray([b.scalar]), floor=ricci_scale
        ),
    }
    return ComparisonReport(tensors, max(t.max_rel for t in tensors.values()))
