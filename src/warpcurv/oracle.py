"""Brute-force curvature of an arbitrary chart metric.

This route knows nothing about product structure: it differentiates the
Christoffel symbols of whatever metric it is handed.  The Christoffels
themselves are exact (derivative trees, the derivative module); only their
derivatives are numerical, so a single layer of central differences with
Richardson extrapolation is the entire error budget.

bundle_fd is the curvature entry point.  One run of the metric's order-1
program at the centre gives the Christoffels, bitwise christoffels_of,
and the inverse metric that raises the Ricci index.  The 2*d*L stencil
points run as generated kernels on floats (kernel.stencil): along an axis
only the operations that read it run again, the rest keep the centre's
values, and an axis no output reads gets no point and a derivative of
exactly 0.  Where a kernel's test fails or an operation raises, the centre
and then each stencil point, in the order axis, level, +h before -h, run
with christoffels_of, so each error is geometry's and StencilDomainError
names the first failing point.

Deliberately imports nothing from the warped-product or closed-form
modules: its value as a cross-check depends on that separation.
"""

from __future__ import annotations

import functools
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
    _grid,
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


@functools.cache
def _kernel():
    """The kernel module, imported at the first stencil and kept, so that a
    fresh import of the package beside this copy leaves it as it is."""
    from . import kernel

    return kernel


def _dgamma(spec: MetricSpec, coords: np.ndarray, policy: DiffPolicy) -> tuple:
    """(g, D, out): the metric and its first derivatives at the centre, and
    out[l, k, i, j] = d_l Gamma^k_ij by extrapolated central differences."""
    d, levels = spec.dim, policy.richardson_levels
    h = policy.steps_at(coords)[:, None] / 2.0 ** np.arange(levels)  # [axis, level]
    steps = h.tolist()
    program, gathers = _grid(spec, 1)
    run = _kernel().stencil_rows(program, coords.tolist(), steps)
    out = np.zeros((d,) * 4)  # an axis no output reads: exactly +0.0
    axes = run and run[2]
    try:
        if axes:
            rows = np.array(run[1]).reshape(len(axes) * levels * 2, -1)
            gammas = _christoffels_stacked(spec, rows)
    except DegenerateMetricError:
        run = None
    if run is None:
        g, D = _metric_and_first_derivs(spec, coords)
        _inverse_of(g)  # the centre's error first
        axes = range(d)
        gammas = [_gamma_shifted(spec, coords, a, s) for a in axes for step in steps[a]
                  for s in (step, -step)]
    else:
        g, D = [np.array(get(run[0])).reshape(shape) for get, _, shape in gathers]
    if axes:
        gammas = np.reshape(gammas, (len(axes), levels, 2, d, d, d))
        tableau = (gammas[:, :, 0] - gammas[:, :, 1]) / (2.0 * h[axes])[:, :, None, None, None]
        for k in range(1, levels):
            fac = 4.0**k
            tableau = (fac * tableau[:, 1:] - tableau[:, :-1]) / (fac - 1.0)
        out[axes] = tableau[:, 0]
    return g, D, out


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
    """All four tensors from one run at the centre and one of its stencil.
    The Ricci tensor is contracted so that the round sphere comes out
    positive."""
    if policy is None:
        policy = DiffPolicy()
    g, D, dgamma = _dgamma(spec, _coords(point, spec.dim), policy)
    ginv = _inverse_of(g)
    gamma = _christoffels_from_parts(ginv, D)
    riem_common = _riemann_common(gamma, dgamma)
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


def _peak(a: np.ndarray) -> float:
    return float(np.abs(a).max()) if a.size else 0.0


def _comparison(max_abs: float, scale: float, worst: tuple) -> TensorComparison:
    return TensorComparison(max_abs, (max_abs / scale) if scale > 0.0 else 0.0, worst)


def _compare_arrays(a: np.ndarray, b: np.ndarray, peaks: tuple) -> TensorComparison:
    """peaks: _peak of a and of b."""
    diff = np.abs(a - b)
    if not diff.size:
        return _comparison(0.0, max(*peaks, 0.0), ())
    worst = int(diff.argmax())  # the first NaN where there is one, as max takes it
    index = tuple(map(int, np.unravel_index(worst, diff.shape)))  # ints, for JSON
    return _comparison(float(diff.flat[worst]), max(*peaks, 0.0), index)


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
    tensors = {
        name: _compare_arrays(x, y, (_peak(x), _peak(y)))
        for name, x, y in (("christoffel", a.christoffel, b.christoffel),
                           ("riemann", a.riemann, b.riemann))
    }
    ricci = _peak(a.ricci), _peak(b.ricci)
    tensors["ricci"] = _compare_arrays(a.ricci, b.ricci, ricci)
    # the scalar on Python floats
    x, y = float(a.scalar), float(b.scalar)
    tensors["scalar"] = _comparison(abs(x - y), max(abs(x), abs(y), max(ricci)), (0,))
    return ComparisonReport(tensors, max(t.max_rel for t in tensors.values()))
