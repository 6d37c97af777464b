"""Coordinate-chart pseudo-Riemannian geometry for a single factor manifold.

A metric is a symmetric grid of expressions in the chart coordinates
x0..x{dim-1}.  Entry (i, j) and entry (j, i) are the same Expression object,
so symmetry of everything downstream (metric values, Christoffel symbols in
their lower pair, the closed form's covariant warp Hessians) holds bitwise,
not just to roundoff.

Partial derivatives of metric entries come from the expression module's
compiled evaluator, at one point or over a stack of points, never from
finite differences; the only approximation anywhere in this module is the
linear solve for the inverse metric.

The one-point path is built for many calls on tiny arrays, where numpy's
per-call cost outweighs the arithmetic:

- A metric component whose program reads no variable (the 1, 0 and -1
  of most charts) is folded: evaluated once, on first use, and cached on
  its Expression.  metric_at and the first-derivative pass evaluate only the
  live components; a folded one has value c and zero derivatives.
- _inverse_of uses the closed-form adjugate for dim <= 3 and LAPACK above
  that or for entries beyond 1e100, where a product of three entries could
  overflow.  Both apply one degeneracy rule, the one _christoffels_stacked
  applies row by row.
- Point checks finiteness on Python floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMetricError, EvalDomainError
from .expr import (
    Expression,
    _reads_variables,
    evaluate,
    jet2,  # unused here; bench/tracer.py wraps geometry.jet2 by name
    parse_expression,
    value_and_gradient,
    value_and_gradient_batch,
)

__all__ = [
    "MetricSpec",
    "ScalarFieldSpec",
    "Point",
    "metric_at",
    "christoffels_of",
]


class Point:
    """An evaluation point: finite coordinates in some chart."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        arr = np.atleast_1d(np.asarray(coords, dtype=float))
        if arr.ndim != 1:
            raise ValueError("coordinates must be one-dimensional")
        if not all(map(math.isfinite, arr.tolist())):
            raise ValueError("coordinates must be finite")
        self.coords = arr

    def __len__(self):
        return len(self.coords)

    def __repr__(self):
        return f"Point({self.coords.tolist()!r})"


def _coords(point, dim: int) -> np.ndarray:
    c = point.coords if isinstance(point, Point) else np.asarray(point, dtype=float)
    if len(c) != dim:
        raise ValueError(f"point has {len(c)} coordinates, metric needs {dim}")
    return c


@dataclass(frozen=True)
class MetricSpec:
    """Symmetric grid of component expressions for one chart."""

    dim: int
    components: tuple  # dim x dim nested tuples of Expression
    name: str = ""

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("metric dimension must be >= 1")
        if len(self.components) != self.dim or any(
            len(row) != self.dim for row in self.components
        ):
            raise ValueError("components must form a dim x dim grid")
        for i in range(self.dim):
            for j in range(self.dim):
                e = self.components[i][j]
                if not isinstance(e, Expression):
                    raise TypeError("metric components must be Expression objects")
                if e.arity != self.dim:
                    raise ValueError(
                        f"component ({i},{j}) has arity {e.arity}, expected {self.dim}"
                    )
                if self.components[j][i] is not e:
                    raise ValueError(
                        f"components ({i},{j}) and ({j},{i}) must be the same object"
                    )

    @classmethod
    def from_strings(cls, dim: int, rows, name: str = "") -> "MetricSpec":
        """Parse a square grid of expression strings.

        Mirrored entries must be textually identical; each pair is parsed
        once and shared, which is what makes symmetry structural.
        """
        if len(rows) != dim or any(len(r) != dim for r in rows):
            raise ValueError("expected a square grid of expression strings")
        grid = [[None] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i, dim):
                if rows[i][j] != rows[j][i]:
                    raise ValueError(
                        f"metric text is not symmetric at ({i},{j}): "
                        f"{rows[i][j]!r} vs {rows[j][i]!r}"
                    )
                e = parse_expression(rows[i][j], dim)
                grid[i][j] = grid[j][i] = e
        return cls(dim, tuple(tuple(r) for r in grid), name)


@dataclass(frozen=True)
class ScalarFieldSpec:
    """A scalar function on a chart, optionally constrained positive."""

    expr: Expression
    positivity_required: bool = False

    @classmethod
    def from_string(cls, text: str, arity: int, positivity_required: bool = False):
        return cls(parse_expression(text, arity), positivity_required)


def _constant_value(expr: Expression):
    """The component's value when it reads no variable and evaluates to a
    finite number, else None.  Worked out on first use and cached on the
    expression; the value is bitwise what evaluate returns."""
    try:
        return expr._constant
    except AttributeError:
        pass
    c = None
    if not _reads_variables(expr):
        try:
            c = evaluate(expr, [0.0] * expr.arity)
        except EvalDomainError:  # left to fail where it is evaluated
            pass
    expr._constant = c
    return c


def metric_at(spec: MetricSpec, point) -> np.ndarray:
    c = _coords(point, spec.dim)
    g = np.empty((spec.dim, spec.dim))
    for i in range(spec.dim):
        for j in range(i, spec.dim):
            e = spec.components[i][j]
            v = _constant_value(e)
            g[i, j] = g[j, i] = evaluate(e, c) if v is None else v
    return g


# Up to this peak entry no product of three entries overflows, so the
# closed-form adjugate is safe; beyond it LAPACK takes over.
_ADJUGATE_PEAK = 1e100


def _adjugate(a: list, dim: int):
    """(determinant, transposed cofactors in row-major order) of a dim x dim
    matrix given as a flat list, dim <= 3.  A symmetric input gets a
    bitwise symmetric adjugate: mirrored cofactors multiply the same pairs."""
    if dim == 1:
        return a[0], [1.0]
    if dim == 2:
        p, q, r, s = a
        return p * s - q * r, [s, -q, -r, p]
    p, q, r, s, t, u, v, w, x = a
    c00 = t * x - u * w
    c01 = u * v - s * x
    c02 = s * w - t * v
    det = p * c00 + q * c01 + r * c02
    return det, [
        c00, r * w - q * x, q * u - r * t,
        c01, p * x - r * v, r * s - p * u,
        c02, q * v - p * w, p * t - q * s,
    ]


def _inverse_of(g: np.ndarray) -> np.ndarray:
    """Inverse of a metric array.  Raises DegenerateMetricError when an
    entry is not finite or |det| < 1e-12 * max(1, peak)^dim, peak being the
    largest |entry|."""
    dim = g.shape[0]
    flat = g.ravel().tolist()
    if not all(map(math.isfinite, flat)):
        raise DegenerateMetricError("metric is not finite at this point", math.nan)
    peak = max(map(abs, flat))
    # the determinant scales like entries^dim, so the cutoff must too; a
    # float product reaches inf where ** would raise OverflowError
    cutoff = 1e-12 * math.prod([max(1.0, peak)] * dim)
    if dim <= 3 and peak <= _ADJUGATE_PEAK:
        det, adj = _adjugate(flat, dim)
    else:
        det, adj = float(np.linalg.det(g)), None
    if not abs(det) >= cutoff:
        raise DegenerateMetricError(
            f"metric determinant {det!r} is degenerate at this point", det
        )
    if adj is None:
        return np.linalg.inv(g)
    return np.array([c / det for c in adj]).reshape(dim, dim)


def _metric_and_first_derivs(spec: MetricSpec, c: np.ndarray):
    """Returns (g, D) with D[l, i, j] = d g_ij / d x_l, both bitwise symmetric."""
    dim = spec.dim
    g = np.empty((dim, dim))
    D = np.zeros((dim, dim, dim))
    for i in range(dim):
        for j in range(i, dim):
            e = spec.components[i][j]
            v = _constant_value(e)
            if v is None:
                v, grad = value_and_gradient(e, c)
                D[:, i, j] = grad
                D[:, j, i] = grad
            g[i, j] = g[j, i] = v
    return g, D


def _christoffels_from_parts(ginv: np.ndarray, D: np.ndarray) -> np.ndarray:
    # term[i, j, l] = d_i g_jl + d_j g_il - d_l g_ij; symmetric in (i, j)
    # bitwise because the two leading terms are mirror images and the
    # subtracted one is built symmetric.
    if len(ginv) == 1:
        return 0.5 * (ginv * D)  # term = D + D - D = D exactly
    term = D + D.transpose(1, 0, 2) - D.transpose(1, 2, 0)
    return 0.5 * np.einsum("kl,ijl->kij", ginv, term)


def christoffels_of(spec: MetricSpec, point) -> np.ndarray:
    """Christoffel symbols of the second kind, indexed [k, i, j] = Gamma^k_ij."""
    c = _coords(point, spec.dim)
    g, D = _metric_and_first_derivs(spec, c)
    return _christoffels_from_parts(_inverse_of(g), D)


def _christoffels_stacked(spec: MetricSpec, xs: np.ndarray) -> np.ndarray:
    """christoffels_of at every row of an (N, dim) array, [n, k, i, j].

    One compiled pass per metric component gives the stacked metric and
    its first derivatives.  Raises EvalDomainError or DegenerateMetricError
    when christoffels_of would raise at some row; which row is left to the
    caller.
    """
    rows, dim = len(xs), spec.dim
    g = np.empty((rows, dim, dim))
    D = np.empty((rows, dim, dim, dim))
    for i in range(dim):
        for j in range(i, dim):
            v, grad = value_and_gradient_batch(spec.components[i][j], xs)
            g[:, i, j] = g[:, j, i] = v
            D[:, :, i, j] = grad
            D[:, :, j, i] = grad
    # the same rule as _inverse_of, row by row
    with np.errstate(all="ignore"):
        peak = np.abs(g).max(axis=(1, 2))
        det = np.linalg.det(g)
        cutoff = 1e-12 * np.maximum(1.0, peak) ** dim
    bad = ~(np.isfinite(peak) & (np.abs(det) >= cutoff))
    if bad.any():
        row = int(np.argmax(bad))
        raise DegenerateMetricError(
            f"metric determinant {det[row]!r} is degenerate at batch row {row}", det[row]
        )
    term = D + D.transpose(0, 2, 1, 3) - D.transpose(0, 2, 3, 1)
    return 0.5 * np.einsum("nkl,nijl->nkij", np.linalg.inv(g), term)
