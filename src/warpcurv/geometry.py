"""Coordinate-chart pseudo-Riemannian geometry for a single factor manifold.

A metric is a symmetric grid of expressions in the chart coordinates
x0..x{dim-1}.  Entry (i, j) and entry (j, i) are the same Expression object,
so symmetry of everything downstream (metric values, Christoffel symbols in
their lower pair, the closed form's covariant warp Hessians) holds bitwise,
not just to roundoff.

Partial derivatives of metric entries come from the expression module's
compiled evaluator, at one point or over a stack of points, never from
finite differences; the only approximation anywhere in this module is the
linear solve for the inverse metric.  Christoffels need first derivatives;
a factor's curvature in the closed form takes second ones from _metric_jets.

A metric's live components are compiled into one program (_grid), each
repeated subtree once, on first evaluation, and cached on the MetricSpec.
metric_at, _metric_and_first_derivs, _metric_jets and _christoffels_stacked
each make one run of it; the first component that fails raises what it
would raise alone.

The one-point path is built for many calls on tiny arrays, where numpy's
per-call cost outweighs the arithmetic:

- A metric component whose program reads no variable (the 1, 0 and -1
  of most charts) is folded: evaluated once, on first use, and cached on
  its Expression.  The metric's program leaves it out, at one point and
  over a stack alike; it has value c and zero derivatives.  When every
  component is folded the program is empty, and the closed form caches
  the metric's inverse and Christoffels too, in MetricSpec._fold.
- One precomputed gather per array places the run's outputs.
- _inverse_of uses the closed-form adjugate for dim <= 3 and LAPACK above
  that or for entries beyond 1e100, where a product of three entries could
  overflow.  Both apply one degeneracy rule, the one _christoffels_stacked
  applies row by row.
- Point checks finiteness on Python floats.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateMetricError, EvalDomainError
from .expr import (
    Expression,
    _batches,
    _compile,
    _gradients,
    _jets,
    _reads_variables,
    _values,
    evaluate,
    parse_expression,
)
# unused here: bench/tracer.py wraps geometry.jet2 and geometry.value_and_gradient by name
from .expr import jet2, value_and_gradient  # noqa: F401

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
    # the compiled grid, built by _grid on first evaluation
    _compiled: tuple = field(default=None, init=False, repr=False, compare=False)
    # a constant metric's (g, g^-1, Christoffels), set by the closed form
    # on its first successful evaluation (closed_form._metric_data)
    _fold: tuple = field(default=None, init=False, repr=False, compare=False)

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


def _grid(spec: MetricSpec) -> tuple:
    """(program, tail, gathers, fixed) of a metric, cached on the spec.

    program computes the live components (i, j), i <= j, in row-major
    order: at derivative order 0, 1 or 2 each gives its value, gradient
    and row-major Hessian as far as the order goes.  Laid flat behind tail
    (0.0, then each folded component's value), the outputs hold every
    entry of the metric arrays; gathers[order] holds, for g, D and DD up
    to that order, an itemgetter and an index array of those flat
    positions, and the array's shape.  fixed is g, D and DD when no
    component is live.
    """
    grid = spec._compiled
    if grid is None:
        dim = spec.dim
        tail, live, place = [0.0], [], {}
        for i in range(dim):
            for j in range(i, dim):
                e = spec.components[i][j]
                v = _constant_value(e)
                if v is None:
                    place[i, j] = place[j, i] = (len(live), None)
                    live.append(e)
                else:
                    place[i, j] = place[j, i] = (None, len(tail))
                    tail.append(v)
        pairs = [place[i, j] for i in range(dim) for j in range(dim)]
        gathers = []
        for order, width in enumerate((1, 1 + dim, 1 + dim + dim * dim)):
            blocks = ([0], range(1, dim + 1), range(dim + 1, width))[: order + 1]
            arrays = []
            for rank, block in enumerate(blocks):
                # entry t of a live component's output; a folded one's
                # value, or 0.0 for its derivatives
                ix = [len(tail) + k * width + t if c is None else c if t == 0 else 0
                      for t in block for k, c in pairs]
                arrays.append((operator.itemgetter(*ix), np.array(ix), (dim,) * (2 + rank)))
            gathers.append(arrays)
        fixed = None
        if not live:
            fixed = [np.array(get(tail)).reshape(shape) for get, _, shape in gathers[2]]
        grid = (_compile(live), tail, gathers, fixed)
        object.__setattr__(spec, "_compiled", grid)
    return grid


def _at_point(spec: MetricSpec, c, order: int) -> list:
    """[g, D, DD][: order + 1] at one point, from one run of the metric's
    program; D[l, i, j] = d g_ij / dx_l and DD[l, m, i, j] = d^2 g_ij /
    dx_l dx_m, each bitwise symmetric in (i, j)."""
    program, tail, gathers, fixed = _grid(spec)
    if not program:
        return [a.copy() for a in fixed[: order + 1]]
    outs = (_values, _gradients, _jets)[order](program, c)
    flat = tail + (outs if order == 0 else [x for out in outs for x in out])
    return [np.array(get(flat)).reshape(shape) for get, _, shape in gathers[order]]


@np.errstate(all="ignore")
def metric_at(spec: MetricSpec, point) -> np.ndarray:
    return _at_point(spec, _coords(point, spec.dim), 0)[0]


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
    g, D = _at_point(spec, c, 1)
    return g, D


def _metric_jets(spec: MetricSpec, c: np.ndarray):
    """(g, D, DD) with DD[l, m, i, j] = d^2 g_ij / dx_l dx_m, from one jet
    run over the live components.  g and D are bitwise those of
    _metric_and_first_derivs; DD is symmetric in both pairs bitwise, and
    None when every component is folded (a constant metric)."""
    g, D, DD = _at_point(spec, c, 2)
    return g, D, DD if _grid(spec)[0] else None


def _christoffels_from_parts(ginv: np.ndarray, D: np.ndarray) -> np.ndarray:
    # term[i, j, l] = d_i g_jl + d_j g_il - d_l g_ij; symmetric in (i, j)
    # bitwise because the two leading terms are mirror images and the
    # subtracted one is built symmetric.
    if len(ginv) == 1:
        return 0.5 * (ginv * D)  # term = D + D - D = D exactly
    term = D + D.transpose(1, 0, 2) - D.transpose(1, 2, 0)
    return 0.5 * np.einsum("kl,ijl->kij", ginv, term)


@np.errstate(all="ignore")
def christoffels_of(spec: MetricSpec, point) -> np.ndarray:
    """Christoffel symbols of the second kind, indexed [k, i, j] = Gamma^k_ij."""
    c = _coords(point, spec.dim)
    g, D = _metric_and_first_derivs(spec, c)
    return _christoffels_from_parts(_inverse_of(g), D)


def _christoffels_stacked(spec: MetricSpec, xs: np.ndarray) -> np.ndarray:
    """christoffels_of at every row of an (N, dim) array, [n, k, i, j].

    One run of the metric's program over every row gives the stacked
    metric and its first derivatives; folded components are not
    evaluated.  Raises EvalDomainError or DegenerateMetricError when
    christoffels_of would raise at some row; which row is left to the
    caller.
    """
    rows, dim = len(xs), spec.dim
    program, tail, gathers, _ = _grid(spec)
    flat = np.broadcast_to(tail, (rows, len(tail)))
    if program:
        flat = np.concatenate([flat, *_batches(program, xs)], axis=1)
    (_, gi, _), (_, di, _) = gathers[1]
    # take, not flat[:, index], which would lay the result out in Fortran
    # order; einsum and LAPACK may round differently on another layout
    g = flat.take(gi, axis=1).reshape(rows, dim, dim)
    D = flat.take(di, axis=1).reshape(rows, dim, dim, dim)
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
