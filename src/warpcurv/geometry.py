"""Coordinate-chart pseudo-Riemannian geometry for a single factor manifold.

A metric is a symmetric grid of expressions in the chart coordinates
x0..x{dim-1}.  Entry (i, j) and entry (j, i) are the same Expression object,
so symmetry of everything downstream (metric values, Christoffel symbols in
their lower pair, the closed form's covariant warp Hessians) holds bitwise,
not just to roundoff.

Partial derivatives of metric entries are derivative trees (the
derivative module), never finite differences; the only approximation
anywhere in this module is the linear solve for the inverse metric.
Christoffels need first derivatives; a factor's curvature in the closed
form takes second ones from _metric_jets.

A metric's live components and their derivatives up to an order are
compiled into one program per order (_grid), each repeated subtree once,
on first use, and cached on the MetricSpec.  metric_at runs the order-0
program, _metric_and_first_derivs the order-1 and _metric_jets the order-2
program at one point, and _christoffels_stacked the order-1 program over
the columns of a stack of points; the first component that fails raises
what it would raise alone.

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
    _columns,
    _finite,
    _reads_variables,
    _run,
    evaluate,
    parse_expression,
)
# unused here: bench/tracer.py wraps geometry.jet2 and geometry.value_and_gradient by name
from .expr import jet2, value_and_gradient  # noqa: F401

__all__ = [
    "MetricSpec",
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
    # the compiled grids, one per derivative order, built by _grid on first use
    _compiled: list = field(default=None, init=False, repr=False, compare=False)
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


def _grid(spec: MetricSpec, order: int) -> tuple:
    """(program, tail, gathers) of a metric at a derivative order, 0, 1 or
    2, built on first use and cached on the spec.

    program computes the live components (i, j), i <= j, in row-major
    order, each with its derivatives up to the order (derivative.derived).
    Its outputs, followed by tail (0.0, the constant derivatives and each
    folded component's value), hold every entry of the metric arrays;
    gathers holds, for g, D and DD up to the order, an itemgetter and an
    index array of those flat positions, and the array's shape.  With no
    live component the program is empty and tail alone holds them.
    """
    grids = spec._compiled
    if grids is None:
        grids = [None, None, None]
        object.__setattr__(spec, "_compiled", grids)
    grid = grids[order]
    if grid is None:
        from .derivative import derived  # imported with the first program it builds

        dim = spec.dim
        upper = [spec.components[i][j] for i in range(dim) for j in range(i, dim)]
        live = [e for e in upper if _constant_value(e) is None]
        program, places, tail = derived(live, order)
        width, place = program.width, {}
        for e, p in zip(live, places):
            place[id(e)] = p
        for e in upper:
            if id(e) not in place:  # a folded component: its value, then zeros
                tail.append(_constant_value(e))
                place[id(e)] = [width + len(tail) - 1] + [width] * (dim + dim * dim)
        cells = [place[id(spec.components[i][j])] for i in range(dim) for j in range(dim)]
        gathers = []
        blocks = ([0], range(1, dim + 1), range(dim + 1, 1 + dim + dim * dim))
        for rank, block in enumerate(blocks[: order + 1]):
            ix = [p[t] for t in block for p in cells]
            gathers.append((operator.itemgetter(*ix), np.array(ix), (dim,) * (2 + rank)))
        grid = grids[order] = (program, tail, gathers)
    return grid


def _at_point(spec: MetricSpec, c, order: int) -> list:
    """[g, D, DD][: order + 1] at one point, from one run of the metric's
    program of that order; D[l, i, j] = d g_ij / dx_l and DD[l, m, i, j] =
    d^2 g_ij / dx_l dx_m, each bitwise symmetric in (i, j)."""
    program, tail, gathers = _grid(spec, order)
    flat = _run(program, [float(x) for x in c], _finite) + tail
    return [np.array(get(flat)).reshape(shape) for get, _, shape in gathers]


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
    """(g, D, DD) with DD[l, m, i, j] = d^2 g_ij / dx_l dx_m, from one run
    of the order-2 program over the live components.  g and D are bitwise
    those of _metric_and_first_derivs; DD is symmetric in both pairs
    bitwise, and None when every component is folded (a constant metric)."""
    g, D, DD = _at_point(spec, c, 2)
    return g, D, DD if _grid(spec, 2)[0] else None


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

    One run of the metric's order-1 program over the columns of every row
    gives the stacked metric and its first derivatives; folded components
    are not evaluated.  Raises EvalDomainError or DegenerateMetricError
    when christoffels_of would raise at some row; which row is left to the
    caller.
    """
    rows, dim = len(xs), spec.dim
    program, tail, gathers = _grid(spec, 1)
    flat = np.empty((rows, program.width + len(tail)))
    for i, column in enumerate(_columns(program, xs) + tail):
        flat[:, i] = column
    (_, gi, _), (_, di, _) = gathers
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
