"""Doubly warped products of two factor charts.

The product of a base (dim m, coordinates x0..x{m-1}) and a fiber (dim n)
carries the metric

    h(y)^2 g_B  on the base block,   f(x)^2 g_F  on the fiber block,

with f a function on the base and h a function on the fiber.  Product
coordinates list the base first, so fiber expressions get their variables
shifted by m when spliced into a plain (m+n)-dimensional metric.

Both warp functions must stay strictly positive; every evaluation checks
this rather than trusting the caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NonpositiveWarpError
from .expr import BinOp, Const, Expression, evaluate, parse_expression, reindex
from .geometry import MetricSpec, Point, metric_at

__all__ = [
    "WarpedProductSpec",
    "ProductPoint",
    "warp_values",
    "assemble_metric",
    "as_plain_metric",
]


class ProductPoint:
    """A point of the product chart, stored as the two factor pieces."""

    __slots__ = ("base_coords", "fiber_coords")

    def __init__(self, base_coords, fiber_coords):
        self.base_coords = Point(base_coords).coords
        self.fiber_coords = Point(fiber_coords).coords

    @classmethod
    def from_full(cls, coords, m: int) -> "ProductPoint":
        coords = np.asarray(coords, dtype=float)
        return cls(coords[:m], coords[m:])

    @classmethod
    def _checked_by_caller(cls, base_coords: np.ndarray, fiber_coords: np.ndarray):
        """A point over 1-d float arrays whose entries the caller has
        already found finite; the integrator checks each RK4 stage once."""
        pp = cls.__new__(cls)
        pp.base_coords = base_coords
        pp.fiber_coords = fiber_coords
        return pp

    @property
    def full(self) -> np.ndarray:
        return np.concatenate([self.base_coords, self.fiber_coords])

    def __repr__(self):
        return f"ProductPoint({self.base_coords.tolist()}, {self.fiber_coords.tolist()})"


@dataclass(frozen=True)
class WarpedProductSpec:
    base: MetricSpec
    fiber: MetricSpec
    f: Expression  # on the base, scales the fiber block
    h: Expression  # on the fiber, scales the base block
    name: str = ""
    # route -> its geodesic acceleration's program (split.Program), built on
    # the route's first right-hand side, False when a factor has dim > 3;
    # "curvature" -> the curvature programs (blocks.Blocks), built at the
    # first bundle_closed
    _programs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (isinstance(self.f, Expression) and isinstance(self.h, Expression)):
            raise TypeError("warp functions must be Expression objects")
        if self.f.arity != self.base.dim:
            raise ValueError("warp f must be a function on the base chart")
        if self.h.arity != self.fiber.dim:
            raise ValueError("warp h must be a function on the fiber chart")

    @property
    def dim(self) -> int:
        return self.base.dim + self.fiber.dim

    @classmethod
    def build(cls, base, fiber, f_text: str, h_text: str, name: str = ""):
        f = parse_expression(f_text, base.dim)
        h = parse_expression(h_text, fiber.dim)
        return cls(base, fiber, f, h, name)


def _as_product_point(spec: WarpedProductSpec, point) -> ProductPoint:
    if isinstance(point, ProductPoint):
        if len(point.base_coords) != spec.base.dim or len(point.fiber_coords) != spec.fiber.dim:
            raise ValueError("product point does not match factor dimensions")
        return point
    return ProductPoint.from_full(point, spec.base.dim)


def warp_values(spec: WarpedProductSpec, point) -> tuple[float, float]:
    """Evaluate (f, h) at the point, enforcing positivity."""
    pp = _as_product_point(spec, point)
    fval = evaluate(spec.f, pp.base_coords)
    if not fval > 0.0:
        raise NonpositiveWarpError("f", fval)
    hval = evaluate(spec.h, pp.fiber_coords)
    if not hval > 0.0:
        raise NonpositiveWarpError("h", hval)
    return fval, hval


@np.errstate(all="ignore")
def assemble_metric(spec: WarpedProductSpec, point) -> np.ndarray:
    """Numeric (m+n) x (m+n) product metric at a point.

    The off-diagonal blocks are never written, so they are exact zeros by
    construction, not small numbers.
    """
    pp = _as_product_point(spec, point)
    fval, hval = warp_values(spec, pp)
    m, n = spec.base.dim, spec.fiber.dim
    g = np.zeros((m + n, m + n))
    g[:m, :m] = (hval * hval) * metric_at(spec.base, pp.base_coords)
    g[m:, m:] = (fval * fval) * metric_at(spec.fiber, pp.fiber_coords)
    return g


def _square_times(warp_root, comp: Expression, offset: int, dim: int) -> Expression:
    """Expression tree for warp^2 * component in product coordinates."""
    body = BinOp("*", BinOp("^", warp_root, Const(2.0)), reindex(comp, offset, dim).root)
    return Expression(body, dim)


def as_plain_metric(spec: WarpedProductSpec) -> MetricSpec:
    """Splice the product metric into a single flat chart of dim m+n.

    Fiber-chart variables are shifted by m in both the fiber metric
    components and the warp h; cross-block components are the constant 0.
    """
    m, n = spec.base.dim, spec.fiber.dim
    d = m + n
    h_shifted = reindex(spec.h, m, d).root
    f_root = reindex(spec.f, 0, d).root
    zero = Expression(Const(0.0), d)
    grid = [[zero] * d for _ in range(d)]
    for i in range(m):
        for j in range(i, m):
            e = _square_times(h_shifted, spec.base.components[i][j], 0, d)
            grid[i][j] = grid[j][i] = e
    for a in range(n):
        for b in range(a, n):
            e = _square_times(f_root, spec.fiber.components[a][b], m, d)
            grid[m + a][m + b] = grid[m + b][m + a] = e
    name = spec.name or f"{spec.base.name}*{spec.fiber.name}"
    return MetricSpec(d, tuple(tuple(r) for r in grid), name)
