"""Curvature of a doubly warped product from block formulas.

Everything here is expressed through unwarped factor-metric quantities:
factor Christoffels, factor curvature, warp gradients/Hessians taken with
respect to the plain factor metrics.  Nothing is differenced: the factor
curvature comes from the second-order jets (geometry._metric_jets) of the
factor metric components, and every warp-dependent term from the warps' jets:
programs over derivative trees (the derivative module), one per order.
No number here comes from the oracle module, which differentiates the
assembled product metric numerically and is the independent check.

Index layout: base coordinates first (0..m-1), fiber after (m..m+n-1).
Mixed Christoffel and Riemann blocks follow from expanding the product
metric's Koszul formula; the resulting nonzero Riemann patterns are

    all-base and all-fiber blocks,
    the even mixed blocks (two indices in each factor),
    the odd mixed blocks (one fiber index among base ones and vice versa),

the latter proportional to d(ln f) d(ln h) and so vanishing whenever either
warp is constant.  The remaining two patterns (upper index alone in its
factor against three of the other) are identically zero.

One formula per side.  h(y)^2 g_B + f(x)^2 g_F keeps its form when base and
fiber trade places together with f and h, so every block whose upper index
lies on one side is the mirror image of a block on the other.  Each factor
therefore gets one record (_factor_data): its metric, inverse,
Christoffels and second metric derivatives, and the warp that lives on it
with its gradient and Hessian.  Every block formula is written once for
an own side A against the other side O, with w_A the warp on A, and runs
for (A, O) = (base, fiber) and (fiber, base).

Two places state blocks.  The Christoffels are assembled from point data
with numpy here (_christoffels_from_data), which christoffels_closed and
the geodesic fallback share.  The Riemann and Ricci blocks and both paths
to the scalar curvature are the blocks module's programs, one per side,
built at a spec's first bundle_closed and run on its point data
(_blocks).  bundle_closed is the one curvature entry point: it evaluates
the point data once and builds all four tensors from it.

What does not depend on the point is folded: a constant factor metric's
inverse and Christoffels are computed at the first evaluation, by the
calls that compute them at any point, and cached read-only on its
MetricSpec (_metric_data); a constant warp has geometry._constant_value
and shared read-only zero derivatives, and its record says so (_warp_data,
constant), so a term that its zero gradient scales is left out and an
underflowed square of the other warp does not meet it.  Building a spec computes nothing.  A
fold that raises is not cached, and a nonpositive constant warp is
rejected, at every call.

The Riemann array comes in the 'common' sign convention
(R(X,Y) = [D_X,D_Y] - D_[X,Y]) and is negated on request; Ricci and scalar
never depend on that choice.
"""

from __future__ import annotations

import functools
import math
from types import SimpleNamespace

import numpy as np

from .bundle import CurvatureBundle
from .errors import EvalDomainError, NonpositiveWarpError, NumericalInstabilityError
from .expr import Expression, _jet
# unused here: bench/tracer.py wraps closed_form.jet2 and
# closed_form.value_and_gradient by name
from .expr import jet2, value_and_gradient  # noqa: F401
from .geometry import (
    MetricSpec,
    _christoffels_from_parts,
    _constant_value,
    _grid,
    _inverse_of,
    _metric_and_first_derivs,
    _metric_jets,
)
# unused here: bench/tracer.py wraps closed_form.bundle_fd by name
from .oracle import bundle_fd  # noqa: F401
from .warped import WarpedProductSpec, _as_product_point

__all__ = ["christoffels_closed", "bundle_closed"]


def _sq(w: float) -> float:
    """w**2, and inf where that overflows: a float power raises
    OverflowError there.  Not w * w, which differs from w**2 in the last
    bit for about one float in a thousand."""
    try:
        return w**2
    except OverflowError:
        return math.inf


def _over(x, y: float):
    """x / y for y >= 0, a square or product of warps.  Where y underflows
    to 0 the quotient is IEEE's, inf or nan, which the finiteness checks
    reject: Python's float division would raise ZeroDivisionError."""
    return x / y if y else x * math.inf


_NOT_FINITE = "curvature is not finite at this point"


def _finite(gamma: np.ndarray):
    """Raise unless every entry is finite: a warp near the float range
    overflows a product of warps where each warp itself is finite."""
    if not np.isfinite(gamma).all():
        raise EvalDomainError(_NOT_FINITE)


def _read_only(*arrays) -> tuple:
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _metric_data(factor: MetricSpec, coords, hessians: bool):
    """(g, ginv, gamma, DD) of one factor at a point: its metric, inverse,
    Christoffels and, with Hessians on a factor of dim >= 2 whose metric is
    live, the metric's second derivatives (else None).  A constant metric
    (an empty program) is kept on its MetricSpec once its inverse exists."""
    if factor._fold is not None:
        return (*factor._fold, None)
    DD, order = None, 1
    if hessians and factor.dim > 1:
        g, D, DD = _metric_jets(factor, coords)
        order = 2
    else:
        g, D = _metric_and_first_derivs(factor, coords)
    ginv = _inverse_of(g)
    gamma = _christoffels_from_parts(ginv, D)
    if not _grid(factor, order)[0]:
        object.__setattr__(factor, "_fold", _read_only(g, ginv, gamma))
    return g, ginv, gamma, DD


@functools.cache
def _zero_jet(k: int) -> tuple:
    """(gradient, Hessian) of a constant on a k-dim factor: exact zeros,
    shared read-only."""
    return _read_only(np.zeros(k), np.zeros((k, k)))


def _warp_data(warp: Expression, coords, which: str, hessians: bool):
    """(w, dw, lw, hess, constant) of the warp that lives on a factor: its
    value, checked positive, its gradient, d(ln w), with Hessians its
    Hessian (else None), and whether it reads no variable.  A constant warp
    has its cached constant value and _zero_jet's derivatives, d(ln w) the
    gradient itself."""
    k = warp.arity
    w = _constant_value(warp)
    constant = w is not None
    if constant:
        dw, hess = _zero_jet(k)
    else:
        out = _jet(warp, coords, 2 if hessians else 1)
        w, dw = out[0], np.array(out[1 : k + 1])
        hess = np.array(out[k + 1 :]).reshape(k, k) if hessians else None
    if not w > 0.0:
        raise NonpositiveWarpError(which, w)
    return w, dw, dw if constant else dw / w, hess if hessians else None, constant


def _factor_data(factor: MetricSpec, coords, warp, which: str, own: slice, hessians: bool):
    """Exact per-point ingredients of one factor, shared by all closed-form
    tensors:

    own             this factor's slice of the product coordinates
    dim             its dimension
    w               the warp that lives on this factor (f on the base, h on
                    the fiber); it scales the other factor's metric
    constant        whether that warp reads no variable: its derivatives
                    are then zero by structure, not only at this point
    g, ginv, gamma  the factor's metric, its inverse and its Christoffels
    dw, dwU, lw     the warp's gradient, raised by ginv, and d(ln w)
    DD, hess        the metric's second derivatives DD[l, m, i, j] =
                    d_l d_m g_ij and the warp's Hessian, which only the
                    curvature programs read (the blocks module)

    The last row is None without Hessians, and DD also for a factor of
    dim 1 or a constant metric, which have no curvature.  With Hessians, a
    factor of dim >= 2 takes its metric from one jet run of the metric's
    program, whose value and gradient are bitwise those of the
    first-derivative run.  dwU mixes the metric and the warp, so it is
    computed at every point even when both are cached.  A namespace rather
    than a dataclass, whose generated methods would cost time at every
    import and serve no caller.
    """
    g, ginv, gamma, DD = _metric_data(factor, coords, hessians)
    w, dw, lw, hess, constant = _warp_data(warp, coords, which, hessians)
    return SimpleNamespace(
        own=own, dim=factor.dim, w=w, constant=constant, g=g, ginv=ginv, gamma=gamma,
        dw=dw, dwU=ginv @ dw, lw=lw, DD=DD, hess=hess,
    )


def _point_data(spec: WarpedProductSpec, point, with_hessians: bool = True):
    """(base record, fiber record): every exact per-point ingredient, once.

    The checks run factor by factor: the base metric (its evaluation, then
    its inverse), then f and its sign, then the fiber metric, then h.  At
    a point where two checks fail, the first one's error is raised.

    with_hessians=False skips the second-order jets, which only curvature
    reads; Christoffels and geodesic right-hand sides only need first
    derivatives, and the saving matters inside integrator loops.  With Hessians, each factor metric of dim >= 2
    must be twice differentiable at the point, like the warps: where jet2
    rejects a component (x^1.5 at 0, say) EvalDomainError is raised.
    """
    pp = _as_product_point(spec, point)
    m, dim = spec.base.dim, spec.dim
    B, F = slice(0, m), slice(m, dim)
    return (
        _factor_data(spec.base, pp.base_coords, spec.f, "f", B, with_hessians),
        _factor_data(spec.fiber, pp.fiber_coords, spec.h, "h", F, with_hessians),
    )


def _christoffels_from_data(d) -> np.ndarray:
    dim = d[0].dim + d[1].dim
    G = np.zeros((dim, dim, dim))
    for A, O in (d, d[::-1]):
        a, o = A.own, O.own
        G[a, a, a] = A.gamma
        # other-up, own-pair block, -(w_O / w_A^2) dwU_O (x) g_A.  A constant
        # w_O leaves out the coefficient, which is inf where w_A^2 underflows;
        # its zero gradient then makes the zeros the coefficient would, signs
        # included
        scaled = O.dwU[:, None, None] * A.g
        G[o, a, a] = -scaled if O.constant else -_over(O.w, _sq(A.w)) * scaled
        # mixed lower pairs, diagonal in the own index:
        # G[k, k, o] = G[k, o, k] = d ln w_O
        for k in range(a.start, a.stop):
            G[k, k, o] = G[k, o, k] = O.lw
    return G


@np.errstate(all="ignore")
def christoffels_closed(spec: WarpedProductSpec, point) -> np.ndarray:
    """Product Christoffels [k, i, j] without differentiating the product
    metric: factor Christoffels plus exact warp-gradient terms."""
    gamma = _christoffels_from_data(_point_data(spec, point, with_hessians=False))
    _finite(gamma)
    return gamma


def _blocks(spec: WarpedProductSpec, d):
    """spec's curvature programs (blocks.Blocks), built from the point data
    d of its first bundle_closed and kept on it."""
    program = spec._programs.get("curvature")
    if program is None:
        from .blocks import build  # imported with the first program it builds

        program = spec._programs["curvature"] = build(spec, d)
    return program


@np.errstate(all="ignore")
def bundle_closed(
    spec: WarpedProductSpec,
    point,
    policy=None,
    convention: str = "paper",
) -> CurvatureBundle:
    """All four tensors from one pass of point data: the factor metrics'
    jets, inverses and Christoffels, and the warps' jets, each evaluated
    once.  The Christoffels are assembled here; Riemann, Ricci and both
    scalar paths are the spec's curvature programs (the blocks module), built
    at its first call and run on the point data.  So a constant metric, a
    factor of dim 1 and a constant warp add no work at a point, and a
    factor of any dimension takes the same route.

    The scalar is the contraction of the Ricci tensor; the direct warp
    formula must agree with it to 1e-10 relative, else
    NumericalInstabilityError.

    policy is accepted and ignored: nothing here differences, so a
    DiffPolicy tunes only the oracle.  The parameter stays because the
    benchmark's workloads (bench/workloads.py) pass the manifest's policy
    by position.
    """
    d = _point_data(spec, point)
    gamma = _christoffels_from_data(d)
    _finite(gamma)
    riem, ric, scal, direct = _blocks(spec, d).curvature(d)
    if abs(scal - direct) > 1e-10 * (1.0 + abs(scal)):
        raise NumericalInstabilityError(
            f"scalar curvature paths disagree: contraction {scal!r} vs direct {direct!r}"
        )
    if convention == "paper":
        riem = -riem
    return CurvatureBundle(gamma, riem, ric, scal, convention)
