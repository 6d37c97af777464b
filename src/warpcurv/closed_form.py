"""Curvature of a doubly warped product from block formulas.

Everything here is expressed through unwarped factor-metric quantities:
factor Christoffels, factor curvature, warp gradients/Hessians taken with
respect to the plain factor metrics.  The only finite differencing is
inside the factor curvature tensors (delegated to the oracle module, on
charts of lower dimension); every warp-dependent term uses the exact
gradients and Hessians of expr.jet2.

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
therefore gets one record (_factor_data): its metric, Christoffels and the
warp that lives on it.  Every block formula is written once for an own
side A against the other side O, with w_A the warp on A, and runs for
(A, O) = (base, fiber) and (fiber, base).  For example

    R[A,O,A,O] = -(1/w_O) delta_A (x) Hess_O w_O - (w_A/w_O^2) (g_A^-1 Hess_A w_A) (x) g_O

gives both R[B,F,B,F] and R[F,B,F,B].

bundle_closed is the one curvature entry point: it evaluates the point
data and the two factor stencils once and builds all four tensors from
them.  christoffels_closed, for the geodesic right-hand side, needs only
first derivatives.

Internally the Riemann array is built in the 'common' sign convention
(R(X,Y) = [D_X,D_Y] - D_[X,Y]) and negated on request; Ricci and scalar
never depend on that choice.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from .bundle import CurvatureBundle
from .errors import NonpositiveWarpError, NumericalInstabilityError
from .expr import jet2, value_and_gradient
from .geometry import (
    MetricSpec,
    _christoffels_from_parts,
    _inverse_of,
    _metric_and_first_derivs,
)
from .oracle import DiffPolicy, bundle_fd
from .warped import WarpedProductSpec, _as_product_point

__all__ = ["christoffels_closed", "bundle_closed"]


def _factor_data(factor: MetricSpec, coords, warp, which: str, own: slice, hessians: bool):
    """Exact per-point ingredients of one factor, shared by all closed-form
    tensors:

    own             this factor's slice of the product coordinates
    dim             its dimension
    w               the warp that lives on this factor (f on the base, h on
                    the fiber); it scales the other factor's metric
    g, ginv, gamma  the factor's metric, its inverse and its Christoffels
    dwU, lw         the warp's gradient raised by ginv, and d(ln w)
    H, lap, nw2     the warp's factor-covariant Hessian, its Laplacian and
                    |dw|^2, all in the unwarped factor metric

    The last row is None without Hessians.  A namespace rather than a
    dataclass, whose generated methods would cost time at every import and
    serve no caller.
    """
    g, D = _metric_and_first_derivs(factor, coords)
    ginv = _inverse_of(g)
    gamma = _christoffels_from_parts(ginv, D)
    if hessians:
        jet = jet2(warp.expr, coords)
        w, dw = jet.value, jet.gradient
    else:
        w, dw = value_and_gradient(warp.expr, coords)
    if not w > 0.0:
        raise NonpositiveWarpError(which, w)
    dwU = ginv @ dw
    H = lap = nw2 = None
    if hessians:
        k = factor.dim
        H = jet.hessian - (dw @ gamma.reshape(k, k * k)).reshape(k, k)
        lap = float(np.vdot(ginv, H))
        nw2 = float(dw @ dwU)
    return SimpleNamespace(
        own=own, dim=factor.dim, w=w, g=g, ginv=ginv, gamma=gamma,
        dwU=dwU, lw=dw / w, H=H, lap=lap, nw2=nw2,
    )


def _point_data(spec: WarpedProductSpec, point, with_hessians: bool = True):
    """(base record, fiber record): every exact per-point ingredient, once.

    The checks run factor by factor: the base metric (its evaluation, then
    its inverse), then f and its sign, then the fiber metric, then h.  At
    a point where two checks fail, the first one's error is raised.

    with_hessians=False skips the second-order warp jets and what only
    curvature reads (H, lap, nw2); Christoffels and geodesic right-hand
    sides only need first derivatives, and the saving matters inside
    integrator loops.
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
        # other-up, own-pair block
        G[o, a, a] = -(O.w / A.w**2) * (O.dwU[:, None, None] * A.g)
        # mixed lower pairs, diagonal in the own index:
        # G[k, k, o] = G[k, o, k] = d ln w_O
        for k in range(a.start, a.stop):
            G[k, k, o] = G[k, o, k] = O.lw
    return G


def christoffels_closed(spec: WarpedProductSpec, point) -> np.ndarray:
    """Product Christoffels [k, i, j] without differentiating the product
    metric: factor Christoffels plus exact warp-gradient terms."""
    return _christoffels_from_data(_point_data(spec, point, with_hessians=False))


def _factor_curvature(factor: MetricSpec, coords, policy: DiffPolicy):
    """(Riemann in the 'common' convention, Ricci) of one factor chart."""
    if factor.dim == 1:
        # a 1-manifold has no curvature; skip the stencil entirely
        return np.zeros((1, 1, 1, 1)), np.zeros((1, 1))
    fb = bundle_fd(factor, coords, policy, convention="common")
    return fb.riemann, fb.ricci


def _riemann_common_from_data(d, Rb: np.ndarray, Rf: np.ndarray) -> np.ndarray:
    dim = d[0].dim + d[1].dim
    R = np.zeros((dim, dim, dim, dim))
    for (A, O), RA in zip((d, d[::-1]), (Rb, Rf)):
        a, o = A.own, O.own
        I = np.eye(A.dim)
        # own block: factor curvature plus a constant-curvature correction
        R[a, a, a, a] = RA - (O.nw2 / A.w**2) * (
            np.einsum("ml,nr->mnlr", I, A.g) - np.einsum("mr,nl->mnlr", I, A.g)
        )
        # even mixed blocks, upper index on this side: warp Hessians
        X = -(1.0 / O.w) * np.einsum("ab,mn->ambn", I, O.H) - (A.w / O.w**2) * np.einsum(
            "ab,mn->ambn", A.ginv @ A.H, O.g
        )
        R[a, o, a, o] = X
        R[a, o, o, a] = -X.transpose(0, 1, 3, 2)
        # odd blocks, proportional to d(ln f) x d(ln h)
        R[a, o, a, a] = np.einsum("m,g,ab->ambg", O.lw, A.lw, I) - np.einsum(
            "m,b,ag->ambg", O.lw, A.lw, I
        )
        R[o, a, a, a] = (O.w / A.w**2) * (
            np.einsum("a,n,lm->amnl", O.dwU, A.lw, A.g)
            - np.einsum("a,l,nm->amnl", O.dwU, A.lw, A.g)
        )
        P = np.einsum("a,n,ml->mnla", O.lw, A.lw, I) - (1.0 / A.w) * np.einsum(
            "a,ln,m->mnla", O.lw, A.g, A.dwU
        )
        R[a, a, a, o] = P
        R[a, a, o, a] = -P.transpose(0, 1, 3, 2)
    # R[B,B,F,F] and R[F,F,B,B] are identically zero for this metric shape
    return R


def _ricci_from_data(d, ricB: np.ndarray, ricF: np.ndarray) -> np.ndarray:
    dim = d[0].dim + d[1].dim
    ric = np.zeros((dim, dim))
    for (A, O), ricA in zip((d, d[::-1]), (ricB, ricF)):
        ric[A.own, A.own] = (
            ricA
            - (O.dim / A.w) * A.H
            - ((A.dim - 1) * O.nw2 + O.w * O.lap) / A.w**2 * A.g
        )
    base, fiber = d
    cross = (dim - 2) * np.outer(base.lw, fiber.lw)
    ric[base.own, fiber.own] = cross
    ric[fiber.own, base.own] = cross.T
    return ric


def _scalar_paths_from_data(d, ric, ricB, ricF) -> tuple[float, float]:
    """(contraction of the product Ricci `ric`, direct formula value), both
    from the same factor Ricci.

    Sharing the factor tensors between the two paths means their residual
    difference is pure algebra roundoff, not differencing noise.
    """
    paths = []
    for (A, O), ricA in zip((d, d[::-1]), (ricB, ricF)):
        a, k = A.own, A.dim
        contraction = np.einsum("ij,ij->", A.ginv / O.w**2, ric[a, a])
        direct = (
            float(np.einsum("ij,ij->", A.ginv, ricA)) / O.w**2
            - 2.0 * k * O.lap / (O.w * A.w**2)
            - k * (k - 1) * (O.nw2 / O.w**2) / A.w**2
        )
        paths.append((contraction, direct))
    (cB, dB), (cF, dF) = paths
    return float(cB + cF), dB + dF


def bundle_closed(
    spec: WarpedProductSpec,
    point,
    policy: DiffPolicy | None = None,
    convention: str = "paper",
) -> CurvatureBundle:
    """All four tensors sharing one set of factor stencils and warp jets.

    The scalar is the contraction of the Ricci tensor; the direct warp
    formula must agree with it to 1e-10 relative, else
    NumericalInstabilityError.
    """
    if policy is None:
        policy = DiffPolicy()
    pp = _as_product_point(spec, point)
    d = _point_data(spec, pp)
    RB, ricB = _factor_curvature(spec.base, pp.base_coords, policy)
    RF, ricF = _factor_curvature(spec.fiber, pp.fiber_coords, policy)
    gamma = _christoffels_from_data(d)
    riem = _riemann_common_from_data(d, RB, RF)
    ric = _ricci_from_data(d, ricB, ricF)
    scal, direct = _scalar_paths_from_data(d, ric, ricB, ricF)
    if abs(scal - direct) > 1e-10 * (1.0 + abs(scal)):
        raise NumericalInstabilityError(
            f"scalar curvature paths disagree: contraction {scal!r} vs direct {direct!r}"
        )
    if convention == "paper":
        riem = -riem
    return CurvatureBundle(gamma, riem, ric, scal, convention)
