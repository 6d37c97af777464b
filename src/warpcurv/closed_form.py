"""Curvature of a doubly warped product from block formulas.

Everything here is expressed through unwarped factor-metric quantities:
factor Christoffels, factor curvature, warp gradients/Hessians taken with
respect to the plain factor metrics.  Nothing is differenced: the factor
curvature comes from the second-order jets (expr.jet2) of the factor
metric components, and every warp-dependent term from the warps' jets.
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
therefore gets one record (_factor_data): its metric, Christoffels and the
warp that lives on it.  Every block formula is written once for an own
side A against the other side O, with w_A the warp on A, and runs for
(A, O) = (base, fiber) and (fiber, base).  For example

    R[A,O,A,O] = -(1/w_O) delta_A (x) Hess_O w_O - (w_A/w_O^2) (g_A^-1 Hess_A w_A) (x) g_O

gives both R[B,F,B,F] and R[F,B,F,B].

bundle_closed is the one curvature entry point: it evaluates the point
data once, factor curvature included, and builds all four tensors from
it.  christoffels_closed, for the geodesic right-hand side, needs only
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
    _metric_jets,
)
from .oracle import (
    DiffPolicy,
    bundle_fd,  # unused here; bench/tracer.py wraps closed_form.bundle_fd by name
)
from .warped import WarpedProductSpec, _as_product_point

__all__ = ["christoffels_closed", "bundle_closed"]


def _riemann_and_ricci(g, ginv, gamma, DD):
    """(Riemann in the 'common' convention, Ricci) of one factor chart, exact
    from its metric's second derivatives DD[l, m, i, j] = d_l d_m g_ij:

        R_abcd = Z_abcd - Z_abdc,
        Z_abcd = (d_b d_c g_ad - d_a d_c g_bd) / 2 + Gamma_{p,bc} Gamma^p_ad,

    with Gamma_{p,bc} = g_pq Gamma^q_bc, and the first index raised by g^-1.
    The Ricci tensor R^a_{bad} is symmetrised, which moves it by roundoff
    only: with exact derivatives its antisymmetric part is zero.
    """
    k = len(g)
    lowered = (g @ gamma.reshape(k, k * k)).reshape(k, k, k)
    Z = 0.5 * (DD.transpose(2, 0, 1, 3) - DD.transpose(0, 2, 1, 3)) + np.einsum(
        "pbc,pad->abcd", lowered, gamma
    )
    riem = (ginv @ (Z - Z.transpose(0, 1, 3, 2)).reshape(k, k**3)).reshape(k, k, k, k)
    ric = np.einsum("abad->bd", riem)
    return riem, 0.5 * (ric + ric.T)


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
    riem, ric       the factor's own Riemann ('common' convention) and Ricci
                    tensors

    The last two rows are None without Hessians.  With them, a factor of
    dim >= 2 takes its metric from one jet2 pass per live component, whose
    value and gradient are bitwise those of the first-derivative pass; a
    1-dim or constant factor has no curvature and gets exact zeros with
    no further evaluation.  A namespace rather than a dataclass, whose
    generated methods would cost time at every import and serve no caller.
    """
    k = factor.dim
    DD = None
    if hessians and k > 1:
        g, D, DD = _metric_jets(factor, coords)
    else:
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
    H = lap = nw2 = riem = ric = None
    if hessians:
        H = jet.hessian - (dw @ gamma.reshape(k, k * k)).reshape(k, k)
        lap = float(np.vdot(ginv, H))
        nw2 = float(dw @ dwU)
        if DD is None:
            riem, ric = np.zeros((k, k, k, k)), np.zeros((k, k))
        else:
            riem, ric = _riemann_and_ricci(g, ginv, gamma, DD)
    return SimpleNamespace(
        own=own, dim=k, w=w, g=g, ginv=ginv, gamma=gamma,
        dwU=dwU, lw=dw / w, H=H, lap=lap, nw2=nw2, riem=riem, ric=ric,
    )


def _point_data(spec: WarpedProductSpec, point, with_hessians: bool = True):
    """(base record, fiber record): every exact per-point ingredient, once.

    The checks run factor by factor: the base metric (its evaluation, then
    its inverse), then f and its sign, then the fiber metric, then h.  At
    a point where two checks fail, the first one's error is raised.

    with_hessians=False skips the second-order jets and what only curvature
    reads (H, lap, nw2, the factor curvature); Christoffels and geodesic
    right-hand sides only need first derivatives, and the saving matters
    inside integrator loops.  With Hessians, each factor metric of dim >= 2
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


def _riemann_from_data(d) -> np.ndarray:
    dim = d[0].dim + d[1].dim
    R = np.zeros((dim, dim, dim, dim))
    for A, O in (d, d[::-1]):
        a, o = A.own, O.own
        I = np.eye(A.dim)
        # own block: factor curvature plus a constant-curvature correction
        R[a, a, a, a] = A.riem - (O.nw2 / A.w**2) * (
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


def _ricci_from_data(d) -> np.ndarray:
    dim = d[0].dim + d[1].dim
    ric = np.zeros((dim, dim))
    for A, O in (d, d[::-1]):
        ric[A.own, A.own] = (
            A.ric
            - (O.dim / A.w) * A.H
            - ((A.dim - 1) * O.nw2 + O.w * O.lap) / A.w**2 * A.g
        )
    base, fiber = d
    cross = (dim - 2) * np.outer(base.lw, fiber.lw)
    ric[base.own, fiber.own] = cross
    ric[fiber.own, base.own] = cross.T
    return ric


def _scalar_paths_from_data(d, ric) -> tuple[float, float]:
    """(contraction of the product Ricci `ric`, direct formula value), both
    from the same factor Ricci.

    Sharing the factor tensors between the two paths means their residual
    difference is pure algebra roundoff, not differencing noise.
    """
    paths = []
    for A, O in (d, d[::-1]):
        a, k = A.own, A.dim
        contraction = np.einsum("ij,ij->", A.ginv / O.w**2, ric[a, a])
        direct = (
            float(np.einsum("ij,ij->", A.ginv, A.ric)) / O.w**2
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
    """All four tensors from one pass of point data: factor metric jets,
    factor curvature and warp jets, each evaluated once.

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
    riem = _riemann_from_data(d)
    ric = _ricci_from_data(d)
    scal, direct = _scalar_paths_from_data(d, ric)
    if abs(scal - direct) > 1e-10 * (1.0 + abs(scal)):
        raise NumericalInstabilityError(
            f"scalar curvature paths disagree: contraction {scal!r} vs direct {direct!r}"
        )
    if convention == "paper":
        riem = -riem
    return CurvatureBundle(gamma, riem, ric, scal, convention)
