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


class _PointData(SimpleNamespace):
    """Exact per-point ingredients shared by all closed-form tensors.

    m, n                  factor dimensions
    f, h                  warp values
    gB, gF, gBinv, gFinv  factor metrics and their inverses
    gammaB, gammaF        factor Christoffels
    df, dh                warp gradients on their own factors
    dfU, dhU              the same, raised
    lf, lh                d(ln f), d(ln h)
    Hf, Hh                factor-covariant warp Hessians
    lapBf, lapFh          unwarped factor Laplacians of the warps
    nf2, nh2              |df|^2, |dh|^2 in the unwarped factor metrics

    The last three rows are None when _point_data skips the Hessians.  A
    namespace rather than a dataclass, whose generated methods would cost
    time at every import and serve no caller.
    """


def _point_data(spec: WarpedProductSpec, point, with_hessians: bool = True) -> _PointData:
    """Evaluate every exact per-point ingredient once.

    with_hessians=False skips the second-order warp jets and what only
    curvature reads (Hf, Hh, their Laplacians, nf2, nh2); Christoffels and
    geodesic right-hand sides only need first derivatives, and the saving
    matters inside integrator loops.
    """
    pp = _as_product_point(spec, point)
    m, n = spec.base.dim, spec.fiber.dim
    gB, DB = _metric_and_first_derivs(spec.base, pp.base_coords)
    gF, DF = _metric_and_first_derivs(spec.fiber, pp.fiber_coords)
    gBinv = _inverse_of(gB)
    gFinv = _inverse_of(gF)
    gammaB = _christoffels_from_parts(gBinv, DB)
    gammaF = _christoffels_from_parts(gFinv, DF)
    if with_hessians:
        fjet = jet2(spec.f.expr, pp.base_coords)
        hjet = jet2(spec.h.expr, pp.fiber_coords)
        fval, df = fjet.value, fjet.gradient
        hval, dh = hjet.value, hjet.gradient
    else:
        fval, df = value_and_gradient(spec.f.expr, pp.base_coords)
        hval, dh = value_and_gradient(spec.h.expr, pp.fiber_coords)
    if not fval > 0.0:
        raise NonpositiveWarpError("f", fval)
    if not hval > 0.0:
        raise NonpositiveWarpError("h", hval)
    dfU = gBinv @ df
    dhU = gFinv @ dh
    if with_hessians:
        Hf = fjet.hessian - (df @ gammaB.reshape(m, m * m)).reshape(m, m)
        Hh = hjet.hessian - (dh @ gammaF.reshape(n, n * n)).reshape(n, n)
        lapBf = float(np.vdot(gBinv, Hf))
        lapFh = float(np.vdot(gFinv, Hh))
        nf2 = float(df @ dfU)
        nh2 = float(dh @ dhU)
    else:
        Hf = Hh = lapBf = lapFh = nf2 = nh2 = None
    return _PointData(
        m=m,
        n=n,
        f=fval,
        h=hval,
        gB=gB,
        gF=gF,
        gBinv=gBinv,
        gFinv=gFinv,
        gammaB=gammaB,
        gammaF=gammaF,
        df=df,
        dh=dh,
        Hf=Hf,
        Hh=Hh,
        dfU=dfU,
        dhU=dhU,
        lf=df / fval,
        lh=dh / hval,
        nf2=nf2,
        nh2=nh2,
        lapBf=lapBf,
        lapFh=lapFh,
    )


def _christoffels_from_data(d: _PointData) -> np.ndarray:
    m, n = d.m, d.n
    dim = m + n
    B = slice(0, m)
    F = slice(m, dim)
    G = np.zeros((dim, dim, dim))
    G[B, B, B] = d.gammaB
    G[F, F, F] = d.gammaF
    # fiber-up, base-pair block and its mirror
    G[F, B, B] = -(d.h / d.f**2) * (d.dhU[:, None, None] * d.gB)
    G[B, F, F] = -(d.f / d.h**2) * (d.dfU[:, None, None] * d.gF)
    # mixed lower pairs, diagonal in the matching factor index:
    # G[nu, nu, m+alpha] = G[nu, m+alpha, nu] = d_alpha ln h, and mirrored
    for nu in range(m):
        G[nu, nu, F] = G[nu, F, nu] = d.lh
    for beta in range(m, dim):
        G[beta, beta, B] = G[beta, B, beta] = d.lf
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


def _riemann_common_from_data(
    d: _PointData, Rb: np.ndarray, Rf: np.ndarray
) -> np.ndarray:
    m, n = d.m, d.n
    dim = m + n
    B = slice(0, m)
    F = slice(m, dim)
    Im = np.eye(m)
    In = np.eye(n)
    f, h = d.f, d.h
    R = np.zeros((dim, dim, dim, dim))

    # all-base block: factor curvature plus a constant-curvature correction
    R[B, B, B, B] = Rb - (d.nh2 / f**2) * (
        np.einsum("ml,nr->mnlr", Im, d.gB) - np.einsum("mr,nl->mnlr", Im, d.gB)
    )
    # all-fiber block, mirror image
    R[F, F, F, F] = Rf - (d.nf2 / h**2) * (
        np.einsum("ag,be->abge", In, d.gF) - np.einsum("ae,bg->abge", In, d.gF)
    )

    # even mixed blocks: warp Hessians
    HhUp = d.gFinv @ d.Hh
    HfUp = d.gBinv @ d.Hf
    X = -(1.0 / f) * np.einsum("ab,mn->ambn", In, d.Hf) - (h / f**2) * np.einsum(
        "ab,mn->ambn", HhUp, d.gB
    )
    R[F, B, F, B] = X
    R[F, B, B, F] = -X.transpose(0, 1, 3, 2)
    U = -(1.0 / h) * np.einsum("mn,ab->manb", Im, d.Hh) - (f / h**2) * np.einsum(
        "mn,ab->manb", HfUp, d.gF
    )
    R[B, F, B, F] = U
    R[B, F, F, B] = -U.transpose(0, 1, 3, 2)

    # blocks proportional to d(ln f) x d(ln h)
    R[F, B, F, F] = np.einsum("m,g,ab->ambg", d.lf, d.lh, In) - np.einsum(
        "m,b,ag->ambg", d.lf, d.lh, In
    )
    R[B, F, B, B] = np.einsum("a,l,mn->manl", d.lh, d.lf, Im) - np.einsum(
        "a,n,ml->manl", d.lh, d.lf, Im
    )
    W = (h / f**2) * (
        np.einsum("a,n,lm->amnl", d.dhU, d.lf, d.gB)
        - np.einsum("a,l,nm->amnl", d.dhU, d.lf, d.gB)
    )
    R[F, B, B, B] = W
    V = (f / h**2) * (
        np.einsum("m,b,ga->mabg", d.dfU, d.lh, d.gF)
        - np.einsum("m,g,ba->mabg", d.dfU, d.lh, d.gF)
    )
    R[B, F, F, F] = V
    P = np.einsum("a,n,ml->mnla", d.lh, d.lf, Im) - (1.0 / f) * np.einsum(
        "a,ln,m->mnla", d.lh, d.gB, d.dfU
    )
    R[B, B, B, F] = P
    R[B, B, F, B] = -P.transpose(0, 1, 3, 2)
    Q = np.einsum("m,b,ag->abgm", d.lf, d.lh, In) - (1.0 / h) * np.einsum(
        "m,gb,a->abgm", d.lf, d.gF, d.dhU
    )
    R[F, F, F, B] = Q
    R[F, F, B, F] = -Q.transpose(0, 1, 3, 2)

    # R[B,B,F,F] and R[F,F,B,B] are identically zero for this metric shape
    return R


def _ricci_from_data(
    d: _PointData, ricB: np.ndarray, ricF: np.ndarray
) -> np.ndarray:
    m, n = d.m, d.n
    dim = m + n
    B = slice(0, m)
    F = slice(m, dim)
    f, h = d.f, d.h
    ric = np.zeros((dim, dim))
    ric[B, B] = (
        ricB
        - (n / f) * d.Hf
        - ((m - 1) * d.nh2 + h * d.lapFh) / f**2 * d.gB
    )
    ric[F, F] = (
        ricF
        - (m / h) * d.Hh
        - ((n - 1) * d.nf2 + f * d.lapBf) / h**2 * d.gF
    )
    cross = (m + n - 2) * np.outer(d.lf, d.lh)
    ric[B, F] = cross
    ric[F, B] = cross.T
    return ric


def _scalar_paths_from_data(d: _PointData, ric, ricB, ricF) -> tuple[float, float]:
    """(contraction of the product Ricci `ric`, direct formula value), both
    from the same factor Ricci.

    Sharing the factor tensors between the two paths means their residual
    difference is pure algebra roundoff, not differencing noise.
    """
    f, h = d.f, d.h
    m, n = d.m, d.n
    contraction = float(
        np.einsum("ij,ij->", d.gBinv / h**2, ric[:m, :m])
        + np.einsum("ij,ij->", d.gFinv / f**2, ric[m:, m:])
    )
    scalB = float(np.einsum("ij,ij->", d.gBinv, ricB))
    scalF = float(np.einsum("ij,ij->", d.gFinv, ricF))
    direct = (
        scalB / h**2
        + scalF / f**2
        - 2.0 * m * d.lapFh / (h * f**2)
        - 2.0 * n * d.lapBf / (f * h**2)
        - m * (m - 1) * (d.nh2 / h**2) / f**2
        - n * (n - 1) * (d.nf2 / f**2) / h**2
    )
    return contraction, direct


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
