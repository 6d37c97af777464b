"""Curvature of a doubly warped product from block formulas.

Everything here is expressed through unwarped factor-metric quantities:
factor Christoffels, factor curvature, warp gradients/Hessians taken with
respect to the plain factor metrics.  Nothing is differenced: the factor
curvature comes from the second-order jets (geometry._metric_jets) of the
factor metric components, and every warp-dependent term from the warps' jets.
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
it.  christoffels_closed needs only first derivatives; it is the
forward-mode reference that the tests hold geodesics.rhs_full to.

What does not depend on the point is folded: a constant factor metric's
inverse and Christoffels are computed at the first evaluation, by the
calls that compute them at any point, and cached read-only on its
MetricSpec (_metric_data); a constant warp has geometry._constant_value
and shared read-only zero derivatives (_warp_data).  Building a spec
computes nothing.  A fold that raises is not cached, and a nonpositive
constant warp is rejected, at every call.

Internally the Riemann array is built in the 'common' sign convention
(R(X,Y) = [D_X,D_Y] - D_[X,Y]) and negated on request; Ricci and scalar
never depend on that choice.
"""

from __future__ import annotations

import functools
import math
from types import SimpleNamespace

import numpy as np

from .bundle import CurvatureBundle
from .errors import EvalDomainError, NonpositiveWarpError, NumericalInstabilityError
from .expr import Expression, _gradients, _jets, _program_of
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


def _finite(arrays, *numbers):
    """Raise unless every entry is finite: a warp near the float range
    overflows a product of warps where each warp itself is finite."""
    for a in arrays:
        if not np.isfinite(a).all():
            break
    else:
        if all(map(math.isfinite, numbers)):
            return
    raise EvalDomainError("curvature is not finite at this point")


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
    DD = None
    if hessians and factor.dim > 1:
        g, D, DD = _metric_jets(factor, coords)
    else:
        g, D = _metric_and_first_derivs(factor, coords)
    ginv = _inverse_of(g)
    gamma = _christoffels_from_parts(ginv, D)
    if not _grid(factor)[0]:
        object.__setattr__(factor, "_fold", _read_only(g, ginv, gamma))
    return g, ginv, gamma, DD


@functools.cache
def _zero_jet(k: int) -> tuple:
    """(gradient, Hessian) of a constant on a k-dim factor: exact zeros,
    shared read-only."""
    return _read_only(np.zeros(k), np.zeros((k, k)))


def _warp_data(warp: Expression, coords, which: str, hessians: bool):
    """(w, dw, lw, hess) of the warp that lives on a factor: its value,
    checked positive, its gradient, d(ln w) and, with Hessians, its Hessian
    (else None).  A warp that reads no variable has its cached constant
    value and _zero_jet's derivatives, d(ln w) the gradient itself."""
    k = warp.arity
    w = _constant_value(warp)
    constant = w is not None
    if constant:
        dw, hess = _zero_jet(k)
    elif hessians:
        out = _jets(_program_of(warp), coords)[0]
        w, dw, hess = out[0], np.array(out[1 : k + 1]), np.array(out[k + 1 :]).reshape(k, k)
    else:
        out = _gradients(_program_of(warp), coords)[0]
        w, dw, hess = out[0], np.array(out[1 : k + 1]), None
    if not w > 0.0:
        raise NonpositiveWarpError(which, w)
    return w, dw, dw if constant else dw / w, hess if hessians else None


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
    dim >= 2 takes its metric from one jet run of the metric's program, whose
    value and gradient are bitwise those of the first-derivative run; a
    1-dim or constant factor has no curvature and gets exact zeros with
    no further evaluation.  dwU and the rows below it mix the metric and
    the warp, so they are computed at every point even when both are
    cached.  A namespace rather than a dataclass, whose generated methods
    would cost time at every import and serve no caller.
    """
    k = factor.dim
    g, ginv, gamma, DD = _metric_data(factor, coords, hessians)
    w, dw, lw, hess = _warp_data(warp, coords, which, hessians)
    dwU = ginv @ dw
    H = lap = nw2 = riem = ric = None
    if hessians:
        H = hess - (dw @ gamma.reshape(k, k * k)).reshape(k, k)
        lap = float(np.vdot(ginv, H))
        nw2 = float(dw @ dwU)
        if DD is None:
            riem, ric = np.zeros((k, k, k, k)), np.zeros((k, k))
        else:
            riem, ric = _riemann_and_ricci(g, ginv, gamma, DD)
    return SimpleNamespace(
        own=own, dim=k, w=w, g=g, ginv=ginv, gamma=gamma,
        dwU=dwU, lw=lw, H=H, lap=lap, nw2=nw2, riem=riem, ric=ric,
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
        G[o, a, a] = -_over(O.w, _sq(A.w)) * (O.dwU[:, None, None] * A.g)
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
    _finite((gamma,))
    return gamma


def _outer4(u, v) -> np.ndarray:
    """out[a, m, b, n] = u[a, b] * v[m, n], one broadcast product.  Adding
    +0.0 turns a -0.0 product into 0.0, so a zero entry's sign does not
    depend on the signs of its factors."""
    return u[:, None, :, None] * v[None, :, None, :] + 0.0


def _riemann_from_data(d) -> np.ndarray:
    """Each block is a handful of broadcast products.  A Kronecker delta is
    a product with the identity: one numpy call, where placing the block on
    its diagonal by index would take several.  A product of three factors
    multiplies the parenthesised pair in its comment first; another
    grouping would move entries by roundoff."""
    dim = d[0].dim + d[1].dim
    R = np.zeros((dim, dim, dim, dim))
    for A, O in (d, d[::-1]):
        a, o = A.own, O.own
        I = np.eye(A.dim)
        # own block: factor curvature plus a constant-curvature correction,
        # E[m, n, l, r] = delta_ml g_nr - delta_mr g_nl
        E = _outer4(I, A.g)
        R[a, a, a, a] = A.riem - _over(O.nw2, _sq(A.w)) * (E - E.transpose(0, 1, 3, 2))
        # even mixed blocks, upper index on this side: warp Hessians
        X = -(1.0 / O.w) * _outer4(I, O.H) - _over(A.w, _sq(O.w)) * _outer4(A.ginv @ A.H, O.g)
        R[a, o, a, o] = X
        R[a, o, o, a] = -X.transpose(0, 1, 3, 2)
        # odd blocks, proportional to d(ln f) x d(ln h)
        T = _outer4(I, O.lw[:, None] * A.lw)  # [a, m, b, g] = (lw_O[m] lw_A[g]) delta_ab
        R[a, o, a, a] = T - T.transpose(0, 1, 3, 2)
        V = _outer4(O.dwU[:, None] * A.lw, A.g)  # [c, m, n, l] = (dwU_O[c] lw_A[n]) g_A[l, m]
        R[o, a, a, a] = _over(O.w, _sq(A.w)) * (V - V.transpose(0, 1, 3, 2))
        # P[m, n, l, c] = (lw_O[c] lw_A[n]) delta_ml - (lw_O[c] g_A[l, n]) dwU_A[m] / w_A
        P = _outer4(I, A.lw[:, None] * O.lw) - (1.0 / A.w) * (
            (A.g.T[:, :, None] * O.lw)[None] * A.dwU[:, None, None, None] + 0.0  # as in _outer4
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
            - _over((A.dim - 1) * O.nw2 + O.w * O.lap, _sq(A.w)) * A.g
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
        contraction = np.einsum("ij,ij->", A.ginv / _sq(O.w), ric[a, a])
        direct = (
            _over(float(np.einsum("ij,ij->", A.ginv, A.ric)), _sq(O.w))
            - _over(2.0 * k * O.lap, O.w * _sq(A.w))
            - _over(k * (k - 1) * _over(O.nw2, _sq(O.w)), _sq(A.w))
        )
        paths.append((contraction, direct))
    (cB, dB), (cF, dF) = paths
    return float(cB + cF), dB + dF


@np.errstate(all="ignore")
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
    _finite((gamma, riem, ric), scal, direct)
    if abs(scal - direct) > 1e-10 * (1.0 + abs(scal)):
        raise NumericalInstabilityError(
            f"scalar curvature paths disagree: contraction {scal!r} vs direct {direct!r}"
        )
    if convention == "paper":
        riem = -riem
    return CurvatureBundle(gamma, riem, ric, scal, convention)
