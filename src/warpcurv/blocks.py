"""The closed form's curvature blocks as straight-line programs.

For h(y)^2 g_B + f(x)^2 g_F the paper writes every Riemann block in terms
of the factors' own curvature and the warps' derivatives.  build writes
each block formula once, for an own side A against the other side O, with
w_A the warp that lives on A (f on the base, h on the fiber), and makes
one program per side: the blocks that formula gives, side A's diagonal
Ricci block and its two terms of the scalar curvature.  For example

    R[A,O,A,O] = -(1/w_O) delta_A (x) Hess_O w_O - (w_A/w_O^2) (g_A^-1 Hess_A w_A) (x) g_O

gives R[B,F,B,F] on the base's side and R[F,B,F,B] on the fiber's.  The
odd blocks are proportional to d(ln f) d(ln h); the blocks with the upper
index alone in its factor against three of the other, and R[A,A,O,O], are
identically zero.

The leaves are closed_form._point_data's records at a point, flattened
(_leaves): each factor's metric g, its inverse, its Christoffels Gamma and
second metric derivatives DD, and each warp's value, its square, its
gradient, raised gradient, d(ln w) and Hessian, as far as they are not
constant.  A program derives the rest itself: the covariant Hessian H,
its Laplacian, |dw|^2, and the factor's Riemann tensor from Gamma and DD,

    R_abcd = Z_abcd - Z_abdc,
    Z_abcd = (d_b d_c g_ad - d_a d_c g_bd) / 2 + Gamma_{p,bc} Gamma^p_ad,

with Gamma_{p,bc} = g_pq Gamma^q_bc and the first index raised by g^-1.
It is written once per antisymmetric pair of pairs.  Inverse and
Christoffels stay numpy's, so a factor of any dimension, or with entries
beyond geometry._ADJUGATE_PEAK, runs the same program.

What does not vary is folded at build (split._fold, _sum): a constant
factor metric's g, g^-1 and Gamma are numbers and its curvature is zero,
a factor of dim 1 has no curvature, and a constant warp's derivatives are
zero (the record's constant).  Such a zero is never formed, so no inf meets it.

The Riemann tensor is in the 'common' convention.  A program outputs each
entry with c < d once, and each distinct value once; a table places it
and its mirror, with their signs, and another places the Ricci tensor's
upper triangle on both sides, so the Ricci tensor is symmetric bitwise.
Where a division meets an underflowed square, IEEE would give inf or nan:
the run raises, with the closed form's message.

closed_form imports this module with the first program it builds, at a
spec's first bundle_closed.
"""

from __future__ import annotations

import itertools
import math
from types import SimpleNamespace

import numpy as np

from .closed_form import _NOT_FINITE, _sq
from .errors import EvalDomainError
from .expr import Const, Var, _compile, _run
from .split import _fold, _sum


class Blocks:
    """A spec's two programs, base side then fiber side, the record arrays
    their leaves come from (fields, for _leaves), and where their outputs
    go: riemann (times signs, each 1.0 or -1.0) and ricci index the
    outputs and a trailing zero; scalars holds the positions of each
    side's (contraction, direct) terms."""

    __slots__ = ("programs", "fields", "riemann", "signs", "ricci", "scalars", "dim")

    def __init__(self, programs, fields, riemann, signs, ricci, scalars, dim):
        self.programs, self.fields = programs, fields
        self.riemann, self.signs, self.ricci = riemann, signs, ricci
        self.scalars, self.dim = scalars, dim

    def curvature(self, d) -> tuple:
        """(Riemann, Ricci, contraction, direct) from the point data d:
        the Riemann tensor in the 'common' convention, and the scalar
        curvature as the contraction of the Ricci tensor and by the
        direct warp formula.  Raises EvalDomainError unless every number
        is finite."""
        leaves = _leaves(self.fields, d)
        base, fiber = self.programs
        try:
            out = _run(base, leaves) + _run(fiber, leaves)
        except EvalDomainError:  # a division by an underflowed square
            raise EvalDomainError(_NOT_FINITE) from None
        if not all(map(math.isfinite, out)):
            raise EvalDomainError(_NOT_FINITE)
        cb, db, cf, df = [out[i] for i in self.scalars]
        out.append(0.0)
        v = np.array(out)
        n = self.dim
        riem = (v.take(self.riemann) * self.signs).reshape(n, n, n, n)
        return riem, v.take(self.ricci).reshape(n, n), cb + cf, db + df


def _leaves(fields, d) -> list:
    """The floats a program reads from the point data d: f, f^2, h and
    h^2, then the entries of each array that fields names, (record,
    attribute), in order."""
    B, F = d
    out = [B.w, _sq(B.w), F.w, _sq(F.w)]
    for i, name in fields:
        out += getattr(d[i], name).ravel().tolist()
    return out


def _node(value):
    """A number as a node, None for a zero."""
    return Const(float(value)) if value else None


def _symmetric(k: int, entry):
    """A symmetric k x k grid of entry(i, j), i <= j, mirrored."""
    grid = [[None] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            grid[i][j] = grid[j][i] = entry(i, j)
    return grid


def _metric(factor, A, take) -> SimpleNamespace:
    """The metric's g, g^-1, Gamma and DD as nested lists of nodes: for a
    constant metric numbers, None where zero, and DD None; else leaves,
    one for each symmetric pair of entries, and DD None for a factor of
    dim 1.  take(name, size) places one of A's arrays among the leaves."""
    k = factor.dim
    if factor._fold is not None:  # a constant metric: flat, and all numbers
        g, ginv, gamma = factor._fold
        return SimpleNamespace(
            g=[[_node(x) for x in row] for row in g],
            ginv=[[_node(x) for x in row] for row in ginv],
            gamma=[[[_node(x) for x in row] for row in block] for block in gamma],
            DD=None,
        )

    def grid(name, outer):
        """outer k x k grids, each symmetric, of one array's leaves."""
        at = take(name, outer * k * k)
        return [_symmetric(k, lambda i, j, o=o: Var(at + (o * k + i) * k + j))
                for o in range(outer)]

    (g,), (ginv,), gamma = grid("g", 1), grid("ginv", 1), grid("gamma", k)
    DD = None
    if A.DD is not None:  # DD[l][m][i][j] = d_l d_m g_ij, one node for (l, m) and (m, l)
        rows = grid("DD", k * k)
        DD = _symmetric(k, lambda l, m: rows[l * k + m])
    return SimpleNamespace(g=g, ginv=ginv, gamma=gamma, DD=DD)


def _warp(A, k: int, value: int, take) -> SimpleNamespace:
    """The leaves of record A's warp: w, w^2 (leaves value and value + 1),
    its gradient, raised gradient, d(ln w) and Hessian; numbers and zeros
    for a constant warp."""
    if A.constant:
        zeros = [None] * k
        return SimpleNamespace(w=Const(A.w), sq=Const(_sq(A.w)), dw=zeros, dwU=zeros,
                               lw=zeros, hess=[[None] * k for _ in range(k)])

    def vector(name):
        at = take(name, k)
        return [Var(at + i) for i in range(k)]

    dw, dwU, lw = vector("dw"), vector("dwU"), vector("lw")
    at = take("hess", k * k)
    hess = _symmetric(k, lambda i, j: Var(at + i * k + j))
    return SimpleNamespace(w=Var(value), sq=Var(value + 1), dw=dw, dwU=dwU, lw=lw, hess=hess)


def _factors(spec, d) -> tuple:
    """((base, fiber), fields): each factor's leaves and what a program
    derives from them, as nodes, and the arrays of the point data d that
    the leaves read (_leaves).  A constant metric or warp reads none."""
    out, fields, size = [], [], [4]  # f, f^2, h, h^2 first
    for i, (factor, first) in enumerate(((spec.base, 0), (spec.fiber, spec.base.dim))):
        def take(name, n, i=i):
            fields.append((i, name))
            size[0] += n
            return size[0] - n

        X = _metric(factor, d[i], take)
        vars(X).update(vars(_warp(d[i], factor.dim, 2 * i, take)))
        X.k, X.first = factor.dim, first
        _derived(X)
        out.append(X)
    return tuple(out), tuple(fields)


def _derived(X):
    """The covariant Hessian H = Hess w - dw . Gamma, its Laplacian,
    |dw|^2 and the factor's curvature."""
    k, ginv = X.k, X.ginv
    X.H = _symmetric(k, lambda i, j: _fold(
        "-", X.hess[i][j], _sum(_fold("*", X.dw[q], X.gamma[q][i][j]) for q in range(k))))
    X.lap = _sum(_fold("*", ginv[i][j], X.H[i][j]) for i in range(k) for j in range(k))
    X.nw2 = _sum(_fold("*", X.dw[i], X.dwU[i]) for i in range(k))
    X.riem, X.ric = _curvature(X) if X.DD is not None else ({}, {})


def _signed_sum(terms):
    """sum of sign * node over (sign, node) terms."""
    out = None
    for sign, node in terms:
        out = _fold("+" if sign > 0 else "-", out, node)
    return out


def _curvature(X) -> tuple:
    """The factor's Riemann tensor R^e_bcd for c < d, and its Ricci tensor
    for b <= d, as dicts of nodes.  The lowered tensor W_abcd = R_abcd is
    computed once for each pair of pairs a < b, c < d and read with its
    symmetries."""
    k, g, gamma, DD = X.k, X.g, X.gamma, X.DD
    lowered = [_symmetric(k, lambda b, c, p=p: _sum(
        _fold("*", g[p][q], gamma[q][b][c]) for q in range(k))) for p in range(k)]

    def Z(a, b, c, d):
        half = _fold("*", Const(0.5), _fold("-", DD[b][c][a][d], DD[a][c][b][d]))
        return _fold("+", half, _sum(_fold("*", lowered[p][b][c], gamma[p][a][d])
                                     for p in range(k)))

    pairs = list(itertools.combinations(range(k), 2))
    W = {}
    for i, (a, b) in enumerate(pairs):
        for c, d in pairs[i:]:
            W[a, b, c, d] = _fold("-", Z(a, b, c, d), Z(a, b, d, c))

    def lowered_at(a, b, c, d):  # c < d
        if a == b:
            return 1, None
        sign = 1
        if a > b:
            a, b, sign = b, a, -sign
        return sign, W[min((a, b, c, d), (c, d, a, b))]

    riem = {}
    for e, b, (c, d) in itertools.product(range(k), range(k), pairs):
        terms = []
        for a in range(k):
            sign, w = lowered_at(a, b, c, d)
            terms.append((sign, _fold("*", X.ginv[e][a], w)))
        riem[e, b, c, d] = _signed_sum(terms)

    def riem_at(e, b, c, d):
        if c == d:
            return 1, None
        return (1, riem[e, b, c, d]) if c < d else (-1, riem[e, b, d, c])

    ric = {(b, d): _signed_sum(riem_at(a, b, a, d) for a in range(k))
           for b in range(k) for d in range(b, k)}
    return riem, ric


def _minus(a, b) -> tuple:
    """(node, sign) of a - b."""
    return (b, -1) if a is None else (_fold("-", a, b), 1)


def _side(A, O, lwlw, dim: int) -> tuple:
    """The outputs of side A against O: {(a, b, c, d), c < d: (node, sign)}
    for the Riemann entries, {(i, j), i <= j: node} for the Ricci entries,
    and the (contraction, direct) terms of the scalar curvature."""
    riem, ric = {}, {}
    k, l = A.k, O.k
    a0, o0 = A.first, O.first

    def put(a, b, c, d, node, sign=1):
        if node is not None:
            if c > d:
                c, d, sign = d, c, -sign
            riem[a, b, c, d] = (node, sign)

    # own block: the factor's curvature plus a constant-curvature
    # correction, E[m, n, x, y] = delta_mx g_ny - delta_my g_nx
    own = _fold("/", O.nw2, A.sq)
    for m, n, (x, y) in itertools.product(range(k), range(k), itertools.combinations(range(k), 2)):
        node, sign = A.riem.get((m, n, x, y)), 1
        if m == x:
            node, sign = _minus(node, _fold("*", own, A.g[n][y]))
        elif m == y:
            node = _fold("+", node, _fold("*", own, A.g[n][x]))
        put(a0 + m, a0 + n, a0 + x, a0 + y, node, sign)

    # even mixed blocks, upper index on A: the warps' Hessians
    inverse = _fold("-", None, _fold("/", Const(1.0), O.w))
    scale = _fold("/", A.w, O.sq)
    for m, n in itertools.product(range(k), repeat=2):
        c = _fold("*", scale, _sum(_fold("*", A.ginv[m][p], A.H[p][n]) for p in range(k)))
        for x in range(l):
            for y in range(x, l):
                t = _fold("*", c, O.g[x][y])
                node, sign = _minus(_fold("*", inverse, O.H[x][y]) if m == n else None, t)
                put(a0 + m, o0 + x, a0 + n, o0 + y, node, sign)
                put(a0 + m, o0 + y, a0 + n, o0 + x, node, sign)

    # the odd blocks, proportional to d(ln f) x d(ln h):
    # R[a, o, x, y] = lw_O[o] (lw_A[y] delta_ax - lw_A[x] delta_ay)
    for a, o, (x, y) in itertools.product(range(k), range(l), itertools.combinations(range(k), 2)):
        if a == x:
            put(a0 + a, o0 + o, a0 + x, a0 + y, lwlw(A, y, O, o))
        elif a == y:
            put(a0 + a, o0 + o, a0 + x, a0 + y, lwlw(A, x, O, o), -1)
    # R[o, m, x, y] = (w_O / w_A^2) dwU_O[o] (lw_A[x] g_A[m, y] - lw_A[y] g_A[m, x])
    scale = _fold("/", O.w, A.sq)
    for o in range(l):
        q = [_fold("*", scale, _fold("*", O.dwU[o], A.lw[n])) for n in range(k)]
        for m, (x, y) in itertools.product(range(k), itertools.combinations(range(k), 2)):
            node, sign = _minus(_fold("*", q[x], A.g[m][y]), _fold("*", q[y], A.g[m][x]))
            put(o0 + o, a0 + m, a0 + x, a0 + y, node, sign)
    # R[m, n, x, o] = lw_A[n] lw_O[o] delta_mx - (dwU_A[m] / w_A) g_A[x, n] lw_O[o]
    inverse = _fold("/", Const(1.0), A.w)
    up = [_fold("*", inverse, A.dwU[m]) for m in range(k)]
    for o in range(l):
        gl = _symmetric(k, lambda x, n: _fold("*", A.g[x][n], O.lw[o]))
        for m, n, x in itertools.product(range(k), repeat=3):
            t = _fold("*", up[m], gl[x][n])
            node, sign = _minus(lwlw(A, n, O, o) if m == x else None, t)
            put(a0 + m, a0 + n, a0 + x, o0 + o, node, sign)

    # Ricci, own block
    dims = _fold("/", Const(float(l)), A.w)
    rest = _fold("+", _fold("*", Const(float(k - 1)), O.nw2), _fold("*", O.w, O.lap))
    rest = _fold("/", rest, A.sq)
    for i in range(k):
        for j in range(i, k):
            node = _fold("-", A.ric.get((i, j)), _fold("*", dims, A.H[i][j]))
            ric[a0 + i, a0 + j] = _fold("-", node, _fold("*", rest, A.g[i][j]))
    if a0 == 0:  # the cross block once, on the base's side
        for i in range(k):
            for o in range(l):
                ric[i, o0 + o] = _fold("*", Const(float(dim - 2)), lwlw(A, i, O, o))

    # the scalar: side A's term of the contraction, and of the direct formula
    # R = sum over sides of tr_A(Ric_A) / w_O^2 - 2k lap_O / (w_O w_A^2)
    #     - k (k - 1) (|dw_O|^2 / w_O^2) / w_A^2
    def trace(t):
        return _sum(_fold("*", A.ginv[i][j], t(min(i, j), max(i, j)))
                    for i in range(k) for j in range(k))

    contraction = _fold("/", trace(lambda i, j: ric[a0 + i, a0 + j]), O.sq)
    direct = _fold("-", _fold(
        "-", _fold("/", trace(lambda i, j: A.ric.get((i, j))), O.sq),
        _fold("/", _fold("*", Const(2.0 * k), O.lap), _fold("*", O.w, A.sq))),
        _fold("/", _fold("*", Const(float(k * (k - 1))), _fold("/", O.nw2, O.sq)), A.sq))
    return riem, ric, (contraction, direct)


def build(spec, d) -> Blocks:
    """spec's curvature programs, from point data d of the spec: one per
    side, and the tables that place their outputs."""
    (B, F), fields = _factors(spec, d)
    products = {}

    def lwlw(A, i, O, o):
        """d(ln w_A)_i d(ln w_O)_o, one node for both sides."""
        key = (i, o) if A is B else (o, i)
        if key not in products:
            products[key] = _fold("*", B.lw[key[0]], F.lw[key[1]])
        return products[key]

    dim = spec.dim
    programs, places, riem, ric, scalars = [], {}, {}, {}, []

    def place(node, outs):
        """node's position among both programs' outputs, added to outs, the
        current program's, where it is new."""
        if id(node) not in places:
            places[id(node)] = len(places)
            outs.append((node, None))
        return places[id(node)]

    for A, O in ((B, F), (F, B)):
        r, c, terms = _side(A, O, lwlw, dim)
        outs = []
        riem.update({at: (place(node, outs), sign) for at, (node, sign) in r.items()})
        ric.update({at: place(node, outs) for at, node in c.items() if node is not None})
        # a fresh zero each, so that the four terms keep their own places
        scalars += [place(Const(0.0) if t is None else t, outs) for t in terms]
        programs.append(_compile(outs))
    zero = len(places)  # the trailing zero
    riemann, signs = np.full(dim**4, zero), np.ones(dim**4)
    for (a, b, c, e), (i, sign) in riem.items():
        at, mirror = ((a * dim + b) * dim + c) * dim + e, ((a * dim + b) * dim + e) * dim + c
        riemann[at] = riemann[mirror] = i
        signs[at], signs[mirror] = sign, -sign
    ricci = np.full(dim * dim, zero)
    for (i, j), index in ric.items():
        ricci[i * dim + j] = ricci[j * dim + i] = index
    return Blocks(tuple(programs), fields, riemann, signs, ricci, tuple(scalars), dim)
