"""The geodesic acceleration as one straight-line program per route.

For each factor A against the other factor O, with w_A the warp that lives
on A (f on the base, h on the fiber), the paper's factor form is

    a_A = -Gamma_A(v_A, v_A) + (w_A / w_O^2) <v_O, v_O>_O grad_A w_A
          - 2 (d ln w_O / ds) v_A,

an explicit function of the 2d numbers (x, v).  build writes it as one
program, which expr runs as a generated kernel.  Both routes share the
factor part (_factor): the factor metrics' entries, their adjugate
determinants and the warps, each followed by its derivative trees (the
derivative module, whose outputs_of writes each group) and checked as
_point_data checks it, each check's error stated by kernel._finish.  They
differ only in the acceleration, with the inverse metric as the adjugate
over the determinant in both:

- "split" contracts the lowered factor Christoffels with the velocity
  first and divides by the determinant once (_split_nodes);
- "full" writes the closed form's assembled product Christoffel blocks,
  each once per side, and contracts them (_full_nodes).

Each repeated subtree is computed once.  geodesics imports this module
with the first program it builds, on a route's first right-hand side for
a spec; Program.values is then one run per point, and Program.step, once
integrate has built it, one RK4 step.
"""

from __future__ import annotations

import operator
from types import SimpleNamespace

from .derivative import outputs_of
from .errors import DegenerateMetricError, NonpositiveWarpError
from .expr import _BINARY, BinOp, Const, Neg, Var, _compile, _run, reindex
from .geometry import MetricSpec, _Fallback, _constant_value
from .kernel import _finish
from .warped import WarpedProductSpec


class Program:
    """A route's program for a spec, with what its values place: places
    holds the flat positions of g_B's entries, g_F's, f and h in the
    program's outputs + tail (the constant entries and warps), and gather
    takes them from there.  step is its RK4 step kernel (kernel.step),
    built at the first step of integrate over it."""

    __slots__ = ("program", "places", "gather", "m", "n", "step")

    def __init__(self, program, places, m, n):
        self.program, self.places, self.m, self.n = program, places, m, n
        self.gather = operator.itemgetter(*places)
        self.step = None

    def values(self, y: list) -> list:
        """The checked outputs at the state y = [*x, *v]."""
        return _run(self.program, y)


def _fails(check, value) -> bool:
    try:
        _finish(check, [value])
    except (DegenerateMetricError, NonpositiveWarpError, _Fallback):
        return True
    return False


def _exact(op: str, a, b):
    """a op b, folded only where both are constants: the determinant is
    computed as _adjugate computes it, for the same verdict and message."""
    if type(a) is Const and type(b) is Const:
        try:
            return Const(_BINARY[op][0](a.value, b.value))
        except ZeroDivisionError:  # left to raise where it runs
            pass
    return BinOp(op, a, b)


def _fold(op: str, a, b):
    """a op b in the acceleration, None standing for zero: zeros and ones
    fold, and so does an operation on two constants."""
    if type(a) is Const and a.value == 0.0:
        a = None
    if op != "/" and type(b) is Const and b.value == 0.0:
        b = None
    if op in "*/":
        if a is None or b is None:
            return None
        if type(b) is Const and b.value == 1.0:
            return a
        if type(a) is Const and a.value == 1.0 and op == "*":
            return b
    elif b is None:
        return a
    elif a is None:
        return b if op == "+" else Const(-b.value) if type(b) is Const else Neg(b)
    return _exact(op, a, b)


def _sum(terms):
    out = None
    for t in terms:
        out = _fold("+", out, t)
    return out


def _factor(factor: MetricSpec, warp, which: str, offset: int, arity: int, outs, tail):
    """One factor's part of either route's program: its metric entries,
    then their determinant, then the warp that lives on it.  A live entry
    or warp is an output group (derivative.outputs_of) of its value and
    first derivatives, closed by ("finite", expr, n, "value or gradient")
    or ("warp", expr, n, which); a constant one goes to tail instead, and
    a check on constants that passes is not repeated at every run.  outs
    holds (tree, check) pairs, each check one for kernel._finish, or
    None."""
    k = factor.dim
    own = range(offset, offset + k)

    def place(expr, check):
        """(node, where its value is, derivatives): the index of its value's
        output, or -1 - its index in tail."""
        c = _constant_value(expr)
        if c is not None:
            tail.append(c)
            return Const(c), -len(tail), [None] * k
        node = reindex(expr, offset, arity).root if offset else expr.root
        entries, where = outputs_of(outs, node, own, 1, check)
        return node, where[id(node)], entries[1:]

    g = [[None] * k for _ in range(k)]
    dg = [[None] * k for _ in range(k)]
    refs = [[None] * k for _ in range(k)]
    live, peak = [], 0.0
    for i in range(k):
        for j in range(i, k):
            e = factor.components[i][j]
            node, ref, grad = place(e, ("finite", e, "value or gradient"))
            g[i][j] = g[j][i] = node
            dg[i][j] = dg[j][i] = grad
            refs[i][j] = refs[j][i] = ref
            if ref >= 0:
                live.append(ref)
            else:
                peak = max(peak, abs(node.value))
    det = _determinant(g)
    check = ("det", k, live, peak)
    if type(det) is not Const or _fails(check, det.value):
        outs.append((det, check))
    w, wref, dw = place(warp, ("warp", warp, which))
    check = ("warp", warp, 1, which)
    if wref < 0 and _fails(check, w.value):
        outs.append((w, check))
    v = [Var(arity + i) for i in own]
    # (a, b, v_a v_b) over a <= b: the terms of a quadratic form in v
    pairs = [(a, b, _fold("*", v[a], v[b])) for a in range(k) for b in range(a, k)]
    return SimpleNamespace(
        k=k, g=g, dg=dg, refs=refs, det=det, w=w, wref=wref, dw=dw, v=v, pairs=pairs
    )


def _determinant(g):
    """_adjugate's determinant of a dim <= 3 grid of nodes, operation for
    operation."""
    k = len(g)
    if k == 1:
        return g[0][0]
    if k == 2:
        return _exact("-", _exact("*", g[0][0], g[1][1]), _exact("*", g[0][1], g[1][0]))
    (p, q, r), (s, t, u), (v, w, x) = g
    c00 = _exact("-", _exact("*", t, x), _exact("*", u, w))
    c01 = _exact("-", _exact("*", u, v), _exact("*", s, x))
    c02 = _exact("-", _exact("*", s, w), _exact("*", t, v))
    return _exact("+", _exact("+", _exact("*", p, c00), _exact("*", q, c01)), _exact("*", r, c02))


def _adjugate_nodes(g):
    """The adjugate of a symmetric dim <= 3 grid of nodes, symmetric."""
    k = len(g)
    if k == 1:
        return [[Const(1.0)]]
    adj = [[None] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            minor = [[g[r][s] for s in range(k) if s != i] for r in range(k) if r != j]
            if k == 2:
                cof = minor[0][0]
            else:
                (a, b), (c, d) = minor
                cof = _fold("-", _fold("*", a, d), _fold("*", b, c))
            adj[i][j] = adj[j][i] = cof if (i + j) % 2 == 0 else _fold("-", None, cof)
    return adj


def _lowered(A):
    """[l][p]: the lowered Christoffel Gamma_{l,ab} of each pair p = (a, b),
    a <= b, doubled where a != b, since a contraction over the pairs meets
    (a, b) and (b, a) there: Gamma_{l,aa} = d_a g_la - d_l g_aa / 2, and
    2 Gamma_{l,ab} = d_a g_lb + d_b g_la - d_l g_ab.  Where l is a or b,
    two of those terms cancel and are left out."""
    dg, out = A.dg, []
    for l in range(A.k):
        row = []
        for a, b, _ in A.pairs:
            if a == b == l:
                gamma = _fold("*", Const(0.5), dg[l][l][l])
            elif a == b:
                gamma = _fold("-", dg[l][a][a], _fold("*", Const(0.5), dg[a][a][l]))
            elif l in (a, b):
                # 2 Gamma_{a,ab} = d_b g_aa, and 2 Gamma_{b,ab} = d_a g_bb
                gamma = dg[l][l][b if l == a else a]
            else:
                gamma = _fold("-", _fold("+", dg[l][b][a], dg[l][a][b]), dg[a][b][l])
            row.append(gamma)
        out.append(row)
    return out


def _contract(coefficients, A):
    """sum over the pairs p of coefficients[p] v_a v_b."""
    return _sum(_fold("*", c, vv) for c, (_, _, vv) in zip(coefficients, A.pairs))


def _norm(O):
    """<v_O, v_O>_O, the diagonal pairs first."""
    diagonal = _sum(_fold("*", O.g[a][a], vv) for a, b, vv in O.pairs if a == b)
    rest = _sum(_fold("*", O.g[a][b], vv) for a, b, vv in O.pairs if a != b)
    return _fold("+", diagonal, _fold("*", Const(2.0), rest))


def _split_nodes(A, O):
    """The factor form a_A = g_A^-1 (c_A dw_A - L) - 2 (d ln w_O / ds) v_A,
    with c_A = (w_A / w_O^2) <v_O, v_O>_O and L_l = Gamma_{l,ab} v^a v^b:
    the lowered Christoffels are contracted with the velocity first, and
    the adjugate is applied before the one division by the determinant."""
    k = A.k
    L = [_contract(row, A) for row in _lowered(A)]
    force = None
    if any(d is not None for d in A.dw):
        force = _fold("*", _fold("/", A.w, _exact("*", O.w, O.w)), _norm(O))
    R = [_fold("-", _fold("*", force, A.dw[l]), L[l]) for l in range(k)]
    rate = _fold("/", _sum(_fold("*", O.dw[j], O.v[j]) for j in range(O.k)), O.w)
    rate = _fold("*", Const(2.0), rate)
    adj = _adjugate_nodes(A.g)
    return [
        _fold("-", _fold("/", _sum(_fold("*", adj[i][l], R[l]) for l in range(k)), A.det),
              _fold("*", rate, A.v[i]))
        for i in range(k)
    ]


def _full_nodes(A, O):
    """a_k = -G^k_ij v^i v^j for k on side A, over the assembled blocks
    with the upper index on A, as closed_form._christoffels_from_data
    writes them: the factor's Christoffels Gamma^k_ab = (g_A^-1)_kl
    Gamma_{l,ab}, with g_A^-1 the adjugate over the determinant;
    G[A,O,O] = -(w_A / w_O^2) (g_A^-1 dw_A) (x) g_O; and G[k,k,o] =
    G[k,o,k] = d_o w_O / w_O."""
    k = A.k
    adj = _adjugate_nodes(A.g)
    inv = [[_fold("/", adj[i][l], A.det) for l in range(k)] for i in range(k)]
    lowered = _lowered(A)
    gamma = [[_sum(_fold("*", inv[i][l], row[p]) for l, row in enumerate(lowered))
              for p in range(len(A.pairs))] for i in range(k)]  # [k][p] = Gamma^k_ab
    own = [_contract(row, A) for row in gamma]
    other = [None] * k
    if any(d is not None for d in A.dw):
        scale = _fold("*", _fold("-", None, _fold("/", A.w, _exact("*", O.w, O.w))), _norm(O))
        other = [_fold("*", _sum(_fold("*", inv[i][l], A.dw[l]) for l in range(k)), scale)
                 for i in range(k)]
    rate = _sum(_fold("*", _fold("/", O.dw[o], O.w), O.v[o]) for o in range(O.k))
    rate = _fold("*", Const(2.0), rate)
    return [_fold("-", None, _sum((own[i], other[i], _fold("*", rate, A.v[i]))))
            for i in range(k)]


_ROUTES = {"split": _split_nodes, "full": _full_nodes}


def build(spec: WarpedProductSpec, route: str):
    """The Program of a route, "split" or "full", or False when a factor
    has dim > 3.

    The program runs at order 0 over the 2d leaves (x, v).  Its outputs
    come in _point_data's check order: the base metric's live entries and
    its determinant, f, the fiber's, h, each live one followed by its
    derivatives, then the d entries of the acceleration.  values + tail
    hold every entry of both factor metrics and both warps, and places
    finds them for geodesics._norm.
    """
    m, n = spec.base.dim, spec.fiber.dim
    if max(m, n) > 3:
        return False
    dim = m + n
    outs, tail = [], []
    B = _factor(spec.base, spec.f, "f", 0, dim, outs, tail)
    F = _factor(spec.fiber, spec.h, "h", m, dim, outs, tail)
    # the acceleration is left unchecked: integrate finds a non-finite one
    # in the next stage's state, and the public right-hand sides check it
    accel = _ROUTES[route]
    outs += [(Const(0.0) if a is None else a, None)
              for A, O in ((B, F), (F, B)) for a in accel(A, O)]

    def index(ref):
        return ref if ref >= 0 else len(outs) - 1 - ref

    places = [index(r) for X in (B, F) for row in X.refs for r in row]
    places += [index(B.wref), index(F.wref)]
    return Program(_compile(outs, tail), places, m, n)
