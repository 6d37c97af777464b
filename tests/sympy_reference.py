"""Derivatives from sympy, for the test suite.

sympy differentiates the expression's own tree, and lambdify evaluates the
result with math.  Nothing is shared with the package's differentiator
(derivative trees from expr._DERIVATIVES), so the package's gradients and
Hessians are held to these.  sympy is a test-only dependency: a module
that imports this one is skipped without it.
"""

import math

import numpy as np
import pytest

sympy = pytest.importorskip("sympy")

from warpcurv.expr import BinOp, Call, Const, Neg, Var, _postfix  # noqa: E402

_OPS = {"+": lambda a, b: a + b, "-": lambda a, b: a - b, "*": lambda a, b: a * b,
        "/": lambda a, b: a / b, "^": lambda a, b: a**b}


def to_sympy(expr, symbols):
    """The expression tree as a sympy expression in the given symbols."""
    stack = []
    for _, _, node in _postfix(expr.root):
        kind = type(node)
        if kind is Const:
            stack.append(sympy.Float(node.value, 20))
        elif kind is Var:
            stack.append(symbols[node.index])
        elif kind is Neg:
            stack.append(-stack.pop())
        elif kind is Call:
            # unevaluated: sympy would reduce sin(1e308) to a multiple of
            # pi at a precision it cannot reach
            stack.append(getattr(sympy, node.name)(stack.pop(), evaluate=False))
        else:
            assert kind is BinOp
            right = stack.pop()
            stack.append(_OPS[node.op](stack.pop(), right))
    return stack.pop()


def jet_reference(expr):
    """point -> (value, gradient, Hessian) of expr from sympy's derivatives,
    or None where one of them is not a finite real number, or everywhere
    when sympy cannot build them."""
    k = expr.arity
    xs = sympy.symbols(f"x0:{k}") if k else ()
    try:
        value = to_sympy(expr, xs)
        grad = [sympy.diff(value, x) for x in xs]
        hess = [sympy.diff(g, x) for g in grad for x in xs]
        f = sympy.lambdify([xs], [value, *grad, *hess], modules="math")
    except (ValueError, ZeroDivisionError, OverflowError, TypeError):
        return lambda point: None

    def at(point):
        try:
            out = [complex(v) for v in f([float(c) for c in point])]
        except (ValueError, ZeroDivisionError, OverflowError, TypeError):
            return None
        if any(v.imag or not math.isfinite(v.real) for v in out):
            return None
        out = np.array([v.real for v in out])
        return out[0], out[1 : k + 1], out[k + 1 :].reshape(k, k)

    return at


def _assembled_metric(spec, symbols):
    """h(y)^2 g_B + f(x)^2 g_F as a sympy matrix in the product
    coordinates, base first."""
    m, n = spec.base.dim, spec.fiber.dim
    xs, ys = symbols[:m], symbols[m:]
    f, h = to_sympy(spec.f, xs), to_sympy(spec.h, ys)
    g = sympy.zeros(m + n, m + n)
    for factor, own, scale, at in ((spec.base, xs, h**2, 0), (spec.fiber, ys, f**2, m)):
        for i in range(factor.dim):
            for j in range(factor.dim):
                g[at + i, at + j] = scale * to_sympy(factor.components[i][j], own)
    return g


def curvature_reference(spec):
    """point -> (Christoffels [k, i, j], Riemann R^a_bcd in the 'common'
    convention, Ricci, scalar) of the assembled metric, from sympy's
    derivatives of the manifest's own expressions:

        Gamma^k_ij = g^kl (d_i g_jl + d_j g_il - d_l g_ij) / 2,
        R^a_bcd = d_c Gamma^a_db - d_d Gamma^a_cb
                  + Gamma^a_ce Gamma^e_db - Gamma^a_de Gamma^e_cb,

    Ric_bd = R^a_bad and the scalar g^bd Ric_bd, evaluated with math.
    Nothing here uses the warped structure beyond assembling the metric,
    and nothing is shared with the package's differentiator."""
    d = spec.dim
    zs = sympy.symbols(f"z0:{d}")
    g = _assembled_metric(spec, zs)
    ginv = g.inv()  # block diagonal, a factor's block of dim <= 3
    dg = [[[sympy.diff(g[i, j], z) for z in zs] for j in range(d)] for i in range(d)]
    gamma = [[[sum(ginv[k, l] * (dg[j][l][i] + dg[i][l][j] - dg[i][j][l]) for l in range(d)) / 2
               for j in range(d)] for i in range(d)] for k in range(d)]
    dgamma = [[[[sympy.diff(gamma[a][b][c], z) for z in zs] for c in range(d)]
               for b in range(d)] for a in range(d)]
    riem = [[[[dgamma[a][d_][b][c] - dgamma[a][c][b][d_]
               + sum(gamma[a][c][e] * gamma[e][d_][b] - gamma[a][d_][e] * gamma[e][c][b]
                     for e in range(d))
               for d_ in range(d)] for c in range(d)] for b in range(d)] for a in range(d)]
    ric = [[sum(riem[a][b][a][c] for a in range(d)) for c in range(d)] for b in range(d)]
    scalar = sum(ginv[b, c] * ric[b][c] for b in range(d) for c in range(d))
    flat = [e for block in gamma for row in block for e in row]
    flat += [e for a in riem for b in a for c in b for e in c]
    flat += [e for row in ric for e in row] + [scalar]
    f = sympy.lambdify([zs], flat, modules="math", cse=True)

    def at(point):
        out = np.array([float(v) for v in f([float(c) for c in point])])
        return (out[: d**3].reshape(d, d, d), out[d**3 : d**3 + d**4].reshape(d, d, d, d),
                out[d**3 + d**4 : -1].reshape(d, d), out[-1])

    return at
