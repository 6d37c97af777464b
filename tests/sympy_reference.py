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
