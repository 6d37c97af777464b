"""First derivatives of expressions as expression trees.

gradient_nodes writes each partial derivative of a tree as a tree of its
own, by the chain rules that forward mode applies (expr's _RULES), with
the derivative of each function from expr._DERIVATIVES.  A program over
such trees runs at order 0, on floats alone, gives forward mode's
gradient up to the sign of a zero, and raises where forward mode raises,
with one gap: an overflow that forward mode multiplies by a zero gradient
entry, where the tree has no term at all, leaves forward mode a nan, and
so an error, and the tree a finite number.

The geodesic programs are the one user; the split module imports this one
with the first program it builds.
"""

from __future__ import annotations

import operator

from .expr import (
    _DERIVATIVES,
    _OP_BIN,
    _OP_CALL,
    _OP_CONST,
    _OP_VAR,
    BinOp,
    Call,
    Const,
    Neg,
    Node,
    _postfix,
)

# A derivative is None where it is zero by structure, and _ONE where it is
# exactly one (a variable by itself); only these fold.  A literal 0 or 1 of
# the source stays, so 0*sqrt(x0) still takes sqrt's derivative at 0, as
# forward mode does.

_ONE = Const(1.0)


def _tagged(node: Node, origin: Node) -> Node:
    node.origin = origin
    return node


def _d(op: str, a, b, origin):
    """a op b in a derivative tree: for + and - two derivatives, for * a
    tree times a derivative, for / a derivative over a tree."""
    if op == "*":
        if b is None:
            return None
        if b is _ONE:
            return a
    elif op == "/":
        if a is None:
            return None
    elif b is None:
        return a
    elif a is None:
        return _tagged(Neg(b), origin) if op == "-" else b
    return _tagged(BinOp(op, a, b), origin)


def gradient_nodes(root: Node, variables, guards: list) -> list:
    """[d root / dx_v for v in variables], each a tree or None where it is
    zero by structure.

    Each rule is forward mode's chain rule written as a tree, operand for
    operand, so the trees compute what value_and_gradient computes.  A
    subtree that forward mode carries as a float (no variable, or raised
    to a constant power equal to 0) has no derivative; where such a power
    drops its base's derivatives, forward mode has computed them all the
    same, so they are appended to guards, for a program that must raise
    where forward mode raises.  The nodes of a derivative carry the source
    node whose rule made them as their origin.  The walk is iterative, so
    a deep tree cannot reach the recursion limit.
    """
    k = len(variables)
    static = {}  # id -> the value of a subtree forward mode carries as a float, None if it raises
    grads = {}  # id -> its derivatives, for the other subtrees
    for code, arg, node in _postfix(root):
        key = id(node)
        if key in static or key in grads:
            continue
        if code is _OP_CONST:
            static[key] = arg
            continue
        if code is _OP_VAR:
            grads[key] = [_ONE if arg == v else None for v in variables]
            continue
        if code is _OP_BIN:
            lk, rk = id(node.left), id(node.right)
            if lk in static and rk in static:
                static[key] = _static(arg[0], static[lk], static[rk])
                continue
            if node.op == "^" and rk in static and static[rk] == 0.0:
                static[key] = 1.0
                guards.extend(g for g in grads[lk] if g is not None and g is not _ONE)
                continue
            grads[key] = _binary_gradient(node, grads.get(lk), grads.get(rk), k)
            continue
        ak = id(node.arg)
        if ak in static:
            f = arg[0] if code is _OP_CALL else operator.neg
            static[key] = _static(f, static[ak])
            continue
        if code is _OP_CALL:
            fp = _tagged(_DERIVATIVES[node.name](node.arg, node), node)
            grads[key] = [_d("*", fp, g, node) for g in grads[ak]]
        else:
            grads[key] = [None if g is None else _tagged(Neg(g), node) for g in grads[ak]]
    return grads.get(id(root)) or [None] * k


def _static(f, *values):
    if None in values:
        return None
    try:
        return f(*values)
    except (ValueError, ZeroDivisionError, OverflowError):
        return None


def _binary_gradient(node: BinOp, gl, gr, k: int) -> list:
    """The derivatives of a binary node one of whose operands reads a
    variable; gl or gr is None for an operand forward mode carries as a
    float."""
    op, left, right = node.op, node.left, node.right
    if op == "/" and gl is None:
        t = _tagged(BinOp("/", _tagged(Neg(node), node), right), node)
    elif op == "^" and gr is None:
        # constant exponent p: p a^(p-1) a'
        p1 = _tagged(BinOp("-", right, Const(1.0)), node)
        t = _tagged(BinOp("*", right, _tagged(BinOp("^", left, p1), node)), node)
    elif op == "^":
        # variable exponent: a^b (b' log a + b a'/a), log asking for a > 0
        log = _tagged(Call("log", left), node)
        inv = _tagged(BinOp("/", Const(1.0), left), node)
    out = []
    for a, b in zip(gl or [None] * k, gr or [None] * k):
        if op == "+":
            d = _d("+", a, b, node)
        elif op == "-":
            d = _d("-", a, b, node)
        elif op == "*":
            d = _d("+", _d("*", right, a, node), _d("*", left, b, node), node)
        elif op == "/":
            if gl is None:
                d = _d("*", t, b, node)
            else:
                d = _d("/", _d("-", a, _d("*", node, b, node), node), right, node)
        elif gr is None:
            d = _d("*", t, a, node)
        else:
            z = _d("+", _d("*", log, b, node), _d("*", right, _d("*", inv, a, node), node), node)
            d = _d("*", node, z, node)
        out.append(d)
    return out
