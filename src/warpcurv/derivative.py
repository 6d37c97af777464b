"""Derivatives of expressions as expression trees: the package's one
differentiator.

gradient_nodes writes each partial derivative of a tree as a tree of its
own, by the chain rule, with the derivative of each function from
expr._DERIVATIVES.  jet_nodes applies it twice for second derivatives:
Hessian entry (i, j), i <= j, is the derivative tree of the i-th
first-derivative tree, and entry (j, i) is the same tree, so a Hessian is
bitwise symmetric.  outputs_of writes one expression's trees as a group
of a program's outputs, closed by its check (kernel._finish); derived
compiles the groups of many expressions up to an order, 0, 1 or 2, into
one program, which expr runs as a generated kernel on floats or on numpy
columns.  Every evaluator runs such programs:
expr's evaluate, value_and_gradient and jet2, geometry's metric grids (at a
point and in the oracle's stencil kernels), the closed form's warps, and the
geodesic programs of the split module.

A program raises where one of its operations leaves the domain, so the
domain narrows with the order by itself.  A power u^0 is 1 whatever u is,
and its derivatives are zero, but they exist only where u's do: u's
derivatives up to the order are guards, outputs that are computed and
dropped, so that the program raises there.  They run after the value, so
where the value fails as well, the error is evaluate's.  One gap: where
an overflow would be multiplied by a derivative that is zero by
structure, the tree has no such term, so it gives a finite number where
the product inf * 0 would be nan.
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
    _compile,
    _postfix,
)

# A derivative is None where it is zero by structure, and _ONE where it is
# exactly one (a variable by itself); only these fold.  A literal 0 or 1 of
# the source stays, so 0*sqrt(x0) still takes sqrt's derivative at 0.

_ONE = Const(1.0)


def _tagged(node: Node, origin: Node) -> Node:
    """node, made by the rule of origin; a node of a derivative tree passes
    on its own origin, so an error names a node of the source."""
    node.origin = getattr(origin, "origin", origin)
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


def gradient_nodes(root: Node, variables, guards: list, memo=None) -> list:
    """[d root / dx_v for v in variables], each a tree or None where it is
    zero by structure.

    A subtree that reads no variable, or is raised to a constant power
    equal to 0, is static: it has no derivative.  Where such a power drops
    its base's derivatives, they are appended to guards.  The nodes of a
    derivative carry the source node whose rule made them as their origin.
    The walk is iterative, so a deep tree cannot reach the recursion limit.
    Calls that pass one memo over the same variables share what they have
    walked: a subtree met again gets the same derivative trees.
    """
    k = len(variables)
    # id -> the value of a static subtree, None if it raises; id -> the
    # derivatives of any other subtree; the ids walked
    static, grads, done = memo or ({}, {}, set())
    for code, arg, node in _postfix(root, done):
        key = id(node)
        if key in done:
            continue
        done.add(key)
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
                guards.extend(g for g in grads[lk] if g is not None and type(g) is not Const)
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
    variable; gl or gr is None for a static operand."""
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


def jet_nodes(root: Node, variables, order: int, guards: list) -> list:
    """[root, *gradient, *Hessian in row-major order], as far as order (0,
    1 or 2) goes, each entry a tree or None where it is zero by structure.
    The guards of every derivative are appended to guards; at order 2 they
    hold the second derivatives that a power u^0 drops as well as the
    first."""
    entries = [root]
    if order == 0:
        return entries
    memo = ({}, {}, set())  # the second derivatives reuse the first's walk
    first = []
    grads = gradient_nodes(root, variables, first, memo)
    guards += first
    if order == 1:
        return entries + grads
    k = len(variables)
    hessian = [None] * (k * k)
    for i, d in enumerate(grads):
        if d is not None:
            row = gradient_nodes(d, variables, guards, memo)
            for j in range(i, k):
                hessian[i * k + j] = hessian[j * k + i] = row[j]
    for g in first:
        guards += [h for h in gradient_nodes(g, variables, guards, memo)
                   if h is not None and type(h) is not Const]
    return entries + grads + hessian


def live_entries(entries: list) -> list:
    """The entries a program must compute: the value, then each distinct
    derivative that is neither zero nor a constant."""
    out, seen = [], set()
    for i, node in enumerate(entries):
        if id(node) not in seen and (i == 0 or node is not None and type(node) is not Const):
            seen.add(id(node))
            out.append(node)
    return out


_WHAT = ("value", "value or gradient", "value, gradient or Hessian")


def outputs_of(outputs: list, root: Node, variables, order: int, check: tuple) -> tuple:
    """Append root's output group to outputs, (tree, check) pairs: its
    value where it has guards, so that the value runs first and, where
    both fail, the error is evaluate's; then the guards; then its live
    entries, the last closed by (kind, expr, n, arg) from check = (kind,
    expr, arg), n counting them.  Returns (jet_nodes' entries, id -> the
    output index of each live entry)."""
    guards = []
    entries = jet_nodes(root, variables, order, guards)
    live = live_entries(entries)
    if guards:  # the value runs first, as evaluate runs it
        outputs.append((live[0], None))
    outputs += [(g, None) for g in guards]
    where = {}
    for node in live:
        where[id(node)] = len(outputs)
        outputs.append((node, None))
    kind, expr, arg = check
    outputs[-1] = (live[-1], (kind, expr, len(live), arg))
    return entries, where


def derived(exprs, order: int):
    """One program over exprs and their derivatives up to order, and where
    each expression's entries land: (program, places), places[e] holding
    the positions of the 1 + k (+ k*k) entries of jet_nodes for expression
    e of arity k in the program's outputs + tail.  Its tail holds 0.0, for
    the zeros, then each constant entry.  Each expression is one output
    group (outputs_of), whose check ("finite", expr, n, what) raises "<what>
    is not finite", so the program raises at the first expression that
    fails, as they would one by one.
    """
    outputs, refs, tail = [], [], [0.0]
    for expr in exprs:
        check = ("finite", expr, _WHAT[order])
        entries, where = outputs_of(outputs, expr.root, range(expr.arity), order, check)
        ref = []  # an output's index, or -1 - its index in tail
        for node in entries:
            if node is None:
                ref.append(-1)
            elif id(node) in where:
                ref.append(where[id(node)])
            else:
                tail.append(node.value)
                ref.append(-len(tail))
        refs.append(ref)
    width = len(outputs)
    places = [[r if r >= 0 else width - 1 - r for r in ref] for ref in refs]
    return _compile(outputs, tail), places
