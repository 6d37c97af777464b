"""Expression parsing, evaluation, and forward-mode differentiation.

Expressions are closed-form formulas in variables x0..x{arity-1} built from
the binary operators + - * / ^, unary minus, the functions sin cos tan exp
log sqrt sinh cosh tanh, and the constants pi and e.  Parsing is a small
recursive-descent pass, nested at most MAX_NESTING levels deep; no Python
eval is involved anywhere.

Every evaluation runs one interpreter over a compiled register program:
one expression's, compiled on first use and cached on it, or one over many
expressions of a chart, each repeated subtree computed once (a metric's
live components, see geometry; a geodesic acceleration, see split).  It
carries the value, the gradient and the Hessian by explicit chain rules,
each only up to the order the caller asks for, so gradients and Hessians
are exact up to roundoff; one rule table states each function's
derivatives and domain.  The same loop runs one point on floats with math
(evaluate, value_and_gradient, jet2) and N points on numpy columns
(_batches, for the oracle's stencil).  Nothing walks a tree by recursion,
so a sum of thousands of terms evaluates, prints and reindexes like a
short one.  First derivatives can also be taken as trees, from the rules
stated beside the forward-mode ones (_DERIVATIVES, the derivative module).

The domain narrows with the derivative order and never widens.  evaluate
rejects exactly what math rejects, so sqrt(x0) at 0 is 0 and x0^x1 at
(-1, 2) is 1.  A derivative also rejects sqrt and x^p (p < 1) at 0 and a
variable exponent on a base <= 0.  Where a higher order succeeds, the lower
ones give bitwise its value and gradient.  The batch raises EvalDomainError
exactly when value_and_gradient would raise at one of its rows, and agrees
with it per row to roundoff: numpy's elementwise functions may differ from
math's in the last place.

No function returns a number that is not finite.  evaluate raises
EvalDomainError where the value is inf or NaN, value_and_gradient and its
batch where the value or a gradient entry is, and jet2 where any of the
value, gradient or Hessian is.  So x0*1e308*10 at x0 = 1 is rejected by all
of them, and 1 + x0*1e308*10 - x0*1e308*10 at x0 = 0, whose value is 1 but
whose gradient is inf - inf, by every function that returns the gradient.

numpy's warnings on the way would only repeat that error, so each public
numeric function of the package runs under np.errstate(all="ignore"), as a
decorator, and the private runners that its loops call enter none.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from dataclasses import dataclass

import numpy as np

from .errors import ArityError, EvalDomainError, ParseError, UnknownIdentifierError

__all__ = [
    "Expression",
    "parse_expression",
    "evaluate",
    "value_and_gradient",
    "jet2",
    "format_expression",
    "reindex",
]


# ---------------------------------------------------------------------------
# AST


class Node:
    # origin: set on the nodes of a derivative tree, the source node whose
    # rule they state; an evaluation error names it, as forward mode would
    __slots__ = ("origin",)


class Const(Node):
    __slots__ = ("value",)

    def __init__(self, value: float):
        self.value = value


class Var(Node):
    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index


class Neg(Node):
    __slots__ = ("arg",)

    def __init__(self, arg: Node):
        self.arg = arg


class Call(Node):
    __slots__ = ("name", "arg")

    def __init__(self, name: str, arg: Node):
        self.name = name
        self.arg = arg


class BinOp(Node):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Node, right: Node):
        self.op = op
        self.left = left
        self.right = right


class Expression:
    """A parsed expression together with its declared arity."""

    # _constant is left unset until geometry first folds the expression
    __slots__ = ("root", "arity", "_program", "_constant")

    def __init__(self, root: Node, arity: int):
        self.root = root
        self.arity = arity
        self._program = None  # register program, compiled on first use

    def __repr__(self):
        return f"Expression({format_expression(self)!r}, arity={self.arity})"


@dataclass
class Jet2:
    value: float
    gradient: np.ndarray  # shape (arity,)
    hessian: np.ndarray  # shape (arity, arity), exactly symmetric


# ---------------------------------------------------------------------------
# Rules
#
# A value is a float where its subtree reads no variable, and every value
# is when no derivative is asked for; those are computed with math.  Else
# it is (value, gradient, Hessian), derivative axes first and the batch
# axis last: one point carries a float, a (k,) gradient and a (k, k)
# Hessian, N points (N,), (k, N) and (k, k, N), and every rule below
# broadcasts over both.  The rules see a float operand as (value, None,
# None).  The Hessian is None while it is zero, and always below order 2.
#
# On floats, math raises where a function leaves its domain or overflows
# from a finite argument, and Python raises on division by zero.  numpy
# only returns inf or nan, so on arrays each rule marks the rows where math
# would have raised, and a marked row raises too.  Taking a derivative
# narrows the domain where math rejects f' or f'': sqrt and x^p with p < 1
# at 0, a variable exponent on a base <= 0.  Whatever turns inf or nan
# without raising is left to the finiteness check of the caller.


def _reject(bad, what: str):
    """Raise where any row is marked; bad is an array or one bool."""
    if np.count_nonzero(bad):
        raise ValueError(f"{what} at batch row {int(np.argmax(bad))}")


def _overflow(a, r, d):
    return np.isfinite(a) & (np.isinf(r) | np.isinf(d))


def _inf_arg(a, r, d):
    return np.isinf(a)


# name: (f' from the library m, the argument a and the value r;
#        f'' from a, r and f'; the rows math rejects when f and f' are
#        taken, or None)
_RULES = {
    "sin": (lambda m, a, r: m.cos(a), lambda a, r, d: -r, _inf_arg),
    "cos": (lambda m, a, r: -m.sin(a), lambda a, r, d: -r, _inf_arg),
    "tan": (lambda m, a, r: 1.0 + r * r, lambda a, r, d: 2.0 * r * d, _inf_arg),
    "exp": (lambda m, a, r: r, lambda a, r, d: r, lambda a, r, d: np.isinf(r) & np.isfinite(a)),
    "log": (lambda m, a, r: 1.0 / a, lambda a, r, d: -d * d, lambda a, r, d: a <= 0.0),
    "sqrt": (lambda m, a, r: 0.5 / r, lambda a, r, d: -0.5 * d / a, lambda a, r, d: a <= 0.0),
    "sinh": (lambda m, a, r: m.cosh(a), lambda a, r, d: r, _overflow),
    "cosh": (lambda m, a, r: m.sinh(a), lambda a, r, d: r, _overflow),
    "tanh": (lambda m, a, r: 1.0 - r * r, lambda a, r, d: -2.0 * r * d, None),
}

# each rule with f itself in front, as math (floats) and numpy (arrays) give it
_CALLS = {name: (getattr(math, name), getattr(np, name), *rule) for name, rule in _RULES.items()}

# name: f' as a tree, from the argument u and the call c = f(u); the same
# arithmetic as the first entry of each _RULES row, for derivative trees
_DERIVATIVES = {
    "sin": lambda u, c: Call("cos", u),
    "cos": lambda u, c: Neg(Call("sin", u)),
    "tan": lambda u, c: BinOp("+", Const(1.0), BinOp("*", c, c)),
    "exp": lambda u, c: c,
    "log": lambda u, c: BinOp("/", Const(1.0), u),
    "sqrt": lambda u, c: BinOp("/", Const(0.5), c),
    "sinh": lambda u, c: Call("cosh", u),
    "cosh": lambda u, c: Call("sinh", u),
    "tanh": lambda u, c: BinOp("-", Const(1.0), BinOp("*", c, c)),
}

_CONSTANTS = {"pi": math.pi, "e": math.e}


def _call(rule, entry, hess: bool, m):
    a, b, h = entry
    f_math, f_np, d1, d2, bad = rule
    r = f_math(a) if m is math else f_np(a)
    d = d1(m, a, r)
    if m is np and bad is not None:
        _reject(bad(a, r, d), "outside the domain")
    if not hess:
        return r, d * b, None
    H = d2(a, r, d) * _outer(b, b)
    return r, d * b, H if h is None else H + d * h


def _outer(u, v):
    return u[:, None] * v[None]


def _sym(u, v):
    """u v^T + v u^T, bitwise symmetric because float addition commutes."""
    return _outer(u, v) + _outer(v, u)


def _plus(x, y):
    return y if x is None else x if y is None else x + y


def _minus(x, y):
    if y is None:
        return x
    return -y if x is None else x - y


# Binary rules take two triples, at least one of which reads a variable.


def _add(left, right, hess, m):
    return left[0] + right[0], _plus(left[1], right[1]), _plus(left[2], right[2])


def _sub(left, right, hess, m):
    return left[0] - right[0], _minus(left[1], right[1]), _minus(left[2], right[2])


def _mul(left, right, hess, m):
    (a1, b1, h1), (a2, b2, h2) = left, right
    if b1 is None:
        return a1 * a2, a1 * b2, None if h2 is None else a1 * h2
    if b2 is None:
        return a1 * a2, b1 * a2, None if h1 is None else h1 * a2
    H = None
    if hess:
        H = _sym(b1, b2)
        if h1 is not None:
            H = H + h1 * a2
        if h2 is not None:
            H = H + a1 * h2
    return a1 * a2, b1 * a2 + a1 * b2, H


def _div(left, right, hess, m):
    (a1, b1, h1), (a2, b2, h2) = left, right
    if m is np:
        _reject(a2 == 0.0, "division by zero")
    q = a1 / a2
    if b2 is None:
        return q, b1 / a2, None if h1 is None else h1 / a2
    # from q a2 = a1: q' = (a1' - q a2') / a2, q'' = (a1'' - q a2'' - sym(q', a2')) / a2
    g = (-q / a2) * b2 if b1 is None else (b1 - q * b2) / a2
    H = None
    if hess:
        H = _minus(_minus(h1, None if h2 is None else q * h2), _sym(g, b2)) / a2
    return q, g, H


def _pow(left, right, hess, m):
    (a1, b1, h1), (a2, b2, h2) = left, right
    power = math.pow if m is math else np.power
    if b2 is None:
        # constant exponent p: f = a^p, f' = p a^(p-1), f'' = p (p-1) a^(p-2)
        p = a2
        if p == 0.0:
            return 1.0
        r, r1 = power(a1, p), power(a1, p - 1.0)
        if m is np and math.isfinite(p):
            bad = np.isfinite(a1) & ~(np.isfinite(r) & np.isfinite(r1))
            _reject(bad, "power outside the domain")
        d = p * r1
        if not hess:
            return r, d * b1, None
        if p == 1.0:  # f'' = 0, and a^(p-2) need not exist
            return r, d * b1, None if h1 is None else d * h1
        H = (p * (p - 1.0) * power(a1, p - 2.0)) * _outer(b1, b1)
        return r, d * b1, H if h1 is None else H + d * h1
    # variable exponent: the derivatives are those of exp(a2 * log(a1)),
    # so log's domain asks for a1 > 0
    if b1 is None:
        log_base = (math.log(a1), None, None)
    else:
        log_base = _call(_CALLS["log"], left, hess, m)
    _, zb, zh = _mul(right, log_base, hess, m)
    r = power(a1, a2)
    if m is np:
        _reject(np.isinf(r) & np.isfinite(a1) & np.isfinite(a2), "power overflows")
    if not hess:
        return r, r * zb, None
    return r, r * zb, r * _plus(zh, _outer(zb, zb))


# op: (the rule on two floats, the rule with derivatives)
_BINARY = {
    "+": (operator.add, _add),
    "-": (operator.sub, _sub),
    "*": (operator.mul, _mul),
    "/": (operator.truediv, _div),
    "^": (math.pow, _pow),
}


# ---------------------------------------------------------------------------
# The compiled program and its interpreter

# _postfix's opcodes; a compiled program keeps NEG, CALL and BIN, and adds OUT
_OP_CONST, _OP_VAR, _OP_NEG, _OP_CALL, _OP_BIN, _OP_OUT = range(6)


def _postfix(root: Node, known=()):
    """The tree as postfix (opcode, argument, node) entries, walked with an
    explicit stack so that deep trees cannot reach the recursion limit.  A
    constant's argument is its value, a variable's its index, and a call's
    or binary op's its rules.  A node whose id is in known is listed
    without its subtree; the entries come lazily, so a caller may add to
    known as it reads them."""
    todo = [(root, False)]
    while todo:
        node, expanded = todo.pop()
        kind = type(node)
        if kind is Const:
            yield _OP_CONST, float(node.value), node
        elif kind is Var:
            yield _OP_VAR, node.index, node
        elif expanded or id(node) in known:
            if kind is BinOp:
                yield _OP_BIN, _BINARY[node.op], node
            elif kind is Call:
                yield _OP_CALL, _CALLS[node.name], node
            else:
                yield _OP_NEG, None, node
        else:
            todo.append((node, True))
            if kind is BinOp:
                todo.append((node.right, False))
                todo.append((node.left, False))
            else:
                todo.append((node.arg, False))


class _Code:
    """A compiled program.  registers is the register file before a run,
    in value-number order: each constant's value, and None for a computed
    one; the leaves follow it.  An op is (opcode, rules, node, target,
    operand, operand or None); OUT has its expression for the rules."""

    def __init__(self, ops: tuple, registers: list):
        self.ops, self.registers = ops, registers

    def __len__(self) -> int:
        return len(self.ops)


def _compile(exprs) -> _Code:
    """One register program for a sequence of expressions over one chart.

    Subtrees with the same structure get one value number and register: a
    constant is keyed by its bits, a variable by its index, and a negation,
    call or binary op by its name or op and its operands' numbers in order,
    so x0-x1 and x1-x0 stay apart.  An op computes each number where the
    postfix order first reaches it, and OUT hands each expression's entry
    to the caller's finishing step.  A shared node applies the same rule to
    the same operands, so each output is bitwise the expression's own, and
    the first failure is the one the expressions run one by one would
    meet: a value read again was computed without error."""
    numbers = {}  # structural key -> value number
    known = {}  # id(node) -> value number, so a subtree shared by object is walked once
    nodes = []  # value number -> (opcode, argument, node, operand numbers)
    outputs = []
    for expr in exprs:
        stack = []
        for code, arg, node in _postfix(expr.root, known):
            number = known.get(id(node))
            if number is None:
                if code is _OP_CONST:
                    operands, key = (), (code, arg.hex())
                elif code is _OP_VAR:
                    operands, key = (), (code, arg)
                elif code is _OP_BIN:
                    right = stack.pop()
                    operands = (stack.pop(), right)
                    key = (code, node.op, *operands)
                else:
                    operands = (stack.pop(),)
                    key = (code, node.name if code is _OP_CALL else "-", *operands)
                number = numbers.get(key)
                if number is None:
                    number = numbers[key] = len(nodes)
                    nodes.append((code, arg, node, operands))
                known[id(node)] = number
            stack.append(number)
        outputs.append((stack.pop(), expr))
    registers = [arg if code is _OP_CONST else None
                 for code, arg, *_ in nodes if code is not _OP_VAR]
    fixed = iter(range(len(registers)))  # value number -> register, leaves last
    where = [len(registers) + arg if code is _OP_VAR else next(fixed) for code, arg, *_ in nodes]
    ops, done = [], set()
    for out, expr in outputs:
        todo = [(out, False)]
        while todo:
            number, expanded = todo.pop()
            code, arg, node, operands = nodes[number]
            if not operands or number in done:
                continue
            if expanded:
                done.add(number)
                a, b, *_ = [where[o] for o in operands] + [None]
                ops.append((code, arg, node, where[number], a, b))
            else:
                todo.append((number, True))
                todo.extend((o, False) for o in reversed(operands))
        ops.append((_OP_OUT, expr, expr.root, None, where[out], None))
    return _Code(tuple(ops), registers)


def _program_of(expr: Expression) -> _Code:
    program = expr._program
    if program is None:
        program = expr._program = _compile((expr,))
    return program


def _reads_variables(expr: Expression) -> bool:
    return any(code is _OP_VAR for code, _, _ in _postfix(expr.root))


def _triple(entry):
    return (entry, None, None) if type(entry) is float else entry


def _run(program: _Code, leaves: list, hess: bool, m, finish) -> list:
    """finish(expr, entry) of each output in order, where an entry is a
    float or (value, gradient, Hessian).  Variable i reads the entry
    leaves[i], and the elementwise functions come from math (m is math) or
    numpy (m is np).  Gradients are carried from the leaves that have one;
    Hessians only when hess is set.  finish runs at its output's OUT, so an
    output it rejects stops the run before the next output's ops."""
    regs = program.registers + leaves
    outs, node = [], None
    try:
        for code, arg, node, target, a, b in program.ops:
            if code is _OP_BIN:
                left, right = regs[a], regs[b]
                if type(left) is float:
                    if type(right) is float:
                        regs[target] = arg[0](left, right)
                        continue
                    left = (left, None, None)
                elif type(right) is float:
                    right = (right, None, None)
                regs[target] = arg[1](left, right, hess, m)
            # the rest by how often they come
            elif code is _OP_CALL:
                a = regs[a]
                regs[target] = arg[0](a) if type(a) is float else _call(arg, a, hess, m)
            elif code is _OP_OUT:
                outs.append(finish(arg, regs[a]))
            else:
                a = regs[a]
                if type(a) is float:
                    regs[target] = -a
                else:
                    regs[target] = (-a[0], -a[1], None if a[2] is None else -a[2])
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        node = getattr(node, "origin", node)
        what = node.name if type(node) is Call else repr(node.op)
        raise EvalDomainError(f"{what}: {exc}", node) from None
    return outs


@functools.lru_cache(maxsize=None)
def _seeds(n: int) -> tuple:
    """Gradient seeds of the n variables, read-only because every call
    shares them: row i of the identity for one point, and column i, kept
    (n, 1), for a batch."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return tuple(eye), tuple(eye[:, i : i + 1] for i in range(n))


def _program_at(expr: Expression, point) -> _Code:
    """The program of expr, for a point of its arity."""
    if len(point) != expr.arity:
        raise ValueError(f"point has length {len(point)}, expected {expr.arity}")
    return _program_of(expr)


def _not_finite(expr: Expression, what: str):
    return EvalDomainError(f"{what} is not finite", expr.root)


# Finishing steps: one output's entry in the form its evaluator returns,
# checked finite.


def _value_out(expr: Expression, value: float) -> float:
    if not math.isfinite(value):
        raise _not_finite(expr, "value")
    return value


def _gradient_out(expr: Expression, entry) -> list:
    """[value, *gradient]"""
    if type(entry) is float:
        out = [entry] + [0.0] * expr.arity
    else:
        out = [entry[0], *entry[1].tolist()]
    if not all(map(math.isfinite, out)):
        raise _not_finite(expr, "value or gradient")
    return out


def _jet_out(expr: Expression, entry) -> list:
    """[value, *gradient, *Hessian in row-major order]"""
    n = expr.arity
    value, grad, hess = _triple(entry)
    out = [value]
    out += [0.0] * n if grad is None else grad.tolist()
    out += [0.0] * (n * n) if hess is None else hess.ravel().tolist()
    if not all(map(math.isfinite, out)):
        raise _not_finite(expr, "value, gradient or Hessian")
    return out


def _rows_out(rows: int):
    def finish(expr: Expression, entry) -> np.ndarray:
        """(rows, 1 + arity): each row's value, then its gradient"""
        value, grad, _ = _triple(entry)
        out = np.zeros((rows, 1 + expr.arity))
        out[:, 0] = value
        if grad is not None:
            out[:, 1:] = grad.T
        finite = np.isfinite(out).all(axis=1)
        if not finite.all():
            bad = int(np.argmax(~finite))
            raise _not_finite(expr, f"value or gradient at batch row {bad}")
        return out

    return finish


# A program's outputs at one point (a sequence of reals, one per variable)
# or at the rows of an (N, arity) array, N >= 1.  The public evaluators run
# an expression's own program through these; geometry runs a metric's.


def _values(program: _Code, point) -> list:
    return _run(program, [float(c) for c in point], False, math, _value_out)


def _gradients(program: _Code, point) -> list:
    leaves = [(float(c), s, None) for c, s in zip(point, _seeds(len(point))[0])]
    return _run(program, leaves, False, math, _gradient_out)


def _jets(program: _Code, point) -> list:
    leaves = [(float(c), s, None) for c, s in zip(point, _seeds(len(point))[0])]
    return _run(program, leaves, True, math, _jet_out)


def _batches(program: _Code, x: np.ndarray) -> list:
    leaves = [(x[:, i], s, None) for i, s in enumerate(_seeds(x.shape[1])[1])]
    with np.errstate(all="ignore"):
        return _run(program, leaves, False, np, _rows_out(len(x)))


@np.errstate(all="ignore")
def evaluate(expr: Expression, point) -> float:
    """Evaluate at a point (sequence of reals, length == arity)."""
    return _values(_program_at(expr, point), point)[0]


@np.errstate(all="ignore")
def value_and_gradient(expr: Expression, point):
    """Returns (value, gradient ndarray of length arity)."""
    out = _gradients(_program_at(expr, point), point)[0]
    return out[0], np.array(out[1:])


@np.errstate(all="ignore")
def jet2(expr: Expression, point) -> Jet2:
    """Value, gradient, and Hessian at a point.  The Hessian is exactly
    symmetric, because every rule builds it from symmetric terms."""
    n = expr.arity
    out = _jets(_program_at(expr, point), point)[0]
    return Jet2(out[0], np.array(out[1 : n + 1]), np.array(out[n + 1 :]).reshape(n, n))


# ---------------------------------------------------------------------------
# Parsing

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()])"
)

_VAR_RE = re.compile(r"^x(\d+)$")

# Deepest nesting of parentheses, calls, unary minus and exponents the
# parser accepts; each level costs it up to five stack frames.
MAX_NESTING = 100


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent over the token list.

    Grammar, loosest to tightest binding:
        expr   := term (('+'|'-') term)*
        term   := unary (('*'|'/') unary)*
        unary  := '-' unary | power
        power  := atom ('^' unary)?
        atom   := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'
    '^' binds tighter than unary minus, so -x0^2 means -(x0^2), and its
    right operand goes through unary, so 2^-3 parses and chains like
    2^3^4 associate to the right.
    """

    def __init__(self, text: str, arity: int):
        self.tokens = _tokenize(text)
        self.arity = arity
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self) -> Node:
        kind, _, pos = self.peek()
        if kind == "eof":
            raise ParseError("empty expression", pos)
        node = self.expr()
        kind, text, pos = self.peek()
        if kind != "eof":
            raise ParseError(f"unexpected token {text!r}", pos)
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = BinOp(text, node, self.term())
            else:
                return node

    def term(self) -> Node:
        node = self.unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                node = BinOp(text, node, self.unary())
            else:
                return node

    def unary(self) -> Node:
        # every nested level (parenthesis, call, unary minus, exponent)
        # passes through here, so this depth bounds the recursion
        kind, text, pos = self.peek()
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nested deeper than {MAX_NESTING} levels", pos)
        if kind == "op" and text == "-":
            self.advance()
            node = Neg(self.unary())
        else:
            node = self.power()
        self.depth -= 1
        return node

    def power(self) -> Node:
        node = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            node = BinOp("^", node, self.unary())
        return node

    def atom(self) -> Node:
        kind, text, pos = self.advance()
        if kind == "num":
            value = float(text)
            if not math.isfinite(value):
                raise ParseError(f"numeric literal {text!r} overflows to infinity", pos)
            return Const(value)
        if kind == "ident":
            if text in _CALLS:
                k2, t2, p2 = self.peek()
                if k2 != "op" or t2 != "(":
                    raise ParseError(f"expected '(' after function {text!r}", p2)
                self.advance()
                arg = self.expr()
                self.expect(")")
                return Call(text, arg)
            if text in _CONSTANTS:
                return Const(_CONSTANTS[text])
            m = _VAR_RE.match(text)
            if m:
                index = int(m.group(1))
                if index >= self.arity:
                    raise ArityError(index, self.arity, pos)
                return Var(index)
            raise UnknownIdentifierError(text, pos)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect(")")
            return node
        raise ParseError(f"unexpected token {text!r}" if text else "unexpected end of input", pos)

    def expect(self, symbol: str):
        kind, text, pos = self.advance()
        if kind != "op" or text != symbol:
            raise ParseError(f"expected {symbol!r}", pos)


def parse_expression(text: str, arity: int) -> Expression:
    if arity < 0:
        raise ValueError("arity must be nonnegative")
    return Expression(_Parser(text, arity).parse(), arity)


# ---------------------------------------------------------------------------
# Printing and rewriting

# Precedence levels for the printer: addition 1, multiplication 2, unary
# minus 3, power 4, atoms 5.  Chosen so that printing then reparsing
# reconstructs the same tree.
_ADD, _MUL, _NEG, _POW, _ATOM = 1, 2, 3, 4, 5


def _fmt_const(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _fmt_binop(op: str, left, right):
    (ls, lp), (rs, rp) = left, right
    if op in "+-":
        if lp < _ADD:
            ls = f"({ls})"
        if rp <= _ADD:
            # parenthesize right-nested sums too: float addition is not
            # associative, so reassociating on reparse would shift ulps
            rs = f"({rs})"
        return f"{ls} {op} {rs}", _ADD
    if op in "*/":
        if lp < _MUL:
            ls = f"({ls})"
        if rp <= _MUL:
            rs = f"({rs})"
        return f"{ls}{op}{rs}", _MUL
    # power: left must be an atom, right anything at unary level or tighter
    if lp < _ATOM:
        ls = f"({ls})"
    if rp < _NEG:
        rs = f"({rs})"
    return f"{ls}^{rs}", _POW


def format_expression(expr: Expression) -> str:
    """Render to text that parse_expression maps back to the same tree."""
    stack = []
    push, pop = stack.append, stack.pop
    for code, _, node in _postfix(expr.root):
        if code is _OP_CONST:
            if node.value < 0:
                push(("-" + _fmt_const(-node.value), _NEG))
            else:
                push((_fmt_const(node.value), _ATOM))
        elif code is _OP_VAR:
            push((f"x{node.index}", _ATOM))
        elif code is _OP_CALL:
            push((f"{node.name}({pop()[0]})", _ATOM))
        elif code is _OP_NEG:
            s, p = pop()
            push(("-" + (f"({s})" if p <= _MUL else s), _NEG))
        else:
            right = pop()
            push(_fmt_binop(node.op, pop(), right))
    return pop()[0]


def reindex(expr: Expression, offset: int, new_arity: int) -> Expression:
    """Shift every variable index by offset and change the arity.

    Used to splice factor-manifold expressions into product coordinates.
    """
    if offset < 0 or expr.arity + offset > new_arity:
        raise ValueError(
            f"cannot shift arity-{expr.arity} expression by {offset} into arity {new_arity}"
        )
    stack = []
    push, pop = stack.append, stack.pop
    for code, _, node in _postfix(expr.root):
        if code is _OP_CONST:
            push(node)
        elif code is _OP_VAR:
            push(Var(node.index + offset))
        elif code is _OP_CALL:
            push(Call(node.name, pop()))
        elif code is _OP_NEG:
            push(Neg(pop()))
        else:
            right = pop()
            push(BinOp(node.op, pop(), right))
    return Expression(pop(), new_arity)
