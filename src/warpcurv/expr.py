"""Expression parsing, evaluation, and forward-mode differentiation.

Expressions are closed-form formulas in variables x0..x{arity-1} built from
the binary operators + - * / ^, unary minus, the functions sin cos tan exp
log sqrt sinh cosh tanh, and the constants pi and e.  Parsing is a small
recursive-descent pass; no Python eval is involved anywhere.

Derivatives come from dual numbers rather than divided differences, so
gradients and Hessians returned by jet2 are exact up to roundoff.  A dual
number carries (value, derivative); nesting duals inside duals yields second
order.  The derivative slot may hold a float, an ndarray (one pass for a
whole gradient), or another dual, and the arithmetic below is written to be
agnostic about which.

There are two evaluation paths for values and gradients:

- value_and_gradient walks the tree once per point with dual numbers.  It
  serves callers that have one point at a time (closed-form point data,
  geodesic right-hand sides, the oracle's centre point), where plain floats
  beat numpy's per-call overhead.
- value_and_gradient_batch runs a postfix program, compiled once per
  expression and cached on it, over an (N, arity) array of points with
  explicit chain rules.  It serves the oracle's finite-difference stencil,
  where one numpy call per operation covers every stencil point.

Both reject exactly the same points: the batch raises EvalDomainError when
the dual pass would raise at one of its rows, including the rules that only
the derivative imposes (x^0.5 and sqrt at 0, a variable exponent on a base
<= 0) and the overflows math raises on but numpy does not.

No function returns a number that is not finite.  evaluate raises
EvalDomainError where the value is inf or NaN, value_and_gradient and its
batch where the value or a gradient entry is, and jet2 where any of the
value, gradient or Hessian is.  So x0*1e308*10 at x0 = 1 is rejected by all
four, and 1 + x0*1e308*10 - x0*1e308*10 at x0 = 0, whose value is 1 but
whose gradient is inf - inf, by every function that returns the gradient.
The scalar paths check Python floats with math.isfinite.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import ArityError, EvalDomainError, ParseError, UnknownIdentifierError

__all__ = [
    "Expression",
    "parse_expression",
    "evaluate",
    "value_and_gradient",
    "value_and_gradient_batch",
    "jet2",
    "format_expression",
    "reindex",
]


# ---------------------------------------------------------------------------
# AST


class Node:
    __slots__ = ()


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
        self._program = None  # postfix program, compiled on first batch use

    def __repr__(self):
        return f"Expression({format_expression(self)!r}, arity={self.arity})"


@dataclass
class Jet2:
    value: float
    gradient: np.ndarray  # shape (arity,)
    hessian: np.ndarray  # shape (arity, arity), exactly symmetric


# ---------------------------------------------------------------------------
# Dual numbers

_num_types = (int, float, np.floating)


class Dual:
    """Forward-mode number: value `a` plus derivative payload `b`.

    `b` may be a float, an ndarray of partials, or another Dual; the
    operators only ever combine payloads with + - * and scaling, all of
    which every payload type supports.
    """

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def __add__(self, o):
        if isinstance(o, Dual):
            return Dual(self.a + o.a, self.b + o.b)
        return Dual(self.a + o, self.b)

    def __radd__(self, o):
        return Dual(o + self.a, self.b)

    def __sub__(self, o):
        if isinstance(o, Dual):
            return Dual(self.a - o.a, self.b - o.b)
        return Dual(self.a - o, self.b)

    def __rsub__(self, o):
        return Dual(o - self.a, -self.b)

    def __mul__(self, o):
        if isinstance(o, Dual):
            return Dual(self.a * o.a, self.b * o.a + self.a * o.b)
        return Dual(self.a * o, self.b * o)

    def __rmul__(self, o):
        return Dual(o * self.a, o * self.b)

    def __truediv__(self, o):
        if isinstance(o, Dual):
            q = self.a / o.a
            return Dual(q, (self.b - q * o.b) / o.a)
        return Dual(self.a / o, self.b / o)

    def __rtruediv__(self, o):
        q = o / self.a
        return Dual(q, (-q / self.a) * self.b)

    def __neg__(self):
        return Dual(-self.a, -self.b)

    def __repr__(self):
        return f"Dual({self.a!r}, {self.b!r})"


def _realpart(x):
    while isinstance(x, Dual):
        x = x.a
    return x


# Unary functions.  Each recurses through Dual layers so that arbitrarily
# nested duals propagate correctly; the float case is the base of the
# recursion and also carries the domain checks.


def _sin(x):
    if isinstance(x, Dual):
        return Dual(_sin(x.a), _cos(x.a) * x.b)
    return math.sin(x)


def _cos(x):
    if isinstance(x, Dual):
        return Dual(_cos(x.a), (-_sin(x.a)) * x.b)
    return math.cos(x)


def _tan(x):
    if isinstance(x, Dual):
        t = _tan(x.a)
        return Dual(t, (1.0 + t * t) * x.b)
    return math.tan(x)


def _exp(x):
    if isinstance(x, Dual):
        e = _exp(x.a)
        return Dual(e, e * x.b)
    return math.exp(x)


def _log(x):
    if isinstance(x, Dual):
        return Dual(_log(x.a), x.b / x.a)
    if x <= 0.0:
        raise ValueError("log of nonpositive value")
    return math.log(x)


def _sqrt(x):
    if isinstance(x, Dual):
        r = _sqrt(x.a)
        if _realpart(r) == 0.0:
            raise ZeroDivisionError("sqrt derivative at zero")
        return Dual(r, x.b / (2.0 * r))
    if x < 0.0:
        raise ValueError("sqrt of negative value")
    return math.sqrt(x)


def _sinh(x):
    if isinstance(x, Dual):
        return Dual(_sinh(x.a), _cosh(x.a) * x.b)
    return math.sinh(x)


def _cosh(x):
    if isinstance(x, Dual):
        return Dual(_cosh(x.a), _sinh(x.a) * x.b)
    return math.cosh(x)


def _tanh(x):
    if isinstance(x, Dual):
        t = _tanh(x.a)
        return Dual(t, (1.0 - t * t) * x.b)
    return math.tanh(x)


_FUNCTIONS = {
    "sin": _sin,
    "cos": _cos,
    "tan": _tan,
    "exp": _exp,
    "log": _log,
    "sqrt": _sqrt,
    "sinh": _sinh,
    "cosh": _cosh,
    "tanh": _tanh,
}

_CONSTANTS = {"pi": math.pi, "e": math.e}


def _pow_const(base, p: float):
    """base ** p for a number or Dual base and plain numeric exponent."""
    if isinstance(base, Dual):
        return Dual(_pow_const(base.a, p), (p * _pow_const(base.a, p - 1.0)) * base.b)
    # math.pow raises ValueError for a negative base with fractional
    # exponent and for 0 to a negative power, which is exactly the domain
    # policy wanted here.
    return math.pow(base, p)


def _pow(left, right):
    if not isinstance(right, Dual):
        p = float(right)
        if p == 0.0:
            return 1.0
        return _pow_const(left, p)
    # Variable exponent: u^v = exp(v*log(u)), demands u > 0.
    if _realpart(left) <= 0.0:
        raise ValueError("power with variable exponent needs positive base")
    return _exp(right * _log(left))


# ---------------------------------------------------------------------------
# Evaluation


def _binop(op: str, left, right):
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if _realpart(right) == 0.0:
            raise ZeroDivisionError("division by zero")
        return left / right
    return _pow(left, right)


def _eval(node, env):
    kind = type(node)
    if kind is BinOp:
        left = _eval(node.left, env)
        right = _eval(node.right, env)
        try:
            return _binop(node.op, left, right)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise EvalDomainError(str(exc), node) from None
    if kind is Var:
        return env[node.index]
    if kind is Const:
        return node.value
    if kind is Call:
        arg = _eval(node.arg, env)
        try:
            return _FUNCTIONS[node.name](arg)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise EvalDomainError(f"{node.name}: {exc}", node) from None
    # Neg
    return -_eval(node.arg, env)


def _require_finite(expr: Expression, what: str, numbers):
    if not all(map(math.isfinite, numbers)):
        raise EvalDomainError(f"{what} is not finite", expr.root)


def evaluate(expr: Expression, point) -> float:
    """Evaluate at a point (sequence of reals, length == arity)."""
    if len(point) != expr.arity:
        raise ValueError(f"point has length {len(point)}, expected {expr.arity}")
    env = [float(c) for c in point]
    result = float(_eval(expr.root, env))
    _require_finite(expr, "value", (result,))
    return result


@functools.lru_cache(maxsize=None)
def _seed_rows(n: int) -> tuple:
    """Rows of the n x n identity, read-only because every call shares them."""
    seeds = np.eye(n)
    seeds.flags.writeable = False
    return tuple(seeds)


def value_and_gradient(expr: Expression, point):
    """One dual pass: returns (value, gradient ndarray of length arity)."""
    n = expr.arity
    if len(point) != n:
        raise ValueError(f"point has length {len(point)}, expected {n}")
    env = [Dual(float(x), seed) for x, seed in zip(point, _seed_rows(n))]
    r = _eval(expr.root, env)
    if isinstance(r, Dual):
        value, grad = float(r.a), r.b.tolist()
    else:
        value, grad = float(r), [0.0] * n
    _require_finite(expr, "value or gradient", (value, *grad))
    return value, np.array(grad)


def jet2(expr: Expression, point) -> Jet2:
    """Value, gradient, and Hessian at a point via nested duals.

    Pass i seeds direction i in the outer dual and the full gradient in the
    inner dual, yielding Hessian row i per pass.  Mirroring the averaged
    triangle makes the returned Hessian exactly symmetric.
    """
    n = expr.arity
    if len(point) != n:
        raise ValueError(f"point has length {len(point)}, expected {n}")
    if n == 0:
        return Jet2(evaluate(expr, point), np.zeros(0), np.zeros((0, 0)))
    coords = [float(c) for c in point]
    seeds = _seed_rows(n)
    zero = np.zeros(n)
    value = 0.0
    grad = np.zeros(n)
    hess = np.zeros((n, n))
    for i in range(n):
        env = [
            Dual(Dual(coords[k], seeds[k]), Dual(1.0 if k == i else 0.0, zero))
            for k in range(n)
        ]
        r = _eval(expr.root, env)
        if not isinstance(r, Dual):
            value = float(r)
            _require_finite(expr, "value", (value,))
            return Jet2(value, np.zeros(n), np.zeros((n, n)))
        if i == 0:
            value = float(r.a.a)
            grad = np.array(r.a.b, dtype=float)
        hess[i] = r.b.b
    hess = 0.5 * (hess + hess.T)
    _require_finite(
        expr, "value, gradient or Hessian", (value, *grad.tolist(), *hess.ravel().tolist())
    )
    return Jet2(value, grad, hess)


# ---------------------------------------------------------------------------
# Batched evaluation
#
# The chain rules mirror the Dual class above, operation for operation.  A
# constant subtree carries a float and a None gradient and is computed by
# the scalar rules, exactly as the Dual pass computes it.  numpy's
# elementwise functions may differ from math's in the last place, so rows
# agree with the Dual pass to roundoff, not bitwise.

_OP_CONST, _OP_VAR, _OP_NEG, _OP_CALL, _OP_BIN = range(5)


def _compile(root: Node, arity: int) -> tuple:
    """Postfix (opcode, argument, node) list, built with an explicit stack
    so that deep trees cannot reach the recursion limit.  A variable's
    argument is its index and its one-hot gradient row."""
    seeds = np.eye(arity)
    program = []
    todo = [(root, False)]
    while todo:
        node, expanded = todo.pop()
        kind = type(node)
        if kind is Const:
            program.append((_OP_CONST, node.value, node))
        elif kind is Var:
            i = node.index
            program.append((_OP_VAR, (i, seeds[i : i + 1]), node))
        elif expanded:
            if kind is BinOp:
                program.append((_OP_BIN, node.op, node))
            elif kind is Call:
                program.append((_OP_CALL, node.name, node))
            else:
                program.append((_OP_NEG, None, node))
        else:
            todo.append((node, True))
            if kind is BinOp:
                todo.append((node.right, False))
                todo.append((node.left, False))
            else:
                todo.append((node.arg, False))
    return tuple(program)


def _check_rows(bad, what: str, node):
    if bad is not None and np.count_nonzero(bad):
        row = int(np.argmax(bad))
        raise EvalDomainError(f"{what}: outside the domain at batch row {row}", node)


def _call_rows(name: str, a, b):
    """(value, gradient, rows the scalar rules reject) of name on a dual
    argument with values a (N,) and gradient b."""
    if name == "sin":
        return np.sin(a), np.cos(a)[:, None] * b, np.isinf(a)
    if name == "cos":
        return np.cos(a), (-np.sin(a))[:, None] * b, np.isinf(a)
    if name == "tan":
        t = np.tan(a)
        return t, (1.0 + t * t)[:, None] * b, np.isinf(a)
    if name == "exp":
        e = np.exp(a)
        return e, e[:, None] * b, np.isinf(e) & np.isfinite(a)
    if name == "log":
        return np.log(a), b / a[:, None], a <= 0.0
    if name == "sqrt":
        # the derivative 1/(2 sqrt) fails at 0 as well
        r = np.sqrt(a)
        return r, b / (2.0 * r)[:, None], a <= 0.0
    if name == "tanh":
        t = np.tanh(a)
        return t, (1.0 - t * t)[:, None] * b, None
    # sinh and cosh: the Dual rule evaluates both, and math raises when
    # either overflows from a finite argument
    sh, ch = np.sinh(a), np.cosh(a)
    bad = np.isfinite(a) & (np.isinf(sh) | np.isinf(ch))
    if name == "sinh":
        return sh, ch[:, None] * b, bad
    return ch, sh[:, None] * b, bad


def _bin_rows(op: str, node, left, right):
    """Value and gradient of a binary op with at least one dual operand."""
    (a1, b1), (a2, b2) = left, right
    if op == "+":
        if b2 is None:
            return a1 + a2, b1
        return a1 + a2, (b2 if b1 is None else b1 + b2)
    if op == "-":
        if b2 is None:
            return a1 - a2, b1
        return a1 - a2, (-b2 if b1 is None else b1 - b2)
    if op == "*":
        if b2 is None:
            return a1 * a2, b1 * a2
        if b1 is None:
            return a1 * a2, a1 * b2
        return a1 * a2, b1 * a2[:, None] + a1[:, None] * b2
    if op == "/":
        if b2 is None:
            if a2 == 0.0:
                raise EvalDomainError("division by zero", node)
            return a1 / a2, b1 / a2
        _check_rows(a2 == 0.0, "division by zero", node)
        q = a1 / a2
        if b1 is None:
            return q, (-q / a2)[:, None] * b2
        return q, (b1 - q[:, None] * b2) / a2[:, None]
    if b2 is None:
        # constant exponent; math.pow fails on finite arguments whose power
        # is not finite, and the Dual rule also takes a1^(p-1)
        p = float(a2)
        if p == 0.0:
            return 1.0, None
        r = np.power(a1, p)
        r1 = np.power(a1, p - 1.0)
        if math.isfinite(p):
            _check_rows(
                np.isfinite(a1) & ~(np.isfinite(r) & np.isfinite(r1)), "power", node
            )
        return r, (p * r1)[:, None] * b1
    # variable exponent: exp(v * log(u)), which needs u > 0
    if b1 is None:
        if a1 <= 0.0:
            raise EvalDomainError("power with variable exponent needs positive base", node)
        log_u = (math.log(a1), None)
    else:
        _check_rows(a1 <= 0.0, "power with variable exponent", node)
        log_u = (np.log(a1), b1 / a1[:, None])
    z, zb = _bin_rows("*", node, right, log_u)
    e, grad, bad = _call_rows("exp", z, zb)
    _check_rows(bad, "power", node)
    return e, grad


def value_and_gradient_batch(expr: Expression, points):
    """Values (N,) and gradients (N, arity) at every row of an (N, arity)
    array, from the expression's compiled program.

    Each row equals value_and_gradient at that row up to roundoff, and the
    call raises EvalDomainError exactly when value_and_gradient would raise
    at some row.  Suits many points at once; a single point is faster
    through value_and_gradient.
    """
    x = np.asarray(points, dtype=float)
    n = expr.arity
    if x.ndim != 2 or x.shape[1] != n:
        raise ValueError(f"points have shape {x.shape}, expected (N, {n})")
    rows = x.shape[0]
    if rows == 0:
        return np.zeros(0), np.zeros((0, n))
    program = expr._program
    if program is None:
        program = expr._program = _compile(expr.root, n)
    stack = []
    push, pop = stack.append, stack.pop
    with np.errstate(all="ignore"):
        for code, arg, node in program:
            if code is _OP_VAR:
                push((x[:, arg[0]], arg[1]))
            elif code is _OP_CONST:
                push((arg, None))
            elif code is _OP_NEG:
                a, b = pop()
                push((-a, None if b is None else -b))
            elif code is _OP_CALL:
                a, b = pop()
                if b is not None:
                    a, b, bad = _call_rows(arg, a, b)
                    _check_rows(bad, arg, node)
                else:
                    try:
                        a = _FUNCTIONS[arg](a)
                    except (ValueError, ZeroDivisionError, OverflowError) as exc:
                        raise EvalDomainError(f"{arg}: {exc}", node) from None
                push((a, b))
            else:
                right = pop()
                left = pop()
                if left[1] is not None or right[1] is not None:
                    push(_bin_rows(arg, node, left, right))
                else:
                    try:
                        push((_binop(arg, left[0], right[0]), None))
                    except (ValueError, ZeroDivisionError, OverflowError) as exc:
                        raise EvalDomainError(str(exc), node) from None
    value, grad = pop()
    out_value = np.empty(rows)
    out_value[:] = value
    out_grad = np.zeros((rows, n))
    if grad is not None:
        out_grad[:] = grad
    finite = np.isfinite(out_value) & np.isfinite(out_grad).all(axis=1)
    _check_rows(~finite, "value or gradient not finite", expr.root)
    return out_value, out_grad


# ---------------------------------------------------------------------------
# Parsing

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()])"
)

_VAR_RE = re.compile(r"^x(\d+)$")


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
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

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
            if text in _FUNCTIONS:
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


def _fmt(node):
    kind = type(node)
    if kind is Const:
        if node.value < 0:
            return "-" + _fmt_const(-node.value), _NEG
        return _fmt_const(node.value), _ATOM
    if kind is Var:
        return f"x{node.index}", _ATOM
    if kind is Call:
        inner, _ = _fmt(node.arg)
        return f"{node.name}({inner})", _ATOM
    if kind is Neg:
        s, p = _fmt(node.arg)
        if p <= _MUL:
            s = f"({s})"
        return "-" + s, _NEG
    # BinOp
    op = node.op
    ls, lp = _fmt(node.left)
    rs, rp = _fmt(node.right)
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
    return _fmt(expr.root)[0]


def _shift(node, offset):
    kind = type(node)
    if kind is Var:
        return Var(node.index + offset)
    if kind is Const:
        return node
    if kind is Neg:
        return Neg(_shift(node.arg, offset))
    if kind is Call:
        return Call(node.name, _shift(node.arg, offset))
    return BinOp(node.op, _shift(node.left, offset), _shift(node.right, offset))


def reindex(expr: Expression, offset: int, new_arity: int) -> Expression:
    """Shift every variable index by offset and change the arity.

    Used to splice factor-manifold expressions into product coordinates.
    """
    if offset < 0 or expr.arity + offset > new_arity:
        raise ValueError(
            f"cannot shift arity-{expr.arity} expression by {offset} into arity {new_arity}"
        )
    return Expression(_shift(expr.root, offset), new_arity)
