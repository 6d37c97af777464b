"""Expression parsing, evaluation, and the kernels that run every
derivative.

Expressions are closed-form formulas in variables x0..x{arity-1} built from
the binary operators + - * / ^, unary minus, the functions sin cos tan exp
log sqrt sinh cosh tanh, and the constants pi and e.  Parsing is a small
recursive-descent pass, nested at most MAX_NESTING levels deep; no text of
an expression is ever handed to Python's eval, exec or compile.

Every evaluation runs a compiled register program of values alone.
Derivatives are trees too: the derivative module writes them from
_DERIVATIVES, the one statement of each function's derivative, and
compiles an expression's trees up to an order, 0, 1 or 2, into one
program (derivative.derived).  An expression keeps one such program per
order, compiled on first use: evaluate runs order 0, value_and_gradient
order 1 and jet2 order 2.  A program may also cover many expressions of a
chart, each repeated subtree computed once (a metric's live components,
see geometry; a geodesic acceleration, see split).

A program runs as one generated Python function, its kernel: one line per
op, written and compiled at the program's first run and kept on it (the
kernel module).  The kernel's text is made of register names, the inline
+ - *, rule names and check indices, each taken from a fixed table by the
op's rules; constants stay in registers and are passed in with the point,
so nothing a user wrote reaches compile.  One code object runs one point
on floats with math's rules and N points on numpy columns with numpy's
bare functions (_columns; the oracle's stencil has kernels of its own, on
floats), under a set of names for each.  On floats each check is an
inline test, and the kernel's own finishing step (kernel._finish) runs
only where the test fails; a program carries its checks and its tail of
constant entries (_Code.tail).  Columns raise nothing: they come with a
mask of the rows where a marked op's result or an output is not finite,
and the caller redoes those rows on floats, which raise as they always
have.  Where a run raises, the kernel's line names the op, and the error
names its node.  Nothing walks a tree by recursion, so a sum of
thousands of terms evaluates, differentiates, prints and reindexes like
a short one.  The tests hold the
derivatives to sympy and to finite differences, two references that share
nothing with this code.

The domain narrows with the derivative order and never widens.  evaluate
rejects exactly what math rejects, so sqrt(x0) at 0 is 0 and x0^x1 at
(-1, 2) is 1.  A derivative also rejects sqrt and x^p (p < 1) at 0 and a
variable exponent on a base <= 0.  Where a higher order succeeds, the lower
ones give bitwise its value and gradient.  A run over columns masks every
row where the run on floats would raise, and a masked row redone on floats
is that run.  An unmasked row agrees with it to roundoff, because numpy's
elementwise functions may differ from math's in the last place, and
cancellation may amplify that: the gradient of tanh(x1 - 10) at (3, 0.5)
differs by 1e-8 relative.

No function returns a number that is not finite.  evaluate raises
EvalDomainError where the value is inf or NaN, value_and_gradient where
the value or a gradient entry is, and jet2 where any of the value,
gradient or Hessian is.  So x0*1e308*10 at x0 = 1
is rejected by all of them, and 1 + x0*1e308*10 - x0*1e308*10 at x0 = 0,
whose value is 1 but whose gradient is inf - inf, by every function that
returns the gradient.

numpy's warnings on the way would only repeat that error, so each public
numeric function of the package runs under np.errstate(all="ignore"), as a
decorator, and the private runners that its loops call enter none.
"""

from __future__ import annotations

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
    # rule they state; an evaluation error names it
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
    __slots__ = ("root", "arity", "_programs", "_constant")

    def __init__(self, root: Node, arity: int):
        self.root = root
        self.arity = arity
        self._programs = [None, None, None]  # one per derivative order, compiled on first use

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
# A value is a float, computed with math, or a numpy column holding one
# value per point of a stack, computed with numpy's bare functions.  On
# floats, math raises where a function leaves its domain or overflows from
# a finite argument, and Python raises on division by zero.  numpy only
# returns inf or nan there, so a run over columns raises nothing: it
# reports the rows where the result of a marked rule (_MARKED), or an
# output, is not finite, and its caller redoes them on floats (_columns).
# Whatever turns inf or nan without raising is left to the finiteness
# check of the caller.
#
# No rule takes a derivative.  The derivative module writes derivatives as
# trees from _DERIVATIVES, and a tree runs on these same rules, so the
# domain narrows with the derivative order by itself: sqrt is taken at 0,
# its derivative 0.5 / sqrt(x) is not.

_DOMAINS = ("sin", "cos", "tan", "exp", "log", "sqrt", "sinh", "cosh", "tanh")

# name: (f on floats, f on columns)
_CALLS = {name: (getattr(math, name), getattr(np, name)) for name in _DOMAINS}

# name: f' as a tree, from the argument u and the call c = f(u); the one
# statement of each function's derivative
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


# op: (the rule on floats, on columns)
_BINARY = {
    "+": (operator.add,) * 2,
    "-": (operator.sub,) * 2,
    "*": (operator.mul,) * 2,
    "/": (operator.truediv,) * 2,
    "^": (math.pow, np.power),
}

# The rules that may raise on floats: every call but tanh, which takes
# every float, and / and ^.  Where one raises, numpy's result on columns is
# not finite: sin, cos and tan of +-inf give nan, exp, sinh and cosh
# overflow to inf, log of a value <= 0 gives -inf or nan, sqrt of a
# negative nan, x / 0 +-inf or nan, and a power math rejects inf or nan.
_MARKED = {_BINARY["/"], _BINARY["^"], *(_CALLS[name] for name in _DOMAINS if name != "tanh")}


# ---------------------------------------------------------------------------
# The compiled program and its kernel

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
    operand, operand or None); OUT has its check for the rules.  width
    counts the outputs, and tail lists the program's constant entries,
    numbers that its callers read after the outputs.  kernels is None
    until the first run builds the program's kernel, and stencil until the
    oracle builds a metric's stencil kernels (the kernel module)."""

    def __init__(self, ops: tuple, registers: list, tail=()):
        self.ops, self.registers, self.tail = ops, registers, list(tail)
        self.width = sum(op[0] is _OP_OUT for op in ops)
        self.kernels = self.stencil = None

    def __len__(self) -> int:
        return len(self.ops)


def _compile(outputs, tail=()) -> _Code:
    """One register program for a sequence of (root, check) outputs over
    one chart, with a tail of numbers (_Code.tail).

    Subtrees with the same structure get one value number and register: a
    constant is keyed by its bits, a variable by its index, and a negation,
    call or binary op by its name or op and its operands' numbers in order,
    so x0-x1 and x1-x0 stay apart.  An op computes each number where the
    postfix order first reaches it, and OUT hands each output to the run,
    with its check, or None.  A shared node applies the same rule to the
    same operands, so each output is bitwise the tree's own, and the first
    failure is the one the trees run one by one would meet: a value read
    again was computed without error."""
    numbers = {}  # structural key -> value number
    known = {}  # id(node) -> value number, so a subtree shared by object is walked once
    nodes = []  # value number -> (opcode, argument, node, operand numbers)
    outs = []
    for root, check in outputs:
        stack = []
        for code, arg, node in _postfix(root, known):
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
        outs.append((stack.pop(), root, check))
    registers = [arg if code is _OP_CONST else None
                 for code, arg, *_ in nodes if code is not _OP_VAR]
    fixed = iter(range(len(registers)))  # value number -> register, leaves last
    where = [len(registers) + arg if code is _OP_VAR else next(fixed) for code, arg, *_ in nodes]
    ops, done = [], set()
    for out, root, check in outs:
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
        ops.append((_OP_OUT, check, root, None, where[out], None))
    return _Code(tuple(ops), registers, tail)


def _reads_variables(expr: Expression) -> bool:
    return any(code is _OP_VAR for code, _, _ in _postfix(expr.root))


# A kernel's line _FIRST_OP_LINE + i states op i (the kernel module).
_FIRST_OP_LINE = 3


def _run(program: _Code, leaves: list, columns: bool = False):
    """The outputs of a program, in order.  Variable i reads leaves[i]:
    floats, run with math's rules, or, where columns is True, numpy columns
    of one length, run with numpy's bare functions (the kernel module).  On
    floats, an output with a check is tested, and where the test fails the
    kernel's finishing step (kernel._finish) raises the check's error; so
    an output it rejects stops the run before the next output's ops.  On
    columns nothing is tested, and the run returns (outputs, the results of
    its marked ops).  An op that raises is named by EvalDomainError; an
    error of the finishing step passes through as it is."""
    kernels = program.kernels
    if kernels is None:
        from .kernel import build  # imported with the first kernel it builds

        kernels = build(program)
    try:
        return kernels[columns](leaves)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        # the traceback runs from this frame into the kernel's, at the line
        # of the op that raised
        line = exc.__traceback__.tb_next.tb_lineno
        code, _, node, *_ = program.ops[line - _FIRST_OP_LINE]
        if code is _OP_OUT:  # raised by the finishing step
            raise
        node = getattr(node, "origin", node)
        what = node.name if type(node) is Call else repr(node.op)
        raise EvalDomainError(f"{what}: {exc}", node) from None


def _columns(program: _Code, x: np.ndarray):
    """(columns, mask): a program's outputs and then its tail at the rows
    of an (N, arity) array, N >= 1, run on numpy's bare functions, as the
    columns of one (N, width + len(tail)) array.  mask marks the rows where
    the result of a marked op (_MARKED) or an output is not finite, and
    every row where the run raised (a number divided by the number 0).

    A derived program's checks test its outputs' finiteness alone, so mask
    holds every row where the run on floats raises, and a few where it does
    not.  The caller redoes each masked row on floats, _run(program, row),
    whose numbers or error are the row's.  An unmasked row agrees with the
    run on floats to roundoff, which cancellation may amplify: the gradient
    of tanh(x1 - 10) at (3, 0.5) differs by 1e-8 relative
    (kernel.columns)."""
    from .kernel import columns

    return columns(program, x)


def _gather(places):
    """flat -> the entries at places, as a tuple."""
    if len(places) == 1:
        (place,) = places
        return lambda flat: (flat[place],)
    return operator.itemgetter(*places)


def _program_of(expr: Expression, order: int) -> tuple:
    """(program, gather) of expr at a derivative order (0, 1 or 2),
    compiled on first use and kept on it: gather(outputs + program.tail)
    is its value, gradient and row-major Hessian, as far as the order
    goes."""
    program = expr._programs[order]
    if program is None:
        from .derivative import derived  # it builds on this module

        code, (places,) = derived((expr,), order)
        program = expr._programs[order] = (code, _gather(places))
    return program


def _jet(expr: Expression, point, order: int) -> tuple:
    """The value, gradient and row-major Hessian of expr at a point (a
    sequence of reals, one per variable), as far as the order goes, each
    checked finite."""
    if len(point) != expr.arity:
        raise ValueError(f"point has length {len(point)}, expected {expr.arity}")
    program, gather = _program_of(expr, order)
    return gather(_run(program, [float(c) for c in point]) + program.tail)


@np.errstate(all="ignore")
def evaluate(expr: Expression, point) -> float:
    """Evaluate at a point (sequence of reals, length == arity)."""
    return _jet(expr, point, 0)[0]


@np.errstate(all="ignore")
def value_and_gradient(expr: Expression, point):
    """Returns (value, gradient ndarray of length arity)."""
    out = _jet(expr, point, 1)
    return out[0], np.array(out[1:])


@np.errstate(all="ignore")
def jet2(expr: Expression, point) -> Jet2:
    """Value, gradient, and Hessian at a point.  The Hessian is exactly
    symmetric: entries (i, j) and (j, i) are one tree's value."""
    n = expr.arity
    out = _jet(expr, point, 2)
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
