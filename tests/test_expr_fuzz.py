"""Property tests over expression text.

Hypothesis drives a random walk over the grammar (through st.randoms, so
it replays and shrinks the choices), plus arbitrary text for the parser.
The expressions are evaluated on a fixed grid of points that includes
zero, tiny and huge coordinates, so the domain rules and overflow paths
are hit as often as the ordinary ones.  derandomize=True keeps every run
on the same examples.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from warpcurv.derivative import gradient_nodes
from warpcurv.errors import EvalDomainError, WarpcurvError
from warpcurv.expr import (
    Const,
    Expression,
    _batches,
    _compile,
    _gradients,
    _jets,
    _run,
    _values,
    evaluate,
    format_expression,
    jet2,
    parse_expression,
    value_and_gradient,
)

from batch_reference import value_and_gradient_batch

FUZZ = settings(
    derandomize=True,
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_FUNCS = ["sin", "cos", "tan", "exp", "log", "sqrt", "sinh", "cosh", "tanh"]
_CONSTS = ["0", "0.5", "1", "1.5", "2", "3", "10", "pi", "e", "1e308"]
_EXPONENTS = ["0", "0.5", "1", "1.5", "2", "3", "-1", "-0.5"]
_COORDS = [0.0, 0.5, -0.5, 1.0, -1.0, 1.5, 2.0, -2.0, 3.0, 1e-200, 800.0, -800.0]


def _text(rnd, arity: int, depth: int) -> str:
    """Expression text from the grammar, each choice drawn from rnd."""
    if depth == 0 or rnd.random() < 0.25:
        if rnd.random() < 0.5:
            return f"x{rnd.randrange(arity)}"
        return rnd.choice(_CONSTS)
    a = _text(rnd, arity, depth - 1)
    r = rnd.random()
    if r < 0.45:
        return f"({a} {rnd.choice('+-*/^')} {_text(rnd, arity, depth - 1)})"
    if r < 0.6:
        return f"({a})^{rnd.choice(_EXPONENTS)}"
    if r < 0.7:
        return f"-{a}"
    return f"{rnd.choice(_FUNCS)}({a})"


@st.composite
def _case(draw, rows=1):
    """An expression that parses, with `rows` grid points.  Raised to the
    power 0 half the time: that discards the value and derivatives, so only
    the domain rules can reject a point, not the finiteness check."""
    rnd = draw(st.randoms(use_true_random=False))
    arity = rnd.randint(1, 3)
    text = _text(rnd, arity, rnd.randint(1, 4))
    if rnd.random() < 0.5:
        text = f"({text})^0"
    expr = parse_expression(text, arity)
    return expr, [[rnd.choice(_COORDS) for _ in range(arity)] for _ in range(rows)]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except EvalDomainError:
        return None


def _all_finite(*arrays) -> bool:
    return all(np.all(np.isfinite(a)) for a in arrays)


_TOKENS = ["x0", "x1", "x7", "(", ")", "+", "-", "*", "/", "^", "sin(", "log", "1.5",
           "2", ".", "e", "pi", "1e400", "3e", " ", "@", "y", ","]


@FUZZ
@given(
    text=st.one_of(
        st.text(alphabet="x0129.eE+-*/^() sincotaxplgqrh_@", max_size=30),
        st.lists(st.sampled_from(_TOKENS), max_size=25).map("".join),
    ),
    arity=st.integers(0, 3),
)
def test_parse_returns_an_expression_or_a_package_error(text, arity):
    try:
        expr = parse_expression(text, arity)
    except WarpcurvError:
        return
    assert isinstance(expr, Expression)


@FUZZ
@given(_case())
def test_evaluators_give_finite_numbers_and_the_domain_shrinks_with_order(case):
    expr, (point,) = case
    value = _outcome(evaluate, expr, point)
    scalar = _outcome(value_and_gradient, expr, point)
    jet = _outcome(jet2, expr, point)
    if value is not None:
        assert isinstance(value, float) and math.isfinite(value)
    if scalar is not None:
        assert scalar[1].shape == (expr.arity,) and _all_finite(*scalar)
        assert value is not None and scalar[0] == value  # bitwise
    if jet is not None:
        assert jet.hessian.shape == (expr.arity, expr.arity)
        assert _all_finite(jet.value, jet.gradient, jet.hessian)
        assert np.array_equal(jet.hessian, jet.hessian.T)
        assert scalar is not None
        assert jet.value == scalar[0] and np.array_equal(jet.gradient, scalar[1])


@FUZZ
@given(_case(rows=4))
def test_batch_raises_exactly_when_a_row_would_and_agrees_otherwise(case):
    expr, points = case
    rows = [_outcome(value_and_gradient, expr, p) for p in points]
    batch = _outcome(value_and_gradient_batch, expr, np.array(points).reshape(4, expr.arity))
    assert (batch is None) == any(r is None for r in rows)
    if batch is None:
        return
    values, grads = batch
    for i, (v, g) in enumerate(rows):
        assert values[i] == pytest.approx(v, rel=1e-12, abs=0.0)
        np.testing.assert_allclose(grads[i], g, rtol=1e-12, atol=0.0)


@st.composite
def _grid_case(draw):
    """Expressions over one chart that share subtrees on purpose, beside
    near misses that must stay apart: mirrored operands, sin(x0) beside
    sin(x1), and constants one ulp apart.  Three points."""
    rnd = draw(st.randoms(use_true_random=False))
    arity = rnd.randint(2, 3)
    a, b = (_text(rnd, arity, rnd.randint(1, 3)) for _ in range(2))
    c = rnd.choice(["0.5", "1.5", "3", "0.1"])
    c_next = repr(math.nextafter(float(c), math.inf))
    texts = [
        f"({a}) * ({b})", f"({b}) * ({a})", f"({a}) - ({b})", f"({b}) - ({a})",
        f"sin(x0) * ({a})", f"sin(x1) * ({a})", f"sin(x0) + ({b})",
        f"{c} * ({b})", f"{c_next} * ({b})", f"({a})^{c}", f"({a})^{c_next}",
        a, b, f"-({a})", f"exp(({a}) - ({b}))",
    ]
    texts = rnd.sample(texts, rnd.randint(2, len(texts)))
    exprs = [parse_expression(t, arity) for t in texts]
    return exprs, [[rnd.choice(_COORDS) for _ in range(arity)] for _ in range(3)]


def _raised(fn, *args):
    try:
        return fn(*args)
    except EvalDomainError as exc:
        return exc


def _bits(*parts) -> bytes:
    return np.concatenate([np.ravel(p) for p in parts]).astype(float).tobytes()


@settings(FUZZ, max_examples=150)
@given(_grid_case())
def test_a_shared_program_gives_each_expression_its_own_result(case):
    """Each output of one program over a grid of expressions is bitwise what
    the expression's own evaluator returns, at every order and in the batch,
    and the grid raises exactly when one of them does: with the class and
    message of the first expression that raises."""
    exprs, points = case
    program = _compile(exprs)
    # (grid run, the expression's own evaluator, its result as bytes)
    runs = [
        (_values, evaluate, _bits),
        (_gradients, value_and_gradient, lambda out: _bits(*out)),
        (_jets, jet2, lambda jet: _bits(jet.value, jet.gradient, jet.hessian)),
    ]
    calls = [(grid, own, as_bits, p) for grid, own, as_bits in runs for p in points]
    calls.append((_batches, value_and_gradient_batch, lambda out: _bits(np.column_stack(out)),
                  np.array(points, dtype=float)))
    for grid, own, as_bits, at in calls:
        want = [_raised(own, e, at) for e in exprs]
        first = next((w for w in want if isinstance(w, EvalDomainError)), None)
        got = _raised(grid, program, at)
        if first is not None:
            assert isinstance(got, EvalDomainError)
            assert (type(got), str(got)) == (type(first), str(first))
            continue
        assert not isinstance(got, Exception)
        assert [_bits(out) for out in got] == [as_bits(w) for w in want]


def _derived_gradient(expr: Expression, point):
    """(value, gradient) from one order-0 program over the expression, its
    derivative trees and their guards; raises where a value or a partial
    derivative is not finite, as value_and_gradient does."""
    k = expr.arity
    guards = []
    grads = gradient_nodes(expr.root, range(k), guards)
    trees = [Const(0.0) if g is None else g for g in grads] + guards
    outs = _run(_compile([expr, *[Expression(t, k) for t in trees]]),
                [float(c) for c in point], False, math, lambda out, value: value)
    if not all(map(math.isfinite, outs[: 1 + k])):
        raise EvalDomainError("value or gradient is not finite")
    return outs[0], np.array(outs[1 : 1 + k])


def _same_gradient(expr, point):
    want = _outcome(value_and_gradient, expr, point)
    got = _outcome(_derived_gradient, expr, point)
    assert (got is None) == (want is None), (format_expression(expr), point, want, got)
    if want is not None:
        assert got[0] == want[0]  # the value is the same tree's, bitwise
        np.testing.assert_allclose(got[1], want[1], rtol=1e-14, atol=0.0)


@FUZZ
@given(_case(rows=3))
def test_derived_gradients_raise_iff_forward_mode_does_and_agree_otherwise(case):
    expr, points = case
    for point in points:
        _same_gradient(expr, point)


@pytest.mark.parametrize(
    "text,arity,point",
    [
        ("x0^1", 1, [0.0]),  # the derivative's power x0^0 exists at 0
        ("x0^(x1-x1)", 2, [-1.0, 2.0]),  # a variable exponent asks for log(x0)
        ("x0^(x1-x1)", 2, [2.0, 2.0]),
        ("sqrt(x0)", 1, [0.0]),
        ("x0^0.5", 1, [0.0]),
        ("x0^-0.5", 1, [0.0]),
        ("sqrt(x0)^0", 1, [0.0]),  # the power drops sqrt's derivative, after taking it
        ("sqrt(x1 - x1) + x0", 2, [1.0, 1.0]),
        ("(-2)^x0", 1, [2.0]),
        ("x0^x1", 2, [0.0, 2.0]),
        ("x0^x1", 2, [-1.0, 2.0]),
        ("0*sqrt(x0)", 1, [0.0]),
        ("x0*1e308*10", 1, [1.0]),
        ("1 + x0*1e308*10 - x0*1e308*10", 1, [0.0]),
        ("exp(x0)*exp(x0)", 1, [400.0]),
        ("x0^-2", 1, [1e-200]),  # the value exists, x0^-3 overflows
        ("tan(x0)/x1 + log(x1)*cosh(x0)", 2, [0.3, 2.0]),
    ],
)
def test_derived_gradients_at_the_domain_edges(text, arity, point):
    _same_gradient(parse_expression(text, arity), point)
