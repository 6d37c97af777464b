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
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from warpcurv.derivative import derived
from warpcurv.errors import EvalDomainError, WarpcurvError
from warpcurv.expr import (
    Expression,
    _columns,
    _run,
    evaluate,
    format_expression,
    jet2,
    parse_expression,
    value_and_gradient,
)

from batch_reference import rows_of, value_and_gradient_batch
from sympy_reference import jet_reference

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


def _text(rnd, arity: int, depth: int, consts=_CONSTS) -> str:
    """Expression text from the grammar, each choice drawn from rnd."""
    if depth == 0 or rnd.random() < 0.25:
        if rnd.random() < 0.5:
            return f"x{rnd.randrange(arity)}"
        return rnd.choice(consts)
    a = _text(rnd, arity, depth - 1, consts)
    r = rnd.random()
    if r < 0.45:
        return f"({a} {rnd.choice('+-*/^')} {_text(rnd, arity, depth - 1, consts)})"
    if r < 0.6:
        return f"({a})^{rnd.choice(_EXPONENTS)}"
    if r < 0.7:
        return f"-{a}"
    return f"{rnd.choice(_FUNCS)}({a})"


@st.composite
def _case(draw, rows=1, consts=_CONSTS):
    """An expression that parses, with `rows` grid points.  Raised to the
    power 0 half the time: that discards the value and derivatives, so only
    the domain rules can reject a point, not the finiteness check."""
    rnd = draw(st.randoms(use_true_random=False))
    arity = rnd.randint(1, 3)
    text = _text(rnd, arity, rnd.randint(1, 4), consts)
    if rnd.random() < 0.5:
        text = f"({text})^0"
    expr = parse_expression(text, arity)
    return expr, [[rnd.choice(_COORDS) for _ in range(arity)] for _ in range(rows)]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except EvalDomainError:
        return None


def _raised(fn, *args):
    try:
        return fn(*args)
    except EvalDomainError as exc:
        return exc


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
    """Where evaluate raises, so does every order, with its error where an
    op of the value failed (_raised_alike)."""
    expr, (point,) = case
    value, scalar, jet = (_raised(fn, expr, point) for fn in (evaluate, value_and_gradient, jet2))
    if isinstance(value, EvalDomainError):
        _raised_alike(value, [scalar, jet], (format_expression(expr), point))
    value, scalar, jet = (None if isinstance(r, EvalDomainError) else r
                          for r in (value, scalar, jet))
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


def _raised_alike(want, errors, case):
    """Each order runs an expression's value before its guards and its
    derivatives, so where an op of the value fails, every order raises that
    error, even where a guard fails too.  A value that is not finite is
    rejected only once the derivatives' ops have run, and one of them may
    raise first: the class is the same, the message may differ."""
    for got in errors:
        assert type(got) is type(want), case
        if not str(want).endswith("is not finite"):
            assert str(got) == str(want), case


def test_a_failing_value_is_named_before_a_failing_guard():
    # the guard of the power u^0 is u's gradient, whose 1/x0 fails at 0
    # too, by division rather than by log's domain
    expr = parse_expression("(-log(x0)*x1)^0", 2)
    errors = [_raised(fn, expr, [0.0, 2.0]) for fn in (evaluate, value_and_gradient, jet2)]
    assert str(errors[0]) == "log: math domain error"
    _raised_alike(errors[0], errors[1:], "(-log(x0)*x1)^0")


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


def _bits(*parts) -> bytes:
    return np.concatenate([np.ravel(p) for p in parts]).astype(float).tobytes()


def _grid_run(grid, at):
    """Each expression's entries (value, gradient, row-major Hessian as far
    as the order goes) from one run of a program over all of them, grid =
    (program, places): at a point, or as columns over the rows of an
    array."""
    program, places = grid
    if np.ndim(at) == 1:
        flat = _run(program, [float(c) for c in at]) + program.tail
        return [[flat[p] for p in ps] for ps in places]
    flat = rows_of(program, at)
    return [flat[:, ps] for ps in places]


@settings(FUZZ, max_examples=150)
@given(_grid_case())
# where x0*x0*1e308 is inf (x0 = 800 or 3), the guards of its ^0 are not
# finite, and floats take them: the grid's run masks the row, and tanh's
# gradient there is the float path's, 1e-8 from numpy's at (3, 0.5)
@example(([parse_expression("(x0*x0*1e308)^0 + x1", 2), parse_expression("tanh(x1 - 10)", 2)],
          [[800.0, 0.5], [0.5, 0.5], [3.0, 0.5]]))
def test_a_shared_program_gives_each_expression_its_own_result(case):
    """Each output of one program over a grid of expressions is bitwise what
    the expression's own evaluator returns, at every order, and the grid
    raises exactly when one of them does: with the class and message of the
    first expression that raises.  Over columns the grid raises where one of
    them raises at some row, with the first such row's first expression's
    error; otherwise a row that the grid's run masks is each expression's
    value_and_gradient there, and any other row its value_and_gradient_batch
    there."""
    exprs, points = case
    grids = [derived(exprs, order) for order in range(3)]
    # (order, the expression's own evaluator, its result as bytes)
    runs = [
        (0, evaluate, _bits),
        (1, value_and_gradient, lambda out: _bits(*out)),
        (2, jet2, lambda jet: _bits(jet.value, jet.gradient, jet.hessian)),
    ]
    calls = [(order, own, as_bits, p) for order, own, as_bits in runs for p in points]
    for order, own, as_bits, at in calls:
        want = [_raised(own, e, at) for e in exprs]
        got = _raised(_grid_run, grids[order], at)
        if not _raises_first(got, want):
            assert [_bits(out) for out in got] == [as_bits(w) for w in want]
    x = np.array(points, dtype=float)
    rows = [[_raised(value_and_gradient, e, p) for e in exprs] for p in points]
    got = _raised(_grid_run, grids[1], x)
    if not _raises_first(got, [w for row in rows for w in row]):  # the first row's first
        mask = _columns(grids[1][0], x)[1]
        for k, e in enumerate(exprs):
            batch = np.column_stack(value_and_gradient_batch(e, x))
            for i in np.flatnonzero(mask):
                batch[i] = [rows[i][k][0], *rows[i][k][1]]
            assert _bits(got[k]) == _bits(batch)


def _raises_first(got, outcomes) -> bool:
    """Whether an outcome is an error; got then raises the first one's class
    and message, and otherwise raises nothing."""
    first = next((w for w in outcomes if isinstance(w, EvalDomainError)), None)
    if first is None:
        assert not isinstance(got, Exception)
        return False
    assert isinstance(got, EvalDomainError)
    assert (type(got), str(got)) == (type(first), str(first))
    return True


def _same_as_sympy(expr, point, reference, rtol):
    """Where value_and_gradient and jet2 return and sympy's derivatives are
    finite, they agree to rtol, entry by entry."""
    want = reference(point)
    if want is None:
        return
    scalar = _outcome(value_and_gradient, expr, point)
    if scalar is not None:
        np.testing.assert_allclose(scalar[1], want[1], rtol=rtol, atol=0.0,
                                   err_msg=f"{format_expression(expr)} at {point}")
    jet = _outcome(jet2, expr, point)
    if jet is not None:
        np.testing.assert_allclose(jet.hessian, want[2], rtol=rtol, atol=0.0,
                                   err_msg=f"{format_expression(expr)} at {point}")


# sympy cannot build every tree of the full grammar: a constant near the
# float range sends its evaluation of exp or sin after digits it cannot
# reach.  The overflow paths are fuzzed above; here the literals stay small.
_SYMPY_CONSTS = [c for c in _CONSTS if c != "1e308"]


@settings(FUZZ, max_examples=100)  # sympy differentiates each example: about 10 ms
@given(_case(rows=3, consts=_SYMPY_CONSTS))
def test_gradients_and_hessians_match_sympy(case):
    """sympy's formulas are not the trees', so the two round differently,
    and far apart where a formula cancels: the Hessian of x0/(0.5 + x0) at
    800 is 1 - q over a denominator, q near 1, and the two differ there by
    1.1e-13.  Over 9,000 grammar points none differed by more than 1.4e-13."""
    expr, points = case
    reference = jet_reference(expr)
    for point in points:
        _same_as_sympy(expr, point, reference, rtol=1e-12)


# (text, arity, point, whether the gradient exists, whether the Hessian does)
EDGES = [
    ("x0^1", 1, [0.0], True, True),  # the derivative's power x0^0 exists at 0
    ("x0^(x1-x1)", 2, [-1.0, 2.0], False, False),  # a variable exponent asks for log(x0)
    ("x0^(x1-x1)", 2, [2.0, 2.0], True, True),
    ("sqrt(x0)", 1, [0.0], False, False),
    ("x0^0.5", 1, [0.0], False, False),
    ("x0^-0.5", 1, [0.0], False, False),
    ("x0^1.5", 1, [0.0], True, False),
    ("sqrt(x0)^0", 1, [0.0], False, False),  # the power drops sqrt's derivative, after taking it
    ("sqrt(x1 - x1) + x0", 2, [1.0, 1.0], False, False),
    ("(-2)^x0", 1, [2.0], False, False),
    ("x0^x1", 2, [0.0, 2.0], False, False),
    ("x0^x1", 2, [-1.0, 2.0], False, False),
    ("0*sqrt(x0)", 1, [0.0], False, False),
    ("x0*1e308*10", 1, [1.0], False, False),
    ("1 + x0*1e308*10 - x0*1e308*10", 1, [0.0], False, False),
    ("exp(x0)*exp(x0)", 1, [400.0], False, False),
    ("x0^-2", 1, [1e-200], False, False),  # the value exists, x0^-3 overflows
    ("tan(x0)/x1 + log(x1)*cosh(x0)", 2, [0.3, 2.0], True, True),
]


@pytest.mark.parametrize("text,arity,point,gradient,hessian", EDGES)
def test_derivatives_at_the_domain_edges(text, arity, point, gradient, hessian):
    expr = parse_expression(text, arity)
    scalar = _outcome(value_and_gradient, expr, point)
    jet = _outcome(jet2, expr, point)
    assert (scalar is not None, jet is not None) == (gradient, hessian)
    if scalar is not None:
        assert scalar[0] == evaluate(expr, point)  # the value is the same tree's, bitwise
    _same_as_sympy(expr, point, jet_reference(expr), rtol=1e-14)
