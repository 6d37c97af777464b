import math

import numpy as np
import pytest

from warpcurv.errors import (
    ArityError,
    EvalDomainError,
    ParseError,
    UnknownIdentifierError,
)
from warpcurv.expr import (
    MAX_NESTING,
    evaluate,
    format_expression,
    jet2,
    parse_expression,
    reindex,
    value_and_gradient,
)

from batch_reference import value_and_gradient_batch

from fd_reference import fd_gradient, fd_hessian


# ---------------------------------------------------------------------------
# Random expression generator for the statistical checks

_FUNCS = ["sin", "cos", "tan", "exp", "log", "sqrt", "sinh", "cosh", "tanh"]


def random_expr_text(rng, arity, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return f"x{rng.integers(arity)}"
        return f"{rng.uniform(0.1, 3.0):.3f}"
    r = rng.random()
    if r < 0.55:
        op = rng.choice(["+", "-", "*", "/"])
        a = random_expr_text(rng, arity, depth - 1)
        b = random_expr_text(rng, arity, depth - 1)
        return f"({a} {op} {b})"
    if r < 0.70:
        a = random_expr_text(rng, arity, depth - 1)
        p = rng.integers(2, 4)
        return f"({a})^{p}"
    if r < 0.80:
        a = random_expr_text(rng, arity, depth - 1)
        return f"-({a})"
    fn = rng.choice(_FUNCS)
    a = random_expr_text(rng, arity, depth - 1)
    return f"{fn}({a})"


def random_pair(rng, max_arity=3, max_depth=3):
    """Expression plus point with bounded, finite jets (rejection sampled)."""
    while True:
        arity = int(rng.integers(1, max_arity + 1))
        text = random_expr_text(rng, arity, int(rng.integers(1, max_depth + 1)))
        point = rng.uniform(-2.0, 2.0, size=arity)
        try:
            expr = parse_expression(text, arity)
            jet = jet2(expr, point)
        except EvalDomainError:
            continue
        mags = [abs(jet.value), np.abs(jet.gradient).max(initial=0.0),
                np.abs(jet.hessian).max(initial=0.0)]
        if not all(np.isfinite(mags)) or mags[0] > 50 or mags[1] > 50 or mags[2] > 200:
            continue
        return expr, point, jet


# ---------------------------------------------------------------------------
# Parsing and evaluation anchors


@pytest.mark.parametrize(
    "text,arity,point,expected",
    [
        ("2 + 3*4", 0, (), 14.0),
        ("2*3 + 4", 0, (), 10.0),
        ("(1 + 2)*3", 0, (), 9.0),
        ("6/4", 0, (), 1.5),
        ("10 - 3 - 2", 0, (), 5.0),
        ("2^3^2", 0, (), 512.0),  # right-associative
        ("2^-3", 0, (), 0.125),
        ("-x0^2", 1, (3.0,), -9.0),  # unary minus binds looser than ^
        ("(-x0)^2", 1, (3.0,), 9.0),
        ("pi", 0, (), math.pi),
        ("e", 0, (), math.e),
        ("sin(pi/2)", 0, (), 1.0),
        ("sqrt(x0)", 1, (4.0,), 2.0),
        ("exp(log(5))", 0, (), 5.0),
        ("sin(x0)^2 + x1", 2, (0.5, 2.0), math.sin(0.5) ** 2 + 2.0),
        ("tanh(0)", 0, (), 0.0),
        ("cosh(0) + sinh(0)", 0, (), 1.0),
        ("x0*x1 - x1/x0", 2, (2.0, 6.0), 9.0),
        ("1e2 + 2.5e-1", 0, (), 100.25),
        (".5 + 1.", 0, (), 1.5),
    ],
)
def test_evaluate_anchors(text, arity, point, expected):
    expr = parse_expression(text, arity)
    assert evaluate(expr, point) == pytest.approx(expected, rel=1e-15, abs=1e-15)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        parse_expression("2 +", 0)
    assert exc.value.position == 3
    with pytest.raises(ParseError):
        parse_expression("(1 + 2", 0)
    with pytest.raises(ParseError) as exc:
        parse_expression("3 @ 4", 0)
    assert exc.value.position == 2
    with pytest.raises(ParseError):
        parse_expression("", 0)
    with pytest.raises(ParseError):
        parse_expression("sin x0", 1)
    with pytest.raises(ParseError):
        parse_expression("2 3", 0)
    # a literal that overflows to inf is rejected where it stands
    with pytest.raises(ParseError) as exc:
        parse_expression("x0 + 1e400", 1)
    assert exc.value.position == 5


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifierError) as exc:
        parse_expression("x0 + radius", 1)
    assert exc.value.name == "radius"


def test_arity_violation():
    with pytest.raises(ArityError) as exc:
        parse_expression("x2", 2)
    assert exc.value.index == 2
    # same text is fine with a larger arity
    parse_expression("x2", 3)


@pytest.mark.parametrize(
    "text,arity,point",
    [
        ("log(x0)", 1, (-1.0,)),
        ("log(x0)", 1, (0.0,)),
        ("sqrt(x0)", 1, (-4.0,)),
        ("1/x0", 1, (0.0,)),
        ("x0^0.5", 1, (-2.0,)),
        ("x0^x1", 2, (-1.0, 2.5)),
        ("x0^-1", 1, (0.0,)),
        ("exp(x0)", 1, (1e6,)),  # overflow maps to the same error
    ],
)
def test_eval_domain_errors(text, arity, point):
    expr = parse_expression(text, arity)
    with pytest.raises(EvalDomainError) as exc:
        evaluate(expr, point)
    assert exc.value.node is not None


def test_point_length_checked():
    expr = parse_expression("x0 + x1", 2)
    with pytest.raises(ValueError):
        evaluate(expr, (1.0,))
    with pytest.raises(ValueError):
        jet2(expr, (1.0, 2.0, 3.0))


# ---------------------------------------------------------------------------
# Derivative anchors (hand-computed)


def test_jet2_polynomial_exact():
    expr = parse_expression("x0^2*x1 + 3*x0", 2)
    jet = jet2(expr, (2.0, 5.0))
    assert jet.value == 26.0
    assert jet.gradient.tolist() == [23.0, 4.0]  # [2*x0*x1 + 3, x0^2]
    assert jet.hessian.tolist() == [[10.0, 4.0], [4.0, 0.0]]


def test_jet2_trig_anchor():
    expr = parse_expression("sin(x0)*cos(x1)", 2)
    x, y = 0.7, 1.1
    jet = jet2(expr, (x, y))
    assert jet.value == pytest.approx(math.sin(x) * math.cos(y), rel=1e-15)
    assert jet.gradient[0] == pytest.approx(math.cos(x) * math.cos(y), rel=1e-14)
    assert jet.gradient[1] == pytest.approx(-math.sin(x) * math.sin(y), rel=1e-14)
    assert jet.hessian[0, 0] == pytest.approx(-math.sin(x) * math.cos(y), rel=1e-14)
    assert jet.hessian[0, 1] == pytest.approx(-math.cos(x) * math.sin(y), rel=1e-14)
    assert jet.hessian[1, 1] == pytest.approx(-math.sin(x) * math.cos(y), rel=1e-14)


def test_first_power_hessian_at_zero():
    # f'' = p (p-1) x^(p-2) vanishes for p = 1, though x^(p-2) is 1/0 here
    jet = jet2(parse_expression("x0^1", 1), (0.0,))
    assert (jet.value, jet.gradient.tolist(), jet.hessian.tolist()) == (0.0, [1.0], [[0.0]])
    jet = jet2(parse_expression("(x0*x1)^1", 2), (0.0, 2.0))
    assert jet.gradient.tolist() == [2.0, 0.0]
    assert jet.hessian.tolist() == [[0.0, 1.0], [1.0, 0.0]]


def test_sqrt_derivative_at_zero_is_domain_error():
    expr = parse_expression("sqrt(x0)", 1)
    assert evaluate(expr, (0.0,)) == 0.0
    with pytest.raises(EvalDomainError):
        jet2(expr, (0.0,))


def test_variable_exponent_negative_base_fails_under_differentiation():
    # (-1)^2.0 is a fine value, but d/dx x0^x1 needs log(x0)
    expr = parse_expression("x0^x1", 2)
    assert evaluate(expr, (-1.0, 2.0)) == 1.0
    with pytest.raises(EvalDomainError):
        jet2(expr, (-1.0, 2.0))


# ---------------------------------------------------------------------------
# jet2 versus central differences, 1000 random pairs


def test_jet2_matches_finite_differences_bulk():
    rng = np.random.default_rng(20260815)
    for _ in range(1000):
        expr, point, jet = random_pair(rng)

        def f(x, expr=expr):
            return evaluate(expr, x)

        try:
            g_ref = fd_gradient(f, point)
            h_ref = fd_hessian(f, point)
        except EvalDomainError:
            continue  # stencil stepped outside the domain; pair is untestable
        gtol = 1e-6 * (1.0 + np.abs(jet.gradient).max(initial=0.0))
        htol = 1e-6 * (1.0 + np.abs(jet.hessian).max(initial=0.0))
        assert np.max(np.abs(jet.gradient - g_ref)) <= gtol, format_expression(expr)
        assert np.max(np.abs(jet.hessian - h_ref)) <= htol, format_expression(expr)


def test_value_and_gradient_agrees_with_jet2():
    rng = np.random.default_rng(7)
    for _ in range(50):
        expr, point, jet = random_pair(rng)
        v, g = value_and_gradient(expr, point)
        assert v == jet.value
        assert np.array_equal(g, jet.gradient)


# ---------------------------------------------------------------------------
# Structural exactness of differentiation rules


def test_sum_rule_exact():
    rng = np.random.default_rng(11)
    for _ in range(100):
        ea, pa, ja = random_pair(rng, max_arity=2)
        eb = parse_expression(random_expr_text(rng, 2, 2), 2)
        point = np.resize(pa, 2)
        try:
            jb = jet2(eb, point)
            ja = jet2(ea, np.resize(point, ea.arity))
            esum = parse_expression(
                f"({format_expression(ea)}) + ({format_expression(eb)})", 2
            )
            js = jet2(esum, point)
        except EvalDomainError:
            continue
        ga = np.zeros(2)
        ga[: ea.arity] = ja.gradient
        assert js.value == ja.value + jb.value
        assert np.array_equal(js.gradient, ga + jb.gradient)


def test_product_rule_gradient_exact():
    rng = np.random.default_rng(13)
    for _ in range(100):
        ta = random_expr_text(rng, 2, 2)
        tb = random_expr_text(rng, 2, 2)
        point = rng.uniform(-1.5, 1.5, size=2)
        try:
            ja = jet2(parse_expression(ta, 2), point)
            jb = jet2(parse_expression(tb, 2), point)
            jp = jet2(parse_expression(f"({ta})*({tb})", 2), point)
        except EvalDomainError:
            continue
        if not (np.isfinite(jp.value) and abs(jp.value) < 1e8):
            continue
        assert jp.value == ja.value * jb.value
        # same operation order as the interpreter's product rule
        expected = ja.gradient * jb.value + ja.value * jb.gradient
        assert np.array_equal(jp.gradient, expected)


def test_hessian_exactly_symmetric():
    rng = np.random.default_rng(17)
    for _ in range(200):
        _, _, jet = random_pair(rng)
        assert np.array_equal(jet.hessian, jet.hessian.T)


# ---------------------------------------------------------------------------
# Printing round trip


def test_format_parse_round_trip_values():
    rng = np.random.default_rng(19)
    for _ in range(100):
        expr, _, _ = random_pair(rng)
        text = format_expression(expr)
        back = parse_expression(text, expr.arity)
        count = 0
        while count < 100:
            point = rng.uniform(-2.0, 2.0, size=expr.arity)
            try:
                v1 = evaluate(expr, point)
            except EvalDomainError:
                continue
            v2 = evaluate(back, point)
            assert v1 == v2, text
            count += 1


@pytest.mark.parametrize(
    "text",
    [
        "-x0^2",
        "(-x0)^2",
        "x0 - (x1 - 1)",
        "x0 - x1 - 1",
        "(x0^2)^3",
        "x0^2^3",
        "2^-3",
        "x0/(x1*x1)",
        "x0/x1*x1",
        "-(x0 + x1)",
        "sin(x0)^2 + x1",
    ],
)
def test_round_trip_preserves_value_on_tricky_shapes(text):
    expr = parse_expression(text, 2)
    back = parse_expression(format_expression(expr), 2)
    rng = np.random.default_rng(23)
    for _ in range(20):
        point = rng.uniform(0.5, 2.0, size=2)
        assert evaluate(expr, point) == evaluate(back, point)


# ---------------------------------------------------------------------------
# Variable reindexing


def test_reindex_shifts_variables():
    expr = parse_expression("x0*sin(x1)", 2)
    shifted = reindex(expr, 2, 4)
    rng = np.random.default_rng(29)
    for _ in range(20):
        a, b = rng.uniform(-2, 2, size=2)
        pad = rng.uniform(-5, 5, size=2)
        full = np.array([pad[0], pad[1], a, b])
        assert evaluate(shifted, full) == evaluate(expr, (a, b))


def test_reindex_rejects_overflow():
    expr = parse_expression("x0 + x1", 2)
    with pytest.raises(ValueError):
        reindex(expr, 3, 4)


# ---------------------------------------------------------------------------
# Batched evaluation against the single-point pass


def _scalar_rows(expr, points):
    """value_and_gradient per row; None where the row raises."""
    out = []
    for x in points:
        try:
            out.append(value_and_gradient(expr, x))
        except EvalDomainError:
            out.append(None)
    return out


def _assert_rows_agree(expr, points, rows):
    values, grads = value_and_gradient_batch(expr, points)
    assert values.shape == (len(points),)
    assert grads.shape == (len(points), expr.arity)
    for i, (v, g) in enumerate(rows):
        text = f"{format_expression(expr)} at {points[i].tolist()}"
        assert values[i] == pytest.approx(v, rel=1e-12, abs=0.0, nan_ok=True), text
        np.testing.assert_allclose(grads[i], g, rtol=1e-12, atol=0.0, err_msg=text)


def _check_batch_like_scalar(expr, points):
    rows = _scalar_rows(expr, points)
    if any(r is None for r in rows):
        with pytest.raises(EvalDomainError):
            value_and_gradient_batch(expr, points)
    good = [i for i, r in enumerate(rows) if r is not None]
    if good:
        _assert_rows_agree(expr, points[good], [rows[i] for i in good])
    return len(good) < len(rows)


def test_batch_matches_scalar_on_random_expressions():
    rng = np.random.default_rng(20261017)
    raised = 0
    for _ in range(400):
        arity = int(rng.integers(1, 4))
        expr = parse_expression(random_expr_text(rng, arity, int(rng.integers(1, 5))), arity)
        # mostly inside the usual domain, with zeros and huge values mixed in
        points = rng.uniform(-2.0, 2.0, size=(12, arity))
        points[rng.random(points.shape) < 0.08] = 0.0
        points[rng.random(points.shape) < 0.04] = 800.0
        raised += _check_batch_like_scalar(expr, points)
    assert 25 < raised < 375  # both outcomes were exercised


@pytest.mark.parametrize(
    "text,arity,bad_row",
    [
        ("x0^0.5", 1, [0.0]),  # value 0 is fine, the derivative x0^-0.5 is not
        ("sqrt(x0)", 1, [0.0]),
        ("x0^x1", 2, [-2.0, 2.0]),  # variable exponent needs a positive base
        ("x0^x1", 2, [0.0, 2.0]),
        ("2^x0", 1, [2000.0]),  # exp overflows inside the variable-exponent rule
        ("x0^3", 1, [1e200]),  # math.pow overflows, numpy would give inf
        ("x0^-1", 1, [0.0]),
        ("1/x0", 1, [0.0]),
        ("exp(x0)", 1, [1000.0]),
        ("sinh(x0)", 1, [1000.0]),
        ("cosh(x0)", 1, [-1000.0]),
        ("log(x0)", 1, [0.0]),
        ("sin(x0*1e308*10)", 1, [1.0]),  # inf reaches sin
        ("tan(x0*1e308*10)", 1, [1.0]),
        ("x1/(x0 - x0)", 2, [1.0, 1.0]),
        ("x0*1e308*10", 1, [1.0]),  # overflow in arithmetic: the value is inf
        ("log(x0*1e308*10)", 1, [1.0]),  # log(inf) = inf
    ],
)
def test_batch_dual_only_domain_rules(text, arity, bad_row):
    expr = parse_expression(text, arity)
    good = np.full((3, arity), 1.5)
    points = np.vstack([good, [bad_row]])
    with pytest.raises(EvalDomainError):
        value_and_gradient(expr, bad_row)
    with pytest.raises(EvalDomainError) as exc:
        value_and_gradient_batch(expr, points)
    assert exc.value.node is not None
    _check_batch_like_scalar(expr, good)


@pytest.mark.parametrize(
    "text,arity,bad_row",
    [
        ("x0^0.5", 1, [0.0]),
        ("sqrt(x0)", 1, [0.0]),
        ("x0^x1", 2, [-2.0, 2.0]),
        ("2^x0", 1, [2000.0]),
        ("x0^3", 1, [1e200]),
        ("1/x0", 1, [0.0]),
        ("exp(x0)", 1, [1000.0]),
        ("sinh(x0)", 1, [1000.0]),
        ("cosh(x0)", 1, [-1000.0]),
        ("log(x0)", 1, [0.0]),
        ("sin(x0*1e308*10)", 1, [1.0]),
        ("cos(x0*1e308*10)", 1, [1.0]),
        ("tan(x0*1e308*10)", 1, [1.0]),
    ],
)
def test_batch_domain_rules_hold_where_the_result_is_discarded(text, arity, bad_row):
    # ^0 discards the operand, so no inf or NaN reaches the finiteness
    # check: only the domain rule itself can reject the row
    expr = parse_expression(f"({text})^0", arity)
    with pytest.raises(EvalDomainError):
        value_and_gradient(expr, bad_row)
    with pytest.raises(EvalDomainError):
        value_and_gradient_batch(expr, np.vstack([np.full((3, arity), 1.5), [bad_row]]))


@pytest.mark.parametrize(
    "text,arity,point",
    [
        ("x0^0", 1, [0.0]),  # a zero exponent makes the power constant 1
        ("tanh(x0)", 1, [1000.0]),
        ("exp(x0)", 1, [-1000.0]),
        ("x0*1e308", 1, [1.0]),  # just below overflow
        ("log(x0*1e308)", 1, [1.0]),
        ("2 + 3", 2, [0.0, 0.0]),
        ("sin(1) + x1", 2, [0.0, 0.5]),
    ],
)
def test_batch_edge_values_without_error(text, arity, point):
    expr = parse_expression(text, arity)
    assert not _check_batch_like_scalar(expr, np.array([point, point]))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except EvalDomainError:
        return None


@pytest.mark.parametrize(
    "text,arity,point,raises",
    [
        # raises = (evaluate, value_and_gradient and its batch, jet2)
        ("x0*1e308*10", 1, [1.0], (True, True, True)),  # the value is inf
        ("1 + x0*1e308*10 - x0*1e308*10", 1, [1.0], (True, True, True)),  # NaN
        ("1 + x0*1e308*10 - x0*1e308*10", 1, [0.0], (False, True, True)),  # grad inf - inf
        ("tanh(x0*1e308*10)", 1, [1.0], (False, True, True)),  # grad 0 * inf
        ("x1*exp(x0)", 2, [700.0, 1e300], (True, True, True)),
        ("log(x0)", 1, [1e-200], (False, False, True)),  # Hessian -1e400
        ("x0*1e308", 1, [1.0], (False, False, False)),
    ],
)
def test_nonfinite_results_raise_on_every_path(text, arity, point, raises):
    expr = parse_expression(text, arity)
    value = _outcome(evaluate, expr, point)
    scalar = _outcome(value_and_gradient, expr, point)
    batch = _outcome(value_and_gradient_batch, expr, np.array([point, point]))
    jet = _outcome(jet2, expr, point)
    assert (value is None, scalar is None, batch is None, jet is None) == (
        raises[0], raises[1], raises[1], raises[2]
    )
    returned = []
    if value is not None:
        returned.append(value)
    if scalar is not None:
        assert scalar[0] == value
        _assert_rows_agree(expr, np.array([point, point]), [scalar, scalar])
        returned += [*scalar, *batch]
    if jet is not None:
        assert jet.value == scalar[0] and np.array_equal(jet.gradient, scalar[1])
        returned += [jet.value, jet.gradient, jet.hessian]
    assert all(np.all(np.isfinite(out)) for out in returned)


def test_batch_of_deep_sum_has_no_recursion_limit():
    expr = parse_expression("+".join(["x0"] * 3000), 1)
    values, grads = value_and_gradient_batch(expr, np.array([[1.0], [2.0]]))
    assert values.tolist() == [3000.0, 6000.0]
    assert grads.tolist() == [[3000.0], [3000.0]]
    # every other walk over the tree is iterative too
    assert evaluate(expr, [2.0]) == 6000.0
    value, grad = value_and_gradient(expr, [2.0])
    assert (value, grad.tolist()) == (6000.0, [3000.0])
    jet = jet2(expr, [2.0])
    assert (jet.value, jet.gradient.tolist(), jet.hessian.tolist()) == (6000.0, [3000.0], [[0.0]])
    text = format_expression(expr)
    assert text == " + ".join(["x0"] * 3000)
    shifted = reindex(expr, 1, 2)
    assert evaluate(shifted, [7.0, 2.0]) == 6000.0
    assert format_expression(shifted) == " + ".join(["x1"] * 3000)


@pytest.mark.parametrize(
    "opening,closing",
    [("(", ")"), ("sin(", ")"), ("-", ""), ("2^", "")],
    ids=["parentheses", "calls", "unary-minus", "exponents"],
)
def test_nesting_limit_is_a_parse_error(opening, closing):
    depth = MAX_NESTING - 1  # the top level is the first
    parse_expression(opening * depth + "x0" + closing * depth, 1)
    with pytest.raises(ParseError) as exc:
        parse_expression(opening * 600 + "x0" + closing * 600, 1)
    assert exc.value.position == MAX_NESTING * len(opening)
    assert "nested deeper than" in str(exc.value)


def test_batch_program_compiled_once_and_shape_checked():
    expr = parse_expression("x0*sin(x1)", 2)
    value_and_gradient_batch(expr, np.ones((3, 2)))
    program = expr._programs[1]
    value_and_gradient_batch(expr, np.zeros((5, 2)))
    assert expr._programs[1] is program
    with pytest.raises(ValueError):
        value_and_gradient_batch(expr, np.ones((3, 3)))
    with pytest.raises(ValueError):
        value_and_gradient_batch(expr, np.ones(2))
