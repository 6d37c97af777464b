"""Every public numeric entry point keeps numpy's floating-point warnings
to itself: an input that overflows ends in a WarpcurvError, under a
filter that turns every warning into an exception, and the caller's numpy
error state is left as it was."""

import math
import warnings

import numpy as np
import pytest

import warpcurv as wc
from batch_reference import value_and_gradient_batch

BLOWUP = "exp(x0)*exp(x0)"  # finite factors whose product, and gradient, overflow
PLANE = wc.MetricSpec.from_strings(2, [[BLOWUP, "0"], ["0", "1"]])
LINE = wc.MetricSpec.from_strings(1, [["1"]])
WARPED = wc.WarpedProductSpec.build(LINE, LINE, BLOWUP, "1")
AT = [700.0, 0.0]


def _state(coords, velocity):
    """A state on a product of two lines."""
    return wc.GeodesicState(0.0, wc.ProductPoint.from_full(np.array(coords), 1), velocity)


SPHERE = wc.load_catalog("unit-sphere").spec

# f ~ 2e-170 is positive and f*f underflows to 0; with a fiber of dim 4
# neither route has a program, and the right-hand sides take point data
TINY_F = "1e-170*(2 + sin(x0))"
TINY = wc.WarpedProductSpec.build(LINE, LINE, TINY_F, "1")
SPACE4 = wc.MetricSpec.from_strings(
    4, [["1" if i == j else "0" for j in range(4)] for i in range(4)]
)
TINY4 = wc.WarpedProductSpec.build(LINE, SPACE4, TINY_F, "1")
TINY_AT = [0.3, 0.0, 0.0, 0.0, 0.0]

CALLS = {
    "evaluate": lambda: wc.evaluate(wc.parse_expression(BLOWUP, 1), [700.0]),
    "value_and_gradient": lambda: wc.value_and_gradient(wc.parse_expression(BLOWUP, 1), [700.0]),
    "value_and_gradient_batch": lambda: value_and_gradient_batch(
        wc.parse_expression(BLOWUP, 1), [[0.0], [700.0]]
    ),
    "jet2": lambda: wc.jet2(wc.parse_expression(BLOWUP, 1), [700.0]),
    "metric_at": lambda: wc.metric_at(PLANE, AT),
    "christoffels_of": lambda: wc.christoffels_of(PLANE, AT),
    "assemble_metric": lambda: wc.assemble_metric(WARPED, AT),
    "christoffels_closed": lambda: wc.christoffels_closed(WARPED, AT),
    "bundle_closed": lambda: wc.bundle_closed(WARPED, AT),
    "bundle_fd": lambda: wc.bundle_fd(PLANE, AT),
    "rhs_full": lambda: wc.rhs_full(WARPED, _state(AT, [1.0, 1.0])),
    "rhs_split": lambda: wc.rhs_split(WARPED, _state(AT, [1.0, 1.0])),
    "christoffels_closed_underflow": lambda: wc.christoffels_closed(TINY, [0.3, 0.0]),
    "bundle_closed_underflow": lambda: wc.bundle_closed(TINY, [0.3, 0.0]),
    "rhs_full_underflow": lambda: wc.rhs_full(TINY4, _state(TINY_AT, [1.0] * 5)),
    "rhs_split_underflow": lambda: wc.rhs_split(TINY4, _state(TINY_AT, [1.0] * 5)),
    "integrate_underflow": lambda: wc.integrate(TINY4, _state(TINY_AT, [1.0] * 5), 1.0, 0.1),
    # the first stage's acceleration overflows, so the second stage is inf
    "integrate": lambda: wc.integrate(SPHERE, _state([1.0, 0.0], [1e200, 1e200]), 1.0, 0.1),
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_overflow_raises_a_warpcurv_error_not_a_warning(name):
    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(wc.WarpcurvError):
            CALLS[name]()
    assert np.geterr() == before


def test_a_finite_call_leaves_the_error_state_alone():
    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a = wc.rhs_split(SPHERE, _state([1.0, 0.0], [0.2, 0.7]))
    assert all(map(math.isfinite, a.tolist()))
    assert np.geterr() == before


def test_a_warp_whose_square_underflows_is_a_domain_error_or_finite():
    """The closed form and point data divide by f*f = 0 where f ~ 2e-170,
    and say the result is not finite, as they do where a square overflows.
    The programs leave out the term f*f scales, which h's zero gradient
    makes zero, and both routes give the same finite acceleration."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call, what in (
            (lambda: wc.christoffels_closed(TINY, [0.3, 0.0]), "curvature"),
            (lambda: wc.bundle_closed(TINY, [0.3, 0.0]), "curvature"),
            (lambda: wc.rhs_full(TINY4, _state(TINY_AT, [1.0] * 5)), "acceleration"),
            (lambda: wc.rhs_split(TINY4, _state(TINY_AT, [1.0] * 5)), "acceleration"),
        ):
            with pytest.raises(wc.EvalDomainError, match=f"^{what} is not finite at this point$"):
                call()
        state = _state([0.3, 0.0], [1.0, 1.0])
        full, split = wc.rhs_full(TINY, state), wc.rhs_split(TINY, state)
    assert all(map(math.isfinite, full.tolist())) and np.array_equal(full, split)
