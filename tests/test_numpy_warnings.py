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
# neither route has a program, and the right-hand sides take point data.
# h = 1 is constant, so every term that 1 / f^2 scales is zero by structure
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
    # the contraction divides f f'', which underflows to 0, by f^2 = 0
    "bundle_closed_underflow": lambda: wc.bundle_closed(TINY, [0.3, 0.0]),
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


def _trajectory_arrays():
    t = wc.integrate(TINY4, _state(TINY_AT, [1.0] * 5), 1.0, 0.1)
    return [t.positions, t.velocities, t.norm_history]


# the terms that 1 / f^2 scales are left out, since h's gradient is zero
# by structure: each call gives finite numbers
UNDERFLOW = {
    "christoffels_closed_underflow": lambda: [wc.christoffels_closed(TINY, [0.3, 0.0])],
    "rhs_full_underflow": lambda: [wc.rhs_full(TINY4, _state(TINY_AT, [1.0] * 5))],
    "rhs_split_underflow": lambda: [wc.rhs_split(TINY4, _state(TINY_AT, [1.0] * 5))],
    "integrate_underflow": _trajectory_arrays,
}


@pytest.mark.parametrize("name", sorted(UNDERFLOW))
def test_an_underflowed_square_that_a_zero_gradient_scales_is_left_out(name):
    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        arrays = UNDERFLOW[name]()
    assert all(np.isfinite(a).all() for a in arrays)
    assert np.geterr() == before


def test_a_warp_whose_square_underflows_is_a_domain_error_or_finite():
    """Where f ~ 2e-170, f*f underflows to 0.  The Christoffels and both
    right-hand sides leave out the terms that h's zero gradient makes
    zero, and give finite numbers: the routes agree, on the programs and
    on point data.  The closed form's scalar contraction still divides
    f f'' by f*f, and says the result is not finite, as it does where a
    square overflows."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gamma = wc.christoffels_closed(TINY, [0.3, 0.0])
        with pytest.raises(wc.EvalDomainError, match="^curvature is not finite at this point$"):
            wc.bundle_closed(TINY, [0.3, 0.0])
        state = _state([0.3, 0.0], [1.0, 1.0])
        full, split = wc.rhs_full(TINY, state), wc.rhs_split(TINY, state)
        state4 = _state(TINY_AT, [1.0] * 5)
        full4, split4 = wc.rhs_full(TINY4, state4), wc.rhs_split(TINY4, state4)
    assert gamma[1, 0, 1] == gamma[1, 1, 0] == pytest.approx(
        math.cos(0.3) / (2.0 + math.sin(0.3)), rel=1e-15)
    # on the 1+1 product both routes run their programs, which agree exactly
    assert all(map(math.isfinite, full.tolist())) and np.array_equal(full, split)
    # on the 1+4 product both routes take point data, by different sums
    assert all(map(math.isfinite, full4.tolist()))
    assert np.abs(full4 - split4).max() <= 1e-12 * max(1.0, np.abs(full4).max())
