"""Every public numeric entry point keeps numpy's floating-point warnings
to itself: an input that overflows ends in a WarpcurvError, under a
filter that turns every warning into an exception, and the caller's numpy
error state is left as it was."""

import math
import warnings

import numpy as np
import pytest

import warpcurv as wc
from warpcurv.expr import value_and_gradient_batch

BLOWUP = "exp(x0)*exp(x0)"  # finite factors whose product, and gradient, overflow
PLANE = wc.MetricSpec.from_strings(2, [[BLOWUP, "0"], ["0", "1"]])
LINE = wc.MetricSpec.from_strings(1, [["1"]])
WARPED = wc.WarpedProductSpec.build(LINE, LINE, BLOWUP, "1")
AT = [700.0, 0.0]


def _state(coords, velocity):
    """A state on a product of two lines."""
    return wc.GeodesicState(0.0, wc.ProductPoint.from_full(np.array(coords), 1), velocity)


SPHERE = wc.load_catalog("unit-sphere").spec

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
    "sectional_fd": lambda: wc.sectional_fd(PLANE, AT, [1.0, 0.0], [0.0, 1.0]),
    "rhs_full": lambda: wc.rhs_full(WARPED, _state(AT, [1.0, 1.0])),
    "rhs_split": lambda: wc.rhs_split(WARPED, _state(AT, [1.0, 1.0])),
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
