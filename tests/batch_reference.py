"""Values and gradients, and Christoffels, at the rows of an array, for
the test suite.

The package keeps a runner of a program over numpy columns
(expr._columns), which none of its modules calls now: the oracle's
stencil runs on floats (kernel.stencil).  These helpers put one
expression's order-1 program, or a metric's, through that runner and hand
back its columns, so the column rules can be checked against the
one-point evaluators row by row, and the stacked Christoffels
(geometry._christoffels_stacked) fed the rows of many points at once.
"""

import numpy as np

from warpcurv.expr import _columns, _program_of
from warpcurv.geometry import _christoffels_stacked, _grid


def value_and_gradient_batch(expr, points):
    """Values (N,) and gradients (N, arity) at every row of an (N, arity)
    array; raises EvalDomainError exactly when value_and_gradient would
    raise at some row."""
    x = np.asarray(points, dtype=float)
    n = expr.arity
    if x.ndim != 2 or x.shape[1] != n:
        raise ValueError(f"points have shape {x.shape}, expected (N, {n})")
    if x.shape[0] == 0:
        return np.zeros(0), np.zeros((0, n))
    program, tail, gather = _program_of(expr, 1)
    rows = [np.broadcast_to(c, x.shape[:1]) for c in gather(_columns(program, x) + tail)]
    return rows[0].copy(), np.array(rows[1:]).reshape(n, -1).T.copy()


def christoffels_batch(spec, points):
    """Christoffels [n, k, i, j] at every row of an (N, dim) array, from one
    run of the metric's order-1 program over columns and the stacked
    inverse (geometry._christoffels_stacked); raises EvalDomainError
    exactly when the program would raise at some row."""
    program, tail, _ = _grid(spec, 1)
    return _christoffels_stacked(spec, _columns(program, np.asarray(points, dtype=float), tail))
