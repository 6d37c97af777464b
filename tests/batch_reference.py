"""Values and gradients, and Christoffels, at the rows of an array, for
the test suite.

The package keeps a runner of a program over numpy columns
(expr._columns), which none of its modules calls now: the oracle's
stencil runs on floats (kernel.stencil).  It raises nothing, and masks
the rows that the run on floats may reject.  rows_of redoes each masked
row on floats, so a row's numbers or error are the float path's wherever
the columns may not be.  The helpers below put one expression's order-1
program, or a metric's, through it, so the columns can be checked against
the one-point evaluators row by row, and the stacked Christoffels
(geometry._christoffels_stacked) fed the rows of many points at once.
"""

import numpy as np

from warpcurv.expr import _columns, _finite, _program_of, _run
from warpcurv.geometry import _christoffels_stacked, _grid


def rows_of(program, x, tail=()):
    """A program's outputs and then tail at each row of an (N, arity) array
    x, N >= 1, as one (N, width + len(tail)) array: its run over columns,
    each masked row redone on floats.  Where a redone row raises, the first
    such row's error is raised as the run on floats raises it."""
    x = np.asarray(x, dtype=float)
    flat, mask = _columns(program, x, list(tail))
    for i in np.flatnonzero(mask):
        flat[i] = _run(program, [float(c) for c in x[i]], _finite) + list(tail)
    return flat


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
    rows = gather(rows_of(program, x, tail).T)
    return rows[0].copy(), np.array(rows[1:]).reshape(n, -1).T.copy()


def christoffels_batch(spec, points):
    """Christoffels [n, k, i, j] at every row of an (N, dim) array, from one
    run of the metric's order-1 program over columns and the stacked
    inverse (geometry._christoffels_stacked); raises EvalDomainError
    exactly when the program would raise at some row."""
    program, tail, _ = _grid(spec, 1)
    return _christoffels_stacked(spec, rows_of(program, points, tail))
