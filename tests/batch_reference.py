"""Values and gradients at the rows of an array, for the test suite.

The package runs a program over a stack of points only inside its own
loops (expr._batches, for the oracle's stencil and the stacked
Christoffels); this helper puts one expression's program through that
runner and hands back its columns, so the batch rules can be checked
against the one-point evaluators row by row.
"""

import numpy as np

from warpcurv.expr import _batches, _program_of


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
    out = _batches(_program_of(expr), x)[0]
    return out[:, 0], out[:, 1:]
