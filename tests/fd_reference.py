"""Plain finite-difference reference derivatives for the test suite.

Deliberately independent of the package's differentiation code: central
differences with one Richardson sweep, nothing shared with the chain rules
under test.
"""

import numpy as np


def _grad_once(f, x, steps):
    n = len(x)
    g = np.zeros(n)
    for i in range(n):
        xp = x.copy()
        xm = x.copy()
        xp[i] += steps[i]
        xm[i] -= steps[i]
        g[i] = (f(xp) - f(xm)) / (2.0 * steps[i])
    return g


def fd_gradient(f, x, h0=1e-4):
    """Richardson-extrapolated central-difference gradient of f at x."""
    x = np.asarray(x, dtype=float)
    steps = h0 * (1.0 + np.abs(x))
    d1 = _grad_once(f, x, steps)
    d2 = _grad_once(f, x, steps / 2.0)
    return (4.0 * d2 - d1) / 3.0


def _hess_once(f, x, steps):
    n = len(x)
    h = np.zeros((n, n))
    f0 = f(x)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = steps[i]
        h[i, i] = (f(x + ei) - 2.0 * f0 + f(x - ei)) / steps[i] ** 2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = steps[j]
            v = (f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)) / (
                4.0 * steps[i] * steps[j]
            )
            h[i, j] = h[j, i] = v
    return h


def fd_hessian(f, x, h0=1e-3):
    """Richardson-extrapolated second differences of f at x."""
    x = np.asarray(x, dtype=float)
    steps = h0 * (1.0 + np.abs(x))
    d1 = _hess_once(f, x, steps)
    d2 = _hess_once(f, x, steps / 2.0)
    return (4.0 * d2 - d1) / 3.0
