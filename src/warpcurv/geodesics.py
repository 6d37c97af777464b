"""Geodesics of a doubly warped product, integrated with classical RK4.

Two interchangeable right-hand sides are provided on purpose.  rhs_full
contracts the assembled product Christoffels, -Gamma^k_ij v^i v^j, in the
closed form's blocks.  rhs_split evaluates the paper's factor form: for
each factor A against the other factor O, with w_A the warp that lives
on A (f on the base, h on the fiber),

    a_A = -Gamma_A(v_A, v_A) + (w_A / w_O^2) <v_O, v_O>_O grad_A w_A
          - 2 (d ln w_O / ds) v_A,

all factor quantities unwarped.  The two are algebraically identical, and
the integrator accepts either.

The programs.  For factors of dim <= 3 each route is one straight-line
program over the 2d floats (x, v), which the split module builds on the
route's first right-hand side and keeps on the spec.  The two share the
factor part, derivative trees (the derivative module) included, and
differ in how they contract it, so their agreement checks the blocks;
sympy's derivatives are the independent reference for the derivatives.
The outputs come in _point_data's check order (base metric, f, fiber
metric, h).  Each live metric entry and warp is followed by its
derivatives and checked with them, as value_and_gradient checks a value
with its gradient; a factor's determinant meets geometry._inverse_of's
cutoff after the factor's entries, and a warp's sign is checked last.  So
a point that fails raises what _point_data raises there: both run the
same derivative trees, output by output in the same order.  A program
leaves
out a term that is zero by structure, where point data may multiply an
inf by 0.  A factor of dim > 3, or a metric entry beyond _ADJUGATE_PEAK,
where _inverse_of turns to LAPACK, takes the route's formula over point
data instead (_accel_full, _accel_split).

The squared velocity norm <v, v> is monitored at every accepted sample;
geodesics preserve it exactly in the continuum, so its drift measures
integration error and aborts the run when it passes a threshold.

The integrator carries one state y = (position, velocity) as a list of
floats and does numpy's RK4 arithmetic elementwise, in its order, so a run
is bitwise the numpy loop over the public right-hand sides.  Each stage
checks y's entries for finiteness once and is one run of the route's
program, or one pass of point data where there is none.  A step's first
stage starts at the sample the previous step ended on, so the run that
gives the sample its norm also gives that stage its acceleration: the
norm is assemble_metric's arithmetic on the factor metrics and warps of
that run, bitwise metric_at's values.  A stage or sample that is no
longer finite ends the run with DomainExitError at the last healthy
sample: the last one whose norm could be evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closed_form import _christoffels_from_data, _over, _point_data
# unused here: bench/tracer.py wraps geodesics.christoffels_closed by name
from .closed_form import christoffels_closed  # noqa: F401
from .errors import (
    DegenerateMetricError,
    DomainExitError,
    EvalDomainError,
    NonpositiveWarpError,
    StepTooLargeError,
)
# assemble_metric gives the norm only at a sample whose acceleration fails
from .warped import ProductPoint, WarpedProductSpec, _as_product_point, assemble_metric

__all__ = [
    "GeodesicState",
    "Trajectory",
    "rhs_full",
    "rhs_split",
    "integrate",
]


@dataclass
class GeodesicState:
    s: float
    position: ProductPoint
    velocity: np.ndarray

    def __post_init__(self):
        self.velocity = np.asarray(self.velocity, dtype=float)
        pos = self.position
        if len(self.velocity) != len(pos.base_coords) + len(pos.fiber_coords):
            raise ValueError("velocity length must match position dimension")


@dataclass
class Trajectory:
    samples: list  # of GeodesicState
    norm_history: np.ndarray

    @property
    def s_values(self) -> np.ndarray:
        return np.array([st.s for st in self.samples])

    @property
    def positions(self) -> np.ndarray:
        return np.array([st.position.full for st in self.samples])

    @property
    def velocities(self) -> np.ndarray:
        return np.array([st.velocity for st in self.samples])

    @property
    def endpoint(self) -> GeodesicState:
        return self.samples[-1]


def _accel_full(d, v: np.ndarray) -> np.ndarray:
    """-Gamma^k_ij v^i v^j from the assembled Christoffels of point data d."""
    return -((_christoffels_from_data(d) @ v) @ v)


def _accel_split(d, v: np.ndarray) -> np.ndarray:
    """The factor form from point data d, for a product whose factors have
    no program (a factor of dim > 3, or a metric entry beyond
    _ADJUGATE_PEAK at this point)."""
    accel = []
    for A, O in (d, d[::-1]):
        vA, vO = v[A.own], v[O.own]
        accel.append(
            -((A.gamma @ vA) @ vA)
            + _over(A.w, O.w * O.w) * float(vO @ O.g @ vO) * A.dwU
            - 2.0 * float(O.lw @ vO) * vA
        )
    return np.concatenate(accel)


# ---------------------------------------------------------------------------
# The programs, built and run by the split module


class _Fallback(Exception):
    """A factor metric entry beyond _ADJUGATE_PEAK, where _inverse_of takes
    LAPACK's determinant and inverse: the point takes point data instead."""


def _finite(accel: list) -> list:
    if not all(map(math.isfinite, accel)):
        raise EvalDomainError("acceleration is not finite at this point")
    return accel


def _program_of(spec: WarpedProductSpec, route: str):
    """The route's program of spec, built on first use and kept on it."""
    program = spec._programs.get(route)
    if program is None:
        from .split import build  # imported with the first program it builds

        program = spec._programs[route] = build(spec, route)
    return program


def _values(program, y: list) -> list:
    """A program's checked outputs at the state y = [*x, *v], a list of 2d
    floats; the acceleration is the last d."""
    return program.values(y)


# per route, one run of its program, and its formula where it has none or
# falls back; _accel looks both up at call time
_RHS = {"full": _values, "split": _values}
_FORMULAS = {"full": _accel_full, "split": _accel_split}


def _accel(spec: WarpedProductSpec, route: str, program, y: list):
    """(acceleration, what the norm reads) at the state y = [*x, *v], 2d
    floats whose position the caller has found finite: one run of the
    route's program and its values, or, where the route has no program
    (False) or it falls back at y, the route's formula and its point data.
    The integrator's stages and the public right-hand sides all come here."""
    m, n = spec.base.dim, spec.fiber.dim
    if program:
        try:
            values = _RHS[route](program, y)
            return values[-(m + n):], values
        except _Fallback:
            pass
    pp = ProductPoint._checked_by_caller(np.array(y[:m]), np.array(y[m : m + n]))
    d = _point_data(spec, pp, with_hessians=False)
    return _FORMULAS[route](d, np.array(y[m + n :])).tolist(), d


def _rhs(spec: WarpedProductSpec, state: GeodesicState, route: str) -> np.ndarray:
    y = _as_product_point(spec, state.position).full.tolist() + state.velocity.tolist()
    return np.array(_finite(_accel(spec, route, _program_of(spec, route), y)[0]))


@np.errstate(all="ignore")
def rhs_full(spec: WarpedProductSpec, state: GeodesicState) -> np.ndarray:
    """Acceleration -Gamma^k_ij v^i v^j from the assembled Christoffels."""
    return _rhs(spec, state, "full")


@np.errstate(all="ignore")
def rhs_split(spec: WarpedProductSpec, state: GeodesicState) -> np.ndarray:
    """Acceleration in factor form."""
    return _rhs(spec, state, "split")


def _norm(gb: np.ndarray, gf: np.ndarray, f: float, h: float, v: np.ndarray) -> float:
    """<v, v> in the product metric of factor metrics gb, gf and warps f, h,
    by assemble_metric's arithmetic: the same block-diagonal array, the
    same products."""
    m, dim = len(gb), len(gb) + len(gf)
    g = np.zeros((dim, dim))
    g[:m, :m] = (h * h) * gb
    g[m:, m:] = (f * f) * gf
    return float(v @ g @ v)


# what leaving the chart raises on the way
_EXITS = (EvalDomainError, NonpositiveWarpError, DegenerateMetricError)


@np.errstate(all="ignore")
def integrate(
    spec: WarpedProductSpec,
    initial: GeodesicState,
    s_end: float,
    step: float,
    rhs: str = "full",
    abort_drift: float = 1e-3,
) -> Trajectory:
    """Fixed-step classical RK4 from initial.s to s_end.

    Samples land on the uniform grid initial.s + k*step, plus one shorter
    final step when s_end is not a grid point, so the trajectory always
    ends exactly at s_end.  Raises DomainExitError when any evaluation
    leaves the chart or a stage's state is no longer finite (reporting the
    last healthy sample) and StepTooLargeError when the velocity-norm drift
    passes abort_drift relative to (1 + |initial norm|).
    """
    if rhs not in _RHS:
        raise ValueError(f"rhs must be one of {sorted(_RHS)}, got {rhs!r}")
    if not (math.isfinite(step) and math.isfinite(s_end)):
        raise ValueError(f"step and s_end must be finite, got {step!r} and {s_end!r}")
    if step <= 0.0:
        raise ValueError("step must be positive")
    if not abort_drift >= 0.0:
        raise ValueError(f"abort_drift must be >= 0, got {abort_drift!r}")
    if s_end < initial.s:
        raise ValueError("s_end must be >= the initial parameter value")
    program = _program_of(spec, rhs)
    m, dim = spec.base.dim, spec.dim

    span = s_end - initial.s
    whole = int(np.floor(span / step + 1e-9))
    remainder = span - whole * step
    if remainder <= 1e-12 * step:
        remainder = 0.0
    total_steps = whole + (1 if remainder else 0)

    def check(y: list):
        """The state y = [*position, *velocity], its entries checked here once."""
        if not all(map(math.isfinite, y)):
            last = samples[-1]
            raise DomainExitError(
                last.s, last.position, f"trajectory state is no longer finite after s={last.s!r}"
            )

    def deriv(y: list, c: float, k: list) -> list:
        """The stage at y + c k, by numpy's arithmetic elementwise."""
        y = [p + c * q for p, q in zip(y, k)]
        check(y)
        return y[dim:] + _accel(spec, rhs, program, y)[0]

    def reach(sample: GeodesicState, y: list):
        """(acceleration, norm) at a sample.  The norm needs values alone,
        which may exist where a derivative does not: where the acceleration
        fails, the sample takes its norm from assemble_metric and the error
        stands in for the acceleration, raised if a step starts there."""
        v = sample.velocity
        try:
            a, data = _accel(spec, rhs, program, y)
        except _EXITS as exc:
            return exc, float(v @ assemble_metric(spec, sample.position) @ v)
        if type(data) is list:
            return a, _norm(*program.parts(data), v)
        B, F = data
        return a, _norm(B.g, F.g, B.w, F.w, v)

    y = initial.position.full.tolist() + initial.velocity.tolist()
    samples = [GeodesicState(initial.s, initial.position, initial.velocity.copy())]
    a, n0 = reach(samples[0], y)
    norms = [n0]
    if total_steps:
        check(y)  # a non-finite initial velocity ends the run here

    for k in range(total_steps):
        h = step if k < whole else remainder
        s = initial.s + (k + 1) * step if k < whole else s_end
        try:
            if isinstance(a, Exception):
                raise a
            # numpy's RK4 arithmetic, elementwise and in its order: the
            # first stage reads the acceleration of the sample it starts at
            k1 = y[dim:] + a
            k2 = deriv(y, 0.5 * h, k1)
            k3 = deriv(y, 0.5 * h, k2)
            k4 = deriv(y, h, k3)
            c = h / 6.0
            y = [p + c * (((q1 + 2.0 * q2) + 2.0 * q3) + q4)
                 for p, q1, q2, q3, q4 in zip(y, k1, k2, k3, k4)]
            check(y)
            sample = GeodesicState(
                s,
                ProductPoint._checked_by_caller(np.array(y[:m]), np.array(y[m:dim])),
                np.array(y[dim:]),
            )
            a, norm = reach(sample, y)
        except _EXITS as exc:
            last = samples[-1]
            raise DomainExitError(last.s, last.position, str(exc)) from exc
        drift = abs(norm - n0)
        if drift > abort_drift * (1.0 + abs(n0)):
            raise StepTooLargeError(s, drift, abort_drift * (1.0 + abs(n0)))
        samples.append(sample)
        norms.append(norm)

    return Trajectory(samples, np.asarray(norms))
