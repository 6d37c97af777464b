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
leaves out a term that is zero by structure, and so does point data for
the terms a constant warp's zero gradient scales, so that neither
multiplies an inf by 0 where the other warp's square underflows.  A
factor of dim > 3, or a metric entry beyond _ADJUGATE_PEAK, where
_inverse_of turns to LAPACK, takes the route's formula over point data
instead (_accel_full, _accel_split).

The squared velocity norm <v, v> is monitored at every accepted sample;
geodesics preserve it exactly in the continuum, so its drift measures
integration error and aborts the run when it passes a threshold.

The integrator carries one state y = (position, velocity) as a list of
floats and does numpy's RK4 arithmetic elementwise, in its order, so a run
is bitwise the numpy loop over the public right-hand sides.  Where the
route has a program, each step is one call of its step kernel
(kernel.step), built at the first step and kept on the program: the three
later stages, each state tested for finiteness, and the new sample, each
one run of the program's ops.  A step the kernel does not finish (a test
fails or an op raises) is redone from the same state by the per-stage
loop, which also serves a route without a program or whose run was
replaced in _RHS, one run of _RHS or of point data per stage.  A step's
first stage reuses the run at the sample it starts from, which gives the
sample its norm: assemble_metric's arithmetic on that run's factor metrics
and warps (_norm).  Each accepted sample is kept as floats, its state, s
and norm, and the Trajectory's arrays are built from them once, at the
end.  A stage or sample that is no longer finite ends the run with
DomainExitError at the last healthy sample, the last one kept.
"""

from __future__ import annotations

import functools
import math
import operator
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
from .geometry import _Fallback
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
    """An integrated run: its samples' parameters s_values (N,), positions
    and velocities (N, d) and squared velocity norms norm_history (N,).

    samples and endpoint are built on each read, as GeodesicStates whose
    ProductPoint coordinates and velocity are views into positions and
    velocities: editing one in place edits the arrays, and the other way
    round."""

    s_values: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray
    norm_history: np.ndarray
    base_dim: int

    def _state(self, k: int) -> GeodesicState:
        x, m = self.positions[k], self.base_dim
        pp = ProductPoint._checked_by_caller(x[:m], x[m:])
        return GeodesicState(float(self.s_values[k]), pp, self.velocities[k])

    @property
    def samples(self) -> list:  # of GeodesicState
        return [self._state(k) for k in range(len(self.s_values))]

    @property
    def endpoint(self) -> GeodesicState:
        return self._state(-1)


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
        a = -((A.gamma @ vA) @ vA)
        # a constant w_A has no force term, as in the programs: its
        # coefficient is inf where w_O^2 underflows
        if not A.constant:
            a = a + _over(A.w, O.w * O.w) * float(vO @ O.g @ vO) * A.dwU
        accel.append(a - 2.0 * float(O.lw @ vO) * vA)
    return np.concatenate(accel)


# ---------------------------------------------------------------------------
# The programs, built and run by the split module


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
# falls back; _accel looks both up at call time, and integrate's step
# kernel stands in for _values only while it is the route's entry
_RHS = {"full": _values, "split": _values}
_FORMULAS = {"full": _accel_full, "split": _accel_split}


def _accel(spec: WarpedProductSpec, route: str, program, y: list):
    """(acceleration, what the norm reads) at the state y = [*x, *v], 2d
    floats whose position the caller has found finite: one run of the
    route's program and its values, or, where the route has no program
    (False) or it falls back at y, the route's formula and its point data.
    The integrator's per-stage loop and the public right-hand sides come
    here."""
    if program:
        try:
            values = _RHS[route](program, y)
            return values[-(program.m + program.n):], values
        except _Fallback:
            pass
    m, n = spec.base.dim, spec.fiber.dim
    pp = ProductPoint._checked_by_caller(np.array(y[:m]), np.array(y[m : m + n]))
    with np.errstate(all="ignore"):
        d = _point_data(spec, pp, with_hessians=False)
        return _FORMULAS[route](d, np.array(y[m + n :])).tolist(), d


def _rhs(spec: WarpedProductSpec, state: GeodesicState, route: str) -> np.ndarray:
    pp = _as_product_point(spec, state.position)
    y = [*pp.base_coords.tolist(), *pp.fiber_coords.tolist(), *state.velocity.tolist()]
    accel = _accel(spec, route, _program_of(spec, route), y)[0]
    if not all(map(math.isfinite, accel)):
        raise EvalDomainError("acceleration is not finite at this point")
    return np.array(accel)


def rhs_full(spec: WarpedProductSpec, state: GeodesicState) -> np.ndarray:
    """Acceleration -Gamma^k_ij v^i v^j from the assembled Christoffels."""
    return _rhs(spec, state, "full")


def rhs_split(spec: WarpedProductSpec, state: GeodesicState) -> np.ndarray:
    """Acceleration in factor form."""
    return _rhs(spec, state, "split")


@functools.lru_cache(maxsize=None)
def _layout(m: int, n: int):
    """The (m+n) x (m+n) product metric's entries, row-major, from the m*m
    scaled entries of g_B, the n*n of g_F and a 0 after them."""

    def place(i: int, j: int) -> int:
        if i < m and j < m:
            return i * m + j
        if i >= m and j >= m:
            return m * m + (i - m) * n + j - m
        return m * m + n * n

    return operator.itemgetter(*[place(i, j) for i in range(m + n) for j in range(m + n)])


def _norm(parts, m: int, v: np.ndarray) -> float:
    """<v, v> in the product metric, where parts holds g_B's m*m entries,
    g_F's, f and h, row-major: assemble_metric's arithmetic, with (h*h) g_B
    and (f*f) g_F the diagonal blocks of one array and zeros elsewhere."""
    dim, mm = len(v), m * m
    hh, ff = parts[-1] * parts[-1], parts[-2] * parts[-2]
    scaled = [hh * e for e in parts[:mm]] + [ff * e for e in parts[mm:-2]]
    scaled.append(0.0)
    g = np.array(_layout(m, dim - m)(scaled)).reshape(dim, dim)
    return float(v @ g @ v)


# what leaving the chart raises on the way
_EXITS = (EvalDomainError, NonpositiveWarpError, DegenerateMetricError)
# what a run of an op's rule raises, which expr._run names
_RAISES = (ValueError, ZeroDivisionError, OverflowError)


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
    s0 = initial.s
    if not (math.isfinite(step) and math.isfinite(s_end) and math.isfinite(s0)):
        raise ValueError(f"step, s_end and initial.s must be finite, got {step!r}, {s_end!r}, {s0!r}")
    if step <= 0.0:
        raise ValueError("step must be positive")
    if not abort_drift >= 0.0:
        raise ValueError(f"abort_drift must be >= 0, got {abort_drift!r}")
    if s_end < s0:
        raise ValueError("s_end must be >= the initial parameter value")
    span = s_end - s0
    if not math.isfinite(span / step):
        raise ValueError(f"the span s_end - initial.s = {span!r} in steps of {step!r} is not finite")
    whole = math.floor(span / step + 1e-9)
    remainder = span - whole * step
    if remainder <= 1e-12 * step:
        remainder = 0.0
    total_steps = whole + (1 if remainder else 0)
    program = _program_of(spec, rhs)
    m, dim = spec.base.dim, spec.dim

    def exit_at_last(message: str):
        """DomainExitError at the last healthy sample, the last one kept."""
        return DomainExitError(ss[-1], ProductPoint.from_full(ys[-1][:dim], m), message)

    def check(y: list):
        """The state y = [*position, *velocity], its entries checked here once."""
        if not all(map(math.isfinite, y)):
            raise exit_at_last(f"trajectory state is no longer finite after s={ss[-1]!r}")

    def deriv(y: list, c: float, k: list) -> list:
        """The stage at y + c k, by numpy's arithmetic elementwise."""
        y = [p + c * q for p, q in zip(y, k)]
        check(y)
        return y[dim:] + _accel(spec, rhs, program, y)[0]

    def reach(y: list):
        """(acceleration, norm) at a sample.  The norm needs values alone,
        which may exist where a derivative does not: where the acceleration
        fails, the sample takes its norm from assemble_metric and the error
        stands in for the acceleration, raised if a step starts there."""
        v = np.array(y[dim:])
        try:
            a, data = _accel(spec, rhs, program, y)
        except _EXITS as exc:
            return exc, float(v @ assemble_metric(spec, y[:dim]) @ v)
        if type(data) is list:
            return a, _norm(program.gather(data + program.program.tail), m, v)
        B, F = data
        return a, _norm([*B.g.ravel().tolist(), *F.g.ravel().tolist(), B.w, F.w], m, v)

    def rk4(y: list, a: list, h: float):
        """One step stage by stage, numpy's RK4 arithmetic elementwise and in
        its order: the first stage reads the acceleration of the sample it
        starts at.  (new state, acceleration, norm).  The step kernel
        (kernel._step_text) writes the same arithmetic; the two must stay
        bitwise equal."""
        if isinstance(a, Exception):
            raise a
        k1 = y[dim:] + a
        k2 = deriv(y, 0.5 * h, k1)
        k3 = deriv(y, 0.5 * h, k2)
        k4 = deriv(y, h, k3)
        c = h / 6.0
        y = [p + c * (((q1 + 2.0 * q2) + 2.0 * q3) + q4)
             for p, q1, q2, q3, q4 in zip(y, k1, k2, k3, k4)]
        check(y)
        return (y, *reach(y))

    # the accepted samples: each one's state [*x, *v], its s and its norm
    y = initial.position.full.tolist() + initial.velocity.tolist()
    ys, ss = [y], [s0]
    a, n0 = reach(y)
    norms = [n0]
    check(y)  # a non-finite initial velocity ends the run here
    # the step kernel, where the route has a program: a step whose inline
    # test fails, or whose op raises, is redone stage by stage.  It runs
    # the program in place of _values, so a run replaced in _RHS (a spy, a
    # tracer) takes the per-stage loop and is called at every stage.
    own = _RHS[rhs] is _values
    if program and own and total_steps and program.step is None:
        from . import kernel  # built at the route's first step

        kernel.step(program)
    fused = program and own and program.step
    half, sixth = 0.5 * step, step / 6.0

    for k in range(total_steps):
        h = step if k < whole else remainder
        s = s0 + (k + 1) * step if k < whole else s_end
        if k == whole:
            half, sixth = 0.5 * h, h / 6.0
        try:
            out = None
            if fused and type(a) is list:
                try:
                    out = fused(y, a, half, h, sixth)
                except _RAISES:
                    pass
            if out is None:
                y, a, norm = rk4(y, a, h)
            else:
                y, a, parts = out
                norm = _norm(parts, m, np.array(y[dim:]))
        except _EXITS as exc:
            raise exit_at_last(str(exc)) from exc
        drift = abs(norm - n0)
        if drift > abort_drift * (1.0 + abs(n0)):
            raise StepTooLargeError(s, drift, abort_drift * (1.0 + abs(n0)))
        ys.append(y)
        ss.append(s)
        norms.append(norm)

    rows = np.array(ys)
    return Trajectory(np.array(ss, dtype=float), rows[:, :dim], rows[:, dim:], np.array(norms), m)
