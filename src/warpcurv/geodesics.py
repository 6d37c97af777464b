"""Geodesics of a doubly warped product, integrated with classical RK4.

Two interchangeable right-hand sides are provided on purpose: rhs_full
contracts the assembled product Christoffels, while rhs_split works purely
in factor terms (factor Christoffels plus warp-gradient forcing).  They are
algebraically identical, so their agreement is a structural check on the
Christoffel blocks, and the integrator accepts either.

The squared velocity norm <v, v> is monitored at every accepted sample;
geodesics preserve it exactly in the continuum, so its drift measures
integration error and aborts the run when it passes a threshold.

One RK4 step costs four right-hand sides on arrays of two to four entries,
so the step is kept free of numpy calls that do no arithmetic.  Each stage
computes the point data of its position once (closed_form._point_data,
first derivatives only), and _RHS maps "full" and "split" to the two
acceleration formulas over (point data, velocity); rhs_full and rhs_split
compute the point data and call the same formulas.  A step's first stage
starts at the sample the previous step ended on, so the point data that
gives the sample its norm also gives that stage its acceleration: the norm
is assemble_metric's arithmetic on the point data's factor metrics and
warps, and only the final sample computes point data for its norm alone.

The integrator carries one state vector y = (position, velocity); each
stage checks y's entries for finiteness once, on Python floats, and hands
the formula a position that views y without checking it again.  A stage
or sample that is no longer finite ends the run with DomainExitError at
the last healthy sample: the last one whose norm could be evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closed_form import _christoffels_from_data, _point_data
# unused here: bench/tracer.py wraps geodesics.christoffels_closed by name
from .closed_form import christoffels_closed  # noqa: F401
from .errors import (
    DegenerateMetricError,
    DomainExitError,
    EvalDomainError,
    NonpositiveWarpError,
    StepTooLargeError,
)
# assemble_metric gives the norm only at a sample whose point data fails
from .warped import ProductPoint, WarpedProductSpec, assemble_metric

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
    """The acceleration in factor form, from point data d, one formula per
    side.  For each factor A, with O the other factor and w_A the warp that
    lives on A (f on the base, h on the fiber):

        a_A = -AGamma(v_A, v_A) + (w_A / w_O^2) <v_O, v_O>_O grad_A w_A
              - 2 (d ln w_O / ds) v_A

    with all factor quantities unwarped.  Identical to _accel_full after
    expanding the Christoffel blocks; computed via a different code path.
    """
    accel = []
    for A, O in (d, d[::-1]):
        vA, vO = v[A.own], v[O.own]
        accel.append(
            -((A.gamma @ vA) @ vA)
            + (A.w / O.w**2) * float(vO @ O.g @ vO) * A.dwU
            - 2.0 * float(O.lw @ vO) * vA
        )
    return np.concatenate(accel)


# integrate looks its acceleration up here at call time, and so do the
# public right-hand sides
_RHS = {"full": _accel_full, "split": _accel_split}


@np.errstate(all="ignore")
def rhs_full(spec: WarpedProductSpec, state: GeodesicState) -> np.ndarray:
    """Acceleration -Gamma^k_ij v^i v^j from the assembled Christoffels."""
    return _RHS["full"](_point_data(spec, state.position, with_hessians=False), state.velocity)


@np.errstate(all="ignore")
def rhs_split(spec: WarpedProductSpec, state: GeodesicState) -> np.ndarray:
    """Acceleration in factor form (see _accel_split)."""
    return _RHS["split"](_point_data(spec, state.position, with_hessians=False), state.velocity)


def _norm(d, v: np.ndarray) -> float:
    """<v, v> in the product metric at point data d, by assemble_metric's
    arithmetic: the same block-diagonal array, the same products."""
    B, F = d
    m, dim = B.dim, B.dim + F.dim
    g = np.zeros((dim, dim))
    g[:m, :m] = (F.w * F.w) * B.g
    g[m:, m:] = (B.w * B.w) * F.g
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
    if step <= 0.0:
        raise ValueError("step must be positive")
    if s_end < initial.s:
        raise ValueError("s_end must be >= the initial parameter value")
    accel = _RHS[rhs]
    m, dim = spec.base.dim, spec.dim

    span = s_end - initial.s
    whole = int(np.floor(span / step + 1e-9))
    remainder = span - whole * step
    if remainder <= 1e-12 * step:
        remainder = 0.0
    total_steps = whole + (1 if remainder else 0)

    def state_at(s: float, y: np.ndarray) -> GeodesicState:
        """The state y = (position, velocity), its entries checked here once."""
        if not all(map(math.isfinite, y.tolist())):
            last = samples[-1]
            raise DomainExitError(
                last.s, last.position, f"trajectory state is no longer finite after s={last.s!r}"
            )
        return GeodesicState(s, ProductPoint._checked_by_caller(y[:m], y[m:dim]), y[dim:])

    def deriv(y: np.ndarray) -> np.ndarray:
        state = state_at(0.0, y)
        d = _point_data(spec, state.position, with_hessians=False)
        return np.concatenate([state.velocity, accel(d, state.velocity)])

    def reach(sample: GeodesicState):
        """(point data, norm) at a sample.  The norm needs values alone,
        which may exist where a derivative does not: where the point data
        fails, the sample takes its norm from assemble_metric and the error
        stands in for the point data, raised if a step starts there."""
        try:
            d = _point_data(spec, sample.position, with_hessians=False)
        except _EXITS as exc:
            v = sample.velocity
            return exc, float(v @ assemble_metric(spec, sample.position) @ v)
        return d, _norm(d, sample.velocity)

    y = np.concatenate([initial.position.full, initial.velocity])
    samples = [GeodesicState(initial.s, initial.position, initial.velocity.copy())]
    d, n0 = reach(samples[0])
    norms = [n0]
    if total_steps:
        state_at(initial.s, y)  # a non-finite initial velocity ends the run here

    for k in range(total_steps):
        h = step if k < whole else remainder
        s = initial.s + (k + 1) * step if k < whole else s_end
        try:
            if isinstance(d, Exception):
                raise d
            # the first stage reads the point data of the sample it starts at
            v = y[dim:]
            k1 = np.concatenate([v, accel(d, v)])
            k2 = deriv(y + (0.5 * h) * k1)
            k3 = deriv(y + (0.5 * h) * k2)
            k4 = deriv(y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            sample = state_at(s, y)
            d, norm = reach(sample)
        except _EXITS as exc:
            last = samples[-1]
            raise DomainExitError(last.s, last.position, str(exc)) from exc
        drift = abs(norm - n0)
        if drift > abort_drift * (1.0 + abs(n0)):
            raise StepTooLargeError(s, drift, abort_drift * (1.0 + abs(n0)))
        samples.append(sample)
        norms.append(norm)

    return Trajectory(samples, np.asarray(norms))
