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
so the step is kept free of numpy calls that do no arithmetic.  The
integrator carries one state vector y = (position, velocity); each stage
checks y's entries for finiteness once, on Python floats, and hands the
right-hand side a state whose position views y without checking it again.
A stage or sample that is no longer finite ends the run with
DomainExitError at the last healthy sample.  Both right-hand sides contract
with (Gamma @ v) @ v and get their Christoffels from the point path
described in the geometry module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closed_form import christoffels_closed, _point_data
from .errors import (
    DegenerateMetricError,
    DomainExitError,
    EvalDomainError,
    NonpositiveWarpError,
    StepTooLargeError,
)
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


def rhs_full(spec: WarpedProductSpec, state: GeodesicState) -> np.ndarray:
    """Acceleration -Gamma^k_ij v^i v^j from the assembled Christoffels."""
    gamma = christoffels_closed(spec, state.position)
    v = state.velocity
    return -((gamma @ v) @ v)


def rhs_split(spec: WarpedProductSpec, state: GeodesicState) -> np.ndarray:
    """Acceleration in factor form, one formula per side.  For each factor
    A, with O the other factor and w_A the warp that lives on A (f on the
    base, h on the fiber):

        a_A = -AGamma(v_A, v_A) + (w_A / w_O^2) <v_O, v_O>_O grad_A w_A
              - 2 (d ln w_O / ds) v_A

    with all factor quantities unwarped.  Identical to rhs_full after
    expanding the Christoffel blocks; computed via a different code path.
    """
    d = _point_data(spec, state.position, with_hessians=False)
    v = state.velocity
    accel = []
    for A, O in (d, d[::-1]):
        vA, vO = v[A.own], v[O.own]
        accel.append(
            -((A.gamma @ vA) @ vA)
            + (A.w / O.w**2) * float(vO @ O.g @ vO) * A.dwU
            - 2.0 * float(O.lw @ vO) * vA
        )
    return np.concatenate(accel)


_RHS = {"full": rhs_full, "split": rhs_split}


def _norm_at(spec: WarpedProductSpec, position: ProductPoint, velocity) -> float:
    g = assemble_metric(spec, position)
    return float(velocity @ g @ velocity)


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
        return np.concatenate([state.velocity, accel(spec, state)])

    y = np.concatenate([initial.position.full, initial.velocity])
    s = initial.s
    n0 = _norm_at(spec, initial.position, initial.velocity)
    samples = [GeodesicState(s, initial.position, initial.velocity.copy())]
    norms = [n0]

    total_steps = whole + (1 if remainder else 0)
    for k in range(total_steps):
        h = step if k < whole else remainder
        s = initial.s + (k + 1) * step if k < whole else s_end
        try:
            k1 = deriv(y)
            k2 = deriv(y + (0.5 * h) * k1)
            k3 = deriv(y + (0.5 * h) * k2)
            k4 = deriv(y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            sample = state_at(s, y)
            norm = _norm_at(spec, sample.position, sample.velocity)
        except (EvalDomainError, NonpositiveWarpError, DegenerateMetricError) as exc:
            last = samples[-1]
            raise DomainExitError(last.s, last.position, str(exc)) from exc
        drift = abs(norm - n0)
        if drift > abort_drift * (1.0 + abs(n0)):
            raise StepTooLargeError(s, drift, abort_drift * (1.0 + abs(n0)))
        samples.append(sample)
        norms.append(norm)

    return Trajectory(samples, np.asarray(norms))
