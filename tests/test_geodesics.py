import importlib.util
import math
from types import FunctionType

import numpy as np
import pytest

from pathlib import Path

from warpcurv.errors import (
    DegenerateMetricError,
    DomainExitError,
    EvalDomainError,
    NonpositiveWarpError,
    StepTooLargeError,
)
from warpcurv import kernel
from warpcurv.geodesics import GeodesicState, Trajectory, integrate, rhs_full, rhs_split
from warpcurv.geodesics import _program_of
from warpcurv.closed_form import christoffels_closed
from warpcurv.geometry import MetricSpec, christoffels_of
from warpcurv.manifest import catalog_names, load_catalog, load_manifest, parse_manifest
from warpcurv.warped import ProductPoint, WarpedProductSpec, as_plain_metric, assemble_metric

LINE = MetricSpec.from_strings(1, [["1"]], name="line")
BASE2 = MetricSpec.from_strings(
    2, [["1 + x1^2", "x0*x1"], ["x0*x1", "2"]], name="base2"
)
FIBER2 = MetricSpec.from_strings(
    2, [["exp(x0)", "0"], ["0", "1 + x1^2"]], name="fiber2"
)

SPHERE = WarpedProductSpec.build(LINE, LINE, "sin(x0)", "1", name="unit-sphere")
DEXP = WarpedProductSpec.build(LINE, LINE, "exp(x0)", "exp(x0)", name="doubly-exp")
GENERIC = WarpedProductSpec.build(
    BASE2,
    FIBER2,
    "1 + 0.5*x0^2 + 0.1*x1^2",
    "exp(0.3*x0 - 0.2*x1)",
    name="generic-2x2",
)


def state(spec, coords, vel, s=0.0):
    m = spec.base.dim
    return GeodesicState(s, ProductPoint.from_full(np.asarray(coords, float), m), np.asarray(vel, float))


def great_circle_endpoint(theta0, v_theta, v_phi, s):
    """Exact endpoint of a unit-sphere geodesic started at (theta0, phi=0).

    Rotate to Cartesian coordinates, follow the great circle, map back.
    """
    p = np.array(
        [math.sin(theta0), 0.0, math.cos(theta0)]
    )
    # tangent = v_theta * d/dtheta + v_phi * d/dphi in Cartesian components
    e_theta = np.array([math.cos(theta0), 0.0, -math.sin(theta0)])
    e_phi = np.array([0.0, math.sin(theta0), 0.0])
    t = v_theta * e_theta + v_phi * e_phi
    speed = np.linalg.norm(t)
    u = t / speed
    q = p * math.cos(speed * s) + u * math.sin(speed * s)
    theta = math.acos(max(-1.0, min(1.0, q[2])))
    phi = math.atan2(q[1], q[0])
    return theta, phi


def test_rhs_full_sphere_anchor():
    # along the equator the acceleration vanishes identically
    st = state(SPHERE, [math.pi / 2, 0.3], [0.0, 1.0])
    a = rhs_full(SPHERE, st)
    assert np.allclose(a, 0.0, atol=1e-15)
    # off the equator: theta'' = sin cos (phi')^2, phi'' = -2 cot(theta) theta' phi'
    st = state(SPHERE, [1.0, 0.0], [0.2, 0.7])
    a = rhs_full(SPHERE, st)
    expect0 = math.sin(1.0) * math.cos(1.0) * 0.49
    expect1 = -2.0 * (math.cos(1.0) / math.sin(1.0)) * 0.2 * 0.7
    assert abs(a[0] - expect0) < 1e-12
    assert abs(a[1] - expect1) < 1e-12


def test_rhs_split_matches_full():
    rng = np.random.default_rng(42)
    for spec, lo, hi in [
        (SPHERE, [0.4, 0.0], [2.7, 6.0]),
        (DEXP, [-1.0, -1.0], [1.0, 1.0]),
        (GENERIC, [-0.8, -0.8, -0.8, -0.8], [0.8, 0.8, 0.8, 0.8]),
    ]:
        lo = np.asarray(lo)
        hi = np.asarray(hi)
        for _ in range(60):
            coords = lo + (hi - lo) * rng.random(len(lo))
            vel = rng.standard_normal(len(lo))
            st = state(spec, coords, vel)
            a_full = rhs_full(spec, st)
            a_split = rhs_split(spec, st)
            scale = max(1.0, np.abs(a_full).max())
            assert np.abs(a_full - a_split).max() <= 1e-12 * scale


def test_equator_closes_after_full_turn():
    st = state(SPHERE, [math.pi / 2, 0.0], [0.0, 1.0])
    traj = integrate(SPHERE, st, s_end=2.0 * math.pi, step=1e-3, rhs="split")
    end = traj.endpoint
    assert abs(end.s - 2.0 * math.pi) < 1e-15
    assert abs(end.position.full[0] - math.pi / 2) <= 1e-6
    assert abs(end.position.full[1] - 2.0 * math.pi) <= 1e-6


def test_final_fractional_step_lands_exactly():
    st = state(SPHERE, [math.pi / 2, 0.0], [0.0, 1.0])
    traj = integrate(SPHERE, st, s_end=0.55, step=0.1)
    assert traj.endpoint.s == 0.55
    assert len(traj.samples) == 7  # 5 whole steps, one half step, plus start
    # grid samples sit at multiples of the step
    assert np.allclose(traj.s_values[:-1], 0.1 * np.arange(6), atol=1e-15)


def test_norm_conserved_long_run():
    for spec, coords, vel in [
        (SPHERE, [1.1, 0.0], [0.13, 0.21]),
        (DEXP, [0.0, 0.0], [0.11, 0.07]),
    ]:
        st = state(spec, coords, vel)
        traj = integrate(spec, st, s_end=10.0, step=1e-3, rhs="full")
        n0 = traj.norm_history[0]
        drift = np.abs(traj.norm_history - n0).max()
        assert drift <= 1e-8 * (1.0 + abs(n0))


def test_split_and_full_trajectories_agree():
    st = state(GENERIC, [0.1, -0.2, 0.3, 0.0], [0.4, 0.1, -0.3, 0.2])
    t_full = integrate(GENERIC, st, s_end=1.0, step=1e-3, rhs="full")
    t_split = integrate(GENERIC, st, s_end=1.0, step=1e-3, rhs="split")
    diff = np.abs(t_full.positions - t_split.positions).max()
    assert diff <= 1e-8
    diff_v = np.abs(t_full.velocities - t_split.velocities).max()
    assert diff_v <= 1e-8


def test_affine_reparameterization():
    # doubling the velocity and halving the parameter span retraces the
    # same curve; with a power-of-two factor RK4 reproduces it bitwise,
    # tolerance kept loose anyway
    st1 = state(GENERIC, [0.1, -0.2, 0.3, 0.0], [0.4, 0.1, -0.3, 0.2])
    st2 = state(GENERIC, [0.1, -0.2, 0.3, 0.0], [0.8, 0.2, -0.6, 0.4])
    t1 = integrate(GENERIC, st1, s_end=1.0, step=2e-3)
    t2 = integrate(GENERIC, st2, s_end=0.5, step=1e-3)
    assert len(t1.samples) == len(t2.samples)
    assert np.abs(t1.positions - t2.positions).max() <= 1e-9


def test_rk4_convergence_order():
    # inclined great circle (the equator itself has zero acceleration and
    # cannot measure order)
    theta0, vt, vp = 1.2, 0.3, 0.8
    exact_theta, exact_phi = great_circle_endpoint(theta0, vt, vp, 2.0)
    exact = np.array([exact_theta, exact_phi])
    errs = []
    for h in (0.02, 0.01):
        traj = integrate(SPHERE, state(SPHERE, [theta0, 0.0], [vt, vp]), 2.0, h)
        errs.append(np.abs(traj.endpoint.position.full - exact).max())
    order = math.log2(errs[0] / errs[1])
    assert order >= 3.8


def test_domain_exit_reports_last_good_state():
    # aim straight at the pole where the fiber warp sin(theta) hits zero
    st = state(SPHERE, [1.0, 0.0], [-1.0, 0.0])
    with pytest.raises(DomainExitError) as info:
        integrate(SPHERE, st, s_end=3.0, step=1e-2)
    err = info.value
    assert err.s < 1.05  # pole is reached near s = 1.0
    assert err.position.full[0] > 0.0


def test_step_too_large_aborts():
    st = state(SPHERE, [1.0, 0.0], [0.2, 0.7])
    with pytest.raises(StepTooLargeError) as info:
        integrate(SPHERE, st, s_end=3.0, step=1e-2, abort_drift=1e-15)
    assert info.value.drift > 1e-15


def test_integrate_validates_arguments():
    st = state(SPHERE, [1.0, 0.0], [0.2, 0.7])
    with pytest.raises(ValueError):
        integrate(SPHERE, st, s_end=1.0, step=1e-2, rhs="magic")
    with pytest.raises(ValueError):
        integrate(SPHERE, st, s_end=1.0, step=-1e-2)
    with pytest.raises(ValueError):
        integrate(SPHERE, st, s_end=-1.0, step=1e-2)
    for s_end, step in ((1.0, math.inf), (1.0, math.nan), (math.inf, 1e-2), (math.nan, 1e-2)):
        with pytest.raises(ValueError, match="must be finite"):
            integrate(SPHERE, st, s_end=s_end, step=step)
    for abort_drift in (-1e-3, float("nan")):
        with pytest.raises(ValueError):
            integrate(SPHERE, st, s_end=1.0, step=1e-2, abort_drift=abort_drift)
    with pytest.raises(ValueError):
        GeodesicState(0.0, ProductPoint.from_full(np.array([1.0, 0.0]), 1), np.array([1.0]))


def test_zero_span_returns_single_sample():
    st = state(SPHERE, [1.0, 0.0], [0.2, 0.7])
    traj = integrate(SPHERE, st, s_end=0.0, step=1e-2)
    assert len(traj.samples) == 1
    assert traj.endpoint.s == 0.0


def test_integrate_rejects_an_initial_s_or_span_that_is_not_finite():
    """ValueErrors that name initial.s or the span, not int()'s errors."""
    cases = (
        (-math.inf, 1.0, 1e-2, "initial.s"),
        (math.nan, 1.0, 1e-2, "initial.s"),
        (-1e308, 1e308, 1e-2, "span"),  # s_end - initial.s overflows
        (0.0, 1e300, 1e-10, "span"),  # so does the step count
    )
    for s0, s_end, step, what in cases:
        st = state(SPHERE, [1.0, 0.0], [0.2, 0.7], s=s0)
        with pytest.raises(ValueError, match=what):
            integrate(SPHERE, st, s_end=s_end, step=step)


@pytest.mark.parametrize("rhs", ["full", "split"])
def test_integrate_checks_the_initial_position_against_the_factors(rhs):
    # the sphere's factors are of dim 1 and 1, as rhs_full checks too
    for position in (ProductPoint([1.0], [0.0, 0.0]), ProductPoint([1.0, 0.0], [])):
        initial = GeodesicState(0.0, position, np.full(len(position.full), 0.5))
        with pytest.raises(ValueError, match="product point does not match factor dimensions"):
            integrate(SPHERE, initial, 0.1, 0.01, rhs=rhs)


@pytest.mark.parametrize("rhs", ["full", "split"])
def test_a_zero_step_run_checks_the_initial_state(rhs):
    initial = state(SPHERE, [1.0, 0.0], [math.inf, 1.0])
    with pytest.raises(DomainExitError) as none:
        integrate(SPHERE, initial, initial.s, 0.1, rhs=rhs)
    with pytest.raises(DomainExitError) as one:
        integrate(SPHERE, initial, initial.s + 0.1, 0.1, rhs=rhs)
    assert str(none.value) == str(one.value)
    assert none.value.s == one.value.s == initial.s
    assert np.array_equal(none.value.position.full, initial.position.full)


def test_samples_are_views_into_the_trajectory_arrays():
    traj = integrate(SPHERE, state(SPHERE, [1.0, 0.0], [0.2, 0.7]), s_end=0.05, step=1e-2)
    samples = traj.samples
    assert [st.s for st in samples] == traj.s_values.tolist()
    assert np.array_equal([st.position.full for st in samples], traj.positions)
    assert np.array_equal([st.velocity for st in samples], traj.velocities)
    end = traj.endpoint
    assert end.s == 0.05
    end.position.fiber_coords[0] += 1.0
    end.velocity[0] = 2.0
    assert traj.positions[-1, 1] == samples[-1].position.fiber_coords[0]
    assert traj.velocities[-1, 0] == 2.0 == traj.samples[-1].velocity[0]


@pytest.mark.parametrize("rhs", ["full", "split"])
def test_nonfinite_stage_is_a_domain_exit(rhs):
    # the first stage's acceleration overflows, so the second stage's
    # position is inf; the last healthy sample is the initial one
    initial = state(SPHERE, [1.0, 0.0], [1e200, 1e200])
    with pytest.raises(DomainExitError) as exc:
        integrate(SPHERE, initial, 1.0, 0.1, rhs=rhs)
    assert exc.value.s == 0.0
    assert exc.value.position.full.tolist() == [1.0, 0.0]


def _dense_factor(rng, k: int) -> MetricSpec:
    """delta_ij + eps s_i s_j with s_i = sin(linear): non-diagonal and
    positive definite, the shape of the benchmark's dense factors."""
    s = []
    for _ in range(k):
        terms = " + ".join(f"{rng.uniform(-1, 1):.6f}*x{j}" for j in range(k))
        s.append(f"sin({rng.uniform(0, 6):.6f} + {terms})")
    eps = rng.uniform(0.2, 0.6)
    rows = [
        [("1 + " if i == j else "") + f"{eps:.6f}*{s[min(i, j)]}*{s[max(i, j)]}" for j in range(k)]
        for i in range(k)
    ]
    return MetricSpec.from_strings(k, rows)


def _lean_path_cases():
    """(spec, box) of every catalog entry, the valid fixtures and three
    dense manifests."""
    cases = [(mf.spec, mf.box) for mf in map(load_catalog, catalog_names())]
    fixtures = Path(__file__).parent / "fixtures"
    for name in ("shifted-warp", "doubly-exp-2x2"):
        mf = load_manifest(fixtures / f"{name}.json")
        cases.append((mf.spec, mf.box))
    rng = np.random.default_rng(20261018)
    for m, n in ((2, 2), (2, 3), (3, 3)):
        f = f"exp(0.3*sin({rng.uniform(0, 6):.6f} + x0))"
        h = f"exp(0.2*cos({rng.uniform(0, 6):.6f} + x{n - 1}))"
        spec = WarpedProductSpec.build(
            _dense_factor(rng, m), _dense_factor(rng, n), f, h, name=f"dense-{m}x{n}"
        )
        cases.append((spec, np.array([[-1.0, 1.0]] * (m + n))))
    return cases


def test_rhs_match_the_plain_metric_contraction():
    """Both right-hand sides against -Gamma(v, v) from the Christoffels of
    the assembled product metric, a route through neither of them."""
    rng = np.random.default_rng(7)
    cases = _lean_path_cases()
    assert len(cases) == 10
    for spec, box in cases:
        plain = as_plain_metric(spec)
        for _ in range(8):
            x = box[:, 0] + (box[:, 1] - box[:, 0]) * rng.random(spec.dim)
            v = rng.standard_normal(spec.dim)
            gamma = christoffels_of(plain, x)
            want = -np.einsum("kij,i,j->k", gamma, v, v)
            st = state(spec, x, v)
            for rhs in (rhs_full, rhs_split):
                got = rhs(spec, st)
                assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max(), (
                    spec.name, rhs.__name__, x.tolist()
                )


@np.errstate(all="ignore")
def _reference_integrate(spec, initial, s_end, step, rhs="full", abort_drift=1e-3):
    """The loop integrate is measured against: the public right-hand side at
    every stage, and each sample's norm from assemble_metric."""
    accel = {"full": rhs_full, "split": rhs_split}[rhs]
    m, dim = spec.base.dim, spec.dim
    span = s_end - initial.s
    whole = int(np.floor(span / step + 1e-9))
    remainder = span - whole * step
    if remainder <= 1e-12 * step:
        remainder = 0.0

    def norm_at(position, velocity):
        return float(velocity @ assemble_metric(spec, position) @ velocity)

    def state_at(s, y):
        if not all(map(math.isfinite, y.tolist())):
            last = samples[-1]
            raise DomainExitError(
                last.s, last.position, f"trajectory state is no longer finite after s={last.s!r}"
            )
        return GeodesicState(s, ProductPoint._checked_by_caller(y[:m], y[m:dim]), y[dim:])

    def deriv(y):
        state = state_at(0.0, y)
        return np.concatenate([state.velocity, accel(spec, state)])

    y = np.concatenate([initial.position.full, initial.velocity])
    n0 = norm_at(initial.position, initial.velocity)
    samples = [GeodesicState(initial.s, initial.position, initial.velocity.copy())]
    norms = [n0]
    for k in range(whole + (1 if remainder else 0)):
        h = step if k < whole else remainder
        s = initial.s + (k + 1) * step if k < whole else s_end
        try:
            k1 = deriv(y)
            k2 = deriv(y + (0.5 * h) * k1)
            k3 = deriv(y + (0.5 * h) * k2)
            k4 = deriv(y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            sample = state_at(s, y)
            norm = norm_at(sample.position, sample.velocity)
        except (EvalDomainError, NonpositiveWarpError, DegenerateMetricError) as exc:
            last = samples[-1]
            raise DomainExitError(last.s, last.position, str(exc)) from exc
        drift = abs(norm - n0)
        if drift > abort_drift * (1.0 + abs(n0)):
            raise StepTooLargeError(s, drift, abort_drift * (1.0 + abs(n0)))
        samples.append(sample)
        norms.append(norm)
    return Trajectory(
        np.array([st.s for st in samples]),
        np.array([st.position.full for st in samples]),
        np.array([st.velocity for st in samples]),
        np.asarray(norms),
        m,
    )


def _bench_workloads():
    path = Path(__file__).parents[1] / "bench" / "workloads.py"
    module_spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(workloads)
    return workloads


def _fan_starts():
    """The first state of each of the benchmark's geodesic fans, with its
    manifest's spec and step."""
    workloads = _bench_workloads()
    out = []
    for k, (name, make, _, step) in enumerate(workloads.GEODESIC_FANS):
        spec = load_catalog(name).spec
        pos, vel = make(np.random.default_rng([1, k]))
        out.append((name, spec, state(spec, pos, vel), step))
    return out


def _same_run(a, b):
    assert [st.s for st in a.samples] == [st.s for st in b.samples]
    assert a.positions.tobytes() == b.positions.tobytes()
    assert a.velocities.tobytes() == b.velocities.tobytes()
    assert a.norm_history.tobytes() == b.norm_history.tobytes()


@pytest.mark.parametrize("rhs", ["full", "split"])
def test_integrate_is_bitwise_the_reference_loop(monkeypatch, rhs):
    """On the benchmark's fans, with the route's own run, where the step
    kernel takes the steps, and with a pass-through spy in geodesics._RHS,
    where the stage-by-stage step takes every one."""
    from warpcurv import geodesics

    own, calls = geodesics._RHS[rhs], []
    for spied in (False, True):
        for name, spec, start, step in _fan_starts():
            # 200 whole steps, then the same span plus a fractional final step
            for s_end in (200 * step, 200 * step + 0.4 * step):
                calls.clear()
                run = integrate(spec, start, s_end, step, rhs=rhs)
                assert len(calls) == (1 + 4 * (len(run.s_values) - 1)) * spied, name
                _same_run(run, _reference_integrate(spec, start, s_end, step, rhs=rhs))
        monkeypatch.setitem(geodesics._RHS, rhs, lambda program, y: calls.append(y) or own(program, y))


def _raised(fn, *args, **kwargs):
    with pytest.raises((DomainExitError, StepTooLargeError)) as info:
        fn(*args, **kwargs)
    return info.value


@pytest.mark.parametrize("rhs", ["full", "split"])
def test_integrate_fails_where_and_as_the_reference_loop_does(rhs):
    cases = [
        # straight at the pole, where the warp sin(theta) reaches zero
        (SPHERE, state(SPHERE, [1.0, 0.0], [-1.0, 0.0]), 3.0, 1e-2, {}),
        # a non-finite initial velocity
        (SPHERE, state(SPHERE, [1.0, 0.0], [math.inf, 0.0]), 1.0, 0.1, {}),
        # a drift budget no step keeps
        (SPHERE, state(SPHERE, [1.0, 0.0], [0.2, 0.7]), 3.0, 1e-2, {"abort_drift": 1e-15}),
    ]
    for spec, start, s_end, step, kwargs in cases:
        got = _raised(integrate, spec, start, s_end, step, rhs=rhs, **kwargs)
        want = _raised(_reference_integrate, spec, start, s_end, step, rhs=rhs, **kwargs)
        assert type(got) is type(want) and str(got) == str(want)
        if isinstance(want, DomainExitError):
            assert got.s == want.s
            assert got.position.full.tobytes() == want.position.full.tobytes()


def test_a_sample_whose_derivatives_fail_keeps_its_norm():
    # sqrt has no derivative at 0, though f = 1 + sqrt(x0) has a value there:
    # a run that starts there and takes no step still returns its sample,
    # and one that steps off it ends at it
    spec = WarpedProductSpec.build(LINE, LINE, "1 + sqrt(x0)", "1")
    start = state(spec, [0.0, 0.0], [1.0, 0.5])
    _same_run(integrate(spec, start, 0.0, 0.1), _reference_integrate(spec, start, 0.0, 0.1))
    # with a velocity that is not finite, that check comes first
    for start in (start, state(spec, [0.0, 0.0], [math.inf, 0.5])):
        got = _raised(integrate, spec, start, 1.0, 0.1)
        want = _raised(_reference_integrate, spec, start, 1.0, 0.1)
        assert isinstance(got, DomainExitError) and str(got) == str(want)
        assert got.s == want.s == 0.0


def test_a_warp_whose_square_overflows_raises_a_warpcurv_error():
    # f = exp(400) is finite, and every product of two warps overflows
    from warpcurv import bundle_closed, christoffels_closed

    spec = WarpedProductSpec.build(LINE, LINE, "exp(x0)", "1")
    at = state(spec, [400.0, 0.0], [0.0, 1.0])
    for call in (
        lambda: rhs_split(spec, at),
        lambda: rhs_full(spec, at),
        lambda: christoffels_closed(spec, np.array([400.0, 0.0])),
        lambda: bundle_closed(spec, np.array([400.0, 0.0])),
    ):
        with pytest.raises(EvalDomainError, match="not finite"):
            call()
    with pytest.raises(DomainExitError, match="no longer finite") as exc:
        integrate(spec, at, 1.0, 0.1, rhs="split")
    assert exc.value.s == 0.0


def test_the_full_program_is_the_closed_form_contraction():
    """rhs_full runs one program over derivative trees, christoffels_closed
    assembles point data's blocks with numpy: at seeded points of every
    catalog entry, valid fixture and dense manifest they agree to 1e-13."""
    fixtures = Path(__file__).parent / "fixtures"
    manifests = [load_catalog(name) for name in catalog_names()]
    manifests += [load_manifest(fixtures / f"{n}.json")
                  for n in ("shifted-warp", "doubly-exp-2x2")]
    manifests += [parse_manifest(doc, source=doc["name"])
                  for doc in _bench_workloads().dense_manifests(1)]
    rng = np.random.default_rng(12)
    for mf in manifests:
        spec, box = mf.spec, np.asarray(mf.box)
        for _ in range(20):
            x = box[:, 0] + (box[:, 1] - box[:, 0]) * rng.random(spec.dim)
            v = rng.standard_normal(spec.dim)
            want = -((christoffels_closed(spec, x) @ v) @ v)
            got = rhs_full(spec, state(spec, x, v))
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), (mf.name, x.tolist())
        assert spec._programs["full"] and "split" not in spec._programs


def test_products_without_a_split_program_take_the_factor_form_from_point_data():
    """A factor of dim > 3 has no program, and a metric entry beyond 1e100
    sends its point to point data, as _inverse_of turns to LAPACK; there
    rhs_full is the closed form's contraction, rhs_split agrees with it,
    and integrate matches the reference loop over either."""
    space = MetricSpec.from_strings(
        4, [["1 + x0^2", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"],
            ["0", "0", "0", "exp(x1)"]]
    )
    wide = WarpedProductSpec.build(LINE, space, "1 + x0^2", "exp(0.1*x3)")
    # a determinant of about 1e330, which the adjugate overflows
    big = MetricSpec.from_strings(
        3, [["1e110*(1 + x0^2)", "0", "0"], ["0", "1e110", "0"], ["0", "0", "1e110*exp(x1)"]]
    )
    huge = WarpedProductSpec.build(big, LINE, "exp(0.1*x0)", "1")
    rng = np.random.default_rng(11)
    for spec in (wide, huge):
        for _ in range(10):
            st = state(spec, rng.uniform(-0.5, 0.5, spec.dim), rng.standard_normal(spec.dim))
            want = rhs_full(spec, st)
            # the full route's point data is the closed form's contraction
            gamma = christoffels_closed(spec, st.position)
            assert want.tobytes() == (-((gamma @ st.velocity) @ st.velocity)).tobytes()
            assert np.abs(rhs_split(spec, st) - want).max() <= 1e-12 * np.abs(want).max()
        start = state(spec, [0.2] * spec.dim, [0.3] * spec.dim)
        for rhs in ("full", "split"):
            _same_run(integrate(spec, start, 0.2, 0.01, rhs=rhs),
                      _reference_integrate(spec, start, 0.2, 0.01, rhs=rhs))
    assert wide._programs == {"full": False, "split": False}
    assert huge._programs["full"] and huge._programs["split"]


# ---------------------------------------------------------------------------
# The step kernel and the stage-by-stage step that redoes a step it does not take


def _spied_steps(spec, rhs):
    """A list that records what each call of the route's step kernel gave:
    "ok", "none" where an inline test failed, or the class an op raised."""
    program = _program_of(spec, rhs)
    fused = program.step or kernel.step(program)
    outcomes = []

    def spy(*args):
        try:
            out = fused(*args)
        except Exception as exc:
            outcomes.append(type(exc).__name__)
            raise
        outcomes.append("none" if out is None else "ok")
        return out

    program.step = spy
    return outcomes


def _same_outcome(spec, start, s_end, step, rhs):
    """integrate and the reference loop give the same run, or raise the same
    class with the same message, s and position."""
    try:
        got = integrate(spec, start, s_end, step, rhs=rhs)
    except (DomainExitError, StepTooLargeError) as exc:
        want = _raised(_reference_integrate, spec, start, s_end, step, rhs=rhs)
        assert type(exc) is type(want) and str(exc) == str(want), (spec.name, str(exc))
        assert exc.s == want.s
        if isinstance(want, DomainExitError):
            assert exc.position.full.tobytes() == want.position.full.tobytes()
        return exc
    _same_run(got, _reference_integrate(spec, start, s_end, step, rhs=rhs))
    return got


FLAT2 = MetricSpec.from_strings(2, [["1", "0"], ["0", "1"]], name="flat2")


@pytest.mark.parametrize("rhs", ["full", "split"])
def test_a_stage_whose_entries_are_finite_and_whose_sum_overflows_is_redone(rhs):
    # the fiber coordinates, which nothing reads, are near the float limit:
    # each stage's test sums 2e308, so every step is redone stage by stage
    spec = WarpedProductSpec.build(LINE, FLAT2, "2 + sin(x0)", "1", name="far-fiber")
    start = state(spec, [0.3, 1e308, 1e308], [0.2, 0.5, -0.4])
    outcomes = _spied_steps(spec, rhs)
    run = _same_outcome(spec, start, 0.5, 0.1, rhs)
    assert len(run.samples) == 6 and outcomes == ["none"] * 5


@pytest.mark.parametrize("rhs", ["full", "split"])
def test_a_warp_that_reaches_zero_mid_step_is_redone(rhs):
    # sin(theta) is positive at the sample and at stages 2 and 3, and
    # negative at stage 4
    start = state(SPHERE, [0.05, 0.0], [-1.0, 0.0])
    outcomes = _spied_steps(SPHERE, rhs)
    exc = _same_outcome(SPHERE, start, 1.0, 0.08, rhs)
    assert isinstance(exc, DomainExitError) and "must be positive" in str(exc)
    assert exc.s == 0.0 and outcomes == ["none"]


@pytest.mark.parametrize("rhs", ["full", "split"])
def test_an_entry_that_crosses_the_adjugate_peak_mid_trajectory_is_redone(rhs):
    # 1e99 exp(x0) passes 1e100 at x0 = ln 10 = 2.30: from there on the
    # point takes point data, so the step kernel hands each step back
    big = MetricSpec.from_strings(1, [["1e99*exp(x0)"]], name="big")
    spec = WarpedProductSpec.build(big, LINE, "1 + 0.1*sin(x0)", "1", name="peak")
    start = state(spec, [2.2, 0.0], [0.5, 0.3])
    outcomes = _spied_steps(spec, rhs)
    run = _same_outcome(spec, start, 1.0, 0.05, rhs)
    assert run.positions[0, 0] < math.log(10.0) < run.positions[-1, 0]
    assert "ok" in outcomes and outcomes[-1] == "none" and len(outcomes) == 20
    assert outcomes == sorted(outcomes, reverse=True)  # every "ok" before every "none"


@pytest.mark.parametrize("rhs", ["full", "split"])
def test_a_sample_whose_derivative_fails_where_its_value_exists_is_redone(rhs):
    # x0 moves at constant speed -1 and lands on 0.0 exactly at the first
    # sample, where f = 1 + sqrt(x0) has a value but no derivative; every
    # stage before it stays at x0 > 0
    spec = WarpedProductSpec.build(LINE, LINE, "1 + sqrt(x0)", "1", name="root")
    step = 0.053
    x0 = (step / 6.0) * 6.0
    assert x0 + (step / 6.0) * -6.0 == 0.0 < x0 - step
    outcomes = _spied_steps(spec, rhs)
    exc = _same_outcome(spec, state(spec, [x0, 0.0], [-1.0, 0.0]), 3 * step, step, rhs)
    assert isinstance(exc, DomainExitError) and exc.s == step
    assert exc.position.full.tolist() == [0.0, 0.0]
    assert outcomes == ["ZeroDivisionError"]  # the sample's run divides by sqrt(0)


@pytest.mark.parametrize("rhs", ["full", "split"])
def test_a_stage_that_turns_nan_is_redone(rhs):
    # v0^2 overflows, and the two terms of each acceleration are infinities
    # of opposite sign: the acceleration at the start is nan, and so is the
    # second stage's state
    spec = WarpedProductSpec.build(LINE, LINE, "2 + sin(x0)", "2 + cos(x0)", name="nan")
    start = state(spec, [0.3, 4.0], [1e200, 1e200])
    outcomes = _spied_steps(spec, rhs)
    accel = spec._programs[rhs].values(start.position.full.tolist() + start.velocity.tolist())
    assert all(map(math.isnan, accel[-2:]))
    exc = _raised(integrate, spec, start, 1.0, 0.1, rhs=rhs)
    want = _raised(_reference_integrate, spec, start, 1.0, 0.1, rhs=rhs)
    assert type(exc) is type(want) is DomainExitError and exc.s == want.s == 0.0
    assert exc.position.full.tobytes() == want.position.full.tobytes()
    # the reference checks each acceleration, integrate the state it makes
    assert str(want) == "acceleration is not finite at this point"
    assert str(exc) == "trajectory state is no longer finite after s=0.0"
    assert outcomes == ["none"]


@pytest.mark.parametrize("rhs", ["full", "split"])
def test_integrate_is_the_reference_loop_from_seeded_states(rhs):
    """20-step runs from states in the box of every catalog entry, valid
    fixture and dense manifest: the same run, or the same error, and here
    the step kernel takes every step."""
    fixtures = Path(__file__).parent / "fixtures"
    manifests = [load_catalog(name) for name in catalog_names()]
    manifests += [load_manifest(fixtures / f"{n}.json")
                  for n in ("shifted-warp", "doubly-exp-2x2")]
    manifests += [parse_manifest(doc, source=doc["name"])
                  for doc in _bench_workloads().dense_manifests(1)]
    rng = np.random.default_rng(18)
    for mf in manifests:
        spec, box = mf.spec, np.asarray(mf.box)
        outcomes = _spied_steps(spec, rhs)
        for _ in range(3):
            x = box[:, 0] + (box[:, 1] - box[:, 0]) * rng.random(spec.dim)
            v = 0.5 * rng.standard_normal(spec.dim)
            assert isinstance(_same_outcome(spec, state(spec, x, v), 0.2, 0.01, rhs), Trajectory)
        assert outcomes == ["ok"] * 60, mf.name


@pytest.mark.parametrize("rhs", ["full", "split"])
def test_a_run_replaced_in_the_rhs_table_is_called_at_every_stage(monkeypatch, rhs):
    """The step kernel stands in for the route's own run alone: a run that
    something else put in geodesics._RHS (a spy, a tracer) is called four
    times a step and once at the start, and the run is the same."""
    from warpcurv import geodesics

    spec = WarpedProductSpec.build(LINE, LINE, "sin(x0)", "1", name="sphere-again")
    start = state(spec, [1.0, 0.0], [0.2, 0.7])
    own = geodesics._RHS[rhs]
    calls = []

    def spy(program, y):
        calls.append(len(y))
        return own(program, y)

    monkeypatch.setitem(geodesics._RHS, rhs, spy)
    spied = integrate(spec, start, 0.25, 0.1, rhs=rhs)  # two steps and a half step
    assert calls == [4] * (1 + 4 * 3) and spec._programs[rhs].step is None
    monkeypatch.setitem(geodesics._RHS, rhs, own)
    fused = integrate(spec, start, 0.25, 0.1, rhs=rhs)
    assert type(spec._programs[rhs].step) is FunctionType and len(calls) == 13
    _same_run(spied, fused)
    _same_run(spied, _reference_integrate(spec, start, 0.25, 0.1, rhs=rhs))
