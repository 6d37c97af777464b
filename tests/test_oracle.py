import ast
import math
from pathlib import Path

import numpy as np
import pytest

import warpcurv.oracle as oracle_module
from warpcurv.bundle import CurvatureBundle
from warpcurv.errors import NumericalInstabilityError, StencilDomainError
from warpcurv.geometry import MetricSpec, Point, christoffels_of, metric_at
from warpcurv.oracle import DiffPolicy, bundle_fd, compare_bundles, _ricci_from_common

SPHERE = MetricSpec.from_strings(2, [["1", "0"], ["0", "sin(x0)^2"]], name="sphere")
SPHERE_R2 = MetricSpec.from_strings(2, [["4", "0"], ["0", "4*sin(x0)^2"]], name="sphere-r2")
FLAT3 = MetricSpec.from_strings(
    3, [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]], name="flat3"
)
# spatially flat expanding spacetime, scale factor exp(t)
DESITTER = MetricSpec.from_strings(
    4,
    [
        ["-1", "0", "0", "0"],
        ["0", "exp(2*x0)", "0", "0"],
        ["0", "0", "exp(2*x0)", "0"],
        ["0", "0", "0", "exp(2*x0)"],
    ],
    name="desitter",
)


def sphere_riemann_common(theta: float) -> np.ndarray:
    s2 = np.sin(theta) ** 2
    r = np.zeros((2, 2, 2, 2))
    r[0, 1, 0, 1] = s2
    r[0, 1, 1, 0] = -s2
    r[1, 0, 1, 0] = 1.0
    r[1, 0, 0, 1] = -1.0
    return r


# ---------------------------------------------------------------------------
# Policy plumbing


def test_diff_policy_validation():
    DiffPolicy(richardson_levels=1)
    DiffPolicy(richardson_levels=3)
    with pytest.raises(ValueError):
        DiffPolicy(richardson_levels=0)
    with pytest.raises(ValueError):
        DiffPolicy(richardson_levels=4)
    for base_step in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            DiffPolicy(base_step=base_step)


def test_step_scaling():
    p = DiffPolicy(base_step=1e-3, relative_scaling=True)
    steps = p.steps_at(np.array([0.0, 9.0]))
    assert steps.tolist() == [1e-3, 1e-2]
    p = DiffPolicy(base_step=1e-3, relative_scaling=False)
    assert p.steps_at(np.array([0.0, 9.0])).tolist() == [1e-3, 1e-3]


# ---------------------------------------------------------------------------
# Riemann tensor


def test_sphere_riemann_matches_analytic():
    rng = np.random.default_rng(67)
    for _ in range(10):
        theta = rng.uniform(0.4, 2.7)
        p = Point([theta, rng.uniform(0, 6)])
        got = bundle_fd(SPHERE, p, convention="common").riemann
        assert np.abs(got - sphere_riemann_common(theta)).max() <= 1e-8


def test_paper_convention_is_negated_common():
    p = Point([1.1, 0.3])
    a = bundle_fd(SPHERE, p, convention="paper").riemann
    b = bundle_fd(SPHERE, p, convention="common").riemann
    assert np.array_equal(a, -b)


def test_unknown_convention_rejected():
    with pytest.raises(ValueError):
        bundle_fd(SPHERE, Point([1.0, 0.0]), convention="weird")


def test_flat_riemann_vanishes():
    r = bundle_fd(FLAT3, Point([0.3, -0.2, 0.9])).riemann
    assert np.abs(r).max() <= 1e-12


def test_richardson_levels_increase_accuracy():
    theta = 1.0
    p = Point([theta, 0.0])
    exact = sphere_riemann_common(theta)
    errs = []
    for levels in (1, 2, 3):
        pol = DiffPolicy(base_step=1e-3, richardson_levels=levels)
        got = bundle_fd(SPHERE, p, pol, convention="common").riemann
        errs.append(np.abs(got - exact).max())
    assert errs[1] < errs[0] / 100.0  # h^2 -> h^4 with h=1e-3-ish steps
    assert errs[2] <= errs[1] * 10.0  # level 3 stays near roundoff


def test_stencil_domain_error():
    # sqrt is fine at the center but the stencil reaches x0 < 0
    edgy = MetricSpec.from_strings(2, [["1 + sqrt(x0)", "0"], ["0", "1"]], name="edgy")
    with pytest.raises(StencilDomainError):
        bundle_fd(edgy, Point([1e-6, 0.0]))


def _first_stencil_failure(spec, coords, policy):
    """The stencil walked point by point: axis, then level, then +h before
    -h.  Returns (axis, delta, exception) of the first point that fails."""
    steps = policy.steps_at(coords)
    for axis in range(spec.dim):
        for level in range(policy.richardson_levels):
            h = steps[axis] / (2.0**level)
            for delta in (h, -h):
                x = coords.copy()
                x[axis] += delta
                try:
                    christoffels_of(spec, x)
                except Exception as exc:  # noqa: BLE001 - any failure counts
                    return axis, delta, exc
    return None


@pytest.mark.parametrize(
    "rows,center",
    [
        # -h on axis 1 leaves the sqrt domain; axis 0 never fails
        ([["1", "0"], ["0", "1 + sqrt(x1)"]], [0.5, 1e-6]),
        # +h on axis 0 lands exactly on a zero determinant
        ([["(x0 - 0.0001)^2", "0"], ["0", "1"]], [0.0, 0.5]),
        # axis 0 fails only at level 1's +h, axis 1 at level 0's -h
        ([["(x0 - 0.2500625)^2", "0"], ["0", "1 + sqrt(x1)"]], [0.25, 1e-6]),
        # both axes fail; axis 0 is named
        ([["1 + sqrt(x0) + sqrt(x1)", "0"], ["0", "1"]], [1e-6, 1e-6]),
    ],
)
def test_stencil_error_names_first_failing_point(rows, center):
    spec = MetricSpec.from_strings(2, rows)
    coords = np.array(center)
    policy = DiffPolicy()
    christoffels_of(spec, coords)  # the centre itself is fine
    axis, delta, cause = _first_stencil_failure(spec, coords, policy)
    with pytest.raises(StencilDomainError) as exc:
        bundle_fd(spec, coords, policy)
    assert str(exc.value) == f"stencil point at x{axis} {delta:+.3e} failed: {cause}"
    assert type(exc.value.__cause__) is type(cause)


def test_bundle_christoffel_is_the_centre_value_bitwise():
    rng = np.random.default_rng(79)
    for spec in (SPHERE, DESITTER):
        for _ in range(5):
            x = rng.uniform(0.4, 1.2, size=spec.dim)
            assert np.array_equal(bundle_fd(spec, x).christoffel, christoffels_of(spec, x))


def test_stacked_stencil_matches_pointwise_stencil():
    policy = DiffPolicy(richardson_levels=3)
    rng = np.random.default_rng(83)
    for spec in (SPHERE, DESITTER):
        x = rng.uniform(0.4, 1.2, size=spec.dim)
        steps = policy.steps_at(x)
        ref = np.empty((spec.dim,) * 4)
        for axis in range(spec.dim):
            tableau = []
            for level in range(policy.richardson_levels):
                h = steps[axis] / (2.0**level)
                xp, xm = x.copy(), x.copy()
                xp[axis] += h
                xm[axis] -= h
                tableau.append((christoffels_of(spec, xp) - christoffels_of(spec, xm)) / (2.0 * h))
            for k in range(1, len(tableau)):
                tableau = [
                    (4.0**k * tableau[i + 1] - tableau[i]) / (4.0**k - 1.0)
                    for i in range(len(tableau) - 1)
                ]
            ref[axis] = tableau[0]
        got = oracle_module._dgamma(spec, x, policy)
        assert np.abs(got - ref).max() <= 1e-9 * (1.0 + np.abs(ref).max())


def test_oracle_imports_neither_warped_nor_closed_form():
    # the cross-check is only worth something while the oracle cannot
    # reach the product-structure code it checks
    tree = ast.parse(Path(oracle_module.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    parts = {part for name in imported for part in name.split(".")}
    assert not parts & {"warped", "closed_form"}, sorted(imported)


# ---------------------------------------------------------------------------
# Ricci and scalar


def test_sphere_ricci_and_scalar():
    rng = np.random.default_rng(71)
    for _ in range(10):
        theta = rng.uniform(0.4, 2.7)
        p = Point([theta, rng.uniform(0, 6)])
        b = bundle_fd(SPHERE, p)
        expected = np.diag([1.0, np.sin(theta) ** 2])
        assert np.abs(b.ricci - expected).max() <= 1e-6
        assert abs(b.scalar - 2.0) <= 1e-6


def test_radius_two_sphere_scalar():
    assert abs(bundle_fd(SPHERE_R2, Point([1.2, 0.5])).scalar - 0.5) <= 1e-7


def test_desitter_ricci_and_scalar():
    p = Point([0.2, 0.4, -0.3, 1.0])
    b = bundle_fd(DESITTER, p)
    a2 = np.exp(2 * 0.2)
    expected = np.diag([-3.0, 3 * a2, 3 * a2, 3 * a2])
    assert np.abs(b.ricci - expected).max() <= 1e-5 * a2
    assert abs(b.scalar - 12.0) <= 1e-5 * 12


def test_ricci_symmetry_check_fires_on_cooked_input():
    bad = np.zeros((2, 2, 2, 2))
    bad[0, 0, 0, 1] = 1.0  # contracts to an asymmetric Ricci
    with pytest.raises(NumericalInstabilityError):
        _ricci_from_common(bad)


# ---------------------------------------------------------------------------
# Sectional curvature


def _sectional(spec, p, u, v):
    """K(u, v) = g(R(u,v)v, u) / (g(u,u) g(v,v) - g(u,v)^2), contracted
    from the oracle's Riemann, with (R(u,v)w)^mu = R^mu_{nu lam rho} w^nu
    u^lam v^rho in the 'common' convention."""
    g = metric_at(spec, p)
    riem = bundle_fd(spec, p, convention="common").riemann
    uu, vv, uv = float(u @ g @ u), float(v @ g @ v), float(u @ g @ v)
    return float(u @ g @ np.einsum("mnlr,n,l,r->m", riem, v, u, v)) / (uu * vv - uv * uv)


def test_sphere_sectional_is_one():
    rng = np.random.default_rng(73)
    for _ in range(10):
        p = Point([rng.uniform(0.4, 2.7), rng.uniform(0, 6)])
        u = rng.uniform(-1, 1, size=2)
        v = rng.uniform(-1, 1, size=2)
        if abs(u[0] * v[1] - u[1] * v[0]) < 0.1:
            continue
        assert abs(_sectional(SPHERE, p, u, v) - 1.0) <= 1e-6


def test_sectional_depends_only_on_the_plane():
    # rescaling or shearing the spanning vectors keeps K fixed
    rng = np.random.default_rng(74)
    for _ in range(10):
        p = Point([rng.uniform(0.5, 2.6), rng.uniform(0, 6)])
        u = rng.uniform(-1, 1, size=2)
        v = rng.uniform(-1, 1, size=2)
        if abs(u[0] * v[1] - u[1] * v[0]) < 0.1:
            continue
        k = _sectional(SPHERE, p, u, v)
        for u2, v2 in [(2.0 * u, v), (u + v, v), (u, v - 3.0 * u)]:
            k2 = _sectional(SPHERE, p, u2, v2)
            assert abs(k2 - k) <= 1e-9 * max(1.0, abs(k))


# ---------------------------------------------------------------------------
# Bundles and comparison


def test_compare_bundles_zero_on_identical():
    b = bundle_fd(SPHERE, Point([1.0, 0.2]))
    rep = compare_bundles(b, b)
    assert rep.max_rel == 0.0
    assert all(t.max_abs == 0.0 for t in rep.tensors.values())


def test_compare_bundles_localizes_worst_slot():
    b1 = bundle_fd(SPHERE, Point([1.0, 0.2]))
    ric = b1.ricci.copy()
    ric[1, 1] += 0.5
    b2 = CurvatureBundle(b1.christoffel, b1.riemann, ric, b1.scalar, b1.convention)
    rep = compare_bundles(b1, b2)
    t = rep.tensors["ricci"]
    assert t.worst_index == (1, 1)
    assert t.max_abs == 0.5
    assert rep.max_rel == t.max_rel
    d = rep.as_dict()
    assert d["tensors"]["ricci"]["worst_index"] == [1, 1]


def test_compare_bundles_rejects_convention_mismatch():
    p = Point([1.0, 0.2])
    a = bundle_fd(SPHERE, p, convention="paper")
    b = bundle_fd(SPHERE, p, convention="common")
    with pytest.raises(ValueError):
        compare_bundles(a, b)


def test_compare_zero_tensors_have_zero_relative_dev():
    b = bundle_fd(FLAT3, Point([0.0, 0.0, 0.0]))
    z = CurvatureBundle(
        np.zeros((3, 3, 3)), np.zeros((3, 3, 3, 3)), np.zeros((3, 3)), 0.0, "paper"
    )
    rep = compare_bundles(z, z)
    assert rep.max_rel == 0.0
    assert rep.tensors["riemann"].max_rel == 0.0
    # flat-space bundle against exact zeros: tiny abs dev, rel dev defined
    rep2 = compare_bundles(b, z)
    assert rep2.tensors["riemann"].max_abs <= 1e-12
