import ast
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from test_factor_curvature import IDS, MANIFESTS

import warpcurv.oracle as oracle_module
from warpcurv import kernel
from warpcurv.bundle import CurvatureBundle
from warpcurv.errors import DegenerateMetricError, NumericalInstabilityError, StencilDomainError
from warpcurv.expr import _OP_VAR, _postfix
from warpcurv.geometry import (
    MetricSpec,
    Point,
    _christoffels_stacked,
    _grid,
    _metric_and_first_derivs,
    christoffels_of,
    metric_at,
)
from warpcurv.manifest import load_catalog
from warpcurv.oracle import DiffPolicy, bundle_fd, compare_bundles, _ricci_from_common
from warpcurv.warped import as_plain_metric

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


def _pointwise_dgamma(spec, x, policy):
    """d Gamma from christoffels_of at each stencil point, level by level."""
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
    return ref


def test_stacked_stencil_matches_pointwise_stencil():
    # the stencil's rows run on math's rules, as christoffels_of's do, so
    # only the stacked inverse and einsum round apart from it
    policy = DiffPolicy(richardson_levels=3)
    rng = np.random.default_rng(83)
    cases = [(spec, rng.uniform(0.4, 1.2, size=spec.dim)) for spec in (SPHERE, DESITTER)]
    for mf in MANIFESTS:
        box = np.asarray(mf.box, dtype=float)
        x = box[:, 0] + (box[:, 1] - box[:, 0]) * rng.random(mf.dim)
        cases.append((as_plain_metric(mf.spec), x))
    for spec, x in cases:
        ref = _pointwise_dgamma(spec, x, policy)
        got = oracle_module._dgamma(spec, x, policy)[2]
        assert np.abs(got - ref).max() <= 1e-11 * (1.0 + np.abs(ref).max())


def _stencil(spec, c, policy):
    """The stencil kernels at c: (the centre's list, the rows as an array,
    the axes they run, the steps [axis, level])."""
    h = policy.steps_at(c)[:, None] / 2.0 ** np.arange(policy.richardson_levels)
    program = _grid(spec, 1)[0]
    values, rows, axes = kernel.stencil_rows(program, c.tolist(), h.tolist())
    return values, np.array(rows).reshape(-1, program.width + len(program.tail)), axes, h


@pytest.mark.parametrize("mf", MANIFESTS, ids=IDS)
def test_stencil_rows_are_the_metric_at_each_stencil_point_bitwise(mf):
    """The centre's g and D and each row's are _metric_and_first_derivs'
    there, bitwise; an axis without rows leaves the metric bitwise the
    centre's at each of its points."""
    spec = as_plain_metric(mf.spec)
    gathers = _grid(spec, 1)[1]
    box = np.asarray(mf.box, dtype=float)
    rng = np.random.default_rng(29)

    def same(flat, x):
        got = [np.array(get(flat)).reshape(shape) for get, _, shape in gathers]
        want = _metric_and_first_derivs(spec, x)
        assert [a.tobytes() for a in got] == [b.tobytes() for b in want], x

    for _ in range(2):
        c = box[:, 0] + (box[:, 1] - box[:, 0]) * rng.random(mf.dim)
        for policy in (mf.policy, DiffPolicy(richardson_levels=3)):
            values, rows, axes, h = _stencil(spec, c, policy)
            same(values, c)
            rows = iter(rows.tolist())
            for axis in range(mf.dim):
                for step in h[axis]:
                    for delta in (step, -step):
                        x = c.copy()
                        x[axis] += delta
                        same(next(rows) if axis in axes else values, x)
            assert next(rows, None) is None


# the axes the catalog's plain charts do not read
UNREAD = {"flat-product": [0, 1, 2, 3], "robertson-walker": [1, 2, 3],
          "unit-sphere": [1], "schwarzschild-exterior-slice": [2], "doubly-exp": []}


@pytest.mark.parametrize("mf", MANIFESTS, ids=IDS)
def test_an_axis_no_output_reads_gets_no_row_and_an_exact_zero(mf):
    spec = as_plain_metric(mf.spec)
    read = {node.index for row in spec.components for e in row
            for code, _, node in _postfix(e.root) if code is _OP_VAR}
    unread = [axis for axis in range(mf.dim) if axis not in read]
    if mf.name in UNREAD:
        assert unread == UNREAD[mf.name]
    c = np.asarray(mf.box, dtype=float).mean(axis=1)
    _, _, dgamma = oracle_module._dgamma(spec, c, mf.policy)
    assert np.all(dgamma[unread] == 0.0) and not np.signbit(dgamma[unread]).any()
    _, rows, axes, _ = _stencil(spec, c, mf.policy)
    assert axes == sorted(read) and len(rows) == 2 * mf.policy.richardson_levels * len(read)
    centre, kernels = _grid(spec, 1)[0].stencil
    assert [axis for axis, _ in kernels] == axes
    if mf.name == "flat-product":
        assert kernels == ()  # no axis kernel is built


def test_a_row_that_fails_in_the_kernels_raises_what_the_walk_raises():
    """A domain error that only the -h row of one axis meets, and a row
    that only the determinant rule rejects, raise the class and message
    of the point-by-point walk."""
    policy = DiffPolicy()
    # axis 1's level-0 -h row leaves sqrt's domain, level 1's does not
    spec = MetricSpec.from_strings(2, [["1", "0"], ["0", "1 + sqrt(x1)"]])
    domain = spec, np.array([0.5, 7.5e-5])
    # axis 0's level-0 +h row has a zero determinant and finite entries
    spec = MetricSpec.from_strings(2, [["(x0 - 0.0001)^2", "0"], ["0", "1"]])
    degenerate = spec, np.array([0.0, 0.5])
    for spec, c in (domain, degenerate):
        h = policy.steps_at(c)
        failing = []
        for axis in range(2):
            for level in range(policy.richardson_levels):
                for delta in (h[axis] / 2.0**level, -h[axis] / 2.0**level):
                    x = c.copy()
                    x[axis] += delta
                    try:
                        christoffels_of(spec, x)
                    except Exception:  # noqa: BLE001 - any failure counts
                        failing.append((axis, level, delta > 0))
        run = kernel.stencil_rows(_grid(spec, 1)[0], c.tolist(),
                                  (h[:, None] / 2.0 ** np.arange(2)).tolist())
        if spec is domain[0]:
            assert failing == [(1, 0, False)] and run is None
        else:
            assert failing == [(0, 0, True)]
            with pytest.raises(DegenerateMetricError):
                _christoffels_stacked(spec, np.array(run[1]).reshape(len(run[2]) * 4, -1))
        axis, delta, cause = _first_stencil_failure(spec, c, policy)
        with pytest.raises(StencilDomainError) as exc:
            bundle_fd(spec, c, policy)
        assert str(exc.value) == f"stencil point at x{axis} {delta:+.3e} failed: {cause}"
        assert type(exc.value.__cause__) is type(cause)


def test_an_axis_kernel_whose_test_fails_raises_what_the_walk_raises():
    """The centre is finite, but at the level-0 +h row x0*1e308 overflows
    to inf without raising, so the axis kernel's finiteness test fails
    after the centre kernel passed, and bundle_fd raises the walk's
    error."""
    spec = MetricSpec.from_strings(2, [["(x0*1e308)*0 + 1", "0"], ["0", "1"]])
    c, policy = np.array([1.7975, 0.5]), DiffPolicy()
    h = policy.steps_at(c)
    program = _grid(spec, 1)[0]
    centre, axes = kernel.stencil(program, 2)
    assert centre(c.tolist())[:4] == [1.0, 0.0, 0.0, 0.0] and [a for a, _ in axes] == [0]
    assert kernel.stencil_rows(program, c.tolist(), (h[:, None] / 2.0 ** np.arange(2)).tolist()) is None
    axis, delta, cause = _first_stencil_failure(spec, c, policy)
    assert (axis, delta) == (0, h[0])
    with pytest.raises(StencilDomainError) as exc:
        bundle_fd(spec, c, policy)
    assert str(exc.value) == f"stencil point at x{axis} {delta:+.3e} failed: {cause}"
    assert type(exc.value.__cause__) is type(cause)


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


def _report_as_before(a: CurvatureBundle, b: CurvatureBundle) -> dict:
    """compare_bundles' report as it was written with numpy alone, nine
    calls a tensor, the scalar as an array of one: the reference for the
    cheaper one."""

    def compare(x, y, floor=0.0):
        diff = np.abs(x - y)
        max_abs = float(diff.max()) if diff.size else 0.0
        scale = max(
            float(np.abs(x).max()) if x.size else 0.0,
            float(np.abs(y).max()) if y.size else 0.0,
            floor,
        )
        max_rel = (max_abs / scale) if scale > 0.0 else 0.0
        worst = np.unravel_index(int(diff.argmax()), diff.shape) if diff.size else ()
        return {"max_abs": max_abs, "max_rel": max_rel, "worst_index": [int(i) for i in worst]}

    ricci_scale = max(float(np.abs(a.ricci).max()), float(np.abs(b.ricci).max()))
    tensors = {
        "christoffel": compare(a.christoffel, b.christoffel),
        "riemann": compare(a.riemann, b.riemann),
        "ricci": compare(a.ricci, b.ricci),
        "scalar": compare(np.asarray([a.scalar]), np.asarray([b.scalar]), floor=ricci_scale),
    }
    return {"tensors": tensors, "max_rel": max(t["max_rel"] for t in tensors.values())}


@np.errstate(all="ignore")
def test_compare_bundles_reports_what_the_numpy_comparison_reported():
    rng = np.random.default_rng(23)
    specials = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1e308]
    cases = 0
    for d in (2, 3, 4):
        for _ in range(60):
            pair = []
            for _ in range(2):
                arrays = [rng.standard_normal((d,) * rank) * 10.0 ** rng.integers(-3, 4)
                          for rank in (3, 4, 2)]
                for x in arrays:  # all-zero tensors, and NaN and inf in seeded slots
                    if rng.random() < 0.2:
                        x[...] = 0.0
                    for _ in range(rng.integers(0, 3)):
                        x.flat[rng.integers(x.size)] = rng.choice(specials)
                scalar = rng.choice([*specials, *rng.standard_normal(4)])
                pair.append(CurvatureBundle(*arrays, scalar, "common"))
            # a bundle against itself, and against the other
            for a, b in ((pair[0], pair[0]), tuple(pair), tuple(pair[::-1])):
                report = compare_bundles(a, b)
                assert repr(report.as_dict()) == repr(_report_as_before(a, b))
                assert type(report.max_rel) is float
                cases += 1
    assert cases == 540


@pytest.mark.parametrize("evaluate", [bundle_fd, christoffels_of, metric_at])
def test_coordinates_that_are_not_finite_are_rejected(evaluate):
    sphere = as_plain_metric(load_catalog("unit-sphere").spec)
    rw = as_plain_metric(load_catalog("robertson-walker").spec)
    for spec, point in ((sphere, [1.0, math.nan]), (rw, [0.5, 0.1, math.inf, 0.3])):
        with pytest.raises(ValueError, match="coordinates must be finite"):
            evaluate(spec, point)


def test_a_warm_bundle_fd_imports_no_kernel_module(monkeypatch):
    """The oracle keeps the kernel module it first imported, so dropping
    warpcurv.kernel from sys.modules (as a fresh import of the package
    beside this copy does) does not make the next bundle_fd import it
    again."""
    plain = as_plain_metric(load_catalog("unit-sphere").spec)
    bundle_fd(plain, [1.0, 0.3])
    monkeypatch.delitem(sys.modules, "warpcurv.kernel")
    bundle_fd(plain, [1.1, 0.3])
    assert "warpcurv.kernel" not in sys.modules
