"""Acceptance gate: ten numbered criteria, each with pinned tolerances.

Every test records a one-line verdict (printed in the terminal summary by
conftest) and then asserts, so a red criterion is both visible and fatal.
Random sampling is seeded; FD comparisons use the default differentiation
policy (step 1e-4, Richardson level 2, relative scaling) unless a manifest
overrides it.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import record_criterion
from fd_reference import fd_gradient, fd_hessian
from test_closed_form import scalar_paths
from test_expr import random_pair
from test_geodesics import great_circle_endpoint

from warpcurv.closed_form import bundle_closed
from warpcurv.expr import evaluate, value_and_gradient
from warpcurv.geodesics import GeodesicState, integrate, rhs_full, rhs_split
from warpcurv.manifest import load_catalog, load_manifest, parse_manifest
from warpcurv.oracle import bundle_fd, compare_bundles
from warpcurv.warped import ProductPoint, as_plain_metric, assemble_metric

SEED = 20260815
FIXTURES = Path(__file__).parent / "fixtures"
CATALOG = [
    "flat-product",
    "unit-sphere",
    "robertson-walker",
    "doubly-exp",
    "schwarzschild-exterior-slice",
]


def sample_points(mf, count, rng):
    box = mf.box
    return [box[:, 0] + (box[:, 1] - box[:, 0]) * rng.random(mf.dim) for _ in range(count)]


@pytest.fixture(scope="module")
def corpus():
    """Closed-form and oracle bundles at 100 seeded points per catalog entry.

    Built once and shared by the criteria that compare, contract, or probe
    these tensors; the build is timed because criterion 1 caps it.
    """
    rng = np.random.default_rng(SEED)
    entries = {}
    t0 = time.perf_counter()
    for name in CATALOG:
        mf = load_catalog(name)
        plain = as_plain_metric(mf.spec)
        rows = []
        for point in sample_points(mf, 100, rng):
            pp = ProductPoint.from_full(point, mf.spec.base.dim)
            closed = bundle_closed(mf.spec, pp, mf.policy, convention="paper")
            oracle = bundle_fd(plain, point, mf.policy, convention="paper")
            rows.append((point, closed, oracle))
        entries[name] = (mf, rows)
    elapsed = time.perf_counter() - t0
    return entries, elapsed


def test_01_closed_form_matches_oracle(corpus):
    entries, elapsed = corpus
    worst = {"christoffel": 0.0, "riemann": 0.0, "ricci": 0.0, "scalar": 0.0}
    for name, (mf, rows) in entries.items():
        for point, closed, oracle in rows:
            report = compare_bundles(closed, oracle)
            for tensor, comp in report.tensors.items():
                worst[tensor] = max(worst[tensor], comp.max_rel)
    ok = (
        worst["christoffel"] <= 1e-5
        and worst["riemann"] <= 1e-5
        and worst["ricci"] <= 1e-4
        and worst["scalar"] <= 1e-4
        and elapsed <= 20.0
    )
    record_criterion(
        1,
        "closed-form tensors match the FD oracle on the catalog",
        ok,
        f"Gamma {worst['christoffel']:.2e}<=1e-5, Riem {worst['riemann']:.2e}<=1e-5, "
        f"Ric {worst['ricci']:.2e}<=1e-4, scal {worst['scalar']:.2e}<=1e-4, "
        f"{elapsed:.1f}s<=20s",
    )
    assert worst["christoffel"] <= 1e-5
    assert worst["riemann"] <= 1e-5
    assert worst["ricci"] <= 1e-4
    assert worst["scalar"] <= 1e-4
    assert elapsed <= 20.0


def test_02_sphere_sign_anchor():
    mf = load_catalog("unit-sphere")
    plain = as_plain_metric(mf.spec)
    rng = np.random.default_rng(SEED + 2)
    worst_closed = worst_fd = 0.0
    for point in sample_points(mf, 20, rng):
        worst_closed = max(worst_closed, abs(bundle_closed(mf.spec, point).scalar - 2.0))
        worst_fd = max(worst_fd, abs(bundle_fd(plain, point, mf.policy).scalar - 2.0))
    ok = worst_closed <= 1e-8 and worst_fd <= 1e-6
    record_criterion(
        2,
        "unit sphere scalar curvature equals +2",
        ok,
        f"closed dev {worst_closed:.2e}<=1e-8, oracle dev {worst_fd:.2e}<=1e-6",
    )
    assert worst_closed <= 1e-8
    assert worst_fd <= 1e-6


def test_03_scalar_paths_agree(corpus):
    entries, _ = corpus
    worst = 0.0
    for name, (mf, rows) in entries.items():
        for point, closed, oracle in rows:
            a, b = scalar_paths(mf.spec, point)
            worst = max(worst, abs(a - b) / (1.0 + abs(a)))
    ok = worst <= 1e-10
    record_criterion(
        3,
        "scalar curvature via contraction equals the direct warp formula",
        ok,
        f"worst rel gap {worst:.2e}<=1e-10",
    )
    assert worst <= 1e-10


def test_04_cross_ricci_law(corpus):
    entries, _ = corpus
    mf, rows = entries["doubly-exp"]
    worst_zero = 0.0
    for point, closed, oracle in rows:
        worst_zero = max(worst_zero, float(np.abs(closed.ricci[:1, 1:]).max()))

    mf2 = load_manifest(FIXTURES / "doubly-exp-2x2.json")
    plain2 = as_plain_metric(mf2.spec)
    rng = np.random.default_rng(SEED + 4)
    worst_ratio = worst_oracle = 0.0
    for i, point in enumerate(sample_points(mf2, 50, rng)):
        pp = ProductPoint.from_full(point, 2)
        ric = bundle_closed(mf2.spec, pp, mf2.policy).ricci
        fval, df = value_and_gradient(mf2.spec.f, pp.base_coords)
        hval, dh = value_and_gradient(mf2.spec.h, pp.fiber_coords)
        ratio = ric[:2, 2:] / np.outer(df / fval, dh / hval)
        worst_ratio = max(worst_ratio, float(np.abs(ratio - 2.0).max()))
        if i % 10 == 0:
            # the ratio uses the same log-gradients the closed form does, so
            # anchor the block itself against the independent oracle
            ric_fd_full = bundle_fd(plain2, point, mf2.policy).ricci
            worst_oracle = max(worst_oracle, float(np.abs(ric - ric_fd_full).max()))
    ok = worst_zero <= 1e-12 and worst_ratio <= 1e-6 and worst_oracle <= 1e-4
    record_criterion(
        4,
        "mixed Ricci block equals (m+n-2) d(ln f) x d(ln h)",
        ok,
        f"1+1 cross {worst_zero:.2e}<=1e-12, 2+2 ratio dev {worst_ratio:.2e}<=1e-6, "
        f"oracle anchor {worst_oracle:.2e}<=1e-4",
    )
    assert worst_zero <= 1e-12
    assert worst_ratio <= 1e-6
    assert worst_oracle <= 1e-4


def _symmetry_violation(spec, point, bundle):
    g = assemble_metric(spec, ProductPoint.from_full(point, spec.base.dim))
    low = np.einsum("im,mjkl->ijkl", g, bundle.riemann)
    scale = float(np.abs(low).max())
    devs = [
        float(np.abs(low + low.transpose(0, 1, 3, 2)).max()),
        float(np.abs(low + low.transpose(1, 0, 2, 3)).max()),
        float(np.abs(low - low.transpose(2, 3, 0, 1)).max()),
        float(
            np.abs(low + low.transpose(0, 2, 3, 1) + low.transpose(0, 3, 1, 2)).max()
        ),
    ]
    ric_dev = float(np.abs(bundle.ricci - bundle.ricci.T).max())
    ric_scale = float(np.abs(bundle.ricci).max())
    return max(devs), scale, ric_dev, ric_scale


def test_05_tensor_symmetries(corpus):
    entries, _ = corpus
    worst_closed = worst_oracle = 0.0
    for name, (mf, rows) in entries.items():
        for point, closed, oracle in rows:
            for bundle, bucket in ((closed, "closed"), (oracle, "oracle")):
                dev, scale, ric_dev, ric_scale = _symmetry_violation(mf.spec, point, bundle)
                rel = 0.0 if scale == 0.0 else dev / scale
                ric_rel = 0.0 if ric_scale == 0.0 else ric_dev / ric_scale
                rel = max(rel, ric_rel)
                if bucket == "closed":
                    worst_closed = max(worst_closed, rel)
                else:
                    worst_oracle = max(worst_oracle, rel)
    ok = worst_closed <= 1e-9 and worst_oracle <= 1e-7
    record_criterion(
        5,
        "Riemann/Ricci symmetries hold for both computation paths",
        ok,
        f"closed {worst_closed:.2e}<=1e-9, oracle {worst_oracle:.2e}<=1e-7",
    )
    assert worst_closed <= 1e-9
    assert worst_oracle <= 1e-7


def test_06_convention_flip():
    rng = np.random.default_rng(SEED + 6)
    exact = True
    worst = 0.0
    for name in CATALOG:
        mf = load_catalog(name)
        for point in sample_points(mf, 5, rng):
            pp = ProductPoint.from_full(point, mf.spec.base.dim)
            bp = bundle_closed(mf.spec, pp, mf.policy, convention="paper")
            bc = bundle_closed(mf.spec, pp, mf.policy, convention="common")
            exact = exact and np.array_equal(bp.riemann, -bc.riemann)
            worst = max(
                worst,
                float(np.abs(bp.ricci - bc.ricci).max()),
                abs(bp.scalar - bc.scalar),
            )
    ok = exact and worst <= 1e-12
    record_criterion(
        6,
        "sign-convention flip negates Riemann and fixes Ricci/scalar",
        ok,
        f"negation exact={exact}, Ricci/scalar shift {worst:.2e}<=1e-12",
    )
    assert exact
    assert worst <= 1e-12


def test_07_geodesic_conservation():
    runs = [
        ("unit-sphere", [1.1, 0.0], [0.13, 0.21]),
        ("doubly-exp", [0.0, 0.0], [0.11, 0.07]),
    ]
    worst = 0.0
    for name, coords, vel in runs:
        mf = load_catalog(name)
        st = GeodesicState(0.0, ProductPoint.from_full(np.array(coords), 1), np.array(vel))
        traj = integrate(mf.spec, st, s_end=10.0, step=1e-3, rhs="split")
        n0 = traj.norm_history[0]
        drift = float(np.abs(traj.norm_history - n0).max()) / (1.0 + abs(n0))
        worst = max(worst, drift)

    mf = load_catalog("unit-sphere")
    st = GeodesicState(
        0.0, ProductPoint.from_full(np.array([math.pi / 2, 0.0]), 1), np.array([0.0, 1.0])
    )
    traj = integrate(mf.spec, st, s_end=2.0 * math.pi, step=1e-3, rhs="split")
    end = traj.endpoint.position.full
    closure = max(abs(end[0] - math.pi / 2), abs(end[1] - 2.0 * math.pi))
    ok = worst <= 1e-8 and closure <= 1e-6
    record_criterion(
        7,
        "geodesics conserve the velocity norm and the equator closes",
        ok,
        f"drift {worst:.2e}<=1e-8, closure {closure:.2e}<=1e-6",
    )
    assert worst <= 1e-8
    assert closure <= 1e-6


def test_08_split_rhs_equals_full():
    rng = np.random.default_rng(SEED + 8)
    sources = [
        load_catalog("unit-sphere"),
        load_catalog("doubly-exp"),
        load_catalog("schwarzschild-exterior-slice"),
        load_manifest(FIXTURES / "doubly-exp-2x2.json"),
    ]
    worst = 0.0
    for i in range(1000):
        mf = sources[i % len(sources)]
        point = sample_points(mf, 1, rng)[0]
        vel = rng.standard_normal(mf.dim)
        st = GeodesicState(0.0, ProductPoint.from_full(point, mf.spec.base.dim), vel)
        a_full = rhs_full(mf.spec, st)
        a_split = rhs_split(mf.spec, st)
        scale = max(1.0, float(np.abs(a_full).max()))
        worst = max(worst, float(np.abs(a_full - a_split).max()) / scale)

    worst_traj = 0.0
    runs = [
        (load_catalog("unit-sphere"), [1.2, 0.0], [0.3, 0.8]),
        (load_manifest(FIXTURES / "doubly-exp-2x2.json"), [0.0, 0.0, 0.0, 0.0], [0.3, -0.2, 0.4, 0.1]),
    ]
    for mf, coords, vel in runs:
        st = GeodesicState(
            0.0, ProductPoint.from_full(np.array(coords), mf.spec.base.dim), np.array(vel)
        )
        tf = integrate(mf.spec, st, s_end=1.0, step=1e-3, rhs="full")
        ts = integrate(mf.spec, st, s_end=1.0, step=1e-3, rhs="split")
        worst_traj = max(worst_traj, float(np.abs(tf.positions - ts.positions).max()))
    ok = worst <= 1e-12 and worst_traj <= 1e-8
    record_criterion(
        8,
        "factor-form geodesic RHS equals the Christoffel form",
        ok,
        f"state dev {worst:.2e}<=1e-12, trajectory dev {worst_traj:.2e}<=1e-8",
    )
    assert worst <= 1e-12
    assert worst_traj <= 1e-8


def test_09_unit_warp_degeneration(corpus):
    entries, _ = corpus
    trivial = parse_manifest(
        {
            "name": "trivial-warp",
            "base": {
                "dim": 2,
                "metric": [["2 + 0.3*sin(x0)", "0.2*x0*x1"], ["0.2*x0*x1", "3 + cos(x1)"]],
            },
            "fiber": {"dim": 2, "metric": [["1", "0"], ["0", "sin(x0)^2"]]},
            "warp_f": "1",
            "warp_h": "1",
            "box": [[-1.0, 1.0], [-1.0, 1.0], [0.3, 2.8], [0.0, 6.28]],
        }
    )
    cases = [entries["flat-product"], (trivial, None)]
    rng = np.random.default_rng(SEED + 9)
    worst_mixed = worst_cross = worst_block = 0.0
    for mf, rows in cases:
        m = mf.spec.base.dim
        dim = mf.dim
        mixed = np.zeros((dim,) * 4, dtype=bool)
        base_idx = np.arange(dim) < m
        for i in range(dim):
            for j in range(dim):
                for k in range(dim):
                    for l in range(dim):
                        blocks = {base_idx[i], base_idx[j], base_idx[k], base_idx[l]}
                        mixed[i, j, k, l] = len(blocks) == 2
        if rows is None:
            pts = sample_points(mf, 25, rng)
            rows = []
            for point in pts:
                pp = ProductPoint.from_full(point, m)
                rows.append((point, bundle_closed(mf.spec, pp, mf.policy), None))
        for point, closed, _ in rows:
            pp = ProductPoint.from_full(point, m)
            worst_mixed = max(worst_mixed, float(np.abs(closed.riemann[mixed]).max()))
            worst_cross = max(worst_cross, float(np.abs(closed.ricci[:m, m:]).max()))
            ric_base = bundle_fd(mf.spec.base, pp.base_coords, mf.policy).ricci
            ric_fiber = bundle_fd(mf.spec.fiber, pp.fiber_coords, mf.policy).ricci
            worst_block = max(
                worst_block,
                float(np.abs(closed.ricci[:m, :m] - ric_base).max()),
                float(np.abs(closed.ricci[m:, m:] - ric_fiber).max()),
            )
    ok = worst_mixed == 0.0 and worst_cross == 0.0 and worst_block <= 1e-10
    record_criterion(
        9,
        "unit warps reduce the product to factor curvature",
        ok,
        f"mixed Riemann {worst_mixed:.1e}==0, cross Ricci {worst_cross:.1e}==0, "
        f"block dev {worst_block:.2e}<=1e-10",
    )
    assert worst_mixed == 0.0
    assert worst_cross == 0.0
    assert worst_block <= 1e-10


def test_10_jets_and_integrator_order():
    rng = np.random.default_rng(SEED + 10)
    worst = 0.0
    for _ in range(1000):
        expr, point, jet = random_pair(rng)
        f = lambda x: evaluate(expr, x)
        g = fd_gradient(f, point)
        hmat = fd_hessian(f, point)
        gdev = np.abs(jet.gradient - g).max(initial=0.0) / (
            1.0 + np.abs(jet.gradient).max(initial=0.0)
        )
        hdev = np.abs(jet.hessian - hmat).max(initial=0.0) / (
            1.0 + np.abs(jet.hessian).max(initial=0.0)
        )
        worst = max(worst, float(gdev), float(hdev))

    mf = load_catalog("unit-sphere")
    theta0, vt, vp = 1.2, 0.3, 0.8
    exact = np.array(great_circle_endpoint(theta0, vt, vp, 2.0))
    errs = []
    for h in (0.02, 0.01):
        st = GeodesicState(
            0.0, ProductPoint.from_full(np.array([theta0, 0.0]), 1), np.array([vt, vp])
        )
        traj = integrate(mf.spec, st, s_end=2.0, step=h)
        errs.append(float(np.abs(traj.endpoint.position.full - exact).max()))
    order = math.log2(errs[0] / errs[1])
    ok = worst <= 1e-6 and order >= 3.8
    record_criterion(
        10,
        "expression jets match finite differences; RK4 shows 4th order",
        ok,
        f"jet dev {worst:.2e}<=1e-6, order {order:.2f}>=3.8",
    )
    assert worst <= 1e-6
    assert order >= 3.8
