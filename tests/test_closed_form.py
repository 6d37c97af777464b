import numpy as np
import pytest

from warpcurv.closed_form import (
    bundle_closed,
    christoffels_closed,
    _factor_curvature,
    _point_data,
    _ricci_from_data,
    _scalar_paths_from_data,
)
from warpcurv.geometry import MetricSpec
from warpcurv.manifest import load_catalog
from warpcurv.oracle import DiffPolicy, bundle_fd
from warpcurv.warped import (
    ProductPoint,
    WarpedProductSpec,
    _as_product_point,
    as_plain_metric,
)

LINE = MetricSpec.from_strings(1, [["1"]], name="line")
TIMELINE = MetricSpec.from_strings(1, [["-1"]], name="timeline")
FLAT3 = MetricSpec.from_strings(
    3, [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]], name="flat3"
)
CURVY2 = MetricSpec.from_strings(
    2,
    [["2 + 0.3*sin(x0)", "0.2*x0*x1"], ["0.2*x0*x1", "3 + cos(x1)"]],
    name="curvy2",
)
BUMPY2 = MetricSpec.from_strings(
    2,
    [["1 + 0.2*x0^2", "0.1*x0*x1"], ["0.1*x0*x1", "2 + 0.3*cos(x1)"]],
    name="bumpy2",
)

SPHERE = WarpedProductSpec.build(LINE, LINE, "sin(x0)", "1", name="unit-sphere")
DEXP = WarpedProductSpec.build(LINE, LINE, "exp(x0)", "exp(x0)", name="doubly-exp")
RW = WarpedProductSpec.build(TIMELINE, FLAT3, "exp(x0)", "1", name="rw")
GENERIC = WarpedProductSpec.build(
    CURVY2, BUMPY2, "1 + 0.5*x0^2 + 0.1*x1^2", "exp(0.3*x0 - 0.2*x1)", name="generic"
)
TRIVIAL = WarpedProductSpec.build(CURVY2, BUMPY2, "1", "1", name="trivial-warp")


def sample_pp(rng, spec):
    if spec is SPHERE:
        return ProductPoint([rng.uniform(0.3, 2.8)], [rng.uniform(0, 6.28)])
    if spec is RW:
        return ProductPoint([rng.uniform(-1, 1)], rng.uniform(-2, 2, size=3))
    if spec.base.dim == 1:
        return ProductPoint([rng.uniform(-1, 1)], [rng.uniform(-1, 1)])
    return ProductPoint(rng.uniform(-1, 1, size=2), rng.uniform(-1, 1, size=2))


def scalar_paths(spec, point, policy=None):
    """(Ricci contraction, direct warp formula) for the scalar curvature,
    from the pieces bundle_closed builds; the first is its .scalar."""
    if policy is None:
        policy = DiffPolicy()
    pp = _as_product_point(spec, point)
    d = _point_data(spec, pp)
    _, ricB = _factor_curvature(spec.base, pp.base_coords, policy)
    _, ricF = _factor_curvature(spec.fiber, pp.fiber_coords, policy)
    return _scalar_paths_from_data(d, _ricci_from_data(d, ricB, ricF), ricB, ricF)


def rel_dev(a, b):
    scale = max(np.abs(a).max(), np.abs(b).max())
    if scale == 0.0:
        return 0.0
    return float(np.abs(a - b).max() / scale)


# ---------------------------------------------------------------------------
# Christoffel anchors


def test_sphere_christoffels():
    theta = np.pi / 4
    g = christoffels_closed(SPHERE, ProductPoint([theta], [1.0]))
    assert g[0, 1, 1] == pytest.approx(-0.5, abs=1e-15)  # -sin cos at pi/4
    assert g[1, 0, 1] == pytest.approx(1.0, abs=1e-15)  # cot
    assert g[1, 1, 0] == pytest.approx(1.0, abs=1e-15)
    assert g[0, 0, 0] == 0.0 and g[1, 1, 1] == 0.0


def test_doubly_exp_christoffels_at_origin():
    g = christoffels_closed(DEXP, ProductPoint([0.0], [0.0]))
    assert g[1, 0, 0] == pytest.approx(-1.0, abs=1e-15)
    assert g[0, 0, 1] == pytest.approx(1.0, abs=1e-15)
    assert g[0, 1, 0] == pytest.approx(1.0, abs=1e-15)
    assert g[1, 1, 0] == pytest.approx(1.0, abs=1e-15)
    assert g[1, 0, 1] == pytest.approx(1.0, abs=1e-15)
    assert g[0, 1, 1] == pytest.approx(-1.0, abs=1e-15)


def test_christoffels_match_plain_route():
    from warpcurv.geometry import christoffels_of

    rng = np.random.default_rng(79)
    for spec in [SPHERE, DEXP, RW, GENERIC]:
        plain = as_plain_metric(spec)
        for _ in range(10):
            pp = sample_pp(rng, spec)
            a = christoffels_closed(spec, pp)
            b = christoffels_of(plain, pp.full)
            assert rel_dev(a, b) <= 1e-12, spec.name


# ---------------------------------------------------------------------------
# Riemann blocks against the brute-force route


@pytest.mark.parametrize("spec", [SPHERE, DEXP, RW, GENERIC], ids=lambda s: s.name)
def test_full_bundle_matches_oracle(spec):
    rng = np.random.default_rng(83)
    plain = as_plain_metric(spec)
    pol = DiffPolicy()
    for _ in range(5):
        pp = sample_pp(rng, spec)
        cl = bundle_closed(spec, pp, pol, convention="common")
        oc = bundle_fd(plain, pp.full, pol, convention="common")
        assert rel_dev(cl.christoffel, oc.christoffel) <= 1e-12
        assert rel_dev(cl.riemann, oc.riemann) <= 1e-9
        assert rel_dev(cl.ricci, oc.ricci) <= 1e-9
        assert abs(cl.scalar - oc.scalar) <= 1e-9 * (1 + abs(oc.scalar))


def test_odd_blocks_nonzero_when_both_warps_vary():
    # one fiber index among three base ones: proportional to dln(f) dln(h)
    pp = ProductPoint([0.4, -0.6], [0.5, 0.7])
    r = bundle_closed(GENERIC, pp, convention="common").riemann
    m = GENERIC.base.dim
    odd = r[:m, :m, :m, m:]
    assert np.abs(odd).max() > 1e-3
    # and they vanish identically when h is constant
    single = WarpedProductSpec.build(
        CURVY2, BUMPY2, "1 + 0.5*x0^2 + 0.1*x1^2", "1", name="single"
    )
    r1 = bundle_closed(single, pp, convention="common").riemann
    assert np.abs(r1[:m, :m, :m, m:]).max() == 0.0


def test_structurally_zero_blocks():
    pp = ProductPoint([0.4, -0.6], [0.5, 0.7])
    r = bundle_closed(GENERIC, pp, convention="common").riemann
    m = GENERIC.base.dim
    assert np.all(r[:m, :m, m:, m:] == 0.0)
    assert np.all(r[m:, m:, :m, :m] == 0.0)


def test_lowered_riemann_symmetries():
    from warpcurv.warped import assemble_metric

    rng = np.random.default_rng(89)
    for spec in [SPHERE, DEXP, GENERIC]:
        for _ in range(5):
            pp = sample_pp(rng, spec)
            r = bundle_closed(spec, pp, convention="common").riemann
            g = assemble_metric(spec, pp)
            low = np.einsum("am,mbcd->abcd", g, r)
            scale = max(np.abs(low).max(), 1e-300)
            assert np.abs(low + low.transpose(1, 0, 2, 3)).max() <= 1e-9 * scale
            assert np.abs(low + low.transpose(0, 1, 3, 2)).max() <= 1e-9 * scale
            assert np.abs(low - low.transpose(2, 3, 0, 1)).max() <= 1e-9 * scale
            bianchi = low + np.einsum("acdb->abcd", low) + np.einsum("adbc->abcd", low)
            assert np.abs(bianchi).max() <= 1e-9 * scale


# ---------------------------------------------------------------------------
# Convention flag


def test_convention_flip_negates_riemann_exactly():
    pp = ProductPoint([0.7], [0.4])
    a = bundle_closed(DEXP, pp, convention="paper").riemann
    b = bundle_closed(DEXP, pp, convention="common").riemann
    assert np.array_equal(a, -b)


def test_ricci_scalar_convention_independent():
    pp = ProductPoint([0.7], [0.4])
    b1 = bundle_closed(DEXP, pp, convention="paper")
    b2 = bundle_closed(DEXP, pp, convention="common")
    assert np.array_equal(b1.ricci, b2.ricci)
    assert b1.scalar == b2.scalar


def test_unknown_convention_rejected():
    with pytest.raises(ValueError):
        bundle_closed(DEXP, ProductPoint([0.0], [0.0]), convention="other")


# ---------------------------------------------------------------------------
# Ricci and scalar anchors


def test_rw_ricci_time_component():
    # scale factor a = exp(t): Ric_tt = -3 a''/a = -3
    ric = bundle_closed(RW, ProductPoint([0.3], [1.0, -2.0, 0.5])).ricci
    assert ric[0, 0] == pytest.approx(-3.0, abs=1e-12)


def test_doubly_exp_ricci_at_origin():
    ric = bundle_closed(DEXP, ProductPoint([0.0], [0.0])).ricci
    assert ric[0, 0] == pytest.approx(-2.0, abs=1e-12)
    assert ric[1, 1] == pytest.approx(-2.0, abs=1e-12)
    assert ric[0, 1] == 0.0  # m + n - 2 = 0 kills the cross block


def test_cross_ricci_counts_dimensions():
    # 2+2 product: cross block = 2 * dln(f) x dln(h)
    base = MetricSpec.from_strings(2, [["1", "0"], ["0", "1"]], name="b2")
    fiber = MetricSpec.from_strings(2, [["1", "0"], ["0", "1"]], name="f2")
    spec = WarpedProductSpec.build(
        base, fiber, "exp(x0 + 0.5*x1)", "exp(0.7*x0 + 0.3*x1)", name="dexp-2x2"
    )
    rng = np.random.default_rng(97)
    for _ in range(10):
        pp = ProductPoint(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2))
        ric = bundle_closed(spec, pp).ricci
        lf = np.array([1.0, 0.5])
        lh = np.array([0.7, 0.3])
        ratio = ric[:2, 2:] / np.outer(lf, lh)
        assert np.abs(ratio - 2.0).max() <= 1e-12


# exact scalar curvature of catalog entries, with (relative, absolute) bounds
SCALAR_ANCHORS = {
    "unit-sphere": (2.0, 1e-12, 0.0),
    # de Sitter: Robertson-Walker with scale factor f = e^t
    "robertson-walker": (12.0, 1e-12, 0.0),
    # a time-symmetric slice of a vacuum solution is scalar-flat
    "schwarzschild-exterior-slice": (0.0, 0.0, 1e-11),
}


@pytest.mark.parametrize("name", list(SCALAR_ANCHORS))
def test_closed_scalar_anchor(name):
    exact, rel, abs_ = SCALAR_ANCHORS[name]
    mf = load_catalog(name)
    lo, hi = mf.box[:, 0], mf.box[:, 1]
    rng = np.random.default_rng(101)
    for _ in range(100):
        point = lo + (hi - lo) * rng.random(mf.dim)
        scal = bundle_closed(mf.spec, point, mf.policy).scalar
        assert abs(scal - exact) <= rel * abs(exact) + abs_, (point, scal)


def test_scalar_paths_agree():
    rng = np.random.default_rng(103)
    for spec in [SPHERE, DEXP, RW, GENERIC]:
        for _ in range(10):
            a, b = scalar_paths(spec, sample_pp(rng, spec))
            assert abs(a - b) <= 1e-10 * (1.0 + abs(a)), spec.name


def test_ricci_symmetric_exactly():
    rng = np.random.default_rng(107)
    for spec in [SPHERE, DEXP, RW, GENERIC]:
        for _ in range(5):
            ric = bundle_closed(spec, sample_pp(rng, spec)).ricci
            assert np.array_equal(ric, ric.T)


# ---------------------------------------------------------------------------
# Trivial warps reduce to the direct product


def test_unit_warps_give_product_curvature():
    rng = np.random.default_rng(109)
    pol = DiffPolicy()
    for _ in range(5):
        pp = sample_pp(rng, TRIVIAL)
        m = TRIVIAL.base.dim
        b = bundle_closed(TRIVIAL, pp, pol, convention="common")
        r = b.riemann
        # every mixed slot is exactly zero
        mixed = r.copy()
        mixed[:m, :m, :m, :m] = 0.0
        mixed[m:, m:, m:, m:] = 0.0
        assert np.abs(mixed).max() == 0.0
        ric = b.ricci
        fb = bundle_fd(TRIVIAL.base, pp.base_coords, pol)
        ff = bundle_fd(TRIVIAL.fiber, pp.fiber_coords, pol)
        assert np.abs(ric[:m, :m] - fb.ricci).max() <= 1e-10
        assert np.abs(ric[m:, m:] - ff.ricci).max() <= 1e-10
        assert np.abs(ric[:m, m:]).max() == 0.0
