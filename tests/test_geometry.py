import numpy as np
import pytest

from warpcurv import blocks
from warpcurv.closed_form import _point_data
from warpcurv.errors import DegenerateMetricError, EvalDomainError
from warpcurv.expr import Const, _compile, _run, evaluate
from warpcurv.geometry import (
    MetricSpec,
    Point,
    christoffels_of,
    metric_at,
    _inverse_of,
)
from warpcurv.warped import ProductPoint, WarpedProductSpec

from batch_reference import christoffels_batch
from fd_reference import fd_gradient

POLAR = MetricSpec.from_strings(2, [["1", "0"], ["0", "x0^2"]], name="polar")
SPHERE = MetricSpec.from_strings(2, [["1", "0"], ["0", "sin(x0)^2"]], name="sphere")

# well-conditioned non-diagonal metrics for the statistical checks
WOBBLY2 = MetricSpec.from_strings(
    2,
    [
        ["2 + 0.3*sin(x0)", "0.2*x0*x1"],
        ["0.2*x0*x1", "3 + cos(x1)"],
    ],
    name="wobbly2",
)
WOBBLY3 = MetricSpec.from_strings(
    3,
    [
        ["exp(0.3*x0)", "0.1*x1", "0"],
        ["0.1*x1", "2 + x1^2", "0.1*sin(x2)"],
        ["0", "0.1*sin(x2)", "2 + tanh(x2)"],
    ],
    name="wobbly3",
)
LORENTZ = MetricSpec.from_strings(
    2,
    [["-(1 + 0.2*x1^2)", "0"], ["0", "1 + 0.1*x0^2"]],
    name="lorentz",
)

ALL_METRICS = [POLAR, SPHERE, WOBBLY2, WOBBLY3, LORENTZ]


def sample_point(rng, spec):
    if spec is SPHERE:
        return rng.uniform(0.4, 2.7, size=2)
    if spec is POLAR:
        return np.array([rng.uniform(0.5, 3.0), rng.uniform(-3.0, 3.0)])
    return rng.uniform(-1.0, 1.0, size=spec.dim)


def fd_christoffels(spec, point):
    """Independent reference: metric values plus FD metric derivatives."""
    dim = spec.dim
    g = metric_at(spec, point)
    ginv = np.linalg.inv(g)
    D = np.zeros((dim, dim, dim))  # D[l, i, j] = d_l g_ij
    for i in range(dim):
        for j in range(dim):
            comp = spec.components[i][j]
            D[:, i, j] = fd_gradient(lambda x, c=comp: evaluate(c, x), point)
    gamma = np.zeros((dim, dim, dim))
    for k in range(dim):
        for i in range(dim):
            for j in range(dim):
                s = 0.0
                for l in range(dim):
                    s += ginv[k, l] * (D[i, j, l] + D[j, i, l] - D[l, i, j])
                gamma[k, i, j] = 0.5 * s
    return gamma


# ---------------------------------------------------------------------------
# Construction rules


def test_components_share_objects_across_diagonal():
    assert POLAR.components[0][1] is POLAR.components[1][0]


def test_asymmetric_text_rejected():
    with pytest.raises(ValueError):
        MetricSpec.from_strings(2, [["1", "x0"], ["x1", "1"]])


def test_bad_shape_rejected():
    with pytest.raises(ValueError):
        MetricSpec.from_strings(2, [["1", "0"], ["0"]])


def test_point_validation():
    with pytest.raises(ValueError):
        Point([1.0, float("nan")])
    with pytest.raises(ValueError):
        metric_at(POLAR, Point([1.0]))


# ---------------------------------------------------------------------------
# Metric evaluation and inversion


def test_metric_at_polar():
    g = metric_at(POLAR, Point([2.0, 0.7]))
    assert g.tolist() == [[1.0, 0.0], [0.0, 4.0]]


def test_inverse_metric_product_is_identity():
    rng = np.random.default_rng(31)
    for spec in ALL_METRICS:
        for _ in range(25):
            p = sample_point(rng, spec)
            g = metric_at(spec, p)
            ginv = _inverse_of(metric_at(spec, p))
            err = np.abs(ginv @ g - np.eye(spec.dim)).max()
            assert err <= 1e-12, (spec.name, err)


def _random_metric(rng, dim: int, lorentzian: bool) -> np.ndarray:
    """Q diag(lam) Q^T with |lam| in [0.5, 2], one negative when Lorentzian."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    lam = rng.uniform(0.5, 2.0, size=dim)
    if lorentzian:
        lam[0] = -lam[0]
    g = (q * lam) @ q.T
    return 0.5 * (g + g.T)


def test_closed_form_inverse_matches_lapack():
    rng = np.random.default_rng(20261018)
    for dim in (1, 2, 3):
        for lorentzian in (False, True):
            for _ in range(200):
                g = _random_metric(rng, dim, lorentzian)
                got = _inverse_of(g)
                want = np.linalg.inv(g)
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
                assert np.array_equal(got, got.T)  # symmetric bitwise


def _old_rule_degenerate(g: np.ndarray) -> bool:
    """The degeneracy rule as LAPACK det and float powers compute it, an
    overflowing power reaching inf, as _christoffels_stacked applies it."""
    with np.errstate(all="ignore"):
        peak = np.abs(g).max()
        det = np.linalg.det(g)
        cutoff = 1e-12 * np.maximum(1.0, peak) ** len(g)
    return not (np.isfinite(peak) and abs(det) >= cutoff)


def _spec_of(g: np.ndarray) -> MetricSpec:
    """A metric whose components are the constants of g."""
    dim = len(g)
    rows = [[repr(float(g[i, j])) for j in range(dim)] for i in range(dim)]
    return MetricSpec.from_strings(dim, rows)


DEGENERACY_CASES = [
    np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]]),  # |det| 1e-14, below the cutoff
    np.array([[1.0, 1.0], [1.0, 1.0 + 1e-10]]),  # |det| 1e-10, above it
    np.array([[1.0, 0.5, 0.0], [0.5, 0.25 + 1e-14, 0.0], [0.0, 0.0, 1.0]]),
    np.array([[1.0, 0.5, 0.0], [0.5, 0.25 + 1e-10, 0.0], [0.0, 0.0, -1.0]]),
    np.array([[1e-7]]),
    np.array([[1e-13]]),
    np.diag([1e160, 1.0]),  # det 1e160 against a cutoff of 1e308
    np.diag([1e200, 1e200]),  # det and cutoff both overflow to inf
    np.diag([1e300, 1e100]),
    np.diag([1e120, 1e120, 1e120]),
    np.array([[1e150, 1e149], [1e149, 1e150]]),
    np.diag([1e60, 1e60, 1e60]),  # a closed-form product reaches 1e180
    np.diag([1e-120, 1e-120]),  # products underflow to 0
]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("g", DEGENERACY_CASES, ids=lambda g: repr(g.tolist()))
def test_inverse_verdict_matches_the_old_rule(g):
    want = _old_rule_degenerate(g)
    try:
        _inverse_of(g)
        got = False
    except DegenerateMetricError:
        got = True
    assert got == want
    # the stacked pass reaches the same verdict on the same metric
    spec = _spec_of(g)
    try:
        christoffels_batch(spec, np.zeros((2, len(g))))
        stacked = False
    except DegenerateMetricError:
        stacked = True
    assert stacked == want


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_inverse_verdict_on_nonfinite_entries(bad):
    for dim in (1, 2, 3, 4):
        g = np.eye(dim)
        g[0, dim - 1] = g[dim - 1, 0] = bad
        assert _old_rule_degenerate(g)
        with pytest.raises(DegenerateMetricError):
            _inverse_of(g)


def test_huge_entry_is_degenerate_not_overflow():
    # exp(400) ~ 5e173, and max(1, peak)**dim used to raise OverflowError
    # past 1e154 in dim 2
    spec = MetricSpec.from_strings(2, [["exp(x0)", "0"], ["0", "1"]])
    with pytest.raises(DegenerateMetricError):
        christoffels_of(spec, Point([400.0, 0.0]))
    with pytest.raises(DegenerateMetricError):
        christoffels_batch(spec, np.array([[0.0, 0.0], [400.0, 0.0]]))


def test_degenerate_metric_detected():
    cone = MetricSpec.from_strings(2, [["1", "0"], ["0", "x0^2"]])
    with pytest.raises(DegenerateMetricError):
        _inverse_of(metric_at(cone, Point([0.0, 1.0])))
    with pytest.raises(DegenerateMetricError):
        _inverse_of(metric_at(cone, Point([1e-8, 1.0])))


def test_nonfinite_metric_is_degenerate():
    # inf - inf: the metric entry is NaN at x0 = 1 and 1 at x0 = 0.  The
    # expression layer rejects it where it is evaluated, on both paths.
    big = "x0*x0*1e300*1e300"
    blowup = MetricSpec.from_strings(2, [[f"1 + {big} - {big}", "0"], ["0", "1"]])
    with pytest.raises(EvalDomainError):
        metric_at(blowup, Point([1.0, 0.0]))
    with pytest.raises(EvalDomainError):
        christoffels_of(blowup, Point([1.0, 0.0]))
    with pytest.raises(EvalDomainError):
        christoffels_batch(blowup, np.array([[0.0, 0.0], [1.0, 0.0]]))
    fine = christoffels_batch(blowup, np.array([[0.0, 0.0], [0.0, 1.0]]))
    assert np.all(fine == 0.0)
    # a metric array that is not finite is degenerate
    with pytest.raises(DegenerateMetricError):
        _inverse_of(np.diag([np.inf, 1.0]))


def test_stacked_christoffels_match_pointwise():
    rng = np.random.default_rng(41)
    for spec in ALL_METRICS:
        xs = np.array([sample_point(rng, spec) for _ in range(9)])
        stacked = christoffels_batch(spec, xs)
        for x, gamma in zip(xs, stacked):
            ref = christoffels_of(spec, x)
            assert np.abs(gamma - ref).max() <= 1e-13 * (1.0 + np.abs(ref).max())


def test_lorentzian_metric_inverts():
    p = Point([0.5, 0.5])
    g = metric_at(LORENTZ, p)
    assert g[0, 0] < 0 < g[1, 1]
    ginv = _inverse_of(g)
    assert np.abs(ginv @ g - np.eye(2)).max() <= 1e-12


# ---------------------------------------------------------------------------
# Christoffel symbols


def test_polar_christoffel_anchors():
    gamma = christoffels_of(POLAR, Point([2.0, 0.7]))
    assert gamma[0, 1, 1] == pytest.approx(-2.0, abs=1e-14)
    assert gamma[1, 0, 1] == pytest.approx(0.5, abs=1e-14)
    assert gamma[1, 1, 0] == pytest.approx(0.5, abs=1e-14)
    # all other entries vanish for the polar metric
    mask = np.ones((2, 2, 2), dtype=bool)
    mask[0, 1, 1] = mask[1, 0, 1] = mask[1, 1, 0] = False
    assert np.abs(gamma[mask]).max() == 0.0


def test_sphere_christoffel_anchors():
    theta = np.pi / 4
    gamma = christoffels_of(SPHERE, Point([theta, 1.3]))
    assert gamma[0, 1, 1] == pytest.approx(-0.5, abs=1e-14)  # -sin cos
    assert gamma[1, 0, 1] == pytest.approx(1.0, abs=1e-14)  # cot
    assert gamma[1, 1, 0] == pytest.approx(1.0, abs=1e-14)


def test_christoffels_lower_symmetry_bitwise():
    rng = np.random.default_rng(37)
    for spec in ALL_METRICS:
        for _ in range(10):
            gamma = christoffels_of(spec, sample_point(rng, spec))
            assert np.array_equal(gamma, gamma.transpose(0, 2, 1))


def test_christoffels_match_finite_differences():
    rng = np.random.default_rng(41)
    for spec in ALL_METRICS:
        for _ in range(10):
            p = sample_point(rng, spec)
            gamma = christoffels_of(spec, p)
            ref = fd_christoffels(spec, p)
            assert np.abs(gamma - ref).max() <= 1e-7, spec.name


def test_metric_compatibility():
    # covariant derivative of the metric vanishes:
    # d_k g_ij - Gamma^l_ki g_lj - Gamma^l_kj g_il = 0
    rng = np.random.default_rng(43)
    for spec in ALL_METRICS:
        for _ in range(10):
            p = sample_point(rng, spec)
            gamma = christoffels_of(spec, p)
            g = metric_at(spec, p)
            D = np.zeros((spec.dim,) * 3)
            for i in range(spec.dim):
                for j in range(spec.dim):
                    comp = spec.components[i][j]
                    D[:, i, j] = fd_gradient(lambda x, c=comp: evaluate(c, x), p)
            nabla = (
                D
                - np.einsum("lki,lj->kij", gamma, g)
                - np.einsum("lkj,il->kij", gamma, g)
            )
            assert np.abs(nabla).max() <= 1e-9, spec.name


# ---------------------------------------------------------------------------
# Covariant Hessian and Laplacian: the curvature programs' per-factor warp
# Hessian H and its Laplacian lap are the package's only covariant-Hessian
# code, so the field is taken as the base warp of a product with a line,
# and those two nodes are run on its point data.  Warps must be positive;
# an added constant leaves Hessian and Laplacian unchanged.

LINE = MetricSpec.from_strings(1, [["1"]], name="line")


def warp_hessian(spec, field, point):
    """(covariant Hessian, Laplacian) of `field` on `spec` at `point`."""
    product = WarpedProductSpec.build(spec, LINE, field, "1")
    d = _point_data(product, ProductPoint(point, [0.0]))
    (base, _), fields = blocks._factors(product, d)
    k = spec.dim
    nodes = [base.H[i][j] for i in range(k) for j in range(k)] + [base.lap]
    program = _compile([(Const(0.0) if n is None else n, None) for n in nodes])
    out = _run(program, blocks._leaves(fields, d))
    return np.array(out[:-1]).reshape(k, k), out[-1]


def test_polar_hessian_and_laplacian_anchors():
    H, lap = warp_hessian(POLAR, "x0", [2.0, 0.7])
    assert H[0, 0] == 0.0
    assert H[0, 1] == 0.0
    assert H[1, 1] == pytest.approx(2.0, abs=1e-14)
    assert lap == pytest.approx(0.5, abs=1e-14)


def test_hessian_symmetric_bitwise():
    rng = np.random.default_rng(47)
    f2 = "3 + sin(x0)*x1 + x1^2"
    f3 = "3 + sin(x0)*x1 + exp(0.2*x2)"
    for spec in ALL_METRICS:
        f = f3 if spec.dim == 3 else f2
        for _ in range(10):
            H, _ = warp_hessian(spec, f, sample_point(rng, spec))
            assert np.array_equal(H, H.T)


def test_flat_metric_hessian_is_plain_hessian():
    flat = MetricSpec.from_strings(2, [["1", "0"], ["0", "1"]], name="flat")
    H, lap = warp_hessian(flat, "2 + x0^2*x1", [1.5, -0.5])
    assert H.tolist() == [[-1.0, 3.0], [3.0, 0.0]]
    assert lap == -1.0
