import numpy as np
import pytest

from warpcurv.errors import NonpositiveWarpError
from warpcurv.expr import format_expression, parse_expression
from warpcurv.geometry import MetricSpec, metric_at
from warpcurv.warped import (
    ProductPoint,
    WarpedProductSpec,
    as_plain_metric,
    assemble_metric,
    warp_values,
)

LINE = MetricSpec.from_strings(1, [["1"]], name="line")
CIRCLE = MetricSpec.from_strings(1, [["1"]], name="circle")
PLANE2 = MetricSpec.from_strings(2, [["1", "0"], ["0", "1"]], name="plane2")
WOBBLY2 = MetricSpec.from_strings(
    2,
    [["2 + 0.3*sin(x0)", "0.2*x0*x1"], ["0.2*x0*x1", "3 + cos(x1)"]],
    name="wobbly2",
)

SPHERE = WarpedProductSpec.build(LINE, CIRCLE, "sin(x0)", "1", name="unit-sphere")
DOUBLY_EXP = WarpedProductSpec.build(LINE, LINE, "exp(x0)", "exp(x0)", name="doubly-exp")
GENERIC = WarpedProductSpec.build(
    WOBBLY2, PLANE2, "1 + 0.5*x0^2 + 0.1*x1^2", "exp(0.3*x0 - 0.2*x1)", name="generic"
)


def test_product_point_round_trip():
    pp = ProductPoint.from_full([1.0, 2.0, 3.0, 4.0], 2)
    assert pp.base_coords.tolist() == [1.0, 2.0]
    assert pp.fiber_coords.tolist() == [3.0, 4.0]
    assert pp.full.tolist() == [1.0, 2.0, 3.0, 4.0]


def test_warp_arity_validated():
    from warpcurv.errors import ArityError

    # caught at parse time: x1 does not exist on a 1-dim base chart
    with pytest.raises(ArityError):
        WarpedProductSpec.build(LINE, CIRCLE, "sin(x1)", "1")
    # caught at assembly time: pre-parsed field with the wrong arity
    f_wrong = parse_expression("x0 + x1", 2)
    h_ok = parse_expression("1", 1)
    with pytest.raises(ValueError):
        WarpedProductSpec(LINE, CIRCLE, f_wrong, h_ok)


@pytest.mark.parametrize("f, h", [("1", parse_expression("1", 1)), (parse_expression("1", 1), 1.0)])
def test_warps_must_be_expressions(f, h):
    with pytest.raises(TypeError):
        WarpedProductSpec(LINE, CIRCLE, f, h)


def test_sphere_metric_assembles():
    theta = 0.9
    g = assemble_metric(SPHERE, ProductPoint([theta], [2.0]))
    assert g[0, 0] == 1.0
    assert g[1, 1] == pytest.approx(np.sin(theta) ** 2, rel=1e-15)
    assert g[0, 1] == 0.0 and g[1, 0] == 0.0


def test_nonpositive_warp_reported():
    with pytest.raises(NonpositiveWarpError) as exc:
        assemble_metric(SPHERE, ProductPoint([0.0], [1.0]))  # sin(0) = 0
    assert exc.value.which == "f"
    down = WarpedProductSpec.build(LINE, LINE, "1", "x0 - 5")
    with pytest.raises(NonpositiveWarpError) as exc:
        warp_values(down, ProductPoint([0.0], [1.0]))
    assert exc.value.which == "h"
    assert exc.value.value == -4.0


def test_cross_blocks_exact_zero():
    rng = np.random.default_rng(53)
    m = GENERIC.base.dim
    for _ in range(50):
        p = ProductPoint(rng.uniform(-1, 1, size=2), rng.uniform(-1, 1, size=2))
        g = assemble_metric(GENERIC, p)
        assert np.all(g[:m, m:] == 0.0)
        assert np.all(g[m:, :m] == 0.0)


def test_as_plain_metric_matches_assembly():
    rng = np.random.default_rng(59)
    for spec in [SPHERE, DOUBLY_EXP, GENERIC]:
        plain = as_plain_metric(spec)
        assert plain.dim == spec.dim
        for _ in range(100):
            if spec is SPHERE:
                b = [rng.uniform(0.3, 2.8)]
                f = [rng.uniform(-3, 3)]
            else:
                b = rng.uniform(-1, 1, size=spec.base.dim)
                f = rng.uniform(-1, 1, size=spec.fiber.dim)
            pp = ProductPoint(b, f)
            g1 = assemble_metric(spec, pp)
            g2 = metric_at(plain, pp.full)
            scale = max(1.0, np.abs(g1).max())
            assert np.abs(g1 - g2).max() <= 1e-14 * scale


def test_plain_metric_structure():
    plain = as_plain_metric(SPHERE)
    # base block scaled by h^2, fiber block by f^2 with shifted variables
    assert format_expression(plain.components[0][0]) == "1^2*1"
    assert format_expression(plain.components[1][1]) == "sin(x0)^2*1"
    assert format_expression(plain.components[0][1]) == "0"
    assert plain.components[0][1] is plain.components[1][0]


def test_fiber_variables_shift_in_plain_metric():
    spec = WarpedProductSpec.build(LINE, CIRCLE, "1", "exp(x0)", name="h-warp")
    plain = as_plain_metric(spec)
    # h lives on the fiber, so its variable appears as x1 in the product
    assert format_expression(plain.components[0][0]) == "exp(x1)^2*1"


def test_homothety_scales_fiber_block():
    f2 = "2*(" + "sin(x0)" + ")"
    scaled = WarpedProductSpec.build(LINE, CIRCLE, f2, "1", name="scaled")
    rng = np.random.default_rng(61)
    for _ in range(20):
        pp = ProductPoint([rng.uniform(0.3, 2.8)], [rng.uniform(-3, 3)])
        g1 = assemble_metric(SPHERE, pp)
        g2 = assemble_metric(scaled, pp)
        assert g2[1, 1] == 4.0 * g1[1, 1]
        assert g2[0, 0] == g1[0, 0]
