import json
import math
from pathlib import Path

import numpy as np
import pytest

from warpcurv.errors import ManifestError
from warpcurv.manifest import catalog_names, load_catalog, load_manifest, parse_manifest
from warpcurv.closed_form import bundle_closed
from warpcurv.warped import ProductPoint

FIXTURES = Path(__file__).parent / "fixtures"


def minimal(**overrides):
    data = {
        "name": "minimal",
        "base": {"dim": 1, "metric": [["1"]]},
        "fiber": {"dim": 1, "metric": [["1"]]},
        "warp_f": "1",
        "warp_h": "1",
    }
    data.update(overrides)
    return data


def test_catalog_contents():
    assert catalog_names() == [
        "doubly-exp",
        "flat-product",
        "robertson-walker",
        "schwarzschild-exterior-slice",
        "unit-sphere",
    ]


def test_catalog_entries_load_and_evaluate():
    for name in catalog_names():
        mf = load_catalog(name)
        assert mf.convention == "paper"
        assert mf.box is not None
        assert mf.box.shape == (mf.dim, 2)
        # scalar curvature evaluates cleanly at the box center
        center = mf.box.mean(axis=1)
        bundle_closed(mf.spec, ProductPoint.from_full(center, mf.spec.base.dim))


def test_unknown_catalog_name():
    with pytest.raises(ManifestError, match="available:"):
        load_catalog("torus")


def test_sphere_catalog_matches_hand_built():
    mf = load_catalog("unit-sphere")
    s = bundle_closed(mf.spec, ProductPoint([1.1], [0.4])).scalar
    assert abs(s - 2.0) < 1e-10


def test_load_manifest_from_file(tmp_path):
    p = tmp_path / "m.json"
    p.write_text(json.dumps(minimal()), encoding="utf-8")
    mf = load_manifest(p)
    assert mf.name == "minimal"
    assert mf.dim == 2
    assert mf.policy.richardson_levels == 2
    assert mf.box is None


def test_missing_file_and_bad_json(tmp_path):
    with pytest.raises(ManifestError, match="cannot read"):
        load_manifest(tmp_path / "absent.json")
    p = tmp_path / "broken.json"
    p.write_text("{not json", encoding="utf-8")
    with pytest.raises(ManifestError, match="not valid JSON"):
        load_manifest(p)


def test_upper_triangular_grid():
    data = minimal(
        base={
            "dim": 2,
            "metric": [["1 + x1^2", "x0*x1"], ["2"]],
            "upper_triangular": True,
        }
    )
    mf = parse_manifest(data)
    g = mf.spec.base.components
    assert g[0][1] is g[1][0]
    bad = minimal(
        base={"dim": 2, "metric": [["1", "0"], ["0", "1"]], "upper_triangular": True}
    )
    with pytest.raises(ManifestError, match=r"\$\.base\.metric\[1\]"):
        parse_manifest(bad)


def test_validation_paths_are_reported():
    cases = [
        (minimal(base={"dim": 1}), r"\$\.base\.metric"),
        (minimal(base={"dim": 2, "metric": [["1"]]}), r"\$\.base\.metric"),
        (minimal(base={"dim": 1, "metric": [[1.0]]}), r"\$\.base\.metric\[0\]\[0\]"),
        (minimal(warp_f=3.0), r"\$\.warp_f"),
        (minimal(convention="sideways"), r"\$\.convention"),
        (minimal(extra_field=1), r"\$\.extra_field"),
        (minimal(box=[[0, 1]]), r"\$\.box"),
        (minimal(box=[[0, 1], [3, 2]]), r"\$\.box\[1\]"),
        # JSON reads 1e309 as inf; a finite box may still have an infinite width
        (minimal(box=json.loads("[[0, 1], [0, 1e309]]")), r"\$\.box\[1\]: needs a finite width"),
        (minimal(box=[[-1e308, 1e308], [0, 1]]), r"\$\.box\[0\]: needs a finite width"),
        (minimal(diff_policy=json.loads('{"base_step": 1e309}')), r"\$\.diff_policy: base_step"),
        (minimal(diff_policy={"richardson_levels": "two"}), r"richardson_levels"),
        (minimal(diff_policy={"step": 1e-4}), r"\$\.diff_policy\.step"),
        ([1, 2, 3], r"\$"),
    ]
    for data, pattern in cases:
        with pytest.raises(ManifestError, match=pattern):
            parse_manifest(data)


@pytest.mark.parametrize("data, path", [
    (minimal(base={"dim": True, "metric": [["1"]]}), r"\$\.base\.dim: "),
    (minimal(box=[[False, True], [0, 1]]), r"\$\.box\[0\]: "),
    (minimal(diff_policy={"richardson_levels": True}), r"\$\.diff_policy\.richardson_levels: "),
    (minimal(diff_policy={"base_step": True}), r"\$\.diff_policy\.base_step: "),
], ids=["dim", "box", "richardson_levels", "base_step"])
def test_a_json_boolean_is_not_a_number(data, path):
    # true and false decode to bool, a subclass of int
    with pytest.raises(ManifestError, match=path):
        parse_manifest(data)


def test_expression_errors_become_manifest_errors():
    with pytest.raises(ManifestError, match=r"\$\.base\.metric"):
        parse_manifest(minimal(base={"dim": 1, "metric": [["sin("]]}))
    with pytest.raises(ManifestError, match=r"\$\.warp"):
        parse_manifest(minimal(warp_f="x3"))  # arity 1 base has only x0
    with pytest.raises(ManifestError, match="symmetric"):
        parse_manifest(
            minimal(base={"dim": 2, "metric": [["1", "x0"], ["x1", "1"]]})
        )


def test_diff_policy_overrides():
    mf = parse_manifest(
        minimal(diff_policy={"base_step": 1e-5, "richardson_levels": 3, "relative_scaling": False})
    )
    assert mf.policy.base_step == 1e-5
    assert mf.policy.richardson_levels == 3
    assert mf.policy.relative_scaling is False
    with pytest.raises(ManifestError):
        parse_manifest(minimal(diff_policy={"richardson_levels": 7}))


def test_fixture_2x2_variant():
    mf = load_manifest(FIXTURES / "doubly-exp-2x2.json")
    assert mf.spec.base.dim == 2 and mf.spec.fiber.dim == 2
    assert math.isfinite(
        bundle_closed(mf.spec, ProductPoint(np.zeros(2), np.zeros(2))).scalar
    )
