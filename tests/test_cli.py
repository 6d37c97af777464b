import json
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import warpcurv
import warpcurv.cli as cli
from warpcurv import errors
from warpcurv.cli import main

FIXTURES = Path(__file__).parent / "fixtures"


def catalog(name: str) -> str:
    return str(resources.files("warpcurv.catalog") / f"{name}.json")


def test_curvature_sphere_check_passes(tmp_path, capsys):
    out = tmp_path / "c.json"
    code = main(
        [
            "curvature",
            catalog("unit-sphere"),
            "--point",
            "1.5707963267948966,0.25",
            "--check",
            "1e-5",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["manifest"] == "unit-sphere"
    assert abs(doc["closed"]["scalar"] - 2.0) < 1e-10
    assert doc["within_tolerance"] is True
    assert doc["comparison"]["max_rel"] <= 1e-5
    # paper convention: lowered equator component R_{0101} = -1, so the
    # mixed component R^0_{101} here is sin^2(theta) * (-1) = -1
    assert abs(doc["closed"]["riemann"][0][1][0][1] + 1.0) < 1e-9
    assert doc["oracle"]["convention"] == "paper"


def test_curvature_convention_override(tmp_path):
    out = tmp_path / "c.json"
    assert (
        main(
            [
                "curvature",
                catalog("unit-sphere"),
                "--point",
                "1.5707963267948966,0.25",
                "--convention",
                "common",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    doc = json.loads(out.read_text())
    assert doc["closed"]["convention"] == "common"
    assert abs(doc["closed"]["riemann"][0][1][0][1] - 1.0) < 1e-9
    assert abs(doc["closed"]["scalar"] - 2.0) < 1e-10


def test_curvature_wrong_point_length(capsys):
    assert main(["curvature", catalog("unit-sphere"), "--point", "1.0"]) == 2
    assert "coordinates" in capsys.readouterr().err


def test_bad_syntax_manifest_exits_2(capsys):
    code = main(["curvature", str(FIXTURES / "bad-syntax.json"), "--point", "1,1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "position 4" in err and "$.base.metric" in err


def test_nonpositive_warp_exits_3(capsys):
    code = main(["curvature", str(FIXTURES / "shifted-warp.json"), "--point", "4.0,0"])
    assert code == 3
    assert "positive" in capsys.readouterr().err


def test_verify_flat_product_all_zero(tmp_path):
    out = tmp_path / "v.csv"
    code = main(
        ["verify", catalog("flat-product"), "--samples", "10", "--seed", "1", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# warpcurv ")
    assert lines[1] == "point,tensor,max_abs_dev,max_rel_dev"
    data = [ln for ln in lines if not ln.startswith("#")][1:]
    assert len(data) == 40  # 10 points x 4 tensors
    for row in data:
        point, tensor, max_abs, max_rel = row.split(",")
        assert max_abs == "0" and max_rel == "0"
    assert "# skipped,0,of,10" in lines


def test_verify_determinism_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    argv = ["verify", catalog("unit-sphere"), "--samples", "8", "--seed", "42", "--tol", "1e-5"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert b"\r" not in a.read_bytes()


def test_verify_env_seed_default(tmp_path, monkeypatch):
    monkeypatch.setenv("WARPCURV_SEED", "42")
    envrun = tmp_path / "env.csv"
    explicit = tmp_path / "flag.csv"
    base = ["verify", catalog("unit-sphere"), "--samples", "6", "--tol", "1e-5"]
    assert main(base + ["--out", str(envrun)]) == 0
    assert main(base + ["--seed", "42", "--out", str(explicit)]) == 0
    assert envrun.read_bytes() == explicit.read_bytes()
    assert "seed=42" in envrun.read_text().splitlines()[0]


@pytest.mark.parametrize(
    "env,flags,named",
    [(None, ["--seed", "-1"], "--seed"), ("-3", [], "WARPCURV_SEED"),
     ("4.5", [], "WARPCURV_SEED")],
    ids=["negative-flag", "negative-variable", "variable-not-an-integer"],
)
def test_verify_rejects_a_seed_that_is_negative_or_not_an_integer(env, flags, named, monkeypatch,
                                                                  capsys):
    if env is None:
        monkeypatch.delenv("WARPCURV_SEED", raising=False)
    else:
        monkeypatch.setenv("WARPCURV_SEED", env)
    assert main(["verify", catalog("unit-sphere"), "--samples", "3", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert named in _one_line(captured.err)


def test_verify_without_a_box_exits_2(tmp_path, capsys):
    doc = json.loads(Path(catalog("unit-sphere")).read_text())
    del doc["box"]
    path = tmp_path / "boxless.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path), "--samples", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--box" in _one_line(captured.err)


def test_verify_tolerance_below_noise_floor_exits_1(tmp_path):
    code = main(
        [
            "verify",
            catalog("unit-sphere"),
            "--samples",
            "5",
            "--seed",
            "2",
            "--tol",
            "1e-16",
            "--out",
            str(tmp_path / "v.csv"),
        ]
    )
    assert code == 1


def test_verify_excess_skips_exit_4(tmp_path):
    out = tmp_path / "v.csv"
    code = main(
        [
            "verify",
            str(FIXTURES / "shifted-warp.json"),
            "--samples",
            "20",
            "--seed",
            "3",
            "--box",
            "4..6,-1..1",
            "--out",
            str(out),
        ]
    )
    assert code == 4
    text = out.read_text()
    assert "skipped:" in text


def test_verify_box_validation(capsys):
    assert main(["verify", catalog("unit-sphere"), "--box", "0..1"]) == 2
    assert main(["verify", catalog("unit-sphere"), "--box", "0..1,5..2"]) == 2
    assert main(["verify", catalog("unit-sphere"), "--box", "0..1,zz..2"]) == 2
    capsys.readouterr()
    assert main(["verify", catalog("unit-sphere"), "--box", "0.3..inf,0..6"]) == 2
    assert "needs a finite width" in _one_line(capsys.readouterr().err)
    assert main(["verify", catalog("unit-sphere"), "--box=-1e308..1e308,0..6"]) == 2
    assert "needs a finite width" in _one_line(capsys.readouterr().err)


@pytest.mark.parametrize(
    "field,value",
    [("box", "[[0.3, 1e309], [0, 6]]"), ("box", "[[-1e308, 1e308], [0, 6]]"),
     ("diff_policy", '{"base_step": 1e309}')],
)
def test_nonfinite_manifest_numbers_exit_2(tmp_path, capsys, field, value):
    doc = json.loads(Path(catalog("unit-sphere")).read_text())
    doc.pop("box", None)
    text = json.dumps(doc)[:-1] + f', "{field}": {value}}}'  # 1e309 as JSON text
    path = tmp_path / "nonfinite.json"
    path.write_text(text)
    assert main(["verify", str(path), "--samples", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"$.{field}" in _one_line(captured.err)


def test_geodesic_flat_straight_line(tmp_path):
    out = tmp_path / "g.csv"
    code = main(
        [
            "geodesic",
            catalog("flat-product"),
            "--init",
            "0,0,0,0;1,0,0,0",
            "--s-end",
            "1.0",
            "--step",
            "0.1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[2] == "s,x0,x1,x2,x3,v0,v1,v2,v3,norm"
    last = lines[-2].split(",")  # final row before the drift summary
    assert last[0] == "1"
    assert abs(float(last[1]) - 1.0) < 1e-14  # straight line up to roundoff
    assert last[2] == "0"
    assert last[-1] == "1"
    assert lines[-1] == "# norm_drift,0"


def test_geodesic_both_reports_deviation(tmp_path):
    out = tmp_path / "g.csv"
    code = main(
        [
            "geodesic",
            catalog("unit-sphere"),
            "--init",
            "1.2,0;0.3,0.8",
            "--s-end",
            "1.0",
            "--step",
            "0.001",
            "--rhs",
            "both",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert "# rhs=full" in lines and "# rhs=split" in lines
    dev_line = [ln for ln in lines if ln.startswith("# max_coordinate_deviation")]
    assert len(dev_line) == 1
    assert float(dev_line[0].split(",")[1]) <= 1e-8


def test_geodesic_drift_abort_exits_1(tmp_path, capsys):
    code = main(
        [
            "geodesic",
            catalog("unit-sphere"),
            "--init",
            "1.0,0;0.2,0.7",
            "--s-end",
            "3.0",
            "--step",
            "0.01",
            "--abort-drift",
            "1e-15",
            "--out",
            str(tmp_path / "g.csv"),
        ]
    )
    assert code == 1
    assert "drift" in capsys.readouterr().err


def test_geodesic_domain_exit_3(tmp_path, capsys):
    code = main(
        [
            "geodesic",
            catalog("unit-sphere"),
            "--init",
            "1.0,0;-1,0",
            "--s-end",
            "3.0",
            "--step",
            "0.01",
            "--out",
            str(tmp_path / "g.csv"),
        ]
    )
    assert code == 3
    assert "last valid s=" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,budget,summary",
    [([catalog("unit-sphere"), "--init", "1.2,0;0.3,0.8", "--s-end", "0.1"],
      ["--drift-tol", "0"], "# norm_drift,"),
     # the two routes end one rounding apart on this run
     ([catalog("robertson-walker"), "--init=0.26,0.25,0.29,0.51;-0.14,0.52,0.76,-0.8",
       "--s-end", "0.5", "--rhs", "both", "--drift-tol", "1"],
      ["--path-tol", "0"], "# max_coordinate_deviation,")],
    ids=["drift", "path"],
)
def test_geodesic_over_a_zero_budget_exits_1_after_the_full_csv(argv, budget, summary, tmp_path):
    out = tmp_path / "g.csv"
    argv = ["geodesic", *argv, "--step", "0.01", "--out", str(out)]
    assert main(argv) == 0
    full = out.read_text()
    assert main(argv + budget) == 1
    assert out.read_text() == full
    last = full.splitlines()[-1]
    assert last.startswith(summary) and float(last.split(",")[1]) > 0.0


def test_geodesic_init_validation(capsys):
    assert main(["geodesic", catalog("unit-sphere"), "--init", "1,0", "--s-end", "1"]) == 2
    assert main(["geodesic", catalog("unit-sphere"), "--init", "1;0,1", "--s-end", "1"]) == 2


def test_missing_manifest_file(capsys):
    assert main(["curvature", "/nonexistent.json", "--point", "0,0"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", catalog("unit-sphere"), "--samples", "0"],
        ["verify", catalog("unit-sphere"), "--samples", "-5"],
        ["curvature", catalog("unit-sphere"), "--point", "nan,0"],
        ["curvature", catalog("unit-sphere"), "--point", "1,inf"],
        ["geodesic", catalog("unit-sphere"), "--init", "1.5,nan;0,1", "--s-end", "1"],
        ["geodesic", catalog("unit-sphere"), "--init", "1.5,0;0,-inf", "--s-end", "1"],
        ["geodesic", catalog("unit-sphere"), "--init", "1.5,0;0,1", "--s-end", "inf"],
        ["geodesic", catalog("unit-sphere"), "--init", "1.5,0;0,1", "--s-end", "nan"],
        ["geodesic", catalog("unit-sphere"), "--init", "1.5,0;0,1", "--s-end", "-1"],
        ["geodesic", catalog("unit-sphere"), "--init", "1.5,0;0,1", "--s-end", "1", "--step", "nan"],
        ["geodesic", catalog("unit-sphere"), "--init", "1.5,0;0,1", "--s-end", "1", "--step", "0"],
        ["geodesic", catalog("unit-sphere"), "--init", "1.5,0;0,1", "--s-end", "1", "--step", "-0.1"],
        # more than MAX_GEODESIC_STEPS steps
        ["geodesic", catalog("unit-sphere"), "--init", "1.5,0;0,1", "--s-end", "1e9", "--step", "1e-3"],
        ["geodesic", catalog("unit-sphere"), "--init", "1.5,0;0,1", "--s-end", "1001", "--step", "1e-3"],
        ["geodesic", catalog("unit-sphere"), "--init", "1.5,0;0,1", "--s-end", "1e300", "--step", "1e-300"],
        # a tolerance that is not finite and >= 0 would check nothing
        ["curvature", catalog("unit-sphere"), "--point", "1,0", "--check", "nan"],
        ["curvature", catalog("unit-sphere"), "--point", "1,0", "--check=-1e-5"],
        ["verify", catalog("unit-sphere"), "--tol", "nan"],
        ["verify", catalog("unit-sphere"), "--tol", "inf"],
        # text that is not a number or a span
        ["curvature", catalog("unit-sphere"), "--point", "1,x"],
        ["verify", catalog("unit-sphere"), "--box", "0..1,2"],
        *[
            ["geodesic", catalog("unit-sphere"), "--init", "1.2,0;0.3,1", "--s-end", "0.5",
             "--step", "0.01", "--rhs", "both", f"{flag}={value}"]
            for flag in ("--drift-tol", "--path-tol", "--abort-drift")
            for value in ("nan", "inf", "-1e-3")
        ],
    ],
    ids=lambda argv: " ".join(a for a in argv if not a.endswith(".json")),
)
def test_bad_numeric_flags_exit_2_with_one_line(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip()
    assert err and "\n" not in err and "Traceback" not in err


def _write_manifest(tmp_path, base_metric, warp_f="1") -> str:
    doc = {
        "name": "probe",
        "base": {"dim": len(base_metric), "name": "base", "metric": base_metric},
        "fiber": {"dim": 1, "name": "fiber", "metric": [["1"]]},
        "warp_f": warp_f,
        "warp_h": "1",
    }
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _one_line(err: str) -> str:
    err = err.strip()
    assert err and "\n" not in err and "Traceback" not in err, err
    return err


def test_deep_sum_manifest_runs_on_every_command(tmp_path, capsys):
    # a 1500-term base metric, 1 + 1500*0.001*x0^2, and a 1500-term warp
    g00 = "1" + " + 0.001*x0^2" * 1500
    f = "2" + " + 0.001*x0^2" * 1500
    path = _write_manifest(tmp_path, [[g00, "0"], ["0", "1"]], warp_f=f)
    assert main(["curvature", path, "--point", "0.5,0.2,0.1", "--check", "1e-5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["within_tolerance"] is True
    assert main(["verify", path, "--samples", "3", "--box=-1..1,-1..1,-1..1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 + 3 * 4 + 2 and lines[-2] == "# skipped,0,of,3"


def test_deeply_nested_manifest_exits_2(tmp_path, capsys):
    path = _write_manifest(tmp_path, [["(" * 600 + "1" + ")" * 600]])
    assert main(["curvature", path, "--point", "0,0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "nested deeper than" in _one_line(captured.err)


def test_verify_reports_unstable_rows_after_the_skip_rule(monkeypatch, capsys):
    # samples 0, 1 skip on a domain error and 2 is unstable; the rest pass
    real = cli.bundle_fd
    calls = []

    def flaky(*args, **kwargs):
        calls.append(None)
        if len(calls) <= 2:
            raise errors.StencilDomainError("boom")
        if len(calls) == 3:
            raise errors.NumericalInstabilityError("wobble")
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "bundle_fd", flaky)
    argv = ["verify", catalog("unit-sphere"), "--samples"]
    assert main(argv + ["10"]) == 4  # 2 of 10 skipped is over 10%
    out = capsys.readouterr().out.splitlines()
    assert [row.split(",", 1)[1] for row in out[2:5]] == [
        "skipped:StencilDomainError,,",
        "skipped:StencilDomainError,,",
        "unstable:NumericalInstabilityError,,",
    ]
    assert len(out) == 2 + 3 + 7 * 4 + 2
    calls.clear()
    calls.append(None)  # one skip of 20 is within the rule
    assert main(argv + ["20"]) == 1
    captured = capsys.readouterr()
    assert "1 of 20 samples" in _one_line(captured.err)
    assert "# skipped,1,of,20" in captured.out


def test_huge_metric_entry_exits_3_without_traceback(tmp_path, capsys):
    # g00 = exp(400) ~ 5e173: the degeneracy cutoff used to overflow
    path = _write_manifest(tmp_path, [["exp(x0)", "0"], ["0", "1"]])
    assert main(["curvature", path, "--point", "400,0,0"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "degenerate" in _one_line(captured.err)


def test_overflowing_expression_prints_one_line(tmp_path):
    path = _write_manifest(tmp_path, [["1"]], warp_f="sin(x0) + x0*1e308*10")
    env = dict(os.environ, PYTHONPATH=str(Path(warpcurv.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "warpcurv.cli", "curvature", path, "--point", "1,0"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert "not finite" in proc.stderr


def test_geodesic_state_overflow_exits_3(capsys):
    argv = ["geodesic", catalog("unit-sphere"), "--init", "1,0;1e200,1e200", "--s-end", "1"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no longer finite" in _one_line(captured.err)


@pytest.mark.parametrize(
    "argv",
    [
        ["curvature", "--point", "400,0"],
        ["curvature", "--point", "400,0", "--oracle"],
        ["geodesic", "--init", "400,0;0,1", "--s-end", "1"],
        ["geodesic", "--init", "400,0;0,1", "--s-end", "1", "--rhs", "split"],
    ],
    ids=" ".join,
)
def test_a_warp_beyond_the_float_range_squared_exits_3(tmp_path, capsys, argv):
    # f = exp(400) is finite, f*f is not: every product of warps overflows
    path = _write_manifest(tmp_path, [["1"]], warp_f="exp(x0)")
    assert main([argv[0], path, *argv[1:]]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in _one_line(captured.err)


@pytest.mark.parametrize(
    "argv",
    [
        ["curvature", "--point", "0.3,0"],
        ["curvature", "--point", "0.3,0", "--oracle"],
        ["geodesic", "--init", "0.3,0;1,1", "--s-end", "1"],
        ["geodesic", "--init", "0.3,0;1,1", "--s-end", "1", "--rhs", "split"],
    ],
    ids=" ".join,
)
def test_a_warp_whose_square_underflows_exits_3_or_prints_finite_numbers(tmp_path, capsys, argv):
    # f ~ 2e-170 is positive, f*f underflows to 0: the closed form divides
    # by it, and the geodesic programs leave out the one term it scales,
    # which h's zero gradient makes zero
    path = _write_manifest(tmp_path, [["1"]], warp_f="1e-170*(2 + sin(x0))")
    code = main([argv[0], path, *argv[1:]])
    captured = capsys.readouterr()
    if argv[0] == "curvature":
        assert code == 3 and captured.out == ""
        assert "not finite" in _one_line(captured.err)
        return
    assert code == 0 and captured.err == ""
    rows = [line.split(",") for line in captured.out.splitlines() if line[:1].isdigit()]
    assert len(rows) == 1001
    assert all(math.isfinite(float(x)) for row in rows for x in row)


ERROR_EXITS = [
    (errors.WarpcurvError("boom"), 2),
    (errors.ExpressionError("boom"), 2),
    (errors.ParseError("boom", 3), 2),
    (errors.UnknownIdentifierError("y0", 3), 2),
    (errors.ArityError(5, 2, 3), 2),
    (errors.EvalDomainError("boom"), 3),
    (errors.GeometryError("boom"), 2),
    (errors.DegenerateMetricError("boom", 0.0), 3),
    (errors.NonpositiveWarpError("f", -1.0), 3),
    (errors.OracleError("boom"), 2),
    (errors.StencilDomainError("boom"), 3),
    (errors.NumericalInstabilityError("boom"), 1),
    (errors.GeodesicError("boom"), 2),
    (errors.DomainExitError(0.5, None), 3),
    (errors.StepTooLargeError(0.5, 1.0, 1e-3), 1),
    (errors.ManifestError("boom"), 2),
]


def test_exit_table_covers_every_error_class():
    classes = {
        cls for cls in vars(errors).values()
        if isinstance(cls, type) and issubclass(cls, errors.WarpcurvError)
    }
    assert {type(exc) for exc, _ in ERROR_EXITS} == classes


@pytest.mark.parametrize("exc, code", ERROR_EXITS, ids=lambda v: type(v).__name__)
def test_error_class_exit_code(exc, code, monkeypatch, capsys):
    def raise_it(mf, args):
        raise exc

    monkeypatch.setattr(cli, "cmd_curvature", raise_it)
    assert main(["curvature", catalog("unit-sphere"), "--point", "1,0"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    _one_line(captured.err)


def test_numerical_instability_exits_1(tmp_path, capsys):
    # a coarse stencil on a non-diagonal base leaves the oracle's Ricci
    # tensor visibly asymmetric; the closed route differences nothing, so
    # only a run that calls the oracle meets it
    doc = {
        "name": "coarse",
        "base": {"dim": 2, "name": "base", "metric": [
            ["exp(x1)", "0.3*sin(x0*x1)"], ["0.3*sin(x0*x1)", "2+cos(x0)"]]},
        "fiber": {"dim": 1, "name": "fiber", "metric": [["1"]]},
        "warp_f": "exp(x0)",
        "warp_h": "1",
        "box": [[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]],
        "diff_policy": {"base_step": 0.3, "richardson_levels": 1},
    }
    path = tmp_path / "coarse.json"
    path.write_text(json.dumps(doc))
    assert main(["curvature", str(path), "--point", "0.5,0.5,0.2"]) == 0
    closed = json.loads(capsys.readouterr().out)["closed"]
    for key in ("christoffel", "riemann", "ricci", "scalar"):
        assert np.all(np.isfinite(closed[key])), key
    assert main(["curvature", str(path), "--point", "0.5,0.5,0.2", "--oracle"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Ricci asymmetry" in _one_line(captured.err)
    # verify records each unstable sample as a row and reports the sweep
    assert main(["verify", str(path), "--samples", "3"]) == 1
    captured = capsys.readouterr()
    rows = captured.out.splitlines()[2:-2]
    assert len(rows) == 3
    assert all(row.endswith(",unstable:NumericalInstabilityError,,") for row in rows)
    assert captured.out.splitlines()[-2] == "# skipped,0,of,3"
    assert "Ricci asymmetry" in _one_line(captured.err)
