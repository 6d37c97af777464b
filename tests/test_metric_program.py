"""One compiled program per metric grid.

Geometry evaluates a metric's live components in one run of one
hash-consed program.  These tests hold it to the per-component loop it
replaces, built here from the public evaluators: the same numbers bitwise,
the same first error, shared subtrees evaluated once, and nothing compiled
before the first evaluation."""

import numpy as np
import pytest

from test_bench_bindings import _load
from test_factor_curvature import IDS, MANIFESTS

from warpcurv import kernel
from warpcurv import geometry
from warpcurv.errors import EvalDomainError
from warpcurv.expr import (
    _OP_BIN,
    _OP_CALL,
    _OP_CONST,
    _OP_OUT,
    _OP_VAR,
    _compile,
    _postfix,
    _program_of,
    evaluate,
    format_expression,
    jet2,
    parse_expression,
    value_and_gradient,
)

from batch_reference import value_and_gradient_batch
from warpcurv.geometry import (
    MetricSpec,
    _christoffels_stacked,
    _metric_and_first_derivs,
    _metric_jets,
    metric_at,
)
from warpcurv.manifest import parse_manifest
from warpcurv.warped import as_plain_metric


def _upper(spec):
    return [(i, j) for i in range(spec.dim) for j in range(i, spec.dim)]


def _loop_jets(spec, c):
    """(g, D, DD) component by component, every component evaluated."""
    dim = spec.dim
    g = np.empty((dim, dim))
    D = np.zeros((dim, dim, dim))
    DD = np.zeros((dim, dim, dim, dim))
    for i, j in _upper(spec):
        jet = jet2(spec.components[i][j], c)
        g[i, j] = g[j, i] = jet.value
        D[:, i, j] = D[:, j, i] = jet.gradient
        DD[:, :, i, j] = DD[:, :, j, i] = jet.hessian
    return g, D, DD


def _loop_first(spec, c):
    dim = spec.dim
    g = np.empty((dim, dim))
    D = np.zeros((dim, dim, dim))
    for i, j in _upper(spec):
        v, grad = value_and_gradient(spec.components[i][j], c)
        g[i, j] = g[j, i] = v
        D[:, i, j] = D[:, j, i] = grad
    return g, D


def _loop_values(spec, c):
    g = np.empty((spec.dim, spec.dim))
    for i, j in _upper(spec):
        g[i, j] = g[j, i] = evaluate(spec.components[i][j], c)
    return g


def _loop_stacked(spec, xs):
    """Christoffels at every row from one batch per component, with the
    degeneracy rule left out: the parity points are regular."""
    rows, dim = len(xs), spec.dim
    g = np.empty((rows, dim, dim))
    D = np.empty((rows, dim, dim, dim))
    for i, j in _upper(spec):
        v, grad = value_and_gradient_batch(spec.components[i][j], xs)
        g[:, i, j] = g[:, j, i] = v
        D[:, :, i, j] = D[:, :, j, i] = grad
    term = D + D.transpose(0, 2, 1, 3) - D.transpose(0, 2, 3, 1)
    return 0.5 * np.einsum("nkl,nijl->nkij", np.linalg.inv(g), term)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _charts(mf):
    """(spec, box) of the base, the fiber and the plain chart."""
    box = np.asarray(mf.box, dtype=float)
    m = mf.spec.base.dim
    return [
        (mf.spec.base, box[:m]),
        (mf.spec.fiber, box[m:]),
        (as_plain_metric(mf.spec), box),
    ]


@pytest.mark.parametrize("mf", MANIFESTS, ids=IDS)
def test_grid_run_matches_the_component_loop_bitwise(mf):
    rng = np.random.default_rng(8)
    for spec, box in _charts(mf):
        xs = box[:, 0] + (box[:, 1] - box[:, 0]) * rng.random((4, spec.dim))
        for c in xs[:2]:
            want = _loop_jets(spec, c)
            g, D, DD = _metric_jets(spec, c)
            assert _same_bits(g, want[0]) and _same_bits(D, want[1]), spec.name
            if DD is None:  # a constant metric
                assert not want[2].any()
            else:
                assert _same_bits(DD, want[2]), spec.name
            assert all(map(_same_bits, _metric_and_first_derivs(spec, c), _loop_first(spec, c)))
            assert _same_bits(metric_at(spec, c), _loop_values(spec, c))
        if spec.dim > 1:  # the oracle stacks points only on charts of dim >= 2
            assert _same_bits(_christoffels_stacked(spec, xs), _loop_stacked(spec, xs))


def _first_error(fn, *args):
    with pytest.raises(EvalDomainError) as exc:
        fn(*args)
    return type(exc.value), str(exc.value)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_first_failing_component_raises_what_the_loop_raises():
    # (0,0) overflows to inf without raising; (1,1) leaves log's domain
    spec = MetricSpec.from_strings(2, [["x0*1e308*10", "0"], ["0", "log(x1)"]])
    c = np.array([1.0, -1.0])
    cases = [
        (metric_at, _loop_values, c),
        (_metric_and_first_derivs, _loop_first, c),
        (_metric_jets, _loop_jets, c),
        (_christoffels_stacked, _loop_stacked, c[None]),
    ]
    for grid_fn, loop_fn, x in cases:
        want = _first_error(loop_fn, spec, x)
        assert _first_error(grid_fn, spec, x) == want
        assert "not finite" in want[1]
    # the other way round the domain error comes first
    swapped = MetricSpec.from_strings(2, [["log(x1)", "0"], ["0", "x0*1e308*10"]])
    for grid_fn, loop_fn, x in cases:
        want = _first_error(loop_fn, swapped, x)
        assert _first_error(grid_fn, swapped, x) == want
        assert want[1].startswith("log:")


def test_a_lone_expression_compiles_to_its_postfix_and_one_out():
    alone = parse_expression("x0*sin(x1) - 2^x0 + sin(x0)", 2)
    ops = [(code, arg) for code, arg, *_ in _compile([(alone.root, "check")]).ops]
    # leaves and constants are registers filled before the run, so the ops
    # are the postfix's operations alone
    assert ops[:-1] == [(code, arg) for code, arg, _ in _postfix(alone.root)
                        if code not in (_OP_CONST, _OP_VAR)]
    assert ops[-1] == (_OP_OUT, "check")
    # the order-0 program is that one, its output checked as a value
    assert _program_of(alone, 0)[0].ops[-1][1] == (alone, 1, "value")
    # a repeated subtree is computed by one op, and both reads name its register
    twice = parse_expression("sin(x0 + 1)*sin(x0 + 1)", 1)
    ops = _compile([(twice.root, None)]).ops
    assert [op[0] for op in ops] == [_OP_BIN, _OP_CALL, _OP_BIN, _OP_OUT]
    (_, _, _, sine, _, _), (_, _, _, product, left, right) = ops[1:3]
    assert left == right == sine
    assert ops[3][4] == product


def _dense_3x3():
    doc = next(d for d in _load("workloads").dense_manifests(1) if d["name"] == "dense-3x3")
    return parse_manifest(doc, source=doc["name"])


def _outputs(program):
    """The expressions whose outputs the program checks, in order."""
    return [arg[0] for code, arg, *_ in program.ops if code is _OP_OUT and arg is not None]


def test_plain_chart_program_shares_the_warps():
    mf = _dense_3x3()
    plain = as_plain_metric(mf.spec)
    live = [plain.components[i][j] for i, j in _upper(plain)
            if geometry._constant_value(plain.components[i][j]) is None]
    assert len(live) == 12  # 6 + 6 block components; the 9 cross zeros fold
    # each warp is exp(...) and no factor component calls exp
    factors = [e for f in (mf.spec.base, mf.spec.fiber) for row in f.components for e in row]
    assert not any("exp" in format_expression(e) for e in factors)
    for order in (0, 1):  # metric_at's order, and the oracle's
        program = geometry._grid(plain, order)[0]
        assert _outputs(program) == live
        # exp is its own derivative, so both orders call it once per warp
        exps = [op for op in program.ops if op[0] is _OP_CALL and op[2].name == "exp"]
        assert len(exps) == 2
        separate = sum(len(_program_of(e, order)[0]) for e in live)
        assert len(program) < separate / 2


def test_folded_components_stay_out_of_the_batched_pass(monkeypatch):
    mf = _dense_3x3()
    plain = as_plain_metric(mf.spec)
    runs = []
    columns = geometry._columns

    def spy(program, xs):
        runs.append(_outputs(program))
        return columns(program, xs)

    monkeypatch.setattr(geometry, "_columns", spy)
    x = np.zeros(plain.dim)
    _christoffels_stacked(plain, np.stack([x, x + 0.1]))
    folded = {plain.components[i][j] for i, j in _upper(plain)
              if geometry._constant_value(plain.components[i][j]) is not None}
    assert len(folded) == 1  # the one shared constant-0 expression of the cross blocks
    assert len(runs) == 1 and len(runs[0]) == 12
    assert not folded & set(runs[0])


def test_setup_compiles_nothing(monkeypatch):
    kernels = []
    code = kernel._code
    monkeypatch.setattr(kernel, "_code", lambda text: kernels.append(text) or code(text))
    mf = _dense_3x3()
    plain = as_plain_metric(mf.spec)
    for spec in (mf.spec.base, mf.spec.fiber, plain):
        assert spec._compiled is None
        assert all(e._programs == [None] * 3 for row in spec.components for e in row)
    assert mf.spec.f._programs == [None] * 3 and mf.spec.h._programs == [None] * 3
    assert not kernels
    metric_at(plain, np.zeros(plain.dim))
    assert plain._compiled is not None and mf.spec.base._compiled is None
    # a kernel is built by a program's first run: the metric's order-0
    # program, and the one that folded the constant cross blocks
    (program, _, _), *rest = plain._compiled
    assert program.kernels is not None and rest == [None, None]
    folded = plain.components[0][-1]
    assert folded._programs[0][0].kernels is not None and len(kernels) == 2
