"""Generated kernels: every register program runs as one straight-line
Python function, its kernel (the kernel module, run by expr._run).

These tests hold what the kernel keeps: its text is made of register
names, the inline + - *, fixed names, a few fixed literals and check
indices alone, so no text of an expression or a manifest reaches compile;
the line where a run raises names the node of the first failing op, on
floats and in the float redo of a row that a run over columns masks; an
error of a finishing step passes through as it is; and a program's kernel
is built at its first run, as one code object that its float and column
runs share.

They also hold what makes the inline tests and the columns safe: a
check's test passes only where its finishing step would not raise, so
every output and every error is the one the finishing step at every check
gives; and a run over columns masks every row the run on floats rejects,
so a row redone on floats where it is masked, and bare elsewhere, has the
float path's outcome wherever that raises.

A geodesic program's step kernel keeps the same kinds of names, and is
built once per spec and route, at the first step integrate takes; what it
gives is held against the per-stage loop in test_geodesics.  So do a
metric program's stencil kernels, built once per program at its first
bundle_fd, none longer than the program's own kernel; what they give is
held against the metric at each stencil point in test_oracle."""

import itertools
import math
import random
import re
from pathlib import Path
from types import FunctionType

import numpy as np
import pytest

from test_bench_bindings import _load
from test_expr_fuzz import _COORDS, _text

from warpcurv import geometry, kernel
from warpcurv import split
from warpcurv.closed_form import bundle_closed
from warpcurv.derivative import derived
from warpcurv.errors import DegenerateMetricError, EvalDomainError, NonpositiveWarpError
from warpcurv.expr import (
    Call,
    Const,
    Var,
    _columns,
    _compile,
    _program_of,
    _run,
    evaluate,
    jet2,
    parse_expression,
    value_and_gradient,
)
from warpcurv.geodesics import GeodesicState, integrate, rhs_full, rhs_split
from warpcurv.geodesics import _program_of as _route_program
from warpcurv.geometry import MetricSpec, _Fallback
from warpcurv.manifest import catalog_names, load_catalog, load_manifest, parse_manifest
from warpcurv.oracle import bundle_fd
from warpcurv.warped import ProductPoint, WarpedProductSpec, as_plain_metric

from batch_reference import rows_of, value_and_gradient_batch

# The one shape every kernel line has.  The names are the rule table's,
# written out here so that the test does not read them from the code.
_REG = r"r\d+"
_RULE = r"(sin|cos|tan|exp|log|sqrt|sinh|cosh|tanh|divide|power)"
_HEAD = re.compile(r"def kernel\(leaves, finish, constants, checks\):")
_SETUP = re.compile(rf"    (({_REG}, )+= constants; )?({_REG} = leaves\[\d+\]; )*outs = \[\]")
# A check's test, which floats gates to the run on floats: a group's sum
# finite, and a warp's value positive; or a determinant's cutoff, from the
# check's constant peak (checks[k][3]) and the entries' magnitudes, held in
# a spare register t.  The finishing step runs where the test fails.
_SUM = rf"isfinite\({_REG}( \+ {_REG})*\)"
_GROUP = rf"{_SUM}( and {_SUM})*( and {_REG} > 0\.0)?"
_PEAK = r"checks\[\d+\]\[3\]"
_DET = (rf"\((?P<t>{_REG}) := (max\({_PEAK}(, abs\({_REG}\))+\)|{_PEAK})\) <= 1e100"
        rf" and abs\({_REG}\) >= 1e-12 \* \(\((?P=t) := max\(1\.0, (?P=t)\)\)( \* (?P=t)){{0,2}}\)")
_OP = re.compile(
    rf"    ({_REG} = ({_REG} [-+*] {_REG}|-{_REG}|{_RULE}\({_REG}(, {_REG})?\))"
    rf"|outs\.append\({_REG}\)(; floats and ({_GROUP}|{_DET}) or finish\(checks\[\d+\], outs\))?)"
)
# the results of the marked ops, which the run over columns tests
_TAIL = re.compile(rf"    return outs if floats else \(outs, \(({_REG}, )*\)\)")


@pytest.fixture
def kernel_texts(monkeypatch):
    """Every kernel text built while the test runs, compiled or found in
    the cache of code objects."""
    texts = []
    code = kernel._code

    def spy(text):
        texts.append(text)
        return code(text)

    monkeypatch.setattr(kernel, "_code", spy)
    return texts


def _check_text(text):
    lines = text.split("\n")
    assert lines[-1] == "" and _TAIL.fullmatch(lines[-2]), lines[-2]
    assert _HEAD.fullmatch(lines[0]) and _SETUP.fullmatch(lines[1]), lines[:2]
    checks = 0
    for line in lines[2:-2]:
        assert _OP.fullmatch(line), line
        # a check's test and its finishing step read one check, in order
        read = set(re.findall(r"checks\[(\d+)\]", line))
        if read:
            assert read == {str(checks)}, line
            checks += 1


def _fuzz_texts(count, seed):
    rnd = random.Random(seed)
    out = []
    for _ in range(count):
        arity = rnd.randint(1, 3)
        out.append((_text(rnd, arity, rnd.randint(1, 4)), arity))
    return out


def test_kernel_text_holds_registers_rules_and_check_indices_alone(kernel_texts):
    manifests = [load_catalog(name) for name in catalog_names()]
    manifests += [load_manifest(Path(__file__).parent / "fixtures" / f"{name}.json")
                  for name in ("doubly-exp-2x2", "shifted-warp")]
    for mf in manifests:
        centre = np.asarray(mf.box, dtype=float).mean(axis=1)
        point = ProductPoint.from_full(centre, mf.spec.base.dim)
        bundle_closed(mf.spec, point)
        bundle_fd(as_plain_metric(mf.spec), centre)  # the oracle's centre and stencil kernels
        state = GeodesicState(0.0, point, np.linspace(0.3, 0.7, mf.dim))
        rhs_full(mf.spec, state)
        rhs_split(mf.spec, state)
    for text, arity in _fuzz_texts(300, seed=15):
        e = parse_expression(text, arity)
        for point in ([0.5] * arity, [-2.0] * arity):
            for fn in (evaluate, value_and_gradient, jet2):
                try:
                    fn(e, point)
                except EvalDomainError:
                    pass
        try:
            value_and_gradient_batch(e, np.full((2, arity), 1.5))
        except EvalDomainError:
            pass
    # the grammar's literals, 1e308 among them, stay in registers, and so no
    # line holds a number but a register's or a check's index and the
    # tests' fixed literals
    for text in kernel_texts:
        (_check_stencil_text if text.startswith(_STENCIL_KERNELS) else _check_text)(text)
    assert {text[:text.index("(")] for text in kernel_texts} == {"def kernel", "def centre",
                                                                "def axis"}
    every = "".join(kernel_texts)
    assert len(kernel_texts) > 500 and "finish(checks[" in every and "= constants" in every
    assert all(f" {name}(" in every for name in _RULE[1:-1].split("|"))
    # each kind of test: a group's, a warp's and a determinant's
    assert "floats and isfinite(" in every and " > 0.0 or finish(" in every
    assert "][3], abs(" in every


# A metric program's stencil kernels (kernel.stencil): the centre kernel
# runs every op at the centre x; an axis kernel runs, for each signed step
# h, the ops that read its axis, the axis's leaf set to x + h, each other
# register unpacked from the centre's list, and adds the outputs and the
# tail (t0, t1, ...) to its rows.  Each check is written as its test.
_STENCIL_KERNELS = ("def centre(", "def axis(")
_TREG = r"[rt]\d+"
_NAMES = rf"\[{_TREG}(, {_TREG})*\]"
_CENTRE_HEAD = re.compile(r"def centre\(x, constants, checks\):")
_CENTRE_SETUP = re.compile(rf"    (({_TREG}, )+= constants; )?({_REG}, )+= x")
_AXIS_HEAD = re.compile(r"def axis\(x, hs, centre, constants, checks\):")
_AXIS_SETUP = re.compile(rf"    (({_TREG}, )+= constants; )?({_TREG}, )+= centre; rows = \[\]")
_STENCIL_LINE = re.compile(
    rf"{_REG} = ({_REG} [-+*] {_REG}|-{_REG}|{_RULE}\({_REG}(, {_REG})?\))"
    rf"|if not \(({_GROUP}|{_DET})\): return"
)


def _check_stencil_text(text):
    lines = text.split("\n")
    assert lines[-1] == "", lines[-1]
    if _CENTRE_HEAD.fullmatch(lines[0]):
        assert _CENTRE_SETUP.fullmatch(lines[1]), lines[1]
        assert re.fullmatch(rf"    return {_NAMES}", lines[-2]), lines[-2]
        body, indent = lines[2:-2], "    "
    else:
        assert _AXIS_HEAD.fullmatch(lines[0]) and _AXIS_SETUP.fullmatch(lines[1]), lines[:2]
        assert lines[2] == "    for h in hs:", lines[2]
        assert re.fullmatch(rf"        {_REG} = x \+ h", lines[3]), lines[3]
        assert re.fullmatch(rf"        rows \+= {_NAMES}", lines[-3]), lines[-3]
        assert lines[-2] == "    return rows"
        body, indent = lines[4:-3], "        "
    # the tests read the checks in order; an axis kernel leaves out those
    # whose outputs do not read its axis
    last = -1
    for line in body:
        assert line[:len(indent)] == indent and _STENCIL_LINE.fullmatch(line[len(indent):]), line
        for k in set(map(int, re.findall(r"checks\[(\d+)\]", line))):
            assert k > last, line
            last = k
    return text


# Compiling one straight-line function costs about 3 kB of memory per
# line, so the curvature programs, one per side, keep below this many
# lines on the benchmark's densest manifests (each side of a 3 x 3 product
# has about 1,040).
CURVATURE_LINES = 1200


def test_curvature_kernels_stay_below_their_line_bound_and_hold_fixed_names():
    dense = _load("workloads").dense_manifests
    largest = 0
    for seed in (1, 2, 3):
        for doc in dense(seed):
            mf = parse_manifest(doc, source=doc["name"])
            bundle_closed(mf.spec, np.asarray(mf.box, dtype=float).mean(axis=1))
            for program in mf.spec._programs["curvature"].programs:
                text = kernel._text(program)
                _check_text(text)
                assert "finish(" not in text  # nothing is checked on the way
                largest = max(largest, text.count("\n"))
    assert 900 < largest < CURVATURE_LINES


# A stencil kernel states each op of its program at most once and each
# check's test at most once, in place of its output's line, so it has at
# most this many lines more than the program's own kernel (an axis
# kernel's loop head, leaf and rows), and its compile costs about as much
# memory.
STENCIL_EXTRA_LINES = 3


def test_no_stencil_text_is_longer_than_its_programs_kernel(kernel_texts):
    """On the catalog, the fixtures and dense_manifests(1..3): a centre
    kernel and one kernel per read axis, each within the bound."""
    manifests = _manifests()
    dense = _load("workloads").dense_manifests
    manifests += [parse_manifest(doc, source=doc["name"]) for s in (1, 2, 3) for doc in dense(s)]
    largest = 0
    for mf in manifests:
        plain = as_plain_metric(mf.spec)
        program = geometry._grid(plain, 1)[0]
        start = len(kernel_texts)
        _, axes = kernel.stencil(program, plain.dim)
        texts = kernel_texts[start:]
        assert len(texts) == 1 + len(axes)
        limit = kernel._text(program).count("\n") + STENCIL_EXTRA_LINES
        for text in texts:
            _check_stencil_text(text)
            assert text.count("\n") <= limit, (mf.name, text.count("\n"), limit)
            largest = max(largest, text.count("\n"))
    assert 400 < largest < CURVATURE_LINES  # the dense 3 x 3 product's


def test_stencil_kernels_are_built_once_per_program(monkeypatch):
    built = []
    stencil = kernel.stencil

    def spy(program, dim):
        built.append(program)
        return stencil(program, dim)

    monkeypatch.setattr(kernel, "stencil", spy)
    mf = load_catalog("schwarzschild-exterior-slice")
    plain = as_plain_metric(mf.spec)
    assert plain._compiled is None  # loading a manifest compiles no program
    centre = np.asarray(mf.box, dtype=float).mean(axis=1)
    for x in (centre, centre + 0.01, centre):
        bundle_fd(plain, x, mf.policy)
        bundle_fd(plain, x)
        bundle_closed(mf.spec, x)
    program = geometry._grid(plain, 1)[0]
    assert built == [program] and type(program.stencil[0]) is FunctionType
    # a chart of the same shape builds its own, which finds the same code
    again = as_plain_metric(load_catalog("schwarzschild-exterior-slice").spec)
    bundle_fd(again, centre, mf.policy)
    kernels = geometry._grid(again, 1)[0].stencil
    assert len(built) == 2 and kernels[0] is not program.stencil[0]
    assert kernels[0].__code__ is program.stencil[0].__code__


def _run_at(program, point, columns):
    """The program's outputs at a point, on floats or as one-row columns,
    the row redone on floats where it is masked."""
    if columns:
        return rows_of(program, [point])[0]
    return _run(program, [float(c) for c in point])


def _failing_node(program, point, columns):
    if columns:  # the row is masked, and its redo raises
        assert _columns(program, np.array([point], dtype=float))[1].tolist() == [True]
    with pytest.raises(EvalDomainError) as info:
        _run_at(program, point, columns)
    return info.value.node


def _deep_sum():
    terms = [f"{k}*x0" for k in range(1, 1500)] + ["log(x1)"]
    return parse_expression(" + ".join(terms), 2)


@pytest.mark.parametrize("columns", [False, True], ids=["floats", "columns"])
def test_an_error_names_the_node_of_the_first_failing_op(columns):
    # two subexpressions fail at the point: the one the postfix order meets
    # first is named, either way round
    for text in ("log(x0) + sqrt(x1)", "sqrt(x1) + log(x0)"):
        e = parse_expression(text, 2)
        assert _failing_node(_program_of(e, 0)[0], [-1.0, -1.0], columns) is e.root.left
        assert _failing_node(_program_of(e, 1)[0], [-1.0, -1.0], columns) is e.root.left
    # no constant registers
    e = parse_expression("log(x0*x1)", 2)
    program = _program_of(e, 0)[0]
    assert not any(v is not None for v in program.registers)
    assert _failing_node(program, [-1.0, 1.0], columns) is e.root
    # an unused trailing variable is a leaf the kernel never reads
    e = parse_expression("x0 + log(x1)", 3)
    assert _failing_node(_program_of(e, 1)[0], [1.0, -1.0, 5.0], columns) is e.root.right
    # a derivative's op names the source node whose rule made it
    e = parse_expression("x0 + sqrt(x1)", 2)
    assert _failing_node(_program_of(e, 1)[0], [1.0, 0.0], columns) is e.root.right
    # an op past line 1,000 of the kernel
    e = _deep_sum()
    program = _program_of(e, 0)[0]
    assert _failing_node(program, [1.0, -1.0], columns) is e.root.right
    ops = program.ops
    assert [i for i, op in enumerate(ops) if op[2] is e.root.right] == [len(ops) - 3]
    assert len(ops) > 2900


@pytest.mark.parametrize("columns", [False, True], ids=["floats", "columns"])
def test_outputs_that_are_a_bare_leaf_or_a_bare_constant(columns):
    log = Call("log", Var(0))
    program = _compile([(Var(1), None), (Const(2.0), None), (log, None)])
    assert _failing_node(program, [-1.0, 3.0], columns) is log
    leaf, constant, value = _run_at(program, [1.0, 3.0], columns)
    assert constant == 2.0 and np.all(leaf == 3.0) and np.all(value == 0.0)


def _run_with(program, leaves, finish=None, **names):
    """_run with a copy of the program's float kernel in place: the kernel
    function with finish bound as its finishing step, in place of
    kernel._finish, and names over its global names."""
    kernels = program.kernels or kernel.build(program)
    floats = kernels[0]
    bound = floats.__defaults__
    program.kernels = (FunctionType(floats.__code__, {**floats.__globals__, **names}, "kernel",
                                    bound if finish is None else (finish, *bound[1:])),
                       *kernels[1:])
    try:
        return _run(program, leaves)
    finally:
        program.kernels = kernels


def _passes_through(program, leaves, finish=kernel._finish):
    """The error finish raises as the kernel's finishing step, after
    checking that _run raises that very object."""
    raised = []

    def spy(check, outs):
        try:
            finish(check, outs)
        except Exception as exc:
            raised.append(exc)
            raise

    with pytest.raises(Exception) as info:
        with np.errstate(all="ignore"):
            _run_with(program, leaves, spy)
    assert raised and info.value is raised[0]
    return info.value


def test_an_error_of_a_finishing_step_passes_through_as_it_is():
    # each input fails its check's test, so the finishing step is reached
    e = parse_expression("x0*1e308*10", 1)
    for order, what in enumerate(("value", "value or gradient", "value, gradient or Hessian")):
        exc = _passes_through(_program_of(e, order)[0], [1.0])
        assert type(exc) is EvalDomainError and str(exc) == f"{what} is not finite"
    program = _program_of(e, 1)[0]
    # over columns both rows are masked, and the redo of each passes it through
    assert _columns(program, np.array([[0.0], [1.0]]))[1].tolist() == [True, True]
    exc = _passes_through(program, [0.0])
    assert str(exc) == "value or gradient is not finite"  # the gradient is inf
    # the class the kernel's handler catches is not re-wrapped either
    square = parse_expression("x0*x0", 1)
    program = _compile([(square.root, ("finite", square, 1, "value"))])

    def rejects(check, outs):
        raise ValueError("rejected by the finishing step")

    assert _run_with(program, [2.0], rejects) == [4.0]  # the test holds: no finishing step
    exc = _passes_through(program, [1e200], rejects)  # the square overflows
    assert type(exc) is ValueError
    # a geodesic program's check: the warp x0 is not positive at -1
    one = MetricSpec.from_strings(1, [["1"]])
    spec = WarpedProductSpec.build(one, one, "x0", "1")
    program = split.build(spec, "split").program
    exc = _passes_through(program, [-1.0, 0.0, 1.0, 1.0])
    assert type(exc) is NonpositiveWarpError


def test_a_program_gets_one_code_object_at_its_first_run(monkeypatch):
    """One kernel text per program, and one code object, run under two
    tables of names: floats (math's rules, the inline tests, kernel._finish
    bound as the finishing step) and columns (numpy's functions, a
    finishing step that does nothing)."""
    built = []
    code = kernel._code

    def spy(text):
        built.append(text)
        return code(text)

    monkeypatch.setattr(kernel, "_code", spy)
    e = parse_expression("x0*sin(x1) - 2^x0 + x1^0.5", 2)
    program, _ = derived((e,), 1)
    assert program.kernels is None and not built  # compiling the program builds no kernel
    first = _run(program, [0.5, 2.0])
    assert len(built) == 1
    floats, columns = kernels = program.kernels
    assert floats.__code__ is columns.__code__
    assert floats.__defaults__[0] is kernel._finish and columns.__defaults__[0] is kernel._skip
    assert len({id(k.__globals__) for k in kernels}) == 2
    assert [k.__globals__["floats"] for k in kernels] == [True, False]
    assert floats.__globals__["sin"] is math.sin and columns.__globals__["sin"] is np.sin
    # (-2)^0.5 is masked, and the rows around it are not
    _, mask = _columns(program, np.array([[0.5, 2.0], [0.5, -2.0], [1.0, 3.0]]))
    assert mask.tolist() == [False, True, False]
    assert _run(program, [0.5, 2.0]) == first
    assert len(built) == 1 and program.kernels == kernels


# ---------------------------------------------------------------------------
# Inline tests and columns: what makes them safe

_INF, _NAN = math.inf, math.nan
# zeros, infinities, nan, the edges of exp's and the float range, negatives
# and subnormals
_SPECIAL = [0.0, -0.0, _INF, -_INF, _NAN, 1e308, -1e308, 710.0, -1000.0, -1.0, -2.5,
            5e-324, -5e-324, 2.5e-310, 0.5, 3.0]


def _closing(check, n: int):
    """A program whose outputs are its n leaves, the last closing check."""
    return _compile([(Var(i), None) for i in range(n - 1)] + [(Var(n - 1), check)])


def _verdicts(program, values):
    """(whether the run at the values reaches the finishing step, whether
    kernel._finish raises there): the kernel function, called with a spy
    for its finishing step."""
    check = program.ops[-1][1]
    floats = (program.kernels or kernel.build(program))[0]
    reached = []
    floats(list(values), lambda _, outs: reached.append(outs))
    try:
        kernel._finish(check, list(values))
    except (DegenerateMetricError, EvalDomainError, NonpositiveWarpError, _Fallback):
        return bool(reached), True
    return bool(reached), False


def test_the_inline_determinant_test_passes_exactly_where_finish_does():
    assert geometry._ADJUGATE_PEAK == 1e100  # the test's literal
    seen = set()
    for dim in (1, 2, 3):
        live = dim * (dim + 1) // 2
        for peak in (0.0, 2.0, 1e100):
            program = _closing(("det", dim, list(range(live)), peak), live + 1)
            for entries in ([0.5] * live, [3.0] + [-7.0] * (live - 1), [1e100] * live,
                            [1.0] * (live - 1) + [math.nextafter(1e100, _INF)],
                            [_NAN] + [2.0] * (live - 1), [2.0] * (live - 1) + [_NAN]):
                top = max([peak, *map(abs, entries)])
                cutoff = 1e-12 * math.prod([max(1.0, top)] * dim)
                below = math.nextafter(cutoff, 0.0)
                for det in (cutoff, -cutoff, below, -below, 0.0, _NAN, _INF, 1e300):
                    reached, raises = _verdicts(program, [*entries, det])
                    assert reached == raises, (dim, peak, entries, det)
                    seen.add(raises)
    assert seen == {True, False}


def test_a_group_test_passes_only_where_its_finishing_step_does():
    x = parse_expression("x0", 1)
    alarms = 0
    for n in (1, 2, 3):
        # an expression's or a factor entry's check, and a warp's
        for check in (("finite", x, n, "value"), ("warp", x, n, "f")):
            program = _closing(check, n)
            for values in itertools.product(_SPECIAL, repeat=n):
                reached, raises = _verdicts(program, values)
                assert reached or not raises, (check, values)
                alarms += reached and not raises
    # a finite group whose sum overflows reaches the finishing step, which
    # then raises nothing
    program = _closing(("finite", x, 2, "value or gradient"), 2)
    assert alarms and _verdicts(program, [1e308, 1e308]) == (True, False)
    # a group of thousands, as a jet2 of arity 70 has, is tested in sums of
    # a bounded length, which compile takes
    n = 5000
    program = _closing(("finite", x, n, "value"), n)
    _check_text(kernel._text(program))
    for bad in (0, 2345, n - 1):
        values = [1.0] * n
        values[bad] = _NAN
        assert _verdicts(program, values) == (True, True)
    assert _verdicts(program, [1.0] * n) == (False, False)


def _bytes(values) -> list:
    return [np.asarray(v, dtype=float).tobytes() for v in values]


def _outcome(run, *args):
    """A run's outputs as bytes, or its error's class and message."""
    try:
        with np.errstate(all="ignore"):
            return _bytes(run(*args))
    except Exception as exc:
        return type(exc), str(exc)


def _at_every_check(program, leaves):
    """The run on floats with the finishing step at every check, as kernels
    ran before they tested their checks inline: the float kernel, with the
    name floats, which gates the tests, set False."""
    return _run_with(program, leaves, floats=False)[0]


def _same(program, leaves):
    """The run on floats gives what the finishing step at every check gives."""
    expect = _outcome(_at_every_check, program, leaves)
    assert _outcome(_run, program, leaves) == expect, leaves
    return expect


def test_inline_tests_keep_every_output_and_error():
    """Floats against the finishing step at every check, bitwise and error
    for error: geodesic programs and
    metric programs on the catalog, both valid fixtures and
    dense_manifests(1), at seeded points in and far outside their boxes, and
    fuzz-grammar expressions at the fuzz grid's coordinates.  A product
    whose base degenerates at (0, 1) and passes _ADJUGATE_PEAK at x0 = 240,
    where a geodesic program falls back, adds the determinant's verdicts,
    and at x1 = 1e200 an entry that is not finite where no rule marks."""
    manifests = [load_catalog(name) for name in catalog_names()]
    manifests += [load_manifest(Path(__file__).parent / "fixtures" / f"{name}.json")
                  for name in ("doubly-exp-2x2", "shifted-warp")]
    manifests += [parse_manifest(doc, source=doc["name"])
                  for doc in _load("workloads").dense_manifests(1)]
    cases = [(mf.spec, np.asarray(mf.box, dtype=float)) for mf in manifests]
    base = MetricSpec.from_strings(2, [["exp(x0)", "x1"], ["x1", "1 + x1*x1 - x1*x1"]])
    one = MetricSpec.from_strings(1, [["1"]])
    cases.append((WarpedProductSpec.build(base, one, "1", "2 + sin(x0)"),
                  np.array([[-1.0, 1.0], [-0.5, 0.5], [0.0, 1.0]])))
    rng = np.random.default_rng(17)
    outcomes = []
    for spec, box in cases:
        d = spec.dim
        inside = box[:, 0] + (box[:, 1] - box[:, 0]) * rng.random((6, d))
        outside = rng.choice([-1.0, 1.0], (6, d)) * 10.0 ** rng.uniform(-3, 3, (6, d))
        special = np.zeros((3, d))
        special[0, 1], special[1, 0], special[2, 1] = 1.0, 240.0, 1e200
        points = np.concatenate([inside, outside, special])
        for route in ("split", "full"):
            program = _route_program(spec, route).program
            for x in points:
                y = [*map(float, x), *map(float, rng.standard_normal(d))]
                outcomes.append(_same(program, y))
        plain = as_plain_metric(spec)
        for order in (0, 1, 2):
            program = geometry._grid(plain, order)[0]
            for x in points:
                outcomes.append(_same(program, list(map(float, x))))
    grid = np.array(list(itertools.product(_COORDS, repeat=3)))
    for text, arity in _fuzz_texts(150, seed=17):
        e = parse_expression(text, arity)
        points = grid[rng.choice(len(grid), 4), :arity]
        for order in (0, 1, 2):
            program = _program_of(e, order)[0]
            for x in points:
                outcomes.append(_same(program, list(map(float, x))))
    errors = [o[0] for o in outcomes if type(o) is tuple]
    assert len(outcomes) > 2000 and 100 < len(errors) < len(outcomes) - 1000
    assert set(errors) == {EvalDomainError, NonpositiveWarpError, DegenerateMetricError, _Fallback}


def _on_floats(program, x) -> list:
    """Each row's outcome on floats: its outputs and the tail as bytes, or
    its error's class, message and node."""
    out = []
    for row in x:
        try:
            out.append(np.array(_run(program, [float(c) for c in row]) + program.tail).tobytes())
        except EvalDomainError as exc:
            out.append((type(exc), str(exc), exc.node))
    return out


def _per_row(program, x) -> tuple:
    """Holds a run over columns at the rows of x to the run on floats, row
    by row: every row the run on floats rejects is masked, and every other
    row is bitwise the bare kernel's; rows_of, which redoes the masked rows
    on floats, raises the first rejected row's error, or else gives each
    masked row the float path's outputs and each other row the bare
    kernel's.  Returns the counts of the rows floats reject, of those they
    accept, and of those masked among the latter."""
    floats = _on_floats(program, x)
    flat, mask = _columns(program, x)
    rejected = [type(f) is tuple for f in floats]
    try:
        with np.errstate(all="ignore"):
            outs, _ = _run(program, [x[:, i] for i in range(x.shape[1])], True)
        bare = kernel._stacked(outs, program.tail, len(x))
    except EvalDomainError:  # a number divided by the number 0
        bare = None
    for i, masked in enumerate(mask):
        assert masked or not rejected[i], (floats[i], x[i])
        if not masked:
            assert flat[i].tobytes() == bare[i].tobytes(), x[i]
    first = next((f for f in floats if type(f) is tuple), None)
    want = first or [f if masked else row.tobytes() for f, masked, row in zip(floats, mask, flat)]
    try:
        got = [row.tobytes() for row in rows_of(program, x)]
    except EvalDomainError as exc:
        got = (type(exc), str(exc), exc.node)
    assert got == want, x
    accepted = len(x) - sum(rejected)
    return sum(rejected), accepted, int(np.count_nonzero(mask)) - sum(rejected)


def test_a_run_over_columns_masks_every_row_the_run_on_floats_rejects():
    """The per-row contract of expr._columns (_per_row): the metric
    programs of the catalog, both valid fixtures and dense_manifests(1..3),
    orders 0 to 2, at points in and far outside their boxes and at _SPECIAL
    coordinates; and fuzz-grammar expressions, each also wrapped in ^0,
    which discards its value but not its errors, at the fuzz grid's
    coordinates and _SPECIAL's.  Each marked rule, wrapped in ^0, runs at
    every pair of _SPECIAL values too, so the test fails where any one of
    them is left out of expr._MARKED: its result would reach no output."""
    manifests = _manifests()
    dense = _load("workloads").dense_manifests
    manifests += [parse_manifest(doc, source=doc["name"]) for s in (1, 2, 3) for doc in dense(s)]
    rng = np.random.default_rng(23)
    counts = np.zeros(3, dtype=int)  # rejected, accepted, masked of those accepted
    for mf in manifests:
        box = np.asarray(mf.box, dtype=float)
        d = len(box)
        points = np.concatenate([
            box[:, 0] + (box[:, 1] - box[:, 0]) * rng.random((4, d)),
            rng.choice([-1.0, 1.0], (4, d)) * 10.0 ** rng.uniform(-3, 3, (4, d)),
            rng.choice(_SPECIAL, (4, d)),
        ])
        plain = as_plain_metric(mf.spec)
        for order in (0, 1, 2):
            program = geometry._grid(plain, order)[0]
            counts += _per_row(program, points)
            counts += _per_row(program, points[:1])
    rules = [(f"{name}(x0)", 1) for name in _RULE[1:-1].split("|")[:-2]]
    rules += [("x0/x1", 2), ("x0^x1", 2)]
    cases = [(text, arity, np.array(list(itertools.product(_SPECIAL, repeat=arity))))
             for text, arity in rules]
    grid = np.array(list(itertools.product(_COORDS + _SPECIAL, repeat=3)))
    cases += [(text, arity, grid[rng.choice(len(grid), 12), :arity])
              for text, arity in _fuzz_texts(60, seed=23)]
    for text, arity, points in cases:
        for wrapped in (text, f"({text})^0"):
            e = parse_expression(wrapped, arity)
            for order in (0, 1, 2):
                program = _program_of(e, order)[0]
                counts += _per_row(program, points)
    # both outcomes; the mask also flags some rows that floats accept, where
    # math takes an inf as it comes (sinh(inf)) or ^0 discards a value that
    # is not finite, but not most of them
    rejected, accepted, masked = counts
    assert rejected > 1000 and accepted > 5000 and 0 < masked < accepted // 5, counts


# ---------------------------------------------------------------------------
# Step kernels: one RK4 step of a geodesic program (kernel.step)

# Besides the program's registers r (constants) and t (the tail), a step
# kernel names the state y, the acceleration a at it, and the registers of
# each run under its stage's letter: b, c and d for stages 2-4, e for the
# new sample.
_SREG = r"[rtyabcde]\d+"
_STEP_HEAD = re.compile(r"def step\(y, a, half, h, sixth, constants, checks\):")
_STEP_SETUP = re.compile(rf"    (([rt]\d+, )+= constants; )?(y\d+, )+= y; (a\d+, )+= a")
_STAGE = rf"{_SREG} = {_SREG} \+ (half|h) \* {_SREG}"
_SAMPLE = (rf"{_SREG} = {_SREG} \+ sixth \* \(\(\({_SREG} \+ 2\.0 \* {_SREG}\)"
           rf" \+ 2\.0 \* {_SREG}\) \+ {_SREG}\)")
_STATE = re.compile(rf"    (({_STAGE}; )*{_STAGE}|({_SAMPLE}; )*{_SAMPLE})")
_STEP_OP = re.compile(
    rf"    {_SREG} = ({_SREG} [-+*] {_SREG}|-{_SREG}|{_RULE}\({_SREG}(, {_SREG})?\))"
)
_STEP_TEST = re.compile(
    rf"    if not \(({_GROUP.replace(_REG, _SREG)}|{_DET.replace(_REG, _SREG)})\): return"
)
_LIST = rf"\[{_SREG}(, {_SREG})*\]"
_STEP_RETURN = re.compile(rf"    return {_LIST}, {_LIST}, {_LIST}")


def _check_step_text(text):
    lines = text.split("\n")
    assert lines[-1] == "" and _STEP_RETURN.fullmatch(lines[-2]), lines[-2]
    assert _STEP_HEAD.fullmatch(lines[0]) and _STEP_SETUP.fullmatch(lines[1]), lines[:2]
    stages, state = 0, None
    for line in lines[2:-2]:
        if _STATE.fullmatch(line):
            stages, state, checks = stages + 1, line, -1
            continue
        if _STEP_OP.fullmatch(line):
            continue
        assert _STEP_TEST.fullmatch(line), line
        if checks < 0:  # the stage's state, tested first
            names = re.findall(rf"    ({_SREG}) =|; ({_SREG}) =", state)
            assert line == f"    if not (isfinite({' + '.join(a or b for a, b in names)})): return"
        # then each run's checks in order; a determinant's test reads its check
        read = set(re.findall(r"checks\[(\d+)\]", line))
        assert read <= {str(checks)}, line
        checks += 1
    assert stages == 4  # stages 2, 3 and 4, and the new sample
    return text


def _manifests():
    manifests = [load_catalog(name) for name in catalog_names()]
    manifests += [load_manifest(Path(__file__).parent / "fixtures" / f"{name}.json")
                  for name in ("doubly-exp-2x2", "shifted-warp")]
    return manifests


def test_step_kernel_text_holds_registers_fixed_names_and_literals_alone(kernel_texts):
    specs = 0
    for mf in _manifests():
        centre = np.asarray(mf.box, dtype=float).mean(axis=1)
        state = GeodesicState(0.0, ProductPoint.from_full(centre, mf.spec.base.dim),
                              np.linspace(0.3, 0.7, mf.dim))
        for rhs in ("full", "split"):
            integrate(mf.spec, state, 0.02, 0.01, rhs=rhs)
            specs += 1
    steps = [_check_step_text(t) for t in kernel_texts if t.startswith("def step(")]
    for text in kernel_texts:
        if not text.startswith("def step("):
            _check_text(text)
    assert len(steps) == specs
    every = "".join(steps)
    # each kind of test, and the tail's constants
    assert "if not (isfinite(" in every and " > 0.0): return" in every
    assert "][3], abs(" in every and "t0" in every


def test_a_step_kernel_is_built_once_per_spec_and_route(monkeypatch):
    built = []
    step = kernel.step

    def spy(program):
        built.append(program)
        return step(program)

    monkeypatch.setattr(kernel, "step", spy)
    mf = load_catalog("schwarzschild-exterior-slice")
    spec = mf.spec
    centre = np.asarray(mf.box, dtype=float).mean(axis=1)
    state = GeodesicState(0.0, ProductPoint.from_full(centre, spec.base.dim),
                          np.array([0.1, 0.02, 0.05]))
    for rhs in ("full", "split", "full", "split"):
        for s_end in (0.01, 0.05):
            integrate(spec, state, s_end, 0.01, rhs=rhs)
        rhs_full(spec, state)
        rhs_split(spec, state)
    assert built == [spec._programs["full"], spec._programs["split"]]
    assert all(type(p.step) is FunctionType for p in built)
    # a spec of the same shape builds its own, which finds the same code
    again = load_catalog("schwarzschild-exterior-slice").spec
    integrate(again, state, 0.01, 0.01, rhs="full")
    assert len(built) == 3 and again._programs["full"].step is not spec._programs["full"].step
    assert again._programs["full"].step.__code__ is spec._programs["full"].step.__code__


def test_a_zero_step_integrate_builds_no_step_kernel(monkeypatch):
    built = []
    monkeypatch.setattr(kernel, "step", built.append)
    spec = load_catalog("unit-sphere").spec
    state = GeodesicState(0.3, ProductPoint.from_full(np.array([1.0, 0.0]), 1),
                          np.array([0.2, 0.7]))
    for rhs in ("full", "split"):
        traj = integrate(spec, state, 0.3, 0.01, rhs=rhs)
        assert len(traj.samples) == 1
        assert spec._programs[rhs].program.kernels is not None  # the sample ran its program
        assert spec._programs[rhs].step is None
    assert built == []
