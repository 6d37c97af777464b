"""Generated kernels: every register program runs as one straight-line
Python function, its kernel (the kernel module, run by expr._run).

These tests hold what the kernel keeps: its text is made of register
names, the inline + - *, rule names and check indices alone, so no text of
an expression or a manifest reaches compile; the line where a run raises
names the node of the first failing op, on floats and on columns; an error
of a finishing step passes through as it is; and a program's kernel is
built at its first run, as one code object that its float and column runs
share."""

import random
import re
from pathlib import Path

import numpy as np
import pytest

from test_expr_fuzz import _text

from warpcurv import kernel
from warpcurv import split
from warpcurv.closed_form import bundle_closed
from warpcurv.derivative import derived
from warpcurv.errors import EvalDomainError, NonpositiveWarpError
from warpcurv.expr import (
    BinOp,
    Call,
    Const,
    Var,
    _columns,
    _compile,
    _finite,
    _finite_rows,
    _program_of,
    _run,
    evaluate,
    jet2,
    parse_expression,
    value_and_gradient,
)
from warpcurv.geodesics import GeodesicState, rhs_full, rhs_split
from warpcurv.geometry import MetricSpec
from warpcurv.manifest import catalog_names, load_catalog, load_manifest
from warpcurv.oracle import bundle_fd
from warpcurv.warped import ProductPoint, WarpedProductSpec, as_plain_metric

from batch_reference import value_and_gradient_batch

# The one shape every kernel line has.  The names are the rule table's,
# written out here so that the test does not read them from the code.
_REG = r"r\d+"
_RULE = r"(sin|cos|tan|exp|log|sqrt|sinh|cosh|tanh|divide|power)"
_HEAD = re.compile(r"def kernel\(leaves, finish, constants, checks\):")
_SETUP = re.compile(rf"    (({_REG}, )+= constants; )?({_REG} = leaves\[\d+\]; )*outs = \[\]")
_OP = re.compile(
    rf"    ({_REG} = ({_REG} [-+*] {_REG}|-{_REG}|{_RULE}\({_REG}(, {_REG})?\))"
    rf"|outs\.append\({_REG}\)(; finish\(checks\[\d+\], outs\))?)"
)
_TAIL = "    return outs"


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
    assert lines[-1] == "" and lines[-2] == _TAIL
    assert _HEAD.fullmatch(lines[0]) and _SETUP.fullmatch(lines[1]), lines[:2]
    for line in lines[2:-2]:
        assert _OP.fullmatch(line), line


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
        bundle_fd(as_plain_metric(mf.spec), centre)  # the oracle's stencil runs on columns
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
    # line holds a number but a register's or a check's index
    for text in kernel_texts:
        _check_text(text)
    every = "".join(kernel_texts)
    assert len(kernel_texts) > 500 and "finish(checks[" in every and "= constants" in every
    assert all(f" {name}(" in every for name in _RULE[1:-1].split("|"))


def _run_at(program, point, columns):
    """The program's outputs at a point, on floats or as one-row columns."""
    if columns:
        return _columns(program, np.array([point], dtype=float))
    return _run(program, [float(c) for c in point], _finite)


def _failing_node(program, point, columns):
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


def _passes_through(program, leaves, finish, columns=0):
    """The error finish raises, after checking that _run raises that very
    object."""
    raised = []

    def spy(check, outs):
        try:
            finish(check, outs)
        except Exception as exc:
            raised.append(exc)
            raise

    with pytest.raises(Exception) as info:
        with np.errstate(all="ignore"):
            _run(program, leaves, spy, columns)
    assert raised and info.value is raised[0]
    return info.value


def test_an_error_of_a_finishing_step_passes_through_as_it_is():
    e = parse_expression("x0*1e308*10", 1)
    exc = _passes_through(_program_of(e, 1)[0], [1.0], _finite)
    assert type(exc) is EvalDomainError and str(exc) == "value or gradient is not finite"
    exc = _passes_through(_program_of(e, 1)[0], [np.array([0.0, 1.0])], _finite_rows, 1)
    assert str(exc) == "value or gradient at batch row 0 is not finite"  # the gradient is inf
    # the class the kernel's handler catches is not re-wrapped either
    program = _compile([(BinOp("*", Var(0), Var(0)), "check")])

    def rejects(check, outs):
        raise ValueError("rejected by the finishing step")

    exc = _passes_through(program, [2.0], rejects)
    assert type(exc) is ValueError
    # a geodesic program's check
    one = MetricSpec.from_strings(1, [["1"]])
    spec = WarpedProductSpec.build(one, one, "x0", "1")
    program = split.build(spec, "split").program
    exc = _passes_through(program, [-1.0, 0.0, 1.0, 1.0], split._check)
    assert type(exc) is NonpositiveWarpError


def test_a_program_gets_one_code_object_at_its_first_run(monkeypatch):
    built = []
    code = kernel._code

    def spy(text):
        built.append(text)
        return code(text)

    monkeypatch.setattr(kernel, "_code", spy)
    e = parse_expression("x0*sin(x1) - 2^x0 + x1^0.5", 2)
    program, _, _ = derived((e,), 1)
    assert program.kernels is None and not built  # compiling the program builds no kernel
    first = _run(program, [0.5, 2.0], _finite)
    assert len(built) == 1
    floats, columns = program.kernels
    assert floats.__code__ is columns.__code__ and floats.__globals__ is not columns.__globals__
    _columns(program, np.array([[0.5, 2.0], [1.0, 3.0]]))
    assert _run(program, [0.5, 2.0], _finite) == first
    assert len(built) == 1 and program.kernels == (floats, columns)
