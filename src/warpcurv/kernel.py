"""Kernels: each register program of expr runs as one straight-line Python
function, written and compiled at the program's first run and kept on it.

A kernel, as _text writes it:

    def kernel(leaves, finish, constants, checks):
        r0, = constants; r5 = leaves[0]; outs = []
        r1 = r0 * r5
        r2 = sin(r1)
        outs.append(r2)
        r3 = cos(r1)
        r4 = r3 * r0
        outs.append(r4); floats and isfinite(r2 + r4) or finish(checks[0], outs)
        return outs if floats else (outs, (r2, r3, ))

(sin(2*x0) and its derivative, checked together.)

Line expr._FIRST_OP_LINE + i states op i, so the line where a run raises
names the op.  Each name in the text is looked up in the tables below by
the op's rules or the check's kind, never taken from a node.  What a
kernel binds as defaults, besides its finishing step, is its program's:
its constants (then its tail, where the kernel reads it) and its checks
(expr._Code).  So the text holds register names, the inline + - *, the
names of fixed tables, a few fixed literals and check indices alone: no
text of an expression or a manifest reaches compile.  Programs of one
shape have one text, and a cache of the recent code objects lets them
share one.

A check is (kind, subject, n, arg).  Each is written as one test (_test),
and on floats the finishing step, _finish, the one statement of every
check's error, runs only where the test fails, so it raises with its own
class, message and node, as it did when it ran at every check.  A test
passes only where _finish would not raise; it may fail where _finish
then raises nothing, as when a finite group's sum overflows.  The name
floats gates the tests: on columns, where it is False, no test is
evaluated and the finishing step, _skip, which does nothing, runs at
every check.

Two functions run a program's one code object, each under its own names
(_MODES):

- floats: math's rules and the tests;
- columns: numpy's functions, which return inf or nan where math's
  raise.

On columns a kernel also returns the results of its marked ops
(expr._MARKED).  columns tests those results and the outputs for
finiteness at once, and returns the mask of the rows where a test fails
with the outputs: its caller redoes those rows on floats.

RK4 for geodesics.integrate has one writer, _step_text: one step as one
function on floats.  A geodesic program's step kernel (step) writes the
program's op lines once for each of the three later stages and once more
for the new sample, each under its own register prefix, with the stage
arithmetic between them and each check as its test (_checked).  It
returns None where a test fails, so it needs no finishing step; integrate
then redoes the step by the same text without a program, the stage-by-stage
step (stages).  Both hold the same kinds of names as a kernel's text.

A metric's order-1 program gets stencil kernels for the oracle (stencil,
_stencil_text, stencil_rows), on floats as well.  One pass over the ops
records which chart variables each register reads (_reads).  The centre
kernel runs every op line once at the centre.  Each axis that some output
reads gets an axis kernel, which loops over that axis's 2*L shifted
coordinates and runs only the ops whose register reads the axis; every
other register holds the centre's value, handed over from the centre
kernel.  Each check whose test reads a register that ran is written as
its test, and a kernel returns None where one fails.  No stencil text
states an op twice, so none is much longer than the program's own kernel,
and the loop stays one loop rather than a line per stencil point: a
compile's transient memory grows with its text.

expr imports this module with the first kernel it builds, so importing the
package compiles none of it.
"""

from __future__ import annotations

import functools
import math
from types import CodeType, FunctionType

import numpy as np

from .errors import EvalDomainError, NonpositiveWarpError
from .expr import _BINARY, _CALLS, _MARKED, _OP_BIN, _OP_CALL, _OP_OUT, _Code, _run
from .geometry import _ADJUGATE_PEAK, _Fallback, _nondegenerate

_INLINE = {_BINARY[op]: op for op in "+-*"}  # bitwise operator.add, sub and mul

# rules: their name in a kernel
_NAMES = {rules: name for name, rules in _CALLS.items()}
_NAMES[_BINARY["/"]] = "divide"
_NAMES[_BINARY["^"]] = "power"

# a kernel's globals on floats and on columns: each name's rule, the names
# of the tests, and floats, which gates them
_TESTS = {"isfinite": math.isfinite, "abs": abs, "max": max}
_MODES = tuple(
    {"__builtins__": {}, "floats": mode == 0, **(_TESTS if mode == 0 else {}),
     **{name: rules[mode] for rules, name in _NAMES.items()}}
    for mode in (0, 1)
)


# Terms per sum in a group's test: compile nests a sum one level per term,
# and raises RecursionError at a few thousand.
_SUM = 100


def _test(check, group: list, k: int, spare: str) -> str:
    """The test of check k on floats, from the names of the registers of
    the outputs so far (group): where it holds, _finish would not raise.

    ("finite", expr, n, what) needs the last n outputs finite: the sum of
    each _SUM of them; ("warp", expr, n, which) the first of them > 0 too;
    and ("det", dim, live, peak) the cutoff of geometry._nondegenerate,
    with _finish's operands in its order, spare holding the peak."""
    kind, a, b, _ = check
    if kind == "det":
        peak = ", ".join([f"checks[{k}][3]"] + [f"abs({group[i]})" for i in b])
        top = f"max({peak})" if b else f"checks[{k}][3]"
        scale = " * ".join([f"({spare} := max(1.0, {spare}))"] + [spare] * (a - 1))
        return f"({spare} := {top}) <= 1e100 and abs({group[-1]}) >= 1e-12 * ({scale})"
    test = _finite_test(group[-b:])
    return test + f" and {group[-b]} > 0.0" if kind == "warp" else test


def _finish(check, outs: list):
    """The finishing step on floats, run where a check's test fails: raise
    the check's error on the outputs so far, if it fails.  ("finite", expr,
    n, what) and ("warp", expr, n, which) close an expression's last n
    outputs, its value first; a warp's value must be > 0 too.  ("det", dim,
    live, peak) is geometry's verdict on the last output, a determinant,
    peak being the largest |constant entry| and live the positions of the
    others."""
    kind, a, b, c = check
    if kind == "det":
        peak = max([c, *[abs(outs[i]) for i in b]])
        if peak > _ADJUGATE_PEAK:
            raise _Fallback
        _nondegenerate(outs[-1], peak, a)
        return
    group = outs[-b:]
    if not all(map(math.isfinite, group)):
        what = c if kind == "finite" else "value or gradient"
        raise EvalDomainError(f"{what} is not finite", a.root)
    if kind == "warp" and not group[0] > 0.0:
        raise NonpositiveWarpError(c, group[0])


def _skip(check, outs):
    """The finishing step on columns: columns tests once, at the end."""


def _finite_test(names: list, terms: int = _SUM) -> str:
    """Whether the registers of names are all finite, within the sums they
    may overflow: the sum of each run of terms of them finite."""
    return " and ".join(f"isfinite({' + '.join(names[i:i + terms])})"
                        for i in range(0, len(names), terms))


def _constants(code: _Code, tail: bool = True) -> list:
    """The line that unpacks a kernel's constants, and with tail t0, t1, ..."""
    names = [f"r{i}" for i, value in enumerate(code.registers) if value is not None]
    names += [f"t{i}" for i in range(len(code.tail))] if tail else []
    return [", ".join(names) + ", = constants"] if names else []


def _lines(program: _Code, name):
    """(line, output, check) per op of the program, each register written
    by name(register): an op's line, or an output's register and check."""
    for code, arg, _, target, a, b in program.ops:
        if code is _OP_BIN:
            op = _INLINE.get(arg)
            yield (f"{name(target)} = " + (f"{name(a)} {op} {name(b)}" if op
                                          else f"{_NAMES[arg]}({name(a)}, {name(b)})"),
                   None, None)
        elif code is _OP_CALL:
            yield f"{name(target)} = {_NAMES[arg]}({name(a)})", None, None
        elif code is _OP_OUT:
            yield None, name(a), arg
        else:
            yield f"{name(target)} = -{name(a)}", None, None


def _checked(lines: list, code: _Code, name, spare: str, run=lambda r: True, indent="") -> list:
    """Adds the op lines to lines, each register as name(it), and each check
    as `if not (test): return` (_test, with spare), and returns the outputs;
    with run, only the ops whose register run holds and tests that read one."""
    group, outs, checks = [], [], 0
    for op, (line, out, check) in zip(code.ops, _lines(code, name)):
        if line is not None:
            if run(op[3]):
                lines.append(indent + line)
            continue
        group.append(op[4])
        outs.append(out)
        if check is not None:
            kind, _, b, _ = check
            tested = [group[i] for i in b] + group[-1:] if kind == "det" else group[-b:]
            if any(map(run, tested)):
                lines.append(f"{indent}if not ({_test(check, outs, checks, spare)}): return")
            checks += 1
    return outs


def _text(program: _Code) -> str:
    """The program's kernel as Python source, one line per op."""
    fixed = len(program.registers)
    head = _constants(program, tail=False)
    read = {r for *_, a, b in program.ops for r in (a, b) if r is not None and r >= fixed}
    head += [f"r{r} = leaves[{r - fixed}]" for r in sorted(read)]
    lines = ["def kernel(leaves, finish, constants, checks):", "; ".join(head + ["outs = []"])]
    spare = f"r{max([fixed, *read]) + 1}"  # a register no op writes
    outs, checks = [], 0
    for line, out, check in _lines(program, "r{}".format):
        if out is not None:
            outs.append(out)
            line = f"outs.append({out})"
            if check is not None:
                test = _test(check, outs, checks, spare)
                line += f"; floats and {test} or finish(checks[{checks}], outs)"
                checks += 1
        lines.append(line)
    # the results of the marked ops, which columns tests
    marked = "".join(f"r{target}, " for code, rules, _, target, *_ in program.ops
                     if (code is _OP_BIN or code is _OP_CALL) and rules in _MARKED)
    lines.append(f"return outs if floats else (outs, ({marked}))")
    return "\n    ".join(lines) + "\n"


# A process that parses the same text again compiles its kernels once: of
# the test suite's 15k kernels, 70% are found here.
@functools.lru_cache(maxsize=1024)
def _code(text: str) -> CodeType:
    """A kernel's code object.  Programs of one shape have one text, and
    their constants and checks are bound apart, so they share it."""
    (code,) = [c for c in compile(text, "<kernel>", "exec").co_consts if type(c) is CodeType]
    return code


def build(program: _Code) -> tuple:
    """The program's kernel on floats and on columns, kept on it: two
    functions over one code object, whose finishing step is bound as the
    default of finish: _finish on floats, _skip on columns."""
    code, bound = _code(_text(program)), (program.constants, program.checks)
    program.kernels = tuple(FunctionType(code, names, "kernel", (finish, *bound))
                            for names, finish in zip(_MODES, (_finish, _skip)))
    return program.kernels


# The registers of the program's runs in one RK4 step: stages 2, 3 and 4,
# then the new sample.  Stage 1 reads the acceleration the last step's
# sample ran.
_STAGES = "bcde"


def _step_text(code, dim: int, places=()) -> str:
    """One RK4 step of geodesics.integrate as Python source: a geodesic
    program's step kernel, or with code None the stage-by-stage step.

    It takes the state y = [*x, *v], the acceleration a at y, and half, h
    and sixth, h's multiples that integrate uses.  Each stage's state is
    numpy's RK4 arithmetic on floats, in its order, and is tested for
    finiteness; the step returns None where a test fails.  A step kernel
    then runs the program's ops on it under the stage's register prefix,
    each check written as its test (_checked), and returns the new state,
    its acceleration and the entries of g_B, g_F, f and h there (places,
    into the outputs and then the program's tail, named t0, t1, ...).  The
    stage-by-stage step tests each entry on its own, takes each later
    stage's acceleration from one call accel(state), whose errors pass
    through, and returns the new state."""
    fixed = len(code.registers) if code else 0
    constant = {i for i, value in enumerate(code.registers) if value is not None} if code else ()
    y = [f"y{i}" for i in range(2 * dim)]
    k = y[dim:] + [f"a{i}" for i in range(dim)]  # stage 1
    head = [", ".join(y) + ", = y", ", ".join(k[dim:]) + ", = a"]
    lines = ["def step(y, a, half, h, sixth, constants, checks):" if code
             else "def stages(y, a, half, h, sixth, accel):",
             "; ".join((_constants(code) if code else []) + head)]
    ks = [k]
    for p in _STAGES:
        state = [f"{p}{fixed + i}" for i in range(2 * dim)]  # a program's leaves
        if p == "e":
            c = "sixth"
            k = [f"((({q1} + 2.0 * {q2}) + 2.0 * {q3}) + {q4})" for q1, q2, q3, q4 in zip(*ks)]
        else:
            c = "h" if p == "d" else "half"
        lines.append("; ".join(f"{s} = {q} + {c} * {d}" for s, q, d in zip(state, y, k)))
        lines.append(f"if not ({_finite_test(state, _SUM if code else 1)}): return")
        if code:
            outs = _checked(lines, code, lambda r: f"r{r}" if r in constant else f"{p}{r}",
                            f"{p}{fixed + 2 * dim}")
        elif p != "e":
            outs = [f"{p}{2 * dim + i}" for i in range(dim)]
            lines.append(f"{', '.join(outs)}, = accel([{', '.join(state)}])")
        k = state[dim:] + outs[-dim:]
        ks.append(k)
    parts = [outs[i] if i < len(outs) else f"t{i - len(outs)}" for i in places]
    lines.append(f"return [{', '.join(state)}], [{', '.join(outs[-dim:])}], [{', '.join(parts)}]"
                 if code else f"return [{', '.join(state)}]")
    return "\n    ".join(lines) + "\n"


def step(program):
    """The RK4 step kernel of a geodesic program (split.Program), kept on it
    as program.step: one function on floats, with math's rules."""
    code = program.program
    text = _step_text(code, program.m + program.n, program.places)
    bound = (code.constants + tuple(code.tail), code.checks)
    program.step = FunctionType(_code(text), _MODES[0], "step", bound)
    return program.step


@functools.cache
def stages(dim: int):
    """The stage-by-stage step (_step_text) of a product of dim variables."""
    return FunctionType(_code(_step_text(None, dim)), _MODES[0], "stages")


def _reads(program: _Code, dim: int) -> dict:
    """register -> the chart variables it reads, as a bit mask: leaf i reads
    variable i, an op's result what its operands read, a constant nothing."""
    fixed = len(program.registers)
    reads = {fixed + i: 1 << i for i in range(dim)}
    for code, _, _, target, a, b in program.ops:
        if code is not _OP_OUT:
            reads[target] = reads.get(a, 0) | reads.get(b, 0)
    return reads


def _stencil_text(code: _Code, dim: int, keep: list, reads: dict, axis: int = -1) -> str:
    """A metric program's stencil kernel as Python source: with axis -1 the
    centre kernel, else the kernel of that axis.

    The centre kernel takes the centre's coordinates and runs every op on
    them.  It returns the outputs, the program's tail (t0, t1, ...) and the
    registers of keep, which the axis kernels read.  An axis kernel takes
    the centre's coordinate x on its axis, the signed steps hs and that
    list; for each step it sets the axis's leaf to x + h and runs only the
    ops whose register reads the axis, every other register holding the
    centre's value, and adds the outputs and the tail to one flat list of
    rows.  reads maps each register to the variables it reads (_reads).
    Each check whose test reads a register that was run is written as its
    test (_test); where one fails, the kernel returns None."""
    fixed = len(code.registers)
    tail = [f"t{i}" for i in range(len(code.tail))]
    outs = [f"r{op[4]}" for op in code.ops if op[0] is _OP_OUT] + tail
    centre, head = outs + [f"r{r}" for r in keep], _constants(code)
    if axis < 0:
        lines = ["def centre(x, constants, checks):",
                 "; ".join(head + [", ".join(f"r{fixed + i}" for i in range(dim)) + ", = x"])]
        indent, run = "", lambda target: True
    else:
        lines = ["def axis(x, hs, centre, constants, checks):",
                 "; ".join(head + [", ".join(centre) + ", = centre", "rows = []"]),
                 "for h in hs:", f"    r{fixed + axis} = x + h"]
        indent, run = "    ", lambda target: reads.get(target, 0) >> axis & 1
    _checked(lines, code, "r{}".format, f"r{fixed + dim}", run, indent)
    if axis < 0:
        lines.append(f"return [{', '.join(centre)}]")
    else:
        lines += [f"    rows += [{', '.join(outs)}]", "return rows"]
    return "\n    ".join(lines) + "\n"


def stencil(program: _Code, dim: int) -> tuple:
    """The stencil kernels of a metric's order-1 program (geometry._grid)
    on a chart of dim variables, kept on it as program.stencil: the centre
    kernel, and an (axis, kernel) pair for each axis that some output
    reads, in order.  Functions on floats, with math's rules."""
    reads = _reads(program, dim)
    outs = [op[4] for op in program.ops if op[0] is _OP_OUT]
    axes = [a for a in range(dim) if any(reads.get(r, 0) >> a & 1 for r in outs)]
    # the centre's registers an axis kernel reads and does not run
    keep = {r for a in axes for code, _, _, target, *operands in program.ops
            if code is not _OP_OUT and reads[target] >> a & 1
            for r in operands if r in reads and not reads[r] >> a & 1}
    keep = sorted(keep - set(outs))
    bound = (program.constants + tuple(program.tail), program.checks)
    text = functools.partial(_stencil_text, program, dim, keep, reads)
    program.stencil = (FunctionType(_code(text()), _MODES[0], "centre", bound),
                       tuple((a, FunctionType(_code(text(a)), _MODES[0], "axis", bound))
                             for a in axes))
    return program.stencil


def stencil_rows(program: _Code, x: list, h: list):
    """The metric's order-1 program at a point x and its stencil: (the
    centre kernel's list, whose first entries are the outputs and the tail;
    the rows of the stencil, flat, each the outputs and the tail; the axes
    some output reads).  The rows run axis by axis, and each axis level by
    level, at x[axis] + h and then x[axis] + (-h), h from h[axis].  The
    kernels are built at the first call (stencil).  None where a test fails
    or an op raises: the run on floats would raise at the centre or at some
    row there, or _finish would have passed."""
    centre, axes = program.stencil or stencil(program, len(x))
    rows = []
    try:
        values = centre(x)
        if values is None:
            return None
        for axis, run in axes:
            out = run(x[axis], [s for step in h[axis] for s in (step, -step)], values)
            if out is None:
                return None
            rows += out
    except (ValueError, ZeroDivisionError, OverflowError):
        return None
    return values, rows, [axis for axis, _ in axes]


def _stacked(outs: list, tail, rows: int) -> np.ndarray:
    """The outputs and then the tail's numbers as the columns of one array."""
    flat = np.empty((rows, len(outs) + len(tail)))
    for i, column in enumerate(outs + tail):
        flat[:, i] = column
    return flat


def columns(program: _Code, x: np.ndarray):
    """expr._columns: (the program's outputs and then its tail at the rows
    of x, as the columns of one array; the mask of the rows where a marked
    op's result or an output is not finite)."""
    rows = len(x)
    leaves = [x[:, i] for i in range(x.shape[1])]
    with np.errstate(all="ignore"):
        try:
            outs, marked = _run(program, leaves, True)
        except EvalDomainError:  # a number divided by the number 0: every row
            outs, marked = [np.full(rows, np.nan)] * program.width, (np.nan,)
    finite = np.ones(rows, dtype=bool)
    for value in (*marked, *outs):
        finite &= np.isfinite(value)
    return _stacked(outs, program.tail, rows), ~finite
