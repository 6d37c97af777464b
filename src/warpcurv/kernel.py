"""Kernels: each register program of expr runs as one straight-line Python
function, written and compiled at the program's first run and kept on it.

A kernel, as _text writes it:

    def kernel(leaves, finish, constants, checks):
        r0, r1, = constants; r4 = leaves[0]; outs = []
        r2 = r0 * r4
        r3 = sin(r2)
        outs.append(r3); finish(checks[0], outs)
        return outs

Line expr._FIRST_OP_LINE + i states op i, so the line where a run raises
names the op.  Each name in the text is looked up in the tables below by
the op's rules, never taken from a node, and constants and checks are
bound as the defaults of the last two arguments.  So the text holds
register names, the inline + - *, rule names and check indices alone: no
text of an expression or a manifest reaches compile.  Programs of one
shape have one text, and a cache of the recent code objects lets them
share one.  Floats and columns run a program's code object under their
own names.

expr imports this module with the first kernel it builds, so importing the
package compiles none of it.
"""

from __future__ import annotations

import functools
from types import CodeType, FunctionType

from .expr import _BINARY, _CALLS, _OP_BIN, _OP_CALL, _OP_OUT, _Code

_INLINE = {_BINARY[op]: op for op in "+-*"}  # bitwise operator.add, sub and mul

# rules: their name in a kernel
_NAMES = {rules: name for name, rules in _CALLS.items()}
_NAMES[_BINARY["/"]] = "divide"
_NAMES[_BINARY["^"]] = "power"

# a kernel's globals on floats and on columns: each name's rule
_MODES = tuple({"__builtins__": {}, **{name: rules[mode] for rules, name in _NAMES.items()}}
               for mode in (0, 1))


def _text(program: _Code) -> str:
    """The program's kernel as Python source, one line per op."""
    fixed = len(program.registers)
    head = [f"r{i}" for i, value in enumerate(program.registers) if value is not None]
    head = [", ".join(head) + ", = constants"] if head else []
    read = {r for *_, a, b in program.ops for r in (a, b) if r is not None and r >= fixed}
    head += [f"r{r} = leaves[{r - fixed}]" for r in sorted(read)]
    lines = ["def kernel(leaves, finish, constants, checks):", "; ".join(head + ["outs = []"])]
    checks = 0
    for code, arg, _, target, a, b in program.ops:
        if code is _OP_BIN:
            op = _INLINE.get(arg)
            line = f"r{target} = " + (f"r{a} {op} r{b}" if op else f"{_NAMES[arg]}(r{a}, r{b})")
        elif code is _OP_CALL:
            line = f"r{target} = {_NAMES[arg]}(r{a})"
        elif code is _OP_OUT:
            line = f"outs.append(r{a})"
            if arg is not None:
                line += f"; finish(checks[{checks}], outs)"
                checks += 1
        else:
            line = f"r{target} = -r{a}"
        lines.append(line)
    lines.append("return outs")
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
    functions over one code object."""
    code = _code(_text(program))
    bound = (tuple(v for v in program.registers if v is not None),
             tuple(op[1] for op in program.ops if op[0] is _OP_OUT and op[1] is not None))
    program.kernels = tuple(FunctionType(code, names, "kernel", bound) for names in _MODES)
    return program.kernels
