"""List the executable lines of ``src/`` that a pytest run never executes,
and those it executes only outside ``cli.main``.

Usage, from the repository root:

    python3 tools/census.py [pytest arguments ...]

With no arguments it runs the tier-1 suite (``-q
--continue-on-collection-errors``).  pytest runs in this interpreter under
``sys.settrace`` and ``threading.settrace``, so threads the code starts are
traced too.  A line is executable when the compiled module holds bytecode for
it.  A line counts as reached by an entry point when it ran while a call of
``cli.main`` or a module body of ``src/`` (an import) was on the stack; a
line that only direct calls of library functions ran is not.  The census
prints ``module:line: source`` for each executable line that never ran, then
``outside cli.main: module:line: source`` for each line that ran but never
under an entry point, then a count line for each list, the never-ran count
last, and exits with pytest's exit code.  It reads the tree and writes
nothing to it.

Standard library only, apart from pytest itself.
"""

from __future__ import annotations

import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TIER1 = ["-q", "--continue-on-collection-errors"]


def executable_lines(path: Path) -> set[int]:
    """Line numbers that carry bytecode in the module at ``path``."""
    lines: set[int] = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def run(args: list[str]) -> tuple[int, dict[str, set[int]], dict[str, set[int]]]:
    """Run pytest with ``args`` under the tracer; return its code, the lines
    run, and the lines run while ``cli.main`` or a module body of ``src/`` was
    on the stack."""
    prefix = str(SRC) + "/"
    cli_main = (str(SRC / "morreybench" / "cli.py"), "main")
    ran: dict[str, set[int]] = {}
    reached: dict[str, set[int]] = {}
    depth = 0  # frames of cli.main and of module bodies on the stack, in any thread

    def local(frame, event, arg):
        if event == "line":
            name = frame.f_code.co_filename
            ran[name].add(frame.f_lineno)
            if depth:
                reached[name].add(frame.f_lineno)
        return local

    def entry(frame, event, arg):
        nonlocal depth
        local(frame, event, arg)
        if event == "return":  # fired on an exception exit too
            depth -= 1
        return entry

    def tracer(frame, event, arg):
        nonlocal depth
        name, func = frame.f_code.co_filename, frame.f_code.co_name
        if not name.startswith(prefix):
            return None
        is_entry = func == "<module>" or (name, func) == cli_main
        depth += is_entry
        ran.setdefault(name, set()).add(frame.f_lineno)
        reached.setdefault(name, set())
        if depth:
            reached[name].add(frame.f_lineno)
        return entry if is_entry else local

    sys.path.insert(0, str(SRC))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran, reached


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    code, ran, reached = run(args or TIER1)
    total = 0
    missed, outside = [], []
    for path in sorted(SRC.rglob("*.py")):
        lines = executable_lines(path)
        total += len(lines)
        text = path.read_text().splitlines()
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        for line in sorted(lines):
            where = f"{module}:{line}: {text[line - 1].strip()}"
            if line not in ran.get(str(path), ()):
                missed.append(where)
            elif line not in reached[str(path)]:
                outside.append(f"outside cli.main: {where}")
    sys.stdout.writelines(f"{where}\n" for where in missed + outside)
    print(f"{len(outside)} of {total} executable lines in src/ ran only outside cli.main")
    print(f"{len(missed)} of {total} executable lines in src/ never ran")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
