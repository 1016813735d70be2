"""List the executable lines of ``src/`` that a pytest run never executes.

Usage, from the repository root:

    python3 tools/census.py [pytest arguments ...]

With no arguments it runs the tier-1 suite (``-q
--continue-on-collection-errors``).  pytest runs in this interpreter under
``sys.settrace`` and ``threading.settrace``, so threads the code starts are
traced too.  A line is executable when the compiled module holds bytecode for
it.  The census prints ``module:line: source`` for each executable line that
never ran, then a count line, and exits with pytest's exit code.  It reads
the tree and writes nothing to it.

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


def run(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with ``args`` under the tracer; return its code and the lines run."""
    prefix = str(SRC) + "/"
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        ran.setdefault(name, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, str(SRC))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    code, ran = run(args or TIER1)
    total = 0
    missed = []
    for path in sorted(SRC.rglob("*.py")):
        lines = executable_lines(path)
        total += len(lines)
        text = path.read_text().splitlines()
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        for line in sorted(lines - ran.get(str(path), set())):
            missed.append(f"{module}:{line}: {text[line - 1].strip()}")
    print("\n".join(missed))
    print(f"{len(missed)} of {total} executable lines in src/ never ran")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
