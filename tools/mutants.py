"""Run the tests against listed one-line mutants of ``src/`` and report each.

Usage, from the repository root:

    python3 tools/mutants.py [--mutant NAME ...] [pytest arguments ...]

The checkout is copied to a temporary directory, and the working tree is
never edited.  With no pytest arguments a mutant's tests are the test files
that import its module.  Those tests run once on the unmutated copy first:
the ids that fail there (the known red criterion 2, say) are set aside and
named on stderr, and that run's time sets the limit of each mutant run, as
``LIMIT`` times it plus ``GRACE`` seconds.  Then in the copy each mutant of
``MUTANTS`` (all of them, or the ones named) replaces one line of a module,
pytest runs with ``-x`` and the set-aside ids deselected, and the line is
put back.  A mutant is killed when a test fails, survives when every test
passes, and times out when the run passes the limit; a timeout kills the
run's whole process group, the processes its tests started included.  One
line per mutant on stdout, ``NAME: killed``, ``NAME: survived``, ``NAME:
timeout`` or ``NAME: error (pytest exit N)``, then the tool exits 0 when
every mutant was killed or timed out and 1 otherwise.

Standard library only; pytest runs in a new interpreter.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name -> (module under src/morreybench, the line as written, the mutant line)
MUTANTS = {
    # the rounding factor on the quotient of ``_range_bound``: the window sum
    # already carries ``_window_slack``, so no test is expected to see it
    "range-bound-quotient": ("norms.py", "quot = x / lo ** n * (1.0 + 4 * _EPS)",
                             "quot = x / lo ** n"),
    # the 1D walk over a range whose ends share one window sum: taken when
    # the left end's sum is only no larger, and taken in 2D too, where
    # inclusion-exclusion lets the computed sums dip between equal ends
    "flat-range-equal": ("norms.py",
                         "if n == 1 and seen[i][0] == seen[j][0]:  # W is flat in between",
                         "if n == 1 and seen[i][0] <= seen[j][0]:  # W is flat in between"),
    "flat-range-1d": ("norms.py",
                      "if n == 1 and seen[i][0] == seen[j][0]:  # W is flat in between",
                      "if seen[i][0] == seen[j][0]:  # W is flat in between"),
    # the per-system position of a level's nested-pair maximum, taken over
    # the systems instead of over each system's pairs
    "pair-scan-stack-axis": ("weights.py", "k = vals.argmax(axis=-1)", "k = vals.argmax(axis=0)"),
    # the per-system update of the running nested-pair maximum: the last of
    # tied maxima instead of the first in canonical order, so a report
    # places another pair
    "pair-scan-last-max": (
        "weights.py",
        "new = (top := vals[np.arange(len(v)), k]) > best  # per system its first strict max",
        "new = (top := vals[np.arange(len(v)), k]) >= best  # per system its first strict max"),
    # the position of a family maximum: the last of tied maxima instead of
    # the first in canonical order, so a report places another cube
    "cube-at-last-max": ("norms.py", "return vals.max(axis=-1), vals.argmax(axis=-1)",
                         "return vals.max(axis=-1), "
                         "vals.shape[-1] - 1 - vals[..., ::-1].argmax(axis=-1)"),
    # the sharpness run's copy of the norm of f as the norm of g, taken when
    # only p2 == p1, although g is f only when q2 == q1 too
    "sharpness-g-is-f-q": ("experiments.py",
                           "norm_g = (norm_f if (cfg.p2, cfg.q2) == (cfg.p1, cfg.q1)  # then g is f",
                           "norm_g = (norm_f if cfg.p2 == cfg.p1  # then g is f"),
}
LIMIT, GRACE = 3, 10  # a mutant run may take 3x the unmutated run's time, plus 10 s
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                                ".bench_*", ".benchmarks")


def mutate(text: str, line: str, mutant: str) -> str:
    """``text`` with its one line whose stripped form is ``line`` replaced."""
    lines = text.splitlines(keepends=True)
    hits = [i for i, old in enumerate(lines) if old.strip() == line]
    if len(hits) != 1:
        raise SystemExit(f"mutants: {line!r} occurs {len(hits)} times, not once")
    old = lines[hits[0]]
    lines[hits[0]] = old[:len(old) - len(old.lstrip())] + mutant + "\n"
    return "".join(lines)


def importers(tests: Path, module: str) -> list[str]:
    """The test files that import ``morreybench.<module>``, in any import form."""
    out = []
    for path in sorted(tests.glob("test_*.py")):
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module:
                names |= {node.module, *(f"{node.module}.{a.name}" for a in node.names)}
            elif isinstance(node, ast.Import):
                names |= {a.name for a in node.names}
        if f"morreybench.{module}" in names:
            out.append(str(path.relative_to(tests.parent)))
    return out


def run_pytest(copy: Path, tests: list[str], *extra: str, timeout: float | None = None):
    """pytest's exit code and short report on ``tests`` in ``copy``, and its time in seconds.

    pytest runs in a session of its own, so a timeout kills its process group:
    pytest and every process its tests started, before ``TimeoutExpired``
    propagates.
    """
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
                           *extra, *tests], cwd=copy, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, start_new_session=True) as run:
        try:
            report = run.communicate(timeout=timeout)[0]
        except subprocess.TimeoutExpired:
            os.killpg(run.pid, signal.SIGKILL)
            run.communicate()
            raise
    return run.returncode, report, time.perf_counter() - start


def baseline(copy: Path, tests: list[str]) -> tuple[list[str], float]:
    """The ids of ``tests`` that fail on the unmutated ``copy``, and the time
    limit of a mutant run on them."""
    code, report, elapsed = run_pytest(copy, tests)
    if code not in (0, 1):
        raise SystemExit(f"mutants: the unmutated tests end with pytest exit {code}")
    failing = [line.split(" ", 1)[1].split(" - ", 1)[0] for line in report.splitlines()
               if line.startswith(("FAILED ", "ERROR "))]
    for test_id in failing:
        print(f"mutants: set aside, fails unmutated: {test_id}", file=sys.stderr, flush=True)
    return failing, LIMIT * elapsed + GRACE


def run(copy: Path, name: str, tests: list[str], failing: list[str], limit: float) -> str:
    """The verdict on mutant ``name`` in the checkout copy ``copy``."""
    module, line, mutant = MUTANTS[name]
    path = copy / "src" / "morreybench" / module
    original = path.read_text()
    path.write_text(mutate(original, line, mutant))
    try:
        code = run_pytest(copy, tests, "-x", *(f"--deselect={i}" for i in failing),
                          timeout=limit)[0]
    except subprocess.TimeoutExpired:
        return "timeout"
    finally:
        path.write_text(original)
    return {0: "survived", 1: "killed"}.get(code, f"error (pytest exit {code})")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mutant", action="append", choices=sorted(MUTANTS),
                    help="a mutant to run (repeatable; default: all)")
    ns, args = ap.parse_known_args(argv)
    verdicts = []
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=IGNORE)
        baselines = {}  # the tests of a mutant -> (their failing ids, the time limit)
        for name in ns.mutant or MUTANTS:
            tests = args or importers(copy / "tests", MUTANTS[name][0][:-3])
            if tuple(tests) not in baselines:
                baselines[tuple(tests)] = baseline(copy, tests)
            verdicts.append(run(copy, name, tests, *baselines[tuple(tests)]))
            print(f"{name}: {verdicts[-1]}", flush=True)
    return 0 if all(v in ("killed", "timeout") for v in verdicts) else 1


if __name__ == "__main__":
    raise SystemExit(main())
