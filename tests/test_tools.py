"""The timing and census tools run on this checkout."""

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import mutants  # noqa: E402
import perf_bench  # noqa: E402

from morreybench.experiments import THEOREMS  # noqa: E402


SMALLEST = {  # per section: the snippet's smallest argument and the keys it measures
    "ratio_harness": ([[1, 3]], {f"1d.{theorem}.depth3" for theorem in THEOREMS}),
    "criteria": ([4, 8], {"criterion_04", "criterion_08"}),
    "aligned_sweep": ([7], {"b_5_5.depth7", "f_4_2.depth7"}),
    "mgf": ([[1, 10]], {"write.1d.depth10", "read.1d.depth10"}),
    "ops": (perf_bench.OPS, set(perf_bench.OPS)),
}


@pytest.mark.parametrize("name", sorted(perf_bench.SNIPPETS))
def test_every_snippet_measures_on_this_checkout(name):
    # each snippet runs in a new interpreter on this checkout's src/
    arg, keys = SMALLEST[name]
    runs = perf_bench.run_snippet(str(ROOT), perf_bench.SNIPPETS[name][0], arg, 2)
    assert set(runs) == keys
    assert all(len(run["times"]) == 2 and min(run["times"]) > 0 for run in runs.values())
    if name == "aligned_sweep":
        # B's norm at p = q walks its flat top, f's at q < p is bisected
        assert 0 < runs["b_5_5.depth7"]["calls"]["_windows"] <= 16
        assert 0 < runs["f_4_2.depth7"]["calls"]["_windows"] <= 32
    if name == "ops":
        # two-weight at s < 1: one characteristic and one right-side scan per
        # run, and one left-side scan per level of 4..8; fs-dual takes its
        # two majorants once per run
        assert runs["two-weight-1d"]["calls"] == {"char_two_weight": 1, "_morrey_sup": 6}
        assert runs["fs-dual-1d"]["calls"] == {"fs_majorant": 2}


def test_measure_times_the_real_functions(monkeypatch):
    # the warm-up call counts through a wrapper; every timed call sees the
    # real function again
    monkeypatch.setattr(sys, "argv", ["-c", "3", "null"])
    scope = {}
    exec(perf_bench.PRELUDE, scope)
    from morreybench import grid
    real, seen = grid.spread, []
    scope["measure"]("k", lambda: seen.append(grid.spread) or grid.spread(np.ones(2), 1),
                     count=("grid.spread",), cells=2)
    assert scope["out"]["k"]["calls"] == {"spread": 1} and scope["out"]["k"]["cells"] == 2
    assert len(scope["out"]["k"]["times"]) == 3
    assert seen[0] is not real and seen[1:] == [real] * 3 and grid.spread is real


def test_section_fits_the_exponent_and_rates():
    # t = c cells**1.5 gives the exponent 1.5 next to the predicted slope; a
    # key without cells keeps its summary and counts only
    runs = {f"x.depth{d}": {"times": [3e-6 * 2.0 ** (1.5 * d), 4e-6 * 2.0 ** (1.5 * d)],
                            "cells": 2 ** d} for d in (4, 5, 6)}
    runs["y"] = {"times": [0.5, 0.25], "calls": {"f": 3}}
    record = perf_bench.section(runs, {"x": 1.0})
    assert set(record) == {"x.depth4", "x.depth5", "x.depth6", "x.exp", "y"}
    assert record["x.exp"] == {"fitted": pytest.approx(1.5, rel=1e-12), "predicted": 1.0}
    assert record["x.depth5"]["cells_per_s"] == 2 ** 5 / (3e-6 * 2.0 ** 7.5)
    assert record["y"] == {"min": 0.25, "spread": 0.25, "runs": [0.5, 0.25], "calls": {"f": 3}}


def test_src_line_count_of_this_checkout():
    files = list((ROOT / "src").rglob("*.py"))
    assert files
    assert perf_bench.src_lines(str(ROOT)) == sum(len(p.read_text().splitlines()) for p in files)


def test_census_lists_the_lines_a_run_never_reaches():
    # one small test id: the entry script's exit line never runs under pytest
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "census.py"), "-q",
                          "tests/test_grid.py::TestGridFunction::test_refine_is_exact"],
                         cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stdout + run.stderr
    lines = run.stdout.splitlines()
    assert any(re.fullmatch(r"morreybench\.cli:\d+: raise SystemExit\(main\(\)\)", line)
               for line in lines)
    count = re.fullmatch(r"(\d+) of (\d+) executable lines in src/ never ran", lines[-1])
    assert count and 0 < int(count[1]) < int(count[2])


def test_census_lists_the_lines_run_only_outside_cli_main():
    # one test id drives cli.main, one calls the pair_value oracle directly;
    # both reach weights._w_factors, only the direct call reaches pair_value
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "census.py"), "-q",
                          "-p", "no:hypothesispytest",
                          "tests/test_cli.py::TestCharCommand::test_synthetic_testing_constant",
                          "tests/test_weights.py::TestTwoWeight::"
                          "test_attaining_pair_recomputes_bit_exact"],
                         cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stdout + run.stderr
    lines = run.stdout.splitlines()
    outside = [line.removeprefix("outside cli.main: ") for line in lines
               if line.startswith("outside cli.main: morreybench.")]
    assert any(re.fullmatch(r"morreybench\.weights:\d+: grid = ws\.v", line)
               for line in outside)  # in pair_value
    # its def line ran in the module body, at import: reached
    assert not any(re.match(r"morreybench\.weights:\d+: def pair_value\(", line)
                   for line in outside)
    assert not any("power_mean(cube_blocks(w1, shift, dim), -d1)" in line for line in lines)
    count = re.fullmatch(r"(\d+) of (\d+) executable lines in src/ ran only outside cli.main",
                         lines[-2])
    assert count and int(count[1]) == len(outside)


def test_mutants_reports_a_killed_mutant_and_leaves_the_tree():
    # one mutant against one small test id; without the hypothesis plugin,
    # which this test id does not use, pytest starts about 1 s sooner
    source = ROOT / "src" / "morreybench" / "weights.py"
    before = source.read_text()
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "mutants.py"),
                          "--mutant", "pair-scan-stack-axis", "-p", "no:hypothesispytest",
                          "tests/test_acceptance.py::test_criterion_09_weighted_harness"],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout == "pair-scan-stack-axis: killed\n"
    assert source.read_text() == before


def test_mutants_sets_aside_the_tests_that_fail_unmutated(monkeypatch, capsys):
    # a no-op mutant (a comment changed) against the red criterion 2 and one
    # passing id: the red test fails on the unmutated copy too, so it is set
    # aside, and the mutant survives
    line = ("DEPTH_EXTRA = 3             # sharpness grids resolve delta by 2**-3, "
            "so 1.5 delta is on the grid")
    monkeypatch.setitem(mutants.MUTANTS, "no-op", (
        "experiments.py", line, line.replace("# sharpness", "# the sharpness")))
    red = "tests/test_acceptance.py::test_criterion_02_sharpness_norm_floor"
    assert mutants.main(["--mutant", "no-op", "-p", "no:hypothesispytest", red,
                         "tests/test_acceptance.py::test_criterion_08_packing_bound"]) == 1
    std = capsys.readouterr()
    assert std.out == "no-op: survived\n"
    assert std.err == f"mutants: set aside, fails unmutated: {red}\n"


SLEEPER = """
import os, subprocess
def test_sleeps():
    sleep = subprocess.Popen(["sleep", "30"])
    with open("sleep.pid.part", "w") as fh:
        fh.write(str(sleep.pid))
    os.replace("sleep.pid.part", "sleep.pid")
    sleep.wait()
"""


def sleeping(pid):
    """Whether process ``pid`` is a ``sleep`` that has not exited."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    name, state = stat.split(" (", 1)[1].rsplit(") ", 1)
    return name == "sleep" and state[0] != "Z"


def test_mutants_timeout_kills_what_the_tests_started(tmp_path):
    # the one test starts one sleep 30 and waits on it; the 1 s limit must
    # end the sleep as well as pytest
    (tmp_path / "test_sleeps.py").write_text(SLEEPER)
    with pytest.raises(subprocess.TimeoutExpired):
        mutants.run_pytest(tmp_path, ["test_sleeps.py"], "-p", "no:hypothesispytest", timeout=1)
    if not (tmp_path / "sleep.pid").exists():
        pytest.skip("pytest did not reach the test within the 1 s limit")
    pid = int((tmp_path / "sleep.pid").read_text())
    deadline = time.monotonic() + 5  # the killed sleep waits to be reaped
    while sleeping(pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    try:
        assert not sleeping(pid)
    finally:
        if sleeping(pid):
            os.kill(pid, signal.SIGKILL)
