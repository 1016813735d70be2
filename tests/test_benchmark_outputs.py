"""Every op of the benchmark's workloads, at input variant 0, replayed against
the recorded reference outputs (``benchmarks/reference``).  ``fields`` and
``selftest``, whose operator kernels round differently with the data,
``weights-cz``, whose ``cz`` and ``stein-weiss`` ops take the certified
decomposition and the dichotomy alone, and ``harness``, whose unweighted
right sides are base-depth norms summed in another order than the level's
(so their last bits move with the data), are replayed at input variant 5 too.

The benchmark refuses a change whose printed text, CSV columns, file names
or values (beyond a relative 1e-9) differ from the references; this test
catches such a change in the test suite.  It reads the references only and
writes the inputs and outputs under ``tmp_path``.
"""

import sys
from pathlib import Path

import pytest

from morreybench import cli

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
import run  # noqa: E402
import workloads  # noqa: E402


CASES = ([pytest.param(w, 0, id=w) for w in workloads.WORKLOADS]
         + [pytest.param(w, 5, id=f"{w}-5") for w in ("harness", "fields", "weights-cz", "selftest")])


@pytest.mark.parametrize("workload,variant", CASES)
def test_ops_match_references(tmp_path, workload, variant):
    workloads.generate_inputs(variant, str(tmp_path))
    runner = run.Runner(cli, variant, str(tmp_path), run.load_references([workload]))
    runner.run_pass(workload)
    assert runner.attempted > 0
    assert runner.failed == 0, runner.failures
