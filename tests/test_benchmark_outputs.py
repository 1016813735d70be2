"""Every op of the benchmark's workloads, at input variant 0, replayed against
the recorded reference outputs (``benchmarks/reference``).

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


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_ops_match_references(tmp_path, workload):
    workloads.generate_inputs(0, str(tmp_path))
    runner = run.Runner(cli, 0, str(tmp_path), run.load_references([workload]))
    runner.run_pass(workload)
    assert runner.attempted > 0
    assert runner.failed == 0, runner.failures
