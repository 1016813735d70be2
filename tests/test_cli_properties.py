"""Property tests of the command line: the parsers, and argv fuzzing of
cheap in-process ``main`` runs that must exit 0, 2 or 3 without a traceback.

Each fuzzed command starts from a valid invocation (grids of depth 5 or
less) and has up to three of its flags dropped or replaced by values drawn
from a pool of well-formed, degenerate and malformed tokens, grid addresses
(--rootlevel, --rootcoords, --center, --min-level) included.  MGF contents
are not fuzzed, except the constant weights 10**k of the weighted runs,
which must write only finite numbers or exit 3.
"""

import contextlib
import io
import math
import re
from fractions import Fraction

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from morreybench import GridFunction, ParameterError, unit_root, write_mgf  # noqa: E402
from morreybench.cli import main, parse_number, parse_range  # noqa: E402

FUZZ = settings(max_examples=60, deadline=None, derandomize=True, database=None)

NUMBERS = ["0", "1", "-1", "2", "4", "5", "1/2", "0.3", "5/2", "9/8", "17/16",
           "16/27", "4/5", "25/8", "20/3", "inf", "nan", "1/0", "x", "", "-0.54"]

RATIO = {"--alpha": "0.3", "--p1": "4", "--q1": "5/2", "--p2": "4", "--q2": "5/2",
         "--s": "5", "--t": "25/8"}
TWO_WEIGHT = {"--alpha": "1/2", "--q1": "9/8", "--q2": "9/8", "--p": "16/27",
              "--s": "4/5", "--t": "0.759375", "--r": "16", "--a": "17/16",
              "--beta": "0.0225", "--gamma1": "0.02", "--gamma2": "0.02"}
TESTING = {"--alpha": "1/2", "--q1": "4", "--q2": "4", "--p": "5/2", "--s": "20/3",
           "--t": "16/3", "--r": "4", "--a": "2"}

# grid addresses: root cubes in and out of the grid, malformed coordinates,
# and family depths below the cells and above the root
ROOTS = {"--rootlevel": ["-1", "0", "2"], "--rootcoords": ["0", "1", "0,0", "-1", "x", ""],
         "--center": ["0", "0.5", "0,0", "inf", "nan", "x", ""]}
MIN_LEVEL = {"--min-level": ["-9", "-3", "-1", "0", "1"]}

# (command words, valid flags, extra pools); --out draws from OUT, the other
# flags without a pool from NUMBERS
OUT = ["@O", "@O.mgf", ""]  # never a bare token: outputs stay in the fuzz directory
COMMANDS = [
    (["norm"], {"--kind": "morrey", "--in": "@F", "--p": "2", "--q": "1", "--t": "2"},
     {"--kind": ["morrey", "lebesgue", "weak"], "--family": ["dyadic", "all"], **MIN_LEVEL}),
    (["op"], {"--operator": "b-alpha", "--f": "@F", "--g": "@F", "--v": "@F",
              "--out": "@O.mgf", "--alpha": "1/2", "--d": "1/4", "--r1": "2",
              "--r2": "2", "--t": "2"},
     {"--operator": ["i-alpha", "b-alpha", "b-truncated", "b-dyadic", "m-bilinear",
                     "m-vector", "m-tilde", "m-triple"], **MIN_LEVEL,
      "--rootlevel": ROOTS["--rootlevel"], "--rootcoords": ROOTS["--rootcoords"]}),
    (["cz"], {"--f": "@F", "--g": "@F", "--out": "@O"},
     {"--a": NUMBERS, "--rootlevel": ROOTS["--rootlevel"],
      "--rootcoords": ROOTS["--rootcoords"]}),
    (["char"], {"--kind": "two-weight", "--depth": "3", **TWO_WEIGHT},
     {"--kind": ["two-weight", "remark", "one-weight", "testing", "ap", "fs-majorant"],
      "--depth": ["-1", "2", "3"], "--dim": ["0", "1", "2"], **ROOTS, **MIN_LEVEL}),
    (["experiment", "ratio"], {"--pairs": "step:1", "--levels": "3..4",
                               "--base-depth": "3", "--depth": "3", "--out": "@O",
                               **RATIO, "--p": "16/27", "--r": "16", "--a": "17/16",
                               "--beta": "0.0225", "--gamma1": "0.02", "--gamma2": "0.02"},
     {"--theorem": ["bilinear-ratio", "bilinear-critical", "linear-adams", "two-weight",
                    "one-weight", "olsen", "nope"],
      "--pairs": ["step:1", "indicator:2", "bump", "step:0", "step:x", "", "nope:1"],
      "--levels": ["3", "3..4", "4..3", "", "4..", "2", "x"],
      "--base-depth": ["-1", "0", "3"], "--seed": ["-1", "0", "7"],
      "--dim": ["1", "2", "3"], **ROOTS}),
    (["experiment", "sharpness"], {"--deltas": "2..3", "--out": "@O", "--alpha": "0.3",
                                   "--p1": "4", "--p2": "4", "--q1": "2", "--q2": "2",
                                   "--t": "5"},
     {"--deltas": ["1", "2", "2..3", "3..2", "", "2..", "x"]}),
    (["experiment", "necessity"], {"--systems": "1", "--base-depth": "3", "--out": "@O",
                                   **TESTING},
     {"--systems": ["-1", "0", "1"], "--base-depth": ["-1", "2", "3"]}),
    (["experiment", "stein-weiss"], {"--k-range": "-1..0", "--out": "@O", "--alpha": "1/2",
                                     "--q1": "9/8", "--q2": "9/8", "--p1": "32/27",
                                     "--p2": "32/27", "--r": "16", "--a": "17/16",
                                     "--beta": "-0.54", "--gamma1": "0.02",
                                     "--gamma2": "0.02"},
     {"--k-range": ["0", "-1..0", "-9", "", "0..", "x"]}),
    (["experiment", "fs-dual"], {"--depth": "3", "--levels": "3", "--out": "@O",
                                 **TWO_WEIGHT, "--r1": "32", "--r2": "32",
                                 "--s1": "17/19", "--s2": "17/19"},
     {"--levels": ["2", "3", "3..4", "", "x"], "--depth": ["-1", "3"], **ROOTS}),
    (["selftest"], {"--criteria": "0"},
     {"--criteria": ["", "0", "13", "x", "1..", "12..1", "99,1"]}),
]


@st.composite
def argvs(draw):
    words, valid, pools = draw(st.sampled_from(COMMANDS))
    flags = dict(valid)
    names = sorted(set(valid) | set(pools))
    # a selftest without --criteria runs every criterion and exits 1 on the
    # documented red criterion 2, so that flag is replaced, never dropped
    keep = words == ["selftest"]
    for _ in range(draw(st.integers(0, 3))):
        name = draw(st.sampled_from(names))
        value = draw(st.sampled_from([None] * (not keep) + pools.get(name, OUT if name == "--out" else NUMBERS)))
        if value is None:
            flags.pop(name, None)
        else:
            flags[name] = value
    return words + [f"{name}={value}" for name, value in flags.items()]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(5)
    write_mgf(path / "f.mgf", GridFunction(unit_root(1), np.exp(rng.uniform(-2, 2, 8)), "pos"))
    return path


@FUZZ
@given(argv=argvs())
def test_cli_exits_0_2_or_3_without_traceback(workdir, argv):
    argv = [tok.replace("@F", str(workdir / "f.mgf")).replace("@O", str(workdir / "out"))
            for tok in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusals
            code = exc.code
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


# exponents that pass the relations of each weighted run
TWO_WEIGHT_EXPONENTS = {name: TWO_WEIGHT[name] for name in
                        ("--alpha", "--q1", "--q2", "--p", "--s", "--t", "--r", "--a")}
WEIGHTED = {
    "two-weight": TWO_WEIGHT_EXPONENTS,
    "olsen": TWO_WEIGHT_EXPONENTS,
    "one-weight": {"--alpha": "1/2", "--q1": "9/8", "--q2": "9/8", "--p": "3/5", "--s": "6/7",
                   "--t": "45/56", "--r": "inf", "--a": "17/16"},
    "fs-dual": {**TWO_WEIGHT_EXPONENTS, "--r1": "32", "--r2": "32", "--s1": "17/19",
                "--s2": "17/19"},
}


def _numbers(run: str, text: str) -> list[float]:
    """The numbers a weighted run wrote: the CSV's lhs, rhs and ratio
    columns, or every value after '=' or ':' in the fs-dual report."""
    if run == "fs-dual":
        return [float(tok) for tok in re.findall(r"[=:]([^\s=:]+)", text)]
    header, *rows = [line.split(",") for line in text.splitlines()]
    return [float(row[header.index(col)]) for row in rows for col in ("lhs", "rhs", "ratio")]


@FUZZ
@given(run=st.sampled_from(sorted(WEIGHTED)), k=st.integers(-308, 308))
def test_weighted_runs_on_constant_weights_exit_0_or_3(workdir, run, k):
    # constant weights 10**k across the float range (for one-weight
    # w1 = w2 = 10**(k/2) and v = w1 w2): a run either writes only finite
    # numbers or is refused by one numerical-failure line, never nan or inf
    w = 10.0 ** (k / 2) if run == "one-weight" else 10.0 ** k
    v = w * w if run == "one-weight" else w
    for name, value in (("v.mgf", v), ("w.mgf", w)):
        write_mgf(workdir / name, GridFunction(unit_root(1), np.full(8, value), "pos"))
    out = workdir / "weighted.out"
    out.unlink(missing_ok=True)
    argv = (["experiment", "fs-dual", "--levels", "3..4"] if run == "fs-dual" else
            ["experiment", "ratio", "--theorem", run, "--pairs", "step:1", "--base-depth", "3",
             "--levels", "3..4", "--v", str(workdir / "v.mgf")])
    argv += [*(tok for item in WEIGHTED[run].items() for tok in item),
             "--w1", str(workdir / "w.mgf"), "--w2", str(workdir / "w.mgf"), "--out", str(out)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    err = stderr.getvalue()
    assert code in (0, 3), (argv, err)
    if code == 0:
        numbers = _numbers(run, out.read_text())
        assert numbers and all(math.isfinite(x) for x in numbers), (k, numbers)
    else:
        assert err.startswith("numerical failure: ") and err.count("\n") == 1, err
        assert not out.exists()


@FUZZ
@given(text=st.text(alphabet="0123456789.,- x", max_size=8))
def test_parse_range_gives_integers_or_refuses(text):
    try:
        values = parse_range(text)
    except ParameterError:
        return
    assert values and all(isinstance(v, int) for v in values)


@FUZZ
@given(low=st.integers(-20, 20), high=st.integers(-20, 20))
def test_parse_range_spans_both_ends(low, high):
    if low > high:
        with pytest.raises(ParameterError):
            parse_range(f"{low}..{high}")
    else:
        assert parse_range(f"{low}..{high}") == tuple(range(low, high + 1))


@FUZZ
@given(text=st.text(max_size=12))
def test_parse_number_gives_a_number_or_refuses(text):
    try:
        value = parse_number(text)
    except ParameterError:
        return
    assert isinstance(value, float) and value > -float("inf")


@FUZZ
@given(num=st.integers(-10 ** 6, 10 ** 6), den=st.integers(1, 10 ** 6))
def test_parse_number_rationals_are_exact(num, den):
    assert parse_number(f"{num}/{den}") == float(Fraction(num, den))
