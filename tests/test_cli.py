import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import morreybench
from morreybench import (DyadicCube, GridFunction, b_alpha_dyadic, cli, experiments, read_mgf,
                         unit_root, write_mgf)
from morreybench.cli import build_parser, main, parse_number, parse_range
from morreybench.experiments import THEOREMS, random_weights
from morreybench.norms import dyadic_family
from morreybench.util import fmt, make_rng
from morreybench.weights import CharParams

from geometry_reference import axis_midpoints
from test_experiments import necessity_by_probe


def write_step(path, values, flags="none"):
    write_mgf(path, GridFunction(unit_root(1), values, flags))


class TestParsing:
    def test_rationals_and_decimals(self):
        assert parse_number("3/4") == 0.75
        assert parse_number("0.3") == 0.3
        assert parse_number("inf") == float("inf")
        with pytest.raises(Exception):
            parse_number("x/y")

    def test_ranges(self):
        assert parse_range("4..6") == (4, 5, 6)
        assert parse_range("1,7,12") == (1, 7, 12)

    def test_cached_parser_matches_a_fresh_one(self, tmp_path, capsys, monkeypatch):
        # optional flags set, then the same command without them, in one process:
        # the cached parser must carry nothing from one call to the next
        path = tmp_path / "f.mgf"
        write_step(path, np.repeat([1.0, 0.0], 8))
        base = ["norm", "--kind", "morrey", "--p", "2", "--q", "1", "--in", str(path)]
        runs = [base + ["--family", "all", "--json"], base + ["--min-level", "-2"], base]

        def outputs():
            return [(main(argv), capsys.readouterr()) for argv in runs]

        cached = outputs()
        assert build_parser() is build_parser()
        for argv in runs:
            assert (vars(build_parser().parse_args(argv))
                    == vars(build_parser.__wrapped__().parse_args(argv)))
        monkeypatch.setattr(cli, "build_parser", build_parser.__wrapped__)
        assert outputs() == cached
        assert [rc for rc, _ in cached] == [0, 0, 0]
        assert cached[0][1].out != cached[2][1].out  # the flags did change the output

    def test_bad_flag_after_a_successful_call_exits_2(self, tmp_path, capsys):
        path = tmp_path / "f.mgf"
        write_step(path, np.ones(8))
        argv = ["norm", "--kind", "lebesgue", "--t", "2", "--in", str(path)]
        assert main(argv) == 0
        capsys.readouterr()
        assert _exit_code(argv + ["--no-such-flag"]) == 2
        assert "--no-such-flag" in capsys.readouterr().err
        assert _exit_code(["norm", "--kind", "sideways", "--in", str(path)]) == 2
        assert main(argv) == 0

    def test_import_builds_no_parser(self):
        src = str(Path(morreybench.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = "import morreybench.cli as c; print(c.build_parser.cache_info().currsize)"
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        assert run.stdout.strip() == "0"


class TestNormCommand:
    def test_morrey_all_family(self, tmp_path, capsys):
        vals = np.zeros(16)
        vals[:8] = 1.0
        path = tmp_path / "f.mgf"
        write_step(path, vals)
        rc = main(["norm", "--kind", "morrey", "--p", "2", "--q", "1",
                   "--in", str(path), "--family", "all"])
        out = capsys.readouterr().out
        assert rc == 0
        assert f"value={float(np.sqrt(2) / 2)!r}" in out

    def test_json_mirror(self, tmp_path, capsys):
        path = tmp_path / "f.mgf"
        write_step(path, np.ones(8))
        rc = main(["norm", "--kind", "lebesgue", "--t", "2",
                   "--in", str(path), "--json"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        payload = json.loads(lines[-1])
        assert payload["kind"] == "lebesgue"
        assert payload["value"] == pytest.approx(1.0)

    def test_bad_exponents_exit_2(self, tmp_path, capsys):
        path = tmp_path / "f.mgf"
        write_step(path, np.ones(8))
        rc = main(["norm", "--kind", "morrey", "--p", "1", "--q", "2",
                   "--in", str(path)])
        assert rc == 2
        assert "q <= p" in capsys.readouterr().err


class TestOpCommand:
    def test_b_alpha_roundtrip(self, tmp_path, capsys):
        f = tmp_path / "f.mgf"
        out = tmp_path / "out.mgf"
        write_step(f, np.ones(64), flags="nonneg")
        rc = main(["op", "--operator", "b-alpha", "--alpha", "1/2",
                   "--f", str(f), "--g", str(f), "--out", str(out)])
        assert rc == 0
        field = read_mgf(out)
        x = axis_midpoints(field)
        exact = 4.0 * np.sqrt(np.minimum(x, 1.0 - x))
        assert np.allclose(field.values, exact, rtol=1e-12)

    @pytest.mark.parametrize("min_level", [None, -1, 0])
    def test_b_dyadic_reads_min_level(self, tmp_path, capsys, min_level):
        # the field and the tail bound of the library call with that min_level
        path, out = tmp_path / "f.mgf", tmp_path / "out.mgf"
        write_step(path, [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0], flags="pos")
        f = read_mgf(path)
        extra = [] if min_level is None else ["--min-level", str(min_level)]
        assert main(["op", "--operator", "b-dyadic", "--alpha", "1/2", "--f", str(path),
                     "--g", str(path), "--out", str(out), *extra]) == 0
        want = b_alpha_dyadic(f, f, 0.5, f.root, min_level)
        assert np.array_equal(read_mgf(out).values, want.fn.values)
        assert capsys.readouterr().out == (
            f"b-dyadic -> {out} (max={fmt(float(want.fn.values.max()))}, "
            f"tail_bound={fmt(want.tail_bound)})\n")

    def test_alpha_out_of_range_exit_2(self, tmp_path, capsys):
        f = tmp_path / "f.mgf"
        write_step(f, np.ones(8))
        rc = main(["op", "--operator", "i-alpha", "--alpha", "2",
                   "--f", str(f), "--out", str(tmp_path / "o.mgf")])
        assert rc == 2
        assert "alpha" in capsys.readouterr().err

    def test_missing_second_operand_exit_2(self, tmp_path, capsys):
        f = tmp_path / "f.mgf"
        write_step(f, np.ones(8))
        rc = main(["op", "--operator", "b-alpha", "--alpha", "1/2",
                   "--f", str(f), "--out", str(tmp_path / "o.mgf")])
        assert rc == 2
        assert "--g" in capsys.readouterr().err

    def test_overflowed_output_exit_3(self, tmp_path, capsys):
        # finite inputs whose products overflow: a numerical failure, not a parameter error
        f = tmp_path / "f.mgf"
        write_step(f, np.full(4, 1e300), flags="pos")
        with np.errstate(over="ignore"):
            rc = main(["op", "--operator", "b-alpha", "--alpha", "1/2",
                       "--f", str(f), "--g", str(f), "--out", str(tmp_path / "o.mgf")])
        assert rc == 3
        assert "overflow" in capsys.readouterr().err
        assert not (tmp_path / "o.mgf").exists()

    OPERATOR_FLAGS = {
        "i-alpha": ["--alpha", "1/2"],
        "b-alpha": ["--g", "f.mgf", "--alpha", "1/2"],
        "b-truncated": ["--g", "f.mgf", "--d", "0.25"],
        "b-dyadic": ["--g", "f.mgf", "--alpha", "1/2"],
        "m-bilinear": ["--g", "f.mgf", "--alpha", "1/2"],
        "m-vector": ["--g", "f.mgf", "--alpha", "1/2", "--r1", "1", "--r2", "1"],
        "m-tilde": ["--g", "f.mgf", "--alpha", "1/2", "--t", "1/2", "--v", "f.mgf"],
        "m-triple": ["--g", "f.mgf"],
    }

    @pytest.mark.parametrize("operator", OPERATOR_FLAGS)
    def test_every_operator_refuses_overflowed_output(self, tmp_path, capsys, monkeypatch,
                                                       operator):
        # finite inputs, non-finite output: every operator refuses it before writing a field
        monkeypatch.chdir(tmp_path)
        write_step(tmp_path / "f.mgf", np.full(4, 1.7e308), flags="pos")
        with np.errstate(over="ignore"):
            rc = main(["op", "--operator", operator, "--f", "f.mgf", "--out", "o.mgf",
                       *self.OPERATOR_FLAGS[operator]])
        assert rc == 3
        assert capsys.readouterr().err == (
            "numerical failure: operator output overflowed to a non-finite value\n")
        assert not (tmp_path / "o.mgf").exists()

    def test_2d_field_roundtrip(self, tmp_path, capsys):
        f = tmp_path / "f2.mgf"
        out = tmp_path / "o2.mgf"
        write_mgf(f, GridFunction(DyadicCube(0, (0, 0)), np.ones((8, 8)), "nonneg"))
        rc = main(["op", "--operator", "b-alpha", "--alpha", "1.2",
                   "--f", str(f), "--g", str(f), "--out", str(out)])
        assert rc == 0
        field = read_mgf(out)
        assert field.dim == 2 and field.values.min() > 0


class TestCharCommand:
    def test_synthetic_testing_constant(self, capsys):
        rc = main(["char", "--kind", "testing", "--beta", "0", "--gamma1", "0",
                   "--gamma2", "0", "--depth", "4", "--alpha", "1/2",
                   "--q1", "4", "--q2", "4", "--p", "5/2", "--s", "20/3",
                   "--t", "16/3", "--r", "4", "--a", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "value=1.0" in out

    def test_two_weight_at_s_1_is_the_brute_force_pair_max(self, tmp_path, capsys):
        # s = 1 takes the s >= 1 row, E = (1 - as)/(as) = -1/17, so a smaller
        # Q in the same Q' scores higher; the s < 1 form would read E = 0
        rng = np.random.default_rng(2718)
        cells = {key: np.exp(rng.uniform(-2.0, 2.0, 16)) for key in ("v", "w1", "w2")}
        for key, values in cells.items():
            write_step(tmp_path / key, values, flags="pos")
        assert main(["char", "--kind", "two-weight", "--alpha", "1/2", "--q1", "9/8",
                     "--q2", "9/8", "--p", "3/4", "--s", "1", "--t", "3/4", "--r", "6",
                     "--a", "17/16", *(f"--{key}={tmp_path / key}" for key in cells)]) == 0
        value, pairs = capsys.readouterr().out.split()[1:3]
        d = 18.0  # (q/a)' with q/a = 18/17; the v power t/(1-t) is 3

        def brute(e):
            best = 0.0
            for k in range(5):  # Q of 2**(4-k) cells, inside Q' of 2**(4-j) cells
                for j in range(k + 1):
                    for i in range(2 ** k):
                        v = cells["v"][i << 4 - k:(i + 1) << 4 - k]
                        outer = slice(i >> k - j << 4 - j, ((i >> k - j) + 1) << 4 - j)
                        w1, w2 = (np.mean(cells[key][outer] ** -d) ** (1 / d)
                                  for key in ("w1", "w2"))
                        best = max(best, 2.0 ** ((j - k) * e) * 2.0 ** (-j / 6)
                                   * np.mean(v ** 3) ** (1 / 3) * w1 * w2)
            return best
        assert pairs == "pairs=129"
        assert float(value.removeprefix("value=")) == pytest.approx(brute(-1 / 17), rel=1e-12)
        assert brute(0.0) < 0.99 * brute(-1 / 17)

    def test_ap_on_weight_file(self, tmp_path, capsys):
        path = tmp_path / "w.mgf"
        write_step(path, np.full(16, 2.5), flags="pos")
        rc = main(["char", "--kind", "ap", "--v", str(path), "--p", "2"])
        assert rc == 0
        assert "value=1.0" in capsys.readouterr().out

    def test_fs_majorant_writes_field(self, tmp_path, capsys):
        path = tmp_path / "w.mgf"
        out = tmp_path / "W.mgf"
        write_step(path, np.ones(8), flags="pos")
        rc = main(["char", "--kind", "fs-majorant", "--w1", str(path),
                   "--r", "inf", "--s", "0.5", "--out", str(out)])
        assert rc == 0
        assert np.allclose(read_mgf(out).values, 1.0)

    def test_invalid_relation_named(self, capsys):
        rc = main(["char", "--kind", "two-weight", "--beta", "0",
                   "--gamma1", "0", "--gamma2", "0", "--depth", "3",
                   "--alpha", "1/2", "--q1", "9/8", "--q2", "9/8",
                   "--p", "16/27", "--s", "4/5", "--t", "0.9",
                   "--r", "16", "--a", "17/16"])
        assert rc == 2
        assert "t/s = q/p" in capsys.readouterr().err


class TestCzCommand:
    def test_dump_columns(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        f = tmp_path / "f.mgf"
        g = tmp_path / "g.mgf"
        out = tmp_path / "cz.csv"
        write_step(f, np.exp(rng.uniform(-2, 2, 64)), flags="nonneg")
        write_step(g, np.exp(rng.uniform(-2, 2, 64)), flags="nonneg")
        rc = main(["cz", "--f", str(f), "--g", str(g), "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "k,cube_level,cube_coords,m3q,e_measure"
        assert len(lines) >= 2
        assert "halving certified" in capsys.readouterr().out

    def test_triple_products_built_once(self, tmp_path, monkeypatch):
        # the certified decomposition comes back from choose_a: one
        # triple_means call per operand and level, none for a second pass
        from morreybench import decomposition
        from morreybench.operators import triple_means
        calls = []

        def counted(f, shift):
            calls.append(shift)
            return triple_means(f, shift)
        monkeypatch.setattr(decomposition, "triple_means", counted)
        rng = np.random.default_rng(3)
        f, g = tmp_path / "f.mgf", tmp_path / "g.mgf"
        write_step(f, np.exp(rng.uniform(-2, 2, 64)), flags="nonneg")
        write_step(g, np.exp(rng.uniform(-2, 2, 64)), flags="nonneg")
        rc = main(["cz", "--f", str(f), "--g", str(g), "--out", str(tmp_path / "cz.csv")])
        assert rc == 0
        assert sorted(calls) == sorted(2 * list(range(6 + 1)))


class TestExperimentCommand:
    def test_sharpness_csv_and_slope(self, tmp_path, capsys):
        out = tmp_path / "sharp.csv"
        rc = main(["experiment", "sharpness", "--dim", "1", "--alpha", "0.3",
                   "--p1", "4", "--p2", "4", "--q1", "2", "--q2", "2",
                   "--t", "5", "--deltas", "4..6", "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "blow-up" in text and "floors=ok" in text
        header = out.read_text().splitlines()[0]
        assert header.startswith("delta,min_pointwise,floor,norm,slope_so_far")

    def test_unresolvable_delta_exit_3(self, tmp_path, capsys):
        # q1/p1 = 0.9 gives a cluster count below 2 at delta = 2^-4
        rc = main(["experiment", "sharpness", "--dim", "1", "--alpha", "0.3",
                   "--p1", "4", "--p2", "4", "--q1", "3.6", "--q2", "3.6",
                   "--t", "5", "--deltas", "4..5",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_ratio_json_mirror(self, tmp_path, capsys):
        out = tmp_path / "ratio.csv"
        rc = main(["experiment", "ratio", "--theorem", "bilinear-ratio",
                   "--alpha", "0.3", "--p1", "4", "--q1", "5/2", "--p2", "4",
                   "--q2", "5/2", "--s", "5", "--t", "25/8",
                   "--pairs", "step:2", "--levels", "4..5",
                   "--out", str(out), "--json"])
        assert rc == 0
        stdout = capsys.readouterr().out
        json_lines = [l for l in stdout.splitlines() if l.startswith("{")]
        assert len(json_lines) == 4  # 2 pairs x 2 levels
        row = json.loads(json_lines[0])
        assert set(row) == {"theorem", "params_id", "pair_id", "level",
                            "lhs", "rhs", "ratio"}
        # CSV rows mirror the JSON stream
        csv_lines = out.read_text().splitlines()
        assert len(csv_lines) == 5

    def test_hypothesis_violation_named(self, tmp_path, capsys):
        rc = main(["experiment", "ratio", "--theorem", "bilinear-ratio",
                   "--alpha", "0.3", "--p1", "4", "--q1", "2", "--p2", "4",
                   "--q2", "2", "--s", "5", "--t", "2.5",
                   "--pairs", "step:1", "--levels", "4",
                   "--out", str(tmp_path / "r.csv")])
        assert rc == 2
        assert "1/q1 + 1/q2 < 1" in capsys.readouterr().err

    def test_stein_weiss_verdict_file(self, tmp_path, capsys):
        out = tmp_path / "sw.txt"
        rc = main(["experiment", "stein-weiss", "--alpha", "1/2",
                   "--q1", "9/8", "--q2", "9/8", "--p1", "32/27",
                   "--p2", "32/27", "--r", "16", "--a", "17/16",
                   "--beta", "-0.54", "--gamma1", "0.02", "--gamma2", "0.02",
                   "--k-range", "0..3", "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        assert text.splitlines()[0] == "PASS verdict=DIVERGENT"

    def test_stein_weiss_needs_two_root_levels(self, tmp_path, capsys):
        # one root level has spread 1, which would read FINITE even for the
        # negative-sum weights that diverge over 0..2
        argv = ["experiment", "stein-weiss", *STEIN_WEISS, "--beta", "-0.54",
                "--out", str(tmp_path / "sw.txt")]
        for k_range in ("0", "2,2"):
            assert main(argv + ["--k-range", k_range]) == 2
            err = capsys.readouterr().err
            assert err == ("parameter error: a dichotomy needs at least two distinct "
                           "root levels\n")
            assert not (tmp_path / "sw.txt").exists()
        assert main(argv + ["--k-range", "0..2"]) == 0
        assert "verdict=DIVERGENT" in capsys.readouterr().out

    def test_necessity_rows_match_each_system_by_probe(self, tmp_path, capsys, monkeypatch):
        # one stacked call over the 3 systems; row i is system i alone, its
        # step pairs drawn from seed + i
        calls = []
        real = experiments._bilinear_maximal
        monkeypatch.setattr(experiments, "_bilinear_maximal",
                            lambda *args: calls.append(args) or real(*args))
        out = tmp_path / "n.csv"
        assert main(["experiment", "necessity", *TESTING, "--systems", "3", "--seed", "7",
                     "--out", str(out)]) == 0
        assert len(calls) == 1
        monkeypatch.undo()
        cp = CharParams(alpha=0.5, n=1, q1=4.0, q2=4.0, p=2.5, s=20 / 3, t=16 / 3, r=4.0,
                        a=2.0)
        rng, family = make_rng(7, 701), dyadic_family(unit_root(1), -4)
        header, *rows = out.read_text().splitlines()
        assert header == "system,char,op_constant,ratio,exact_floor" and len(rows) == 3
        for i, row in enumerate(rows):
            want = necessity_by_probe(random_weights(rng, unit_root(1), 4), cp, family,
                                      seed=7 + i)
            system, char, op, ratio, floor = row.split(",")
            assert (int(system), int(floor)) == (i, int(want.exact_floor_ok))
            assert float(char) == pytest.approx(want.char_value, rel=1e-12)
            assert float(op) == pytest.approx(want.op_constant, rel=1e-12)
            assert float(ratio) == pytest.approx(want.ratio, rel=1e-12)

    def test_fs_dual_verdict_file(self, tmp_path, capsys):
        out = tmp_path / "fs.txt"
        rc = main(["experiment", "fs-dual", "--alpha", "1/2", "--q1", "9/8",
                   "--q2", "9/8", "--p", "16/27", "--s", "4/5",
                   "--t", "0.759375", "--r", "16", "--a", "17/16",
                   "--r1", "32", "--r2", "32", "--s1", "17/19", "--s2", "17/19",
                   "--gamma1", "0.05", "--gamma2", "0.02", "--depth", "4",
                   "--levels", "4..5", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("PASS split")
        assert lines[1].startswith("PASS harness")

    @pytest.mark.parametrize("excess,verdict", [(2e-12, "FAIL"), (5e-13, "PASS")])
    def test_fs_dual_split_gate(self, tmp_path, monkeypatch, excess, verdict):
        # the split check's worst ratio fed just past and just inside 1 + 1e-12
        real = experiments.family_max
        monkeypatch.setattr(experiments, "family_max",
                            lambda *args: (1.0 + excess, *real(*args)[1:]))
        out = tmp_path / "fs.txt"
        assert main(["experiment", "fs-dual", *TWO_WEIGHT[:14], "--s", "4/5", "--r1", "32",
                     "--r2", "32", "--s1", "17/19", "--s2", "17/19", "--depth", "4",
                     "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == f"{verdict} split worst={fmt(1.0 + excess)}"

    def test_determinism_same_seed_same_bytes(self, tmp_path):
        args = ["experiment", "ratio", "--theorem", "linear-adams",
                "--alpha", "0.5", "--p1", "1.5", "--q1", "1.2",
                "--s", "6", "--t", "4.8", "--pairs", "step:2",
                "--levels", "4..5", "--seed", "99"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestSelftestCommand:
    def test_subset_runs_and_reports(self, tmp_path, capsys):
        rc = main(["selftest", "--criteria", "1,8", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "criterion-01 quadrature-closed-form: PASS" in out
        assert "criterion-08 packing-bound: PASS" in out


def _exit_code(argv) -> int:
    """main's return value, or the code of argparse's SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


RATIO = ["--alpha", "0.3", "--p1", "4", "--q1", "5/2", "--p2", "4", "--q2", "5/2",
         "--s", "5", "--t", "25/8"]
TWO_WEIGHT = ["--alpha", "1/2", "--q1", "9/8", "--q2", "9/8", "--p", "16/27",
              "--t", "0.759375", "--r", "16", "--a", "17/16", "--beta", "0.0225",
              "--gamma1", "0.02", "--gamma2", "0.02", "--depth", "4"]
TESTING = ["--alpha", "1/2", "--q1", "4", "--q2", "4", "--p", "5/2", "--s", "20/3",
           "--t", "16/3", "--r", "4", "--a", "2"]
STEIN_WEISS = ["--alpha", "1/2", "--q1", "9/8", "--q2", "9/8", "--p1", "32/27",
               "--p2", "32/27", "--r", "16", "--a", "17/16", "--gamma1", "0.02",
               "--gamma2", "0.02"]
SHARPNESS = ["--alpha", "0.3", "--p1", "4", "--p2", "4", "--q1", "2", "--q2", "2",
             "--t", "5"]


def _with_overflow_files(tmp_path, argv):
    """``argv`` with BIG, HUGE, TINY, V, W and FAR replaced by MGF files of
    finite weights or data whose suprema overflow; FAR sits on the root of
    level 100, so powers of its cube volumes overflow."""
    big = np.ones(16)
    big[5] = 1e200  # |f|**2 overflows
    files = {"BIG": big, "HUGE": np.full(16, 1.5e308), "TINY": np.full(16, 1e-300),
             "V": np.full(4, 1e308), "W": np.full(4, 1e-308)}
    for name, values in files.items():
        write_step(tmp_path / name, values, flags="pos")
    write_mgf(tmp_path / "FAR", GridFunction(DyadicCube(100, (0,)), [1e300, 1e300], "pos"))
    return [str(tmp_path / a) if a in (*files, "FAR") else a for a in argv]


class TestExitContract:
    """Missing flags, malformed or empty ranges, empty selections and bad
    paths exit 2 and name the flag or the path; none ends in a traceback."""

    @pytest.mark.parametrize("argv,flag", [
        pytest.param(["norm", "--kind", "morrey", "--in", "F"], "--p", id="norm-no-p-q"),
        pytest.param(["norm", "--kind", "morrey", "--p", "2", "--in", "F"], "--q",
                     id="norm-no-q"),
        pytest.param(["experiment", "sharpness", *SHARPNESS, "--deltas", "8..4", "--out", "O"],
                     "--deltas", id="reversed-deltas"),
        pytest.param(["experiment", "ratio", *RATIO, "--pairs", "step:x", "--out", "O"],
                     "--pairs", id="bad-pair-count"),
        pytest.param(["experiment", "ratio", *RATIO, "--levels", "4..", "--out", "O"],
                     "--levels", id="open-levels"),
        pytest.param(["experiment", "ratio", *RATIO, "--levels", "", "--out", "O"],
                     "--levels", id="empty-levels"),
        pytest.param(["experiment", "necessity", *TESTING, "--systems", "0", "--out", "O"],
                     "--systems", id="no-systems"),
        pytest.param(["experiment", "ratio", "--theorem", "two-weight", *TWO_WEIGHT,
                      "--out", "O"], "--s", id="ratio-two-weight-no-s"),
        pytest.param(["experiment", "stein-weiss", *STEIN_WEISS, "--out", "O"], "--beta",
                     id="stein-weiss-no-beta"),
        pytest.param(["char", "--kind", "two-weight", *TWO_WEIGHT], "--s",
                     id="char-two-weight-no-s"),
        pytest.param(["selftest", "--criteria", "99"], "--criteria", id="unknown-criterion"),
        pytest.param(["selftest", "--criteria", ""], "--criteria", id="empty-criteria"),
        pytest.param(["experiment", "ratio", "--out", "O"], "--alpha", id="ratio-no-exponents"),
        pytest.param(["experiment", "ratio", *RATIO, "--q", "7", "--out", "O"], "--q",
                     id="experiment-has-no-q"),
        pytest.param(["experiment", "ratio", "--alph", "0.3", *RATIO[2:], "--out", "O"],
                     "--alph", id="no-flag-prefixes"),
        pytest.param(["char", "--kind", "two-weight", *TWO_WEIGHT, "--s", "4/5", "--q1", "0"],
                     "--q1", id="zero-exponent"),
        pytest.param(["char", "--kind", "testing", *TESTING, "--beta", "0", "--gamma1", "0",
                      "--gamma2", "0", "--rootcoords", "x"], "--rootcoords",
                     id="malformed-rootcoords"),
        pytest.param(["char", "--kind", "testing", *TESTING, "--beta", "0", "--gamma1", "0",
                      "--gamma2", "0", "--center", "0;1"], "--center", id="malformed-center"),
        pytest.param(["norm", "--kind", "morrey", "--p", "2", "--q", "1", "--in", "F",
                      "--min-level", "-4"], "--min-level", id="min-level-below-cells"),
        pytest.param(["char", "--kind", "ap", "--p", "2", "--v", "F", "--min-level", "1"],
                     "--min-level", id="min-level-above-root"),
        pytest.param(["op", "--operator", "b-alpha", "--alpha", "1/2", "--f", "F", "--g", "",
                      "--out", "O"], "--g", id="empty-g-path"),
        # a partial set of weight files is refused, never dropped for the power weights
        pytest.param(["char", "--kind", "two-weight", *TWO_WEIGHT, "--s", "4/5", "--v", "F",
                      "--w1", "F"], "missing --w2", id="char-no-w2-file"),
        pytest.param(["char", "--kind", "testing", *TESTING, "--beta", "0", "--gamma1", "0",
                      "--gamma2", "0", "--w1", "F"], "missing --v --w2", id="char-only-w1-file"),
        pytest.param(["experiment", "ratio", "--theorem", "two-weight", *TWO_WEIGHT, "--s", "4/5",
                      "--w2", "F", "--out", "O"], "missing --v --w1", id="ratio-only-w2-file"),
        pytest.param(["experiment", "fs-dual", *TWO_WEIGHT[:14], "--s", "4/5", "--r1", "32",
                      "--r2", "32", "--s1", "17/19", "--s2", "17/19", "--w1", "F",
                      "--levels", "5..6", "--out", "O"], "missing --w2", id="fs-dual-no-w2-file"),
        # a flag's parser names its reason, not argparse's "invalid ... value"
        pytest.param(["norm", "--kind", "weak", "--p", "0", "--in", "F"],
                     "argument --p: exponent '0' is not positive", id="zero-p-reason"),
        pytest.param(["experiment", "ratio", *RATIO, "--pairs", "step:0", "--out", "O"],
                     "argument --pairs: pair counts must be positive integers in 'step:0'",
                     id="zero-pair-count-reason"),
        pytest.param(["selftest", "--criteria", "1..x"],
                     "argument --criteria: cannot parse range '1..x'", id="criteria-reason"),
        pytest.param(["op", "--operator", "i-alpha", "--alpha=nan", "--f", "F", "--out", "O"],
                     "argument --alpha: cannot parse number 'nan'", id="nan-alpha"),
        pytest.param(["op", "--operator", "i-alpha", "--alpha=-inf", "--f", "F", "--out", "O"],
                     "argument --alpha: cannot parse number '-inf'", id="minus-inf-alpha"),
    ])
    def test_refused_with_exit_2_naming_the_flag(self, tmp_path, capsys, argv, flag):
        path = tmp_path / "f.mgf"
        write_step(path, np.ones(8), flags="pos")
        argv = [str(path) if a == "F" else str(tmp_path / "o") if a == "O" else a
                for a in argv]
        assert _exit_code(argv) == 2
        err = capsys.readouterr().err
        assert flag in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()  # refused before any output

    @pytest.mark.parametrize("argv,refusal", [
        pytest.param(["experiment", "ratio", "--theorem", "bilinear-ratio", *RATIO, "--pairs",
                      "step:1", "--levels", "4..5", "--beta", "0.1", "--r", "16", "--v", "NONE",
                      "--out", "O"],
                     "experiment ratio --theorem bilinear-ratio does not read --beta --r --v",
                     id="ratio-unweighted-weight-flags"),
        pytest.param(["experiment", "sharpness", *SHARPNESS, "--deltas", "4..5", "--v", "NONE",
                      "--seed", "3", "--levels", "9", "--out", "O"],
                     "experiment sharpness does not read --v --seed --levels",
                     id="sharpness-weight-file"),
        pytest.param(["experiment", "stein-weiss", *STEIN_WEISS, "--beta", "0.0225", "--k-range",
                      "0..1", "--json", "--v", "NONE", "--out", "O"],
                     "experiment stein-weiss does not read --json --v", id="stein-weiss-json"),
        pytest.param(["experiment", "necessity", *TESTING, "--systems", "1", "--v", "NONE",
                      "--out", "O"],
                     "experiment necessity does not read --v", id="necessity-weight-file"),
        pytest.param(["op", "--operator", "i-alpha", "--alpha", "1/2", "--json", "--d", "3",
                      "--v", "NONE", "--f", "F", "--out", "O"],
                     "unrecognized arguments: --json", id="op-has-no-json"),
        pytest.param(["op", "--operator", "i-alpha", "--alpha", "1/2", "--d", "3",
                      "--v", "NONE", "--f", "F", "--out", "O"],
                     "op --operator i-alpha does not read --d --v", id="i-alpha-d-v"),
        pytest.param(["op", "--operator", "i-alpha", "--alpha", "1/2", "--min-level", "-99",
                      "--f", "F", "--out", "O"],
                     "op --operator i-alpha does not read --min-level", id="i-alpha-min-level"),
        pytest.param(["norm", "--kind", "morrey", "--p", "2", "--q", "1", "--in", "F",
                      "--family", "all", "--min-level", "-1"],
                     "norm --kind morrey --family all does not read --min-level",
                     id="morrey-all-min-level"),
        pytest.param(["norm", "--kind", "lebesgue", "--t", "2", "--in", "F", "--min-level", "-99"],
                     "norm --kind lebesgue does not read --min-level", id="lebesgue-min-level"),
        pytest.param(["char", "--kind", "two-weight", *TWO_WEIGHT, "--s", "4/5",
                      "--out", "O"], "char --kind two-weight does not read --out",
                     id="two-weight-out"),
        pytest.param(["char", "--kind", "fs-majorant", "--r", "inf", "--s", "1/2", "--w1", "F",
                      "--out", "O", "--json"], "char --kind fs-majorant does not read --json",
                     id="fs-majorant-json"),
        pytest.param(["experiment", "fs-dual", *TWO_WEIGHT[:14], "--s", "4/5", "--r1", "32",
                      "--r2", "32", "--s1", "17/19", "--s2", "17/19", "--beta", "0.0225",
                      "--out", "O"], "experiment fs-dual does not read --beta",
                     id="fs-dual-beta"),
        pytest.param(["char", "--kind", "ap", "--p", "2", "--w1", "F", "--beta", "0",
                      "--gamma1", "0", "--gamma2", "0"],
                     "char --kind ap does not read --w1 --beta --gamma1 --gamma2 "
                     "(it reads --v --p --min-level --json)", id="ap-reads-v"),
    ])
    def test_flags_the_run_would_ignore_exit_2(self, tmp_path, capsys, argv, refusal):
        # each of these once exited 0 and dropped the flags it did not read,
        # a path that does not exist included; the refusal comes before any file
        path = tmp_path / "f.mgf"
        write_step(path, np.ones(16), flags="pos")
        argv = [str(path) if a == "F" else str(tmp_path / a) if a in ("O", "NONE") else a
                for a in argv]
        assert _exit_code(argv) == 2
        std = capsys.readouterr()
        assert std.out == "" and not (tmp_path / "O").exists()
        assert std.err.splitlines()[-1].startswith(f"parameter error: {refusal}")

    @pytest.mark.parametrize("coords", ["0", "5"])
    @pytest.mark.parametrize("argv", [
        pytest.param(["cz", "--f", "F", "--g", "F", "--out", "O"], id="cz"),
        pytest.param(["op", "--operator", "b-dyadic", "--alpha", "1/2", "--f", "F", "--g", "F",
                      "--out", "O"], id="b-dyadic"),
    ])
    def test_rootcoords_without_rootlevel_exit_2(self, tmp_path, capsys, argv, coords):
        # without --rootlevel these ran on the file's root and dropped the
        # coordinates, exit 0; with --rootlevel 0 the cube 5 lies outside the root
        path = tmp_path / "f.mgf"
        write_step(path, np.exp(np.linspace(-1.0, 1.0, 16)), flags="pos")
        argv = [str(path) if a == "F" else str(tmp_path / a) if a == "O" else a for a in argv]
        assert _exit_code(argv + ["--rootcoords", coords]) == 2
        assert capsys.readouterr().err == "parameter error: --rootcoords needs --rootlevel\n"
        assert not (tmp_path / "O").exists()
        assert _exit_code(argv + ["--rootlevel", "0", "--rootcoords", coords]) == int(coords) // 5 * 2

    @pytest.mark.parametrize("argv", [
        pytest.param(["cz", "--f", "F", "--g", "F", "--out", "O"], id="cz"),
        pytest.param(["op", "--operator", "b-dyadic", "--alpha", "1/2", "--f", "F", "--g", "F",
                      "--out", "O"], id="b-dyadic"),
    ])
    def test_rootlevel_alone_takes_the_origin_of_the_file(self, tmp_path, capsys, argv):
        # once refused with "--rootcoords: cannot parse coordinates 'None'"
        path, out = tmp_path / "f.mgf", tmp_path / "O"
        write_mgf(path, GridFunction(unit_root(2), np.exp(np.linspace(-1, 1, 64)).reshape(8, 8),
                                     "pos"))
        argv = [str(path) if a == "F" else str(out) if a == "O" else a for a in argv]
        runs = []
        for coords in ([], ["--rootcoords", "0,0"]):
            assert _exit_code(argv + ["--rootlevel", "-1", *coords]) == 0
            runs.append((capsys.readouterr(), out.read_text()))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("argv,message", [
        pytest.param(["char", "--kind", "ap", "--p", "2"], "missing --v", id="ap"),
        pytest.param(["char", "--kind", "fs-majorant", "--r", "inf", "--s", "1/2", "--out", "O"],
                     "missing --w1", id="fs-majorant"),
    ])
    def test_one_file_characteristics_require_their_file(self, tmp_path, capsys, argv, message):
        # ap and fs-majorant once fell back to the synthetic weight system's w1
        argv = [str(tmp_path / a) if a == "O" else a for a in argv]
        assert _exit_code(argv) == 2
        assert capsys.readouterr().err == f"parameter error: {message}\n"
        assert not (tmp_path / "O").exists()

    @pytest.mark.parametrize("extra", [
        pytest.param([], id="default-depth"),
        pytest.param(["--rootlevel", "1", "--depth", "4"], id="other-root"),
    ])
    def test_weights_off_the_pairs_grid_exit_2(self, tmp_path, capsys, extra):
        # the pairs sit on the unit root at levels 4..6; weights of depth 5, or
        # on the root of level 1, are refused before any output
        out = tmp_path / "o"
        argv = ["experiment", "ratio", "--theorem", "two-weight", *TWO_WEIGHT[:-2],
                "--s", "4/5", *extra, "--out", str(out)]
        assert _exit_code(argv) == 2
        err = capsys.readouterr().err
        assert "weights on root" in err and "levels (4, 5, 6)" in err
        assert "Traceback" not in err and not out.exists()

    def test_overflowing_triple_products_exit_3(self, tmp_path, capsys):
        path, out = tmp_path / "f.mgf", tmp_path / "o"
        write_step(path, np.full(16, 1e200), flags="pos")
        assert _exit_code(["cz", "--f", str(path), "--g", str(path), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "numerical failure: triple-average products overflowed to a non-finite value\n")
        assert not out.exists()

    @pytest.mark.parametrize("extra", [pytest.param([], id="chosen-a"),
                                       pytest.param(["--a", "1e200"], id="given-a")])
    def test_products_near_the_float_limit_decompose(self, tmp_path, capsys, extra):
        # finite products near 1e300: thresholds past the float range select nothing
        path, out = tmp_path / "f.mgf", tmp_path / "o"
        write_step(path, np.full(16, 1e150), flags="pos")
        assert _exit_code(["cz", "--f", str(path), "--g", str(path), "--out", str(out),
                           *extra]) == 0
        assert capsys.readouterr().err == "" and out.exists()

    @pytest.mark.parametrize("dim,argv", [
        pytest.param(2, ["cz", "--rootcoords", "1"], id="cz-1d-root-on-2d"),
        pytest.param(2, ["op", "--operator", "b-dyadic", "--alpha", "1/2", "--rootcoords", "1"],
                     id="b-dyadic-1d-root-on-2d"),
        pytest.param(1, ["cz", "--rootcoords", "0,1"], id="cz-2d-root-on-1d"),
    ])
    def test_root_of_another_dimension_exits_2(self, tmp_path, capsys, dim, argv):
        # once a ValueError traceback (cz, 2D), or exit 0 on a root cut down
        # to the grid's dimension (b-dyadic, 2D; cz, 1D)
        path, out = tmp_path / "f.mgf", tmp_path / "o"
        write_mgf(path, GridFunction(unit_root(dim), np.ones((8,) * dim), "pos"))
        argv = [*argv[:1], "--f", str(path), "--g", str(path), *argv[1:],
                "--rootlevel", "-1", "--out", str(out)]
        assert _exit_code(argv) == 2
        other = len(argv[argv.index("--rootcoords") + 1].split(","))
        assert capsys.readouterr().err == (
            f"parameter error: cube of dimension {other} does not fit a {dim}D grid\n")
        assert not out.exists()

    @pytest.mark.parametrize("n,dim,argv", [
        pytest.param(1, 2, ["char", "--kind", "two-weight", *TWO_WEIGHT[:14], "--s", "4/5"],
                     id="char-two-weight-n1-on-2d"),
        pytest.param(1, 2, ["char", "--kind", "testing", *TESTING], id="char-testing-n1-on-2d"),
        pytest.param(2, 1, ["char", "--kind", "remark", "--dim", "2", *TWO_WEIGHT[:14],
                            "--s", "4/5"], id="char-remark-n2-on-1d"),
        pytest.param(1, 2, ["experiment", "fs-dual", *TWO_WEIGHT[:14], "--s", "4/5", "--r1", "32",
                            "--r2", "32", "--s1", "17/19", "--s2", "17/19", "--levels", "3..4",
                            "--out", "O"], id="fs-dual-n1-on-2d"),
    ])
    def test_parameters_for_another_dimension_exit_2(self, tmp_path, capsys, n, dim, argv):
        # the exponents were checked for --dim (default 1) and then computed
        # on the weight files' grid: char two-weight on 8x8 files printed a
        # value with exit 0
        path, out = tmp_path / "w.mgf", tmp_path / "o"
        write_mgf(path, GridFunction(unit_root(dim), np.ones((8,) * dim), "pos"))
        argv = [str(out) if a == "O" else a for a in argv]
        files = ("--w1", "--w2") if "fs-dual" in argv else ("--v", "--w1", "--w2")
        assert _exit_code([*argv, *(tok for name in files for tok in (name, str(path)))]) == 2
        std = capsys.readouterr()
        assert std.out == "" and not out.exists()
        assert std.err == f"parameter error: parameters for n={n} do not fit {dim}D data\n"

    @pytest.mark.parametrize("argv,what", [
        pytest.param(["norm", "--kind", "morrey", "--p", "4", "--q", "2", "--in", "BIG"],
                     "supremum", id="norm-morrey-dyadic"),
        pytest.param(["norm", "--kind", "morrey", "--p", "4", "--q", "2", "--in", "BIG",
                      "--family", "all"], "supremum", id="norm-morrey-all"),
        pytest.param(["norm", "--kind", "morrey", "--p", "1/16", "--q", "1/16", "--in", "FAR"],
                     "supremum", id="norm-morrey-root-power"),
        pytest.param(["norm", "--kind", "morrey", "--p", "1/16", "--q", "1/16", "--in", "FAR",
                      "--family", "all"], "supremum", id="norm-morrey-all-root-power"),
        pytest.param(["norm", "--kind", "lebesgue", "--t", "2", "--in", "BIG"],
                     "norm", id="norm-lebesgue"),
        pytest.param(["norm", "--kind", "lebesgue", "--t", "1/2", "--in", "FAR"],
                     "norm", id="norm-lebesgue-root-power"),
        pytest.param(["norm", "--kind", "weak", "--p", "1/2", "--in", "FAR"],
                     "norm", id="norm-weak"),
        pytest.param(["char", "--kind", "ap", "--p", "2", "--v", "HUGE"], "supremum",
                     id="char-ap"),
        pytest.param(["char", "--kind", "testing", *TESTING, "--v", "HUGE", "--w1", "TINY",
                      "--w2", "TINY"], "supremum", id="char-testing"),
        pytest.param(["char", "--kind", "fs-majorant", "--r", "1/16", "--s", "1/2",
                      "--w1", "FAR", "--out", "O"], "operator output", id="char-fs-majorant"),
    ])
    def test_overflowed_supremum_exits_3(self, tmp_path, capsys, argv, what):
        # finite inputs whose supremum overflows are refused where it is
        # computed, never printed as value=inf; on FAR the norms and the
        # majorant once ended in an OverflowError traceback
        argv = [str(tmp_path / "o") if a == "O" else a for a in argv]
        assert _exit_code(_with_overflow_files(tmp_path, argv)) == 3
        out, err = capsys.readouterr()
        assert out == "" and not (tmp_path / "o").exists()
        assert err == f"numerical failure: {what} overflowed to a non-finite value\n"

    @pytest.mark.parametrize("argv,message", [
        pytest.param(["char", "--kind", "two-weight", *TWO_WEIGHT[:14], "--s", "4/5",
                      "--v", "V", "--w1", "W", "--w2", "W"],
                     "supremum overflowed to a non-finite value", id="char-two-weight"),
        pytest.param(["norm", "--kind", "morrey", "--p", "4", "--q", "2", "--in", "BIG"],
                     "supremum overflowed to a non-finite value", id="norm-morrey"),
    ])
    def test_refusal_is_the_only_stderr_line(self, tmp_path, argv, message):
        # a fresh interpreter, so numpy's RuntimeWarnings would reach stderr
        # rather than pytest's warning capture
        src = str(Path(morreybench.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, "-m", "morreybench.cli",
                              *_with_overflow_files(tmp_path, argv)],
                             env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 3
        assert run.stderr == f"numerical failure: {message}\n"

    @pytest.mark.parametrize("weight,message", [
        pytest.param(1e-300, "zero right side with nonzero left side for pair step-0",
                     id="1e-300"),
        pytest.param(1e300, "supremum overflowed to a non-finite value", id="1e+300")])
    def test_overflowing_harness_sides_exit_3(self, tmp_path, capsys, weight, message):
        # constant weights of 1e-300 underflow the pair supremum to zero (they
        # overflowed the characteristic while its dual factors were multiplied
        # before v), of 1e300 overflow it: refused, where rhs=nan was once
        # written with exit 0
        write_step(tmp_path / "w", np.full(16, weight), flags="pos")
        out = tmp_path / "o.csv"
        argv = ["experiment", "ratio", "--theorem", "two-weight", *TWO_WEIGHT[:14],
                "--s", "4/5", "--v", str(tmp_path / "w"), "--w1", str(tmp_path / "w"),
                "--w2", str(tmp_path / "w"), "--out", str(out)]
        assert _exit_code(argv) == 3
        std = capsys.readouterr()
        assert std.out == "" and not out.exists()
        assert std.err == f"numerical failure: {message}\n"

    @pytest.mark.parametrize("weights,named", [
        pytest.param([], "at depth 5 and w2 on root DyadicCube(level=0, coords=(0,)) at depth 5 "
                     "do not fit levels (4, 5, 6)", id="default-depth"),
        pytest.param(["--w1", "W4", "--w2", "W5", "--levels", "5..6"],
                     "at depth 4 and w2 on root DyadicCube(level=0, coords=(0,)) at depth 5 "
                     "do not fit levels (5, 6)", id="mixed-depths"),
    ])
    def test_fs_dual_weights_off_the_levels_exit_2(self, tmp_path, capsys, weights, named):
        # synthetic weights at the default depth 5 do not fit the default
        # levels 4..6, and weights of depths 4 and 5 share no grid: both are
        # refused before any work, naming the weights' depths and the levels
        for name, depth in (("W4", 4), ("W5", 5)):
            write_step(tmp_path / name, np.ones(2 ** depth), flags="pos")
        out = tmp_path / "o"
        argv = ["experiment", "fs-dual", *TWO_WEIGHT[:14], "--s", "4/5", "--r1", "32",
                "--r2", "32", "--s1", "17/19", "--s2", "17/19", "--gamma1", "0.05",
                "--gamma2", "0.02", *weights, "--out", str(out)]
        argv = [str(tmp_path / a) if a in ("W4", "W5") else a for a in argv]
        assert _exit_code(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("parameter error: weights w1 on root") and named in err
        assert "Traceback" not in err and not out.exists()

    def test_power_weight_out_of_float_range_exits_3(self, tmp_path, capsys):
        # beta = -60 makes the probe weight |x|**255, whose first cell average
        # underflows to 0: once the exit-2 "nonpositive cells" of a weight
        out = tmp_path / "o"
        argv = ["experiment", "stein-weiss", *STEIN_WEISS, "--beta=-60", "--out", str(out)]
        assert _exit_code(argv) == 3
        err = capsys.readouterr().err  # the exponent is -beta * 4.25, rounded
        assert err.startswith("numerical failure: |x|**(255.0") and err.endswith(
            ") leaves the float range on this grid\n")
        assert not out.exists()

    @pytest.mark.parametrize("grid,argv", [
        pytest.param("dim=1 rootlevel=1100 rootcoords=0", ["norm", "--kind", "lebesgue", "--t", "2"],
                     id="norm-root-1100"),
        pytest.param("dim=2 rootlevel=600 rootcoords=0,0", ["norm", "--kind", "lebesgue", "--t", "2"],
                     id="norm-2d-root-600"),
        pytest.param("dim=1 rootlevel=-1100 rootcoords=0", ["norm", "--kind", "lebesgue", "--t", "2"],
                     id="norm-root-minus-1100"),
        pytest.param("dim=1 rootlevel=-1100 rootcoords=0",
                     ["norm", "--kind", "morrey", "--p", "2", "--q", "1"], id="morrey-root-minus-1100"),
        pytest.param(None, ["char", "--kind", "testing", *TESTING, "--beta", "0", "--gamma1", "0",
                            "--gamma2", "0", "--depth", "4", "--rootlevel", "1100"],
                     id="char-root-1100"),
        pytest.param(None, ["char", "--kind", "testing", *TESTING, "--beta", "0", "--gamma1", "0",
                            "--gamma2", "0", "--depth", "4", "--rootlevel", "-1100"],
                     id="char-root-minus-1100"),
    ])
    def test_root_level_outside_float_range_exits_2(self, tmp_path, capsys, grid, argv):
        # cell sides or volumes past the float range once ended in an
        # OverflowError traceback, or printed value=0.0 side=0.0 with exit 0
        if grid is not None:
            path = tmp_path / "far.mgf"
            cells = 4 if "dim=2" in grid else 2
            path.write_text(f"MGF 1 {grid} depth=1 flags=pos\n" + "1.0\n" * cells)
            argv = [*argv, "--in", str(path)]
        assert _exit_code(argv) == 2
        std = capsys.readouterr()
        assert std.out == "" and "Traceback" not in std.err
        assert std.err.startswith("parameter error: grid of root level ")
        assert " leaves the float range: " in std.err

    @pytest.mark.parametrize("body,message", [
        pytest.param("flags=pos\n1.0\nnan\n", "grid values must be finite (no nan or inf)",
                     id="nan-under-pos"),
        pytest.param("flags=pos\n1.0\n2.0\n3.0\n", "MGF/1 file has content after its 2 values",
                     id="trailing-line"),
        pytest.param("flags=pos\n1.0\nabc\n", "MGF/1 value 1 is not a number: 'abc'",
                     id="not-a-number"),
        pytest.param("flags=foo\n1.0\n2.0\n",
                     "flags must be one of ('none', 'nonneg', 'pos')", id="unknown-flags"),
        pytest.param("flags=pos\n1.0\n0.0\n", "pos grid function has nonpositive cells",
                     id="zero-under-pos"),
        pytest.param("flags=nonneg\n1.0\n-1.0\n", "nonneg grid function has negative cells",
                     id="negative-under-nonneg"),
        pytest.param("flags=pos x\n1.0\n2.0\n", "not an MGF/1 header: 'MGF 1 dim=1 rootlevel=0 "
                     "rootcoords=0 depth=1 flags=pos x'", id="eighth-header-token"),
    ])
    def test_bad_mgf_content_refused_with_exit_2(self, tmp_path, capsys, body, message):
        path = tmp_path / "bad.mgf"
        path.write_text("MGF 1 dim=1 rootlevel=0 rootcoords=0 depth=1 " + body)
        assert _exit_code(["norm", "--kind", "lebesgue", "--t", "2", "--in", str(path)]) == 2
        assert capsys.readouterr().err == f"parameter error: {message}\n"

    @pytest.mark.parametrize("grid,message", [
        pytest.param("dim=1 rootcoords=0 depth=60", "truncated at value 1", id="depth-60"),
        pytest.param("dim=2 rootcoords=0,0 depth=60", "truncated at value 1", id="depth-60-2d"),
        pytest.param("dim=1 rootcoords=0 depth=-1", "malformed MGF/1 header", id="negative-depth"),
        pytest.param("dim=-1 rootcoords=0 depth=1", "malformed MGF/1 header", id="negative-dim"),
        pytest.param("dim=1 rootcoords=0,0 depth=0", "malformed MGF/1 header", id="2d-root-dim-1"),
        pytest.param("dim=2 rootcoords=0 depth=0", "malformed MGF/1 header", id="1d-root-dim-2"),
        pytest.param("dim=3 rootcoords=0,0,0 depth=0", "dim must be 1 or 2, got 3", id="dim-3"),
    ])
    def test_impossible_mgf_header_refused_with_exit_2(self, tmp_path, capsys, grid, message):
        # a header asking for more values than the file holds is refused
        # before any buffer of that size exists; a negative depth, or a
        # dimension other than the root's, is a malformed header
        path = tmp_path / "bad.mgf"
        dim, coords, depth = grid.split()
        path.write_text(f"MGF 1 {dim} rootlevel=0 {coords} {depth} flags=pos\n1.0\n")
        assert _exit_code(["norm", "--kind", "lebesgue", "--t", "2", "--in", str(path)]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("argv,relations", [
        pytest.param(["char", "--kind", "two-weight", "--alpha", "2", *TWO_WEIGHT[2:], "--s", "4/5"],
                     ["0 < alpha < n"], id="alpha-alone"),
        pytest.param(["experiment", "sharpness", "--dim", "2", *SHARPNESS, "--deltas", "2",
                      "--out", "O"], ["sharpness harness is one-dimensional", "0 < t <= s",
                                      "a slope needs at least two distinct deltas"],
                     id="sharpness-2d"),
        pytest.param(["experiment", "sharpness", *SHARPNESS, "--deltas", "4..4", "--out", "O"],
                     ["a slope needs at least two distinct deltas"], id="sharpness-one-delta"),
        pytest.param(["char", "--kind", "remark", "--alpha", "5", *TWO_WEIGHT[2:], "--s", "4/5"],
                     ["0 < alpha < n"], id="remark-alpha"),
        pytest.param(["char", "--kind", "testing", "--alpha", "5", *TWO_WEIGHT[2:8],
                      "--t", "1/3", *TWO_WEIGHT[10:], "--s", "4/5"],
                     ["0 <= alpha < n", "1 <= t <= s", "t/s = q/p",
                      "1/s = 1/p + 1/r - alpha/n"], id="testing-alpha"),
    ])
    def test_failed_relations_named(self, tmp_path, capsys, argv, relations):
        # a failing 0 < alpha < n is named alone, since the relations after
        # it divide by alpha (the testing set's 0 <= alpha < n does not end
        # the list); a sharpness refusal names every failed relation
        argv = [str(tmp_path / "o") if a == "O" else a for a in argv]
        assert _exit_code(argv) == 2
        err = capsys.readouterr().err
        assert err.rstrip("\n").split(": ", 2)[2].split("; ") == relations
        assert not (tmp_path / "o").exists()


S_ABOVE_1 = ["--alpha", "1/2", "--q1", "9/8", "--q2", "9/8", "--p", "1", "--s", "16/9",
             "--t", "1", "--r", "16", "--a", "17/16"]
ONE_WEIGHT_BELOW_1 = ["--alpha", "1/2", "--q1", "9/8", "--q2", "9/8", "--p", "3/5",
                      "--s", "6/7", "--t", "45/56", "--r", "inf", "--a", "17/16"]
ONE_WEIGHT_ABOVE_1 = ["--alpha", "1/4", "--q1", "6/5", "--q2", "6/5", "--p", "1",
                      "--s", "4/3", "--t", "4/5", "--r", "inf", "--a", "11/10"]
POWER = TWO_WEIGHT[14:]
FILES = ["--v", "V", "--w1", "W", "--w2", "W"]
RATIO_OUT = ["--pairs", "step:2", "--levels", "4..5", "--out", "O"]
Q1_INF = ["--alpha", "1/10", "--q1", "inf", "--q2", "4", "--p", "5", "--s", "10", "--t", "8",
          "--r", "inf", "--a", "2"]
TWO_WEIGHT_2D = ["--dim", "2", "--alpha", "1", *TWO_WEIGHT[2:14], "--s", "4/5"]

# name -> (argv, exit code, stderr, stdout up to " inner: " or " -> "): the
# characteristics on both sides of s = 1, every harness that checks a
# parameter set, the kernel exponent refusals, and bad input refused by the
# check where it enters; F5 is a grid of depth 5, ZERO and NEG have a zero
# and a negative cell, NIL is all zero and TINY all 1e-300
PARAMETER_RUNS = {
    "char-two-weight-s<1": (
        ["char", "--kind", "two-weight", *TWO_WEIGHT, "--s", "4/5"],
        0, "", "two-weight value=1.0737973782824886 pairs=129"),
    "char-two-weight-s>=1": (
        ["char", "--kind", "two-weight", *S_ABOVE_1, *POWER],
        0, "", "two-weight value=4.2114094423741015 pairs=129"),
    "char-remark-s<1": (
        ["char", "--kind", "remark", *TWO_WEIGHT, "--s", "4/5"],
        0, "", "remark value=1.0740992380013472 pairs=31"),
    "char-remark-s>=1": (
        ["char", "--kind", "remark", *S_ABOVE_1, *POWER],
        2, "parameter error: invalid parameters: s < 1\n", ""),
    "char-one-weight-s<1": (
        ["char", "--kind", "one-weight", *ONE_WEIGHT_BELOW_1, *FILES],
        0, "", "one-weight value=1.0 pairs=129"),
    "char-one-weight-s>=1": (
        ["char", "--kind", "one-weight", *ONE_WEIGHT_ABOVE_1, *FILES],
        0, "", "one-weight value=2.416178888808895 pairs=129"),
    "char-testing-s<1": (
        ["char", "--kind", "testing", *TWO_WEIGHT, "--s", "4/5"],
        2, "parameter error: invalid parameters: 1 <= t <= s\n", ""),
    "char-testing-s>=1": (
        ["char", "--kind", "testing", *TESTING, "--beta", "0", "--gamma1", "0",
         "--gamma2", "0", "--depth", "4"],
        0, "", "testing value=1.0 pairs=31"),
    "ratio-two-weight-s<1": (
        ["experiment", "ratio", "--theorem", "two-weight", *TWO_WEIGHT, "--s", "4/5",
         *RATIO_OUT],
        0, "", "ratio two-weight max_by_level=4:1.6843803654977334 5:1.6713590629541717 "
               "stable=yes"),
    "ratio-two-weight-s>=1": (
        ["experiment", "ratio", "--theorem", "two-weight", *S_ABOVE_1, *POWER, *RATIO_OUT],
        0, "", "ratio two-weight max_by_level=4:0.6576753993973987 5:0.4022365299515269 "
               "stable=yes"),
    "ratio-one-weight-s<1": (
        ["experiment", "ratio", "--theorem", "one-weight", *ONE_WEIGHT_BELOW_1, *FILES,
         *RATIO_OUT],
        0, "", "ratio one-weight max_by_level=4:1.7631635081827541 5:1.7361056718817611 "
               "stable=yes"),
    "ratio-one-weight-s>=1": (
        ["experiment", "ratio", "--theorem", "one-weight", *ONE_WEIGHT_ABOVE_1, *FILES,
         *RATIO_OUT],
        0, "", "ratio one-weight max_by_level=4:2.508816928946929 5:1.799065281601136 "
               "stable=yes"),
    "ratio-olsen": (
        ["experiment", "ratio", "--theorem", "olsen", *TWO_WEIGHT, "--s", "4/5", *RATIO_OUT],
        0, "", "ratio olsen max_by_level=4:1.700763703641059 5:1.6876157477554092 stable=yes"),
    "ratio-bilinear": (
        ["experiment", "ratio", "--theorem", "bilinear-ratio", *RATIO, *RATIO_OUT],
        0, "", "ratio bilinear-ratio max_by_level=4:4.920126762368063 5:4.28261334616087 "
               "stable=yes"),
    "ratio-unknown-id": (
        ["experiment", "ratio", "--theorem", "nope", *RATIO, *RATIO_OUT],
        2, "parameter error: hypotheses of nope violated: unknown theorem id 'nope'\n", ""),
    "fs-dual": (
        ["experiment", "fs-dual", *TWO_WEIGHT[:14], "--s", "4/5", "--r1", "32", "--r2", "32",
         "--s1", "17/19", "--s2", "17/19", "--gamma1", "0.05", "--gamma2", "0.02",
         "--depth", "4", "--out", "O"],
        0, "", "fs-dual PASS"),
    "necessity": (
        ["experiment", "necessity", *TESTING, "--systems", "1", "--base-depth", "3",
         "--out", "O"],
        0, "", "necessity C_emp=1.4142135623730958 PASS"),
    "sharpness": (
        ["experiment", "sharpness", *SHARPNESS, "--deltas", "4..5", "--out", "O"],
        0, "", "sharpness (blow-up) slope=-0.01660722169304294 bound=-0.1 floors=ok"),
    "stein-weiss": (
        ["experiment", "stein-weiss", *STEIN_WEISS, "--beta", "0.0225", "--k-range", "0..1",
         "--out", "O"],
        0, "", "stein-weiss verdict=FINITE"),
    "op-i-alpha-bad-alpha": (
        ["op", "--operator", "i-alpha", "--alpha", "1", "--f", "F", "--out", "O"],
        2, "parameter error: kernel exponent must satisfy 0 < alpha < n, got alpha=1.0 n=1\n",
        ""),
    "op-b-dyadic-bad-alpha": (
        ["op", "--operator", "b-dyadic", "--alpha", "0", "--f", "F", "--g", "F", "--out", "O"],
        2, "parameter error: kernel exponent must satisfy 0 < alpha < n, got alpha=0.0 n=1\n",
        ""),
    "op-b-alpha-two-grids": (
        ["op", "--operator", "b-alpha", "--alpha", "1/2", "--f", "V", "--g", "F5", "--out", "O"],
        2, "parameter error: operands must live on a common grid\n", ""),
    "op-m-bilinear-bad-alpha": (
        ["op", "--operator", "m-bilinear", "--alpha", "2", "--f", "V", "--g", "V", "--out", "O"],
        2, "parameter error: maximal exponent must satisfy 0 <= alpha < n, got 2.0\n", ""),
    "op-m-tilde-bad-t": (
        ["op", "--operator", "m-tilde", "--alpha", "1/2", "--t", "2", "--f", "V", "--g", "V",
         "--v", "V", "--out", "O"],
        2, "parameter error: weight exponent t must lie in (0, 1], got 2.0\n", ""),
    "op-m-tilde-zero-weight": (
        ["op", "--operator", "m-tilde", "--alpha", "1/2", "--t", "1/2", "--f", "V", "--g", "V",
         "--v", "ZERO", "--out", "O"],
        2, "parameter error: weight must be strictly positive\n", ""),
    "op-m-triple-negative": (
        ["op", "--operator", "m-triple", "--f", "NEG", "--g", "V", "--out", "O"],
        2, "parameter error: triple maximal expects nonnegative inputs\n", ""),
    "op-b-dyadic-min-level-above-q0": (
        ["op", "--operator", "b-dyadic", "--alpha", "1/2", "--f", "V", "--g", "V",
         "--rootlevel", "-2", "--rootcoords", "0", "--min-level", "-1", "--out", "O"],
        2, "parameter error: min_level must lie between the cell level and Q0\n", ""),
    "cz-negative": (
        ["cz", "--f", "NEG", "--g", "V", "--out", "O"],
        2, "parameter error: decomposition expects nonnegative inputs\n", ""),
    "ratio-negative-seed": (
        ["experiment", "ratio", "--theorem", "bilinear-ratio", *RATIO, "--seed", "-1",
         *RATIO_OUT],
        2, "parameter error: seeds are nonnegative integers, got -1\n", ""),
    "ratio-unknown-pair-kind": (
        ["experiment", "ratio", "--theorem", "bilinear-ratio", *RATIO, "--pairs", "foo",
         "--levels", "4..5", "--out", "O"],
        2, "parameter error: unknown pair kind 'foo'\n", ""),
    "ratio-base-depth-0": (
        ["experiment", "ratio", "--theorem", "bilinear-ratio", *RATIO, "--base-depth", "0",
         *RATIO_OUT],
        2, "parameter error: pair depth must be >= 1, got 0\n", ""),
    "necessity-negative-base-depth": (
        ["experiment", "necessity", *TESTING, "--systems", "1", "--base-depth", "-1",
         "--out", "O"],
        2, "parameter error: min_level exceeds the root level\n", ""),
    "sharpness-triple-off-the-root": (
        ["experiment", "sharpness", *SHARPNESS[:6], "--q1", "1/100", *SHARPNESS[8:],
         "--deltas", "4..5", "--out", "O"],
        3, "numerical failure: cluster triple leaves the unit root\n", ""),
    "stein-weiss-inconclusive": (  # growth 1.0886 per level: neither verdict
        ["experiment", "stein-weiss", *STEIN_WEISS, "--beta", "-0.1", "--out", "O"],
        0, "", "stein-weiss verdict=INCONCLUSIVE"),
    "char-no-weights": (
        ["char", "--kind", "two-weight", *TWO_WEIGHT[:14], "--s", "4/5"],
        2, "parameter error: weights needed: --v/--w1/--w2 files or synthetic "
           "--beta/--gamma1/--gamma2\n", ""),
    "char-zero-weight": (
        ["char", "--kind", "two-weight", *TWO_WEIGHT[:14], "--s", "4/5", "--v", "ZERO",
         "--w1", "W", "--w2", "W"],
        2, "parameter error: weight v must be strictly positive\n", ""),
    "char-weights-on-two-grids": (
        ["char", "--kind", "two-weight", *TWO_WEIGHT[:14], "--s", "4/5", "--v", "V",
         "--w1", "F5", "--w2", "W"],
        2, "parameter error: weights must share one grid\n", ""),
    "char-center-of-another-dimension": (
        ["char", "--kind", "two-weight", *TWO_WEIGHT, "--s", "4/5", "--center", "0,0"],
        2, "parameter error: center dimension mismatch\n", ""),
    "char-negative-depth": (
        ["char", "--kind", "two-weight", *TWO_WEIGHT[:-2], "--depth", "-1", "--s", "4/5"],
        2, "parameter error: depth must be >= 0, got -1\n", ""),
    "char-ap-zero-weight": (
        ["char", "--kind", "ap", "--p", "2", "--v", "ZERO"],
        2, "parameter error: A_p weight must be strictly positive\n", ""),
    "char-fs-majorant-bad-s": (
        ["char", "--kind", "fs-majorant", "--r", "inf", "--s", "2", "--w1", "V", "--out", "O"],
        2, "parameter error: majorant exponent must lie in (0,1), got 2.0\n", ""),
    "char-fs-majorant-zero-weight": (
        ["char", "--kind", "fs-majorant", "--r", "inf", "--s", "1/2", "--w1", "ZERO",
         "--out", "O"],
        2, "parameter error: majorant weight must be strictly positive\n", ""),
    # an infinite exponent that a power or a dual reads: once exit 3 (the
    # dual of q1 = inf is nan), or a value of the wrong quantity with exit 0
    "char-testing-q1-inf": (
        ["char", "--kind", "testing", *Q1_INF, "--beta", "1/10", "--gamma1", "1/10",
         "--gamma2", "1/10"],
        2, "parameter error: invalid parameters: 1 < q1, q2 < inf\n", ""),
    "necessity-q1-inf": (
        ["experiment", "necessity", *Q1_INF, "--out", "O"],
        2, "parameter error: invalid parameters: 1 < q1, q2 < inf\n", ""),
    "char-ap-p-inf": (
        ["char", "--kind", "ap", "--p", "inf", "--v", "V"],
        2, "parameter error: A_p requires 1 < p < inf and p' = p/(p-1) > 1, got p = inf\n",
        ""),
    "char-ap-p-past-2**53": (  # p' rounds to 1, so the power 1 - p' would be 0
        ["char", "--kind", "ap", "--p", "1e16", "--v", "V"],
        2, "parameter error: A_p requires 1 < p < inf and p' = p/(p-1) > 1, got p = 1e+16\n",
        ""),
    "char-ap-p-below-2**53": (  # the largest p of the README's range that still runs
        ["char", "--kind", "ap", "--p", "1e15", "--v", "V"],
        0, "", "ap p=1000000000000000.0 value=1.0 at dyadic level=0 coords=(0,) corner=[0.0] "
        "side=1.0"),
    "norm-lebesgue-t-inf": (
        ["norm", "--kind", "lebesgue", "--t", "inf", "--in", "V"],
        2, "parameter error: Lebesgue exponent needs 0 < t < inf, got inf\n", ""),
    "op-m-vector-r1-inf": (
        ["op", "--operator", "m-vector", "--alpha", "1/2", "--r1", "inf", "--r2", "1",
         "--f", "V", "--g", "V", "--out", "O"],
        2, "parameter error: vector maximal exponents need 0 < r1, r2 < inf\n", ""),
    # input refused, or a branch taken, below the CLI's own checks
    "ratio-levels-below-base-depth": (
        ["experiment", "ratio", "--theorem", "bilinear-ratio", *RATIO, "--pairs", "step:2",
         "--levels", "2..3", "--out", "O"],
        2, "parameter error: refinement level below the pair's base depth\n", ""),
    "ratio-bump-pairs": (
        ["experiment", "ratio", "--theorem", "bilinear-ratio", *RATIO, "--pairs", "bump:2",
         "--levels", "4..5", "--out", "O"],
        0, "", "ratio bilinear-ratio max_by_level=4:4.61702262706097 5:4.551234978936325 "
               "stable=yes"),
    "cz-threshold-base-1": (
        ["cz", "--f", "V", "--g", "V", "--a", "1", "--out", "O"],
        2, "parameter error: threshold base must exceed 1, got 1.0\n", ""),
    "cz-root-of-one-cell": (
        ["cz", "--f", "V", "--g", "V", "--rootlevel", "-4", "--rootcoords", "0", "--out", "O"],
        2, "parameter error: grid cells must be strictly finer than the base cube\n", ""),
    "op-b-dyadic-root-above-the-grid": (
        ["op", "--operator", "b-dyadic", "--alpha", "1/2", "--f", "V", "--g", "V",
         "--rootlevel", "1", "--rootcoords", "0", "--out", "O"],
        2, "parameter error: cube lies outside the grid root\n", ""),
    "char-center-on-a-cell-edge": (
        ["char", "--kind", "two-weight", *TWO_WEIGHT[:14], "--s", "4/5", "--beta", "3/2",
         "--gamma1", "0", "--gamma2", "0", "--center", "1/2"],
        2, "parameter error: cell [0.484375, 0.5) touches the center: |x|**(-1.5) is not "
           "integrable there\n", ""),
    "char-v-of-power-minus-1": (  # the logarithmic cell averages, centre off the grid
        ["char", "--kind", "two-weight", *TWO_WEIGHT[:14], "--s", "4/5", "--beta", "1",
         "--gamma1", "0.02", "--gamma2", "0.02", "--center", "2"],
        0, "", "two-weight value=0.826461226336554 pairs=769"),
    "char-2d-center-at-a-midpoint": (
        ["char", "--kind", "two-weight", *TWO_WEIGHT_2D, "--beta", "1", "--gamma1", "0",
         "--gamma2", "0", "--center", "1/128,1/128"],
        2, "parameter error: a cell midpoint coincides with the center\n", ""),
    "char-2d-center-inside-the-grid": (
        ["char", "--kind", "two-weight", *TWO_WEIGHT_2D, "--beta", "2", "--gamma1", "0",
         "--gamma2", "0", "--center", "1/2,1/2"],
        2, "parameter error: |x|**(-2.0) is not integrable at the center inside the grid\n",
        ""),
    "char-one-weight-v-not-w1-w2": (
        ["char", "--kind", "one-weight", *ONE_WEIGHT_BELOW_1, "--v", "V", "--w1", "V",
         "--w2", "W"],
        2, "parameter error: one-weight system requires v = w1*w2 pointwise\n", ""),
    "sharpness-p2-not-p1": (  # g is not f, so its norm is its own
        ["experiment", "sharpness", *SHARPNESS[:4], "--p2", "5", *SHARPNESS[6:],
         "--deltas", "4..5", "--out", "O"],
        0, "", "sharpness (blow-up) slope=0.03690569599715083 bound=-0.050000000000000024 "
               "floors=ok"),
    "norm-weak-all-zero": (
        ["norm", "--kind", "weak", "--p", "2", "--in", "NIL"],
        0, "", "weak p=2.0 value=0.0"),
    "norm-morrey-all-zero": (
        ["norm", "--kind", "morrey", "--p", "2", "--q", "1", "--family", "all", "--in", "NIL"],
        0, "", "morrey p=2.0 q=1.0 family=all value=0.0 attained at box cells (0,)..(1,)"),
    "norm-morrey-all-tiny": (  # range bounds below the certified range are +inf
        ["norm", "--kind", "morrey", "--p", "2", "--q", "1", "--family", "all", "--in", "TINY"],
        0, "", "morrey p=2.0 q=1.0 family=all value=1.0000000000000004e-300 attained at box "
               "cells (0,)..(16,)"),
}


# valid exponent flags of every theorem id of the ratio harness
RATIO_EXPONENTS = {
    "bilinear-ratio": RATIO,
    "bilinear-sum": [*RATIO[:-2], "--t", "2"],
    "bilinear-critical": ["--alpha", "1/4", "--p1", "4", "--q1", "5/2", "--p2", "3",
                          "--q2", "5/2"],
    "linear-adams": ["--alpha", "1/2", "--p1", "3/2", "--q1", "6/5", "--s", "6", "--t", "24/5"],
    "product-embedding": ["--alpha", "3/5", "--p1", "5/4", "--q1", "5/4", "--p2", "2",
                          "--q2", "2", "--s", "10/7", "--t", "10/7"],
    "two-weight": [*TWO_WEIGHT, "--s", "4/5"],
    "one-weight": [*ONE_WEIGHT_BELOW_1, *FILES],
    "olsen": [*TWO_WEIGHT, "--s", "4/5"],
}


@pytest.mark.parametrize("theorem", sorted(THEOREMS))
def test_ratio_params_id_column_is_the_theorem_id(tmp_path, theorem):
    for key, values in {"V": np.full(16, 4.0), "W": np.full(16, 2.0)}.items():
        write_step(tmp_path / key, values, flags="pos")
    argv = ["experiment", "ratio", "--theorem", theorem, *RATIO_EXPONENTS[theorem], *RATIO_OUT]
    assert main([str(tmp_path / a) if a in ("V", "W", "O") else a for a in argv]) == 0
    header, *rows = [line.split(",") for line in (tmp_path / "O").read_text().splitlines()]
    assert len(rows) == 4 and {row[header.index("params_id")] for row in rows} == {theorem}


@pytest.mark.parametrize("name", PARAMETER_RUNS)
def test_parameter_checks_keep_their_outcome(tmp_path, capsys, name):
    # the exit code, the whole stderr and the printed value of each run
    argv, code, err, head = PARAMETER_RUNS[name]
    files = {"V": np.full(16, 4.0), "W": np.full(16, 2.0), "F": np.ones(8), "F5": np.ones(32),
             "ZERO": np.full(16, 2.0), "NEG": np.ones(16), "NIL": np.zeros(16),
             "TINY": np.full(16, 1e-300)}
    files["ZERO"][3], files["NEG"][5] = 0.0, -1.0
    for key, values in files.items():
        write_step(tmp_path / key, values, flags="pos" if values.min() > 0 else "none")
    argv = [str(tmp_path / a) if a in (*files, "O") else a for a in argv]
    assert _exit_code(argv) == code
    std = capsys.readouterr()
    assert std.err == err
    assert std.out.split(" -> ")[0].split(" inner: ")[0].rstrip("\n") == head


@pytest.mark.parametrize("argv", [
    *(pytest.param(["char", "--kind", kind, *TWO_WEIGHT_2D, *POWER], id=f"char-{kind}")
      for kind in ("two-weight", "remark")),
    pytest.param(["char", "--kind", "one-weight", "--dim", "2", "--alpha", "1",
                  *ONE_WEIGHT_BELOW_1[2:], "--beta", "0", "--gamma1", "0", "--gamma2", "0"],
                 id="char-one-weight"),
    pytest.param(["char", "--kind", "testing", "--dim", "2", "--alpha", "1", *TESTING[2:],
                  *POWER], id="char-testing"),
    pytest.param(["experiment", "fs-dual", *TWO_WEIGHT_2D, "--r1", "32", "--r2", "32",
                  "--s1", "17/19", "--s2", "17/19", "--gamma1", "0.02", "--gamma2", "0.02",
                  "--depth", "3", "--levels", "3..4", "--out", "O"], id="experiment-fs-dual"),
    pytest.param(["experiment", "ratio", "--theorem", "two-weight", *TWO_WEIGHT_2D,
                  *POWER[:-2], "--depth", "3", "--pairs", "step:2", "--base-depth", "3",
                  "--levels", "3..4", "--out", "O"], id="experiment-ratio-two-weight"),
])
def test_synthetic_weights_default_to_the_origin_of_dim(tmp_path, capsys, argv):
    # --rootcoords and --center defaulted to the 1D origin "0", so every
    # one of these runs exited 2 under --dim 2
    out = tmp_path / "O"
    argv = [str(out) if a == "O" else a for a in argv]
    runs = []
    for extra in ([], ["--rootcoords", "0,0", "--center", "0,0"]):
        assert _exit_code(argv + extra) == 0
        runs.append((capsys.readouterr(), out.read_text() if out.exists() else None))
    assert runs[0] == runs[1]
    assert runs[0][0].err == "" and runs[0][0].out


class TestSelftestAgreement:
    def test_ratio_columns_equal_criterion_12_artifact(self, tmp_path):
        # criterion 12's ratio config: bilinear-ratio, step:3, base depth 4, levels 4..5
        from morreybench.acceptance import _deterministic_artifacts
        seed = 20240801
        out = tmp_path / "ratios.csv"
        rc = main(["experiment", "ratio", "--theorem", "bilinear-ratio", *RATIO,
                   "--pairs", "step:3", "--base-depth", "4", "--levels", "4..5",
                   "--seed", str(seed), "--out", str(out)])
        assert rc == 0
        rows = [line.split(",") for line in out.read_text().splitlines()]
        keep = [rows[0].index(c) for c in ("pair_id", "level", "lhs", "rhs")]
        text = "".join(",".join(row[i] for i in keep) + "\n" for row in rows)
        assert text == _deterministic_artifacts(seed)["ratios.csv"]
