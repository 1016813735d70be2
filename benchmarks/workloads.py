"""Seeded inputs and the four op mixes of the benchmark.

An op is one ``morreybench`` command line, run in-process through
``morreybench.cli.main(argv)``.  Each workload is a fixed list of ops that a
pass runs in order.  Inputs come only from the benchmark seed: the seed picks
one of ``VARIANTS`` recorded input sets (``seed % VARIANTS``), every MGF file
of that set is drawn here with numpy's PCG64 generator, and every ``--seed``
flag handed to the program is derived from the same variant.  The MGF/1
writer below is the benchmark's own, so the inputs never depend on the code
under test.
"""

from __future__ import annotations

import os

import numpy as np

VARIANTS = 8

WORKLOADS = ("harness", "fields", "weights-cz", "selftest")

# exponent sets shared by several ops (all satisfy the CLI's relations)
RATIO_1D = ["--alpha", "0.3", "--p1", "4", "--q1", "5/2", "--p2", "4",
            "--q2", "5/2", "--s", "5", "--t", "25/8"]
RATIO_2D = ["--alpha", "0.6", "--p1", "4", "--q1", "5/2", "--p2", "4",
            "--q2", "5/2", "--s", "5", "--t", "25/8"]
TWO_WEIGHT = ["--q1", "9/8", "--q2", "9/8", "--p", "16/27", "--s", "4/5",
              "--t", "0.759375", "--r", "16", "--a", "17/16"]
TESTING = ["--alpha", "1/2", "--q1", "4", "--q2", "4", "--p", "5/2",
           "--s", "20/3", "--t", "16/3", "--r", "4", "--a", "2"]
STEIN_WEISS = ["--alpha", "1/2", "--q1", "9/8", "--q2", "9/8", "--p1", "32/27",
               "--p2", "32/27", "--r", "16", "--a", "17/16", "--beta", "0.0225",
               "--gamma1", "0.02", "--gamma2", "0.02", "--k-range", "0..4"]

# MGF inputs: name -> (dim, depth, lower log bound); values are
# exp(uniform(low, 2)) so every file is strictly positive (flags=pos)
INPUTS = {
    "f2d5": (2, 5, -2.0), "g2d5": (2, 5, -2.0),
    "f2d6": (2, 6, -2.0), "g2d6": (2, 6, -2.0),
    "f2d7": (2, 7, -2.0),
    "f1d10": (1, 10, -2.0), "g1d10": (1, 10, -2.0),
    "v1d10": (1, 10, -1.0), "w1a1d10": (1, 10, -1.0), "w2a1d10": (1, 10, -1.0),
    "v2d5": (2, 5, -1.0), "w1a2d5": (2, 5, -1.0), "w2a2d5": (2, 5, -1.0),
}


def variant_of(seed: int) -> int:
    return int(seed) % VARIANTS


def program_seed(variant: int, stream: int) -> int:
    """The --seed value handed to the program for one op of one variant."""
    return 20240801 + 1000 * variant + stream


def write_mgf(path: str, dim: int, depth: int, values: np.ndarray) -> None:
    """MGF/1 with 17 significant digits, row-major, flags=pos."""
    coords = ",".join("0" for _ in range(dim))
    lines = [f"MGF 1 dim={dim} rootlevel=0 rootcoords={coords} depth={depth} flags=pos"]
    lines.extend(f"{v:.17g}" for v in values.ravel(order="C"))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def generate_inputs(variant: int, workdir: str) -> None:
    """Write every MGF input of ``variant`` into ``workdir``."""
    rng = np.random.Generator(np.random.PCG64([variant, 1805]))
    for name, (dim, depth, low) in INPUTS.items():
        vals = np.exp(rng.uniform(low, 2.0, size=(2 ** depth,) * dim))
        write_mgf(os.path.join(workdir, name + ".mgf"), dim, depth, vals)


def ops(workload: str, variant: int, workdir: str) -> list[tuple[str, list[str]]]:
    """The (op id, argv) list of one pass of ``workload``."""
    def p(name):
        return os.path.join(workdir, name)

    def out(op_id, ext):
        return p(f"out-{op_id}.{ext}")

    if workload == "harness":
        return [
            ("ratio-1d", ["experiment", "ratio", "--theorem", "bilinear-ratio",
                          "--dim", "1", *RATIO_1D, "--pairs", "step:6,indicator:2",
                          "--levels", "4..10", "--base-depth", "4",
                          "--seed", str(program_seed(variant, 1)),
                          "--out", out("ratio-1d", "csv")]),
            ("two-weight-1d", ["experiment", "ratio", "--theorem", "two-weight",
                               "--dim", "1", "--alpha", "1/2", *TWO_WEIGHT,
                               "--beta", "0.0225", "--gamma1", "0.02",
                               "--gamma2", "0.02", "--depth", "4",
                               "--pairs", "step:6", "--levels", "4..8",
                               "--base-depth", "4",
                               "--seed", str(program_seed(variant, 2)),
                               "--out", out("two-weight-1d", "csv")]),
            ("ratio-2d", ["experiment", "ratio", "--theorem", "bilinear-ratio",
                          "--dim", "2", *RATIO_2D, "--pairs", "step:3",
                          "--levels", "4..6", "--base-depth", "4",
                          "--seed", str(program_seed(variant, 3)),
                          "--out", out("ratio-2d", "csv")]),
            ("sharpness", ["experiment", "sharpness", "--dim", "1", "--alpha", "0.3",
                           "--p1", "4", "--p2", "4", "--q1", "2", "--q2", "2",
                           "--t", "5", "--deltas", "4..9",
                           "--out", out("sharpness", "csv")]),
        ]
    if workload == "fields":
        mix = []
        for depth in (5, 6, 7):
            mix.append((f"i-alpha-2d{depth}",
                        ["op", "--operator", "i-alpha", "--alpha", "0.6",
                         "--f", p(f"f2d{depth}.mgf"),
                         "--out", out(f"i-alpha-2d{depth}", "mgf")]))
        for depth in (5, 6):
            mix.append((f"b-alpha-2d{depth}",
                        ["op", "--operator", "b-alpha", "--alpha", "0.6",
                         "--f", p(f"f2d{depth}.mgf"), "--g", p(f"g2d{depth}.mgf"),
                         "--out", out(f"b-alpha-2d{depth}", "mgf")]))
        for operator in ("b-dyadic", "m-bilinear"):
            mix.append((f"{operator}-1d10",
                        ["op", "--operator", operator, "--alpha", "0.5",
                         "--f", p("f1d10.mgf"), "--g", p("g1d10.mgf"),
                         "--out", out(f"{operator}-1d10", "mgf")]))
        mix.append(("norm-all-2d6", ["norm", "--kind", "morrey", "--p", "4", "--q", "2",
                                     "--family", "all", "--in", p("f2d6.mgf")]))
        mix.append(("norm-all-1d10", ["norm", "--kind", "morrey", "--p", "4", "--q", "2",
                                      "--family", "all", "--in", p("f1d10.mgf")]))
        return mix
    if workload == "weights-cz":
        files_1d = ["--v", p("v1d10.mgf"), "--w1", p("w1a1d10.mgf"),
                    "--w2", p("w2a1d10.mgf")]
        files_2d = ["--v", p("v2d5.mgf"), "--w1", p("w1a2d5.mgf"),
                    "--w2", p("w2a2d5.mgf")]
        return [
            ("two-weight-1d10", ["char", "--kind", "two-weight", "--dim", "1",
                                 "--alpha", "1/2", *TWO_WEIGHT, *files_1d]),
            ("two-weight-2d5", ["char", "--kind", "two-weight", "--dim", "2",
                                "--alpha", "1", *TWO_WEIGHT, *files_2d]),
            ("testing-1d10", ["char", "--kind", "testing", "--dim", "1",
                              *TESTING, *files_1d]),
            ("ap-1d10", ["char", "--kind", "ap", "--p", "2", "--v", p("v1d10.mgf")]),
            ("fs-majorant-1d10", ["char", "--kind", "fs-majorant", "--r", "inf",
                                  "--s", "0.5", "--w1", p("w1a1d10.mgf"),
                                  "--out", out("fs-majorant-1d10", "mgf")]),
            ("cz-1d10", ["cz", "--f", p("f1d10.mgf"), "--g", p("g1d10.mgf"),
                         "--out", out("cz-1d10", "csv")]),
            ("m-triple-1d10", ["op", "--operator", "m-triple",
                               "--f", p("f1d10.mgf"), "--g", p("g1d10.mgf"),
                               "--out", out("m-triple-1d10", "mgf")]),
            ("stein-weiss", ["experiment", "stein-weiss", *STEIN_WEISS,
                             "--seed", str(program_seed(variant, 4)),
                             "--out", out("stein-weiss", "txt")]),
        ]
    if workload == "selftest":
        return [(f"criterion-{k:02d}",
                 ["selftest", "--criteria", str(k),
                  "--seed", str(program_seed(variant, 5)),
                  "--out", p(f"out-criterion-{k:02d}")])
                for k in range(1, 13)]
    raise ValueError(f"unknown workload {workload!r}")
