"""Before/after timings of one change, written as one JSON file.

Usage, from the repository root, with a second checkout as the baseline:

    python3 tools/perf_bench.py --before ../baseline --after . --out BENCH_34.json

End to end, ``pairs`` alternating runs of ``benchmarks/run.py --trace 0``
on every workload (the order flipped every pair) give each metric's median
and quartiles per side, the pairs the change won, and the unscaled set-up
time the run prints next to the calibrated ``setup_s``.  The per-layer
metrics ``TRACE_KEYS`` that ``benchmarks/run.py --workload harness --trace 1``
(``TRACED``) prints come from the two checkouts run alternately, each one
first in half the rounds.

Every direct timing follows one protocol.  ``SNIPPETS`` maps each section of
the record to a snippet and its argument.  A snippet runs after ``PRELUDE``
in a new interpreter that imports the checkout's ``src/``, so both sides run
the same timing code, and calls ``measure(key, call, count, cells)`` once per
key: one untimed warm-up call with the functions ``count`` names wrapped to
count their calls, then the real functions back and ``repeats`` timed calls.
The interpreters alternate between the checkouts, one timed call per key in
each, with the order flipped every round, so a drift in machine speed hits
both sides alike.  ``section`` builds each section of the record: per key the
minimum, spread (max - min) and every run, the counts, and cells per second
at the minimum; per key stem measured at two or more depths the scaling
exponent, fitted as the least-squares slope of log time against log cells,
next to the slope ``PREDICTED`` states for it.  The sections:

* ``ratio_harness``: ``ratio_harness`` per theorem id on four seeded step
  pairs at base depth 3, at each (dim, depth) of ``DEPTHS``;
* ``criteria``: ``acceptance.criterion_NN`` for every selftest criterion,
  each on a fresh context, so criteria 2 and 3 each run their sharpness
  configurations;
* ``aligned_sweep``: ``norms._morrey_aligned`` on the blow-up sharpness pair
  at the 1D depths ``SWEEP_DEPTHS``, B_alpha's norm at (s, t) = (5, 5) and
  f's at (p1, q1) = (4, 2), counting the ``_windows`` scans;
* ``mgf``: ``write_mgf`` and ``read_mgf`` on seeded positive grids of the
  (dim, depth) sizes ``MGF_SIZES``;
* ``ops``: in-process ``cli.main`` runs of each CLI op of ``OPS``, counting
  the calls of the functions it names.

The record also holds each checkout's line count of ``src/`` (``src_lines``),
the measure of a change that keeps results and removes code.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys

WORKLOADS = ("harness", "selftest", "fields", "weights-cz")
TRACED = "harness"
END_TO_END = {"ops_per_s": "higher", "op_s.p50": "lower", "setup_s": "lower",
              "peak_rss_mb": "lower"}
TRACE_KEYS = ("experiments.ratio_harness.self_s", "operators.b_alpha.1d.self_s",
              "operators.b_alpha.2d.self_s")
DEPTHS = ((1, 6), (1, 8), (1, 10), (2, 4), (2, 5), (2, 6))  # (dim, depth)
CRITERIA = tuple(range(1, 13))
SWEEP_DEPTHS = (7, 8, 9, 10)
MGF_SIZES = ((1, 10), (2, 5), (2, 6), (2, 7))  # (dim, depth)
TWO_WEIGHT = ["--dim", "1", "--alpha", "1/2", "--q1", "9/8", "--q2", "9/8", "--p", "16/27",
              "--t", "0.759375", "--r", "16", "--a", "17/16", "--s", "4/5"]
OPS = {  # name: (argv, the functions whose calls one run makes)
    # the harness workload's op at levels 4..8, base depth 4, synthetic weights at depth 4
    "two-weight-1d": (["experiment", "ratio", "--theorem", "two-weight", *TWO_WEIGHT,
                       "--beta", "0.0225", "--gamma1", "0.02", "--gamma2", "0.02", "--depth",
                       "4", "--pairs", "step:6", "--levels", "4..8", "--base-depth", "4",
                       "--seed", "20243803"],
                      ("experiments.char_two_weight", "experiments._morrey_sup")),
    "fs-dual-1d": (["experiment", "fs-dual", *TWO_WEIGHT, "--r1", "32", "--r2", "32",
                    "--s1", "17/19", "--s2", "17/19", "--gamma1", "0.05", "--gamma2", "0.02",
                    "--depth", "4", "--levels", "4..8"],
                   ("experiments.fs_majorant",)),
}
SETTINGS = {
    "runs": 5,             # traced harness runs per side
    "seed": 3,             # seed of the traced runs
    "seconds": 5.0,        # --seconds of each traced run
    "repeats": 7,          # timed direct calls per key
    "pairs": 10,           # end-to-end pairs on each workload
    "pair_seed": 17,       # seed of the end-to-end runs
    "pair_seconds": 25.0,  # --seconds of each end-to-end run
}

PRELUDE = r"""
import importlib, json, sys, time
repeats, arg = int(sys.argv[1]), json.loads(sys.argv[2])
out = {}


def measure(key, call, count=(), cells=None):
    # out[key]: the times of `repeats` calls after one warm-up call that
    # counts the calls of the functions `count` names, and `cells`
    calls, real = {}, []
    for path in count:  # "module.name" under morreybench
        module, name = path.rsplit(".", 1)
        module = importlib.import_module(f"morreybench.{module}")
        fn = getattr(module, name)
        real.append((module, name, fn))

        def counted(*args, fn=fn, name=name, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        setattr(module, name, counted)
    try:
        call()  # counts the calls of one run and warms up
    finally:
        for module, name, fn in real:
            setattr(module, name, fn)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    out[key] = {"times": times, **({"calls": calls} if count else {}),
                **({"cells": cells} if cells else {})}
"""

HARNESS = r"""
from morreybench.experiments import ExponentProfile, make_pairs, ratio_harness
from morreybench.grid import unit_root
from morreybench.weights import INF, CharParams, WeightSystem, power_system
unweighted = {
    "bilinear-ratio": dict(alpha=0.3, p1=4, q1=2.5, p2=4, q2=2.5, s=5.0, t=3.125),
    "bilinear-sum": dict(alpha=0.3, p1=4, q1=2.5, p2=4, q2=2.5, s=5.0, t=2.0),
    "bilinear-critical": dict(alpha=0.25, p1=4.0, q1=2.5, p2=3.0, q2=2.5),
    "linear-adams": dict(alpha=0.5, p1=1.5, q1=1.2, s=6.0, t=4.8),
    "product-embedding": dict(alpha=0.6, p1=1.25, q1=1.25, p2=2.0, q2=2.0, s=10 / 7, t=10 / 7),
}
two = dict(alpha=0.5, q1=9 / 8, q2=9 / 8, p=16 / 27, s=0.8, t=0.8 * (9 / 16) / (16 / 27),
           r=16.0, a=17 / 16)
one = dict(alpha=0.5, q1=9 / 8, q2=9 / 8, p=0.6, s=6 / 7, t=6 / 7 * (9 / 16) / 0.6,
           r=INF, a=17 / 16)


def setups(dim):
    scale = lambda exps: {**exps, "alpha": exps["alpha"] * dim}
    ws = power_system(0.0225, 0.02, 0.02, (0.0,) * dim, unit_root(dim), 3)
    one_ws = WeightSystem(ws.w1.with_values(ws.w1.values * ws.w2.values, "pos"), ws.w1, ws.w2)
    table = {th: (ExponentProfile(n=dim, **scale(e)), {}) for th, e in unweighted.items()}
    for theorem, exps, system in (("olsen", two, ws), ("two-weight", two, ws),
                                  ("one-weight", one, one_ws)):
        table[theorem] = (CharParams(n=dim, **scale(exps)), {"ws": system})
    return table


for dim, depth in arg:
    pairs = make_pairs("step", 4, 5, 3, dim)
    for theorem, (profile, kwargs) in sorted(setups(dim).items()):
        measure(f"{dim}d.{theorem}.depth{depth}",
                lambda: ratio_harness(theorem, profile, pairs, (depth,), **kwargs),
                cells=2 ** (dim * depth))
"""

CRITERION = r"""
from morreybench import acceptance
for number in arg:
    criterion = getattr(acceptance, f"criterion_{number:02d}")
    measure(f"criterion_{number:02d}", lambda: criterion({"seed": 20240801}))
"""

SWEEP = r"""
from morreybench import norms
from morreybench.acceptance import BLOWUP as cfg
from morreybench.experiments import DEPTH_EXTRA, build_sharpness_pair
from morreybench.operators import b_alpha
for depth in arg:
    f, g, _ = build_sharpness_pair(cfg, depth - DEPTH_EXTRA)
    fam = norms.aligned_family(f)
    for name, x, p, q in (("b_5_5", b_alpha(f, g, cfg.alpha).fn, cfg.s, cfg.t),
                          ("f_4_2", f, cfg.p1, cfg.q1)):
        measure(f"{name}.depth{depth}", lambda: norms._morrey_aligned(x, p, q, fam),
                count=("norms._windows",), cells=2 ** depth)
"""

MGF = r"""
import os, tempfile
import numpy as np
from morreybench.grid import GridFunction, read_mgf, unit_root, write_mgf
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "f.mgf")
    for dim, depth in arg:
        values = np.random.default_rng(depth).uniform(0.5, 2.0, (2 ** depth,) * dim)
        f = GridFunction(unit_root(dim), values, "pos")
        measure(f"write.{dim}d.depth{depth}", lambda: write_mgf(path, f), cells=values.size)
        measure(f"read.{dim}d.depth{depth}", lambda: read_mgf(path), cells=values.size)
"""

OP = r"""
import contextlib, io, os, tempfile
from morreybench import cli
with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
    for name, (argv, count) in arg.items():
        argv = argv + ["--out", os.path.join(tmp, "out.csv")]
        measure(name, lambda: cli.main(argv), count=count)
"""

SNIPPETS = {  # record section: (snippet, its argument)
    "ratio_harness": (HARNESS, DEPTHS),
    "criteria": (CRITERION, CRITERIA),
    "aligned_sweep": (SWEEP, SWEEP_DEPTHS),
    "mgf": (MGF, MGF_SIZES),
    "ops": (OP, OPS),
}
PREDICTED = {"mgf": {"write.2d": 1.0, "read.2d": 1.0}}  # section: {key stem: slope}


def summary(values):
    return {"min": min(values), "spread": max(values) - min(values), "runs": values}


def bench_run(checkout, workload, seed, seconds, trace):
    """The last JSON line of one ``benchmarks/run.py`` run in ``checkout``,
    with the unscaled set-up time of an untraced run added."""
    lines = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, check=True, capture_output=True, text=True).stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("unscaled "):
            result["unscaled_setup_s"] = json.loads(line[len("unscaled "):])["setup_s"]
    return result


def quartiles(values):
    return statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3


def pairs(sides, workload, n, seed, seconds):
    """Per metric: each side's median, quartiles and runs, and pairs won."""
    runs = {side: [] for side in sides}
    for r in range(n):
        for side in (("before", "after") if r % 2 == 0 else ("after", "before")):
            runs[side].append(bench_run(sides[side], workload, seed, seconds, 0))
    out = {"failed": {side: [r["failed"] for r in runs[side]] for side in sides},
           "unscaled_setup_s": {}}
    for side in sides:
        v = [r["unscaled_setup_s"] for r in runs[side]]
        out["unscaled_setup_s"][side] = {"median": statistics.median(v), "runs": v}
    for name, better in END_TO_END.items():
        vals = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in sides}
        wins = sum((a > b) if better == "higher" else (a < b)
                   for a, b in zip(vals["after"], vals["before"]))
        out[name] = {"better": better, "after_won": f"{wins}/{n}"}
        for side, v in vals.items():
            q1, med, q3 = quartiles(v)
            out[name][side] = {"median": med, "q1": q1, "q3": q3, "runs": v}
    return out


def src_lines(checkout):
    """Lines of the Python files under the checkout's ``src/``."""
    total = 0
    for dirpath, _, names in os.walk(os.path.join(checkout, "src")):
        for name in names:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def run_snippet(checkout, code, arg, repeats):
    """``{key: {"times", "calls"?, "cells"?}}`` of snippet ``code`` with ``arg``
    and ``repeats``, run after ``PRELUDE`` in a new interpreter on the
    checkout's ``src/``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(checkout), "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", PRELUDE + code + "print(json.dumps(out))",
                          str(repeats), json.dumps(arg)],
                         env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def slope(cells, seconds):
    """The least-squares slope of log time against log cells."""
    xs = [math.log(c) for c in cells]
    ys = [math.log(t) for t in seconds]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def section(runs, predicted):
    """One section of the record from a snippet's ``{key: {"times", "calls"?,
    "cells"?}}``: per key the timing summary, its counts and cells per second
    at the minimum; per key stem (the key without its ``.depthN``) measured at
    two or more depths the fitted exponent, next to the slope ``predicted``
    states for the stem."""
    out, stems = {}, {}
    for key, run in sorted(runs.items()):
        out[key] = summary(run["times"])
        if "calls" in run:
            out[key]["calls"] = run["calls"]
        if "cells" in run:
            out[key]["cells_per_s"] = run["cells"] / out[key]["min"]
            stems.setdefault(key.rsplit(".", 1)[0], []).append((run["cells"], out[key]["min"]))
    for stem, points in stems.items():
        if len(points) > 1:
            out[f"{stem}.exp"] = {"fitted": slope(*zip(*points)),
                                  **({"predicted": predicted[stem]} if stem in predicted else {})}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before", required=True, help="baseline checkout")
    ap.add_argument("--after", default=".", help="checkout with the change")
    ap.add_argument("--out", required=True)
    ns = ap.parse_args(argv)
    sides = {"before": ns.before, "after": ns.after}
    cfg = SETTINGS

    end_to_end = {wl: pairs(sides, wl, cfg["pairs"], cfg["pair_seed"], cfg["pair_seconds"])
                  for wl in WORKLOADS}

    traced = {side: {k: [] for k in TRACE_KEYS} for side in sides}
    for r in range(cfg["runs"]):
        order = ("before", "after") if r % 2 == 0 else ("after", "before")
        for side in order:
            metrics = bench_run(sides[side], TRACED, cfg["seed"], cfg["seconds"], 1)["metrics"]
            for k in TRACE_KEYS:
                traced[side][k].append(metrics[k]["value"])

    direct = {side: {name: {} for name in SNIPPETS} for side in sides}
    for r in range(cfg["repeats"]):
        for side in (("before", "after") if r % 2 == 0 else ("after", "before")):
            for name, (code, arg) in SNIPPETS.items():
                for key, run in run_snippet(sides[side], code, arg, 1).items():
                    entry = direct[side][name].setdefault(key, {**run, "times": []})
                    entry["times"] += run["times"]

    record = {
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "nproc": os.cpu_count()},
        "settings": cfg,
        "src_lines": {side: src_lines(path) for side, path in sides.items()},
        "units": "seconds; traced figures are per cycle, direct ones per call",
        "end_to_end": end_to_end,
        "traced_harness": {side: {k: summary(v) for k, v in traced[side].items()}
                           for side in sides},
        "direct": {name: {side: section(direct[side][name], PREDICTED.get(name, {}))
                          for side in sides} for name in SNIPPETS},
    }
    with open(ns.out, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
