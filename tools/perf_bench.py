"""Before/after timings of one change, written as one JSON file.

Usage, from the repository root, with a second checkout as the baseline:

    python3 tools/perf_bench.py --before ../baseline --after . --out BENCH_13.json

End-to-end, ``pairs`` alternating runs of ``benchmarks/run.py --trace 0``
on every workload (the order flipped every pair) give each metric's median
and quartiles per side, the pairs the change won, and the unscaled set-up
time the run prints next to the calibrated ``setup_s``.
Per layer, two kinds of figures, each as the minimum of k runs plus the
spread (max - min) and every run:

* the per-layer metrics ``TRACE_KEYS`` that ``benchmarks/run.py --workload
  harness --trace 1`` (``TRACED``) prints, with the two checkouts run
  alternately, each one first in half the rounds;
* direct ``ratio_harness`` calls per theorem id on four seeded step pairs at
  base depth 3, each at one level of ``DEPTHS`` in 1D and 2D, with the
  scaling exponent fitted as the least-squares slope of log time against
  log cells;
* direct ``acceptance.criterion_NN`` calls for every selftest criterion,
  each on a fresh context, so criteria 2 and 3 each run their sharpness
  configurations;
* direct ``norms._morrey_aligned`` calls on the blow-up sharpness pair at
  the 1D depths ``SWEEP_DEPTHS``: B_alpha's norm at (s, t) = (5, 5) and f's
  at (p1, q1) = (4, 2), each with the number of ``_windows`` scans one call
  makes (counted on an untimed call);
* direct ``write_mgf`` and ``read_mgf`` calls on seeded positive grids of the
  sizes ``MGF_SIZES``, with values per second at each size and the scaling
  exponent over the 2D depths next to the predicted 1;
* in-process ``cli.main`` calls of the ``harness`` workload's
  ``two-weight-1d`` op (``TWO_WEIGHT_OP``: levels 4..8, base depth 4,
  synthetic weights at depth 4), with the calls of
  ``experiments.char_two_weight`` and ``experiments._morrey_sup`` that one
  run makes (counted on its warm-up call).

Each direct timing runs in a new interpreter that imports the checkout's
``src/``, so both sides run the same timing code.  The interpreters alternate
between the checkouts, one timed call per theorem and depth (or criterion) in
each, with the order flipped every round, so a drift in machine speed hits
both sides alike.

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
DEPTHS = {1: (6, 8, 10), 2: (4, 5, 6)}
CRITERIA = tuple(range(1, 13))
SWEEP_DEPTHS = (7, 8, 9, 10)
MGF_SIZES = ((1, 10), (2, 5), (2, 6), (2, 7))  # (dim, depth)
TWO_WEIGHT_OP = ["experiment", "ratio", "--theorem", "two-weight", "--dim", "1",
                 "--alpha", "1/2", "--q1", "9/8", "--q2", "9/8", "--p", "16/27", "--s", "4/5",
                 "--t", "0.759375", "--r", "16", "--a", "17/16", "--beta", "0.0225",
                 "--gamma1", "0.02", "--gamma2", "0.02", "--depth", "4", "--pairs", "step:6",
                 "--levels", "4..8", "--base-depth", "4", "--seed", "20243803"]
SETTINGS = {
    "runs": 5,             # traced harness runs per side
    "seed": 3,             # seed of the traced runs
    "seconds": 5.0,        # --seconds of each traced run
    "repeats": 7,          # direct calls per theorem and depth, and per criterion
    "pairs": 10,           # end-to-end pairs on each workload
    "pair_seed": 17,       # seed of the end-to-end runs
    "pair_seconds": 25.0,  # --seconds of each end-to-end run
}

DIRECT = r"""
import json, sys, time
from morreybench.experiments import THEOREMS, ExponentProfile, make_pairs, ratio_harness
from morreybench.grid import GridFunction, unit_root
from morreybench.weights import INF, CharParams, WeightSystem, power_system
dim, repeats, depths = int(sys.argv[1]), int(sys.argv[2]), json.loads(sys.argv[3])
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
scale = lambda exps: {**exps, "alpha": exps["alpha"] * dim}
ws = power_system(0.0225, 0.02, 0.02, (0.0,) * dim, unit_root(dim), 3)
one_ws = WeightSystem(ws.w1.with_values(ws.w1.values * ws.w2.values, "pos"), ws.w1, ws.w2)
setups = {th: (ExponentProfile(n=dim, **scale(e)), {}) for th, e in unweighted.items()}
for theorem, exps, system in (("olsen", two, ws), ("two-weight", two, ws),
                              ("one-weight", one, one_ws)):
    setups[theorem] = (CharParams(n=dim, **scale(exps)), {"ws": system})
pairs = make_pairs("step", 4, 5, 3, dim)
out = {}
for theorem in sorted(THEOREMS):
    profile, kwargs = setups[theorem]
    for depth in depths:
        times = []
        for _ in range(repeats + 1):  # the first call warms up and is not timed
            t0 = time.perf_counter()
            ratio_harness(theorem, profile, pairs, (depth,), **kwargs)
            times.append(time.perf_counter() - t0)
        out[f"{theorem}.depth{depth}"] = times[1:]
print(json.dumps(out))
"""


CRITERION = r"""
import json, sys, time
from morreybench import acceptance
numbers, repeats = json.loads(sys.argv[1]), int(sys.argv[2])
out = {}
for number in numbers:
    criterion = getattr(acceptance, f"criterion_{number:02d}")
    times = []
    for _ in range(repeats + 1):  # the first call warms up and is not timed
        t0 = time.perf_counter()
        criterion({"seed": 20240801})
        times.append(time.perf_counter() - t0)
    out[f"criterion_{number:02d}"] = times[1:]
print(json.dumps(out))
"""


SWEEP = r"""
import json, sys, time
from morreybench import norms
from morreybench.acceptance import BLOWUP as cfg
from morreybench.experiments import DEPTH_EXTRA, build_sharpness_pair
from morreybench.operators import b_alpha
depths, repeats = json.loads(sys.argv[1]), int(sys.argv[2])
windows, scans = norms._windows, []
out = {}
for depth in depths:
    f, g, _ = build_sharpness_pair(cfg, depth - DEPTH_EXTRA)
    fam = norms.aligned_family(f)
    for name, x, p, q in (("b_5_5", b_alpha(f, g, cfg.alpha).fn, cfg.s, cfg.t),
                          ("f_4_2", f, cfg.p1, cfg.q1)):
        scans.clear()
        norms._windows = lambda table, s: scans.append(s) or windows(table, s)
        norms._morrey_aligned(x, p, q, fam)  # counts the scans and warms up
        norms._windows = windows
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            norms._morrey_aligned(x, p, q, fam)
            times.append(time.perf_counter() - t0)
        out[f"{name}.depth{depth}"] = {"scans": len(scans), "times": times}
print(json.dumps(out))
"""


MGF = r"""
import json, os, sys, tempfile, time
import numpy as np
from morreybench.grid import GridFunction, read_mgf, unit_root, write_mgf
sizes, repeats = json.loads(sys.argv[1]), int(sys.argv[2])
out = {}
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "f.mgf")
    for dim, depth in sizes:
        values = np.random.default_rng(depth).uniform(0.5, 2.0, (2 ** depth,) * dim)
        f = GridFunction(unit_root(dim), values, "pos")
        for name, call in (("write", lambda: write_mgf(path, f)), ("read", lambda: read_mgf(path))):
            times = []
            for _ in range(repeats + 1):  # the first call warms up and is not timed
                t0 = time.perf_counter()
                call()
                times.append(time.perf_counter() - t0)
            out[f"{name}.{dim}d.depth{depth}"] = times[1:]
print(json.dumps(out))
"""

OP = r"""
import contextlib, io, json, os, sys, tempfile, time
from morreybench import cli, experiments
argv, repeats = json.loads(sys.argv[1]), int(sys.argv[2])
counts = {}
for name in ("char_two_weight", "_morrey_sup"):
    def counted(*args, real=getattr(experiments, name), name=name, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return real(*args, **kwargs)
    setattr(experiments, name, counted)
times = []
with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
    argv = argv + ["--out", os.path.join(tmp, "out.csv")]
    cli.main(argv)  # counts the calls of one run and warms up
    calls = dict(counts)
    for _ in range(repeats):
        t0 = time.perf_counter()
        cli.main(argv)
        times.append(time.perf_counter() - t0)
print(json.dumps({"calls": calls, "times": times}))
"""


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


def snippet_times(checkout, code, *args):
    """The JSON that ``code`` prints, run in a new interpreter on the checkout's ``src/``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(checkout), "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", code, *args],
                         env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def direct_times(checkout, dim, depths, repeats):
    return snippet_times(checkout, DIRECT, str(dim), str(repeats), json.dumps(depths))


def criterion_times(checkout, numbers, repeats):
    """Per criterion ``criterion_NN``: ``repeats`` timed calls after one warm-up."""
    return snippet_times(checkout, CRITERION, json.dumps(list(numbers)), str(repeats))


def sweep_times(checkout, depths, repeats):
    """Per sweep and depth: the ``_windows`` scans of one call and
    ``repeats`` timed calls after it."""
    return snippet_times(checkout, SWEEP, json.dumps(list(depths)), str(repeats))


def mgf_times(checkout, sizes, repeats):
    """Per ``write`` and ``read`` of MGF/1 and per (dim, depth) of ``sizes``:
    ``repeats`` timed calls after one warm-up."""
    return snippet_times(checkout, MGF, json.dumps([list(s) for s in sizes]), str(repeats))


def op_times(checkout, repeats):
    """The calls one run of ``TWO_WEIGHT_OP`` makes and ``repeats`` timed runs after it."""
    return snippet_times(checkout, OP, json.dumps(TWO_WEIGHT_OP), str(repeats))


def mgf_summary(times):
    """Per MGF call and size, the timing summary and values per second at the
    minimum, and per call the exponent fitted over the 2D depths."""
    out = {}
    for name in ("write", "read"):
        for dim, depth in MGF_SIZES:
            runs = times[f"{name}.{dim}d.depth{depth}"]
            out[f"{name}.{dim}d.depth{depth}"] = {
                **summary(runs), "values_per_s": 2 ** (dim * depth) / min(runs)}
        depths = [depth for dim, depth in MGF_SIZES if dim == 2]
        mins = [min(times[f"{name}.2d.depth{d}"]) for d in depths]
        out[f"{name}.2d.exp"] = {"fitted": slope(depths, 2, mins), "predicted": 1.0}
    return out


def slope(depths, dim, seconds):
    xs = [math.log(2.0 ** (dim * d)) for d in depths]
    ys = [math.log(t) for t in seconds]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


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

    runs = {side: {dim: {} for dim in DEPTHS} for side in sides}
    criteria = {side: {} for side in sides}
    sweeps = {side: {} for side in sides}
    mgf = {side: {} for side in sides}
    op = {side: {"calls": None, "times": []} for side in sides}
    for r in range(cfg["repeats"]):
        for side in (("before", "after") if r % 2 == 0 else ("after", "before")):
            for dim, depths in DEPTHS.items():
                for key, times in direct_times(sides[side], dim, depths, 1).items():
                    runs[side][dim].setdefault(key, []).extend(times)
            for key, times in criterion_times(sides[side], CRITERIA, 1).items():
                criteria[side].setdefault(key, []).extend(times)
            for key, sweep in sweep_times(sides[side], SWEEP_DEPTHS, 1).items():
                entry = sweeps[side].setdefault(key, {"scans": sweep["scans"], "times": []})
                entry["times"].extend(sweep["times"])
            for key, times in mgf_times(sides[side], MGF_SIZES, 1).items():
                mgf[side].setdefault(key, []).extend(times)
            run = op_times(sides[side], 1)
            op[side]["calls"] = run["calls"]
            op[side]["times"].extend(run["times"])
    direct = {side: {} for side in sides}
    for side in sides:
        for dim, depths in DEPTHS.items():
            times = runs[side][dim]
            for key in sorted({key.rsplit(".", 1)[0] for key in times}):
                mins = [min(times[f"{key}.depth{d}"]) for d in depths]
                direct[side][f"{dim}d.{key}"] = {
                    **{f"depth{d}": summary(times[f"{key}.depth{d}"]) for d in depths},
                    "exp": slope(depths, dim, mins)}

    record = {
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "nproc": os.cpu_count()},
        "settings": cfg,
        "src_lines": {side: src_lines(path) for side, path in sides.items()},
        "units": "seconds; traced figures are per cycle, direct ones per call",
        "end_to_end": end_to_end,
        "traced_harness": {side: {k: summary(v) for k, v in traced[side].items()}
                           for side in sides},
        "direct_ratio_harness": direct,
        "direct_criteria": {side: {key: summary(v) for key, v in sorted(criteria[side].items())}
                            for side in sides},
        "direct_aligned_sweep": {side: {key: {"scans": e["scans"], **summary(e["times"])}
                                        for key, e in sorted(sweeps[side].items())}
                                 for side in sides},
        "direct_mgf": {side: mgf_summary(mgf[side]) for side in sides},
        "direct_two_weight_op": {side: {"calls": op[side]["calls"], **summary(op[side]["times"])}
                                 for side in sides},
    }
    with open(ns.out, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
