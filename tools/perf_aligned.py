"""Before/after timings of the aligned Morrey sweep, written as one JSON file.

Usage, from the repository root, with a second checkout as the baseline:

    python3 tools/perf_aligned.py --before ../baseline --after . --out BENCH_12.json

End-to-end, alternating runs of ``benchmarks/run.py --trace 0`` (the order
flipped every pair; ``PAIRS`` of them on selftest, where the gain is
claimed, and ``CHECK_PAIRS`` on each other workload) give each metric's
median and quartiles per side and the pairs the change won.  Per layer, two
kinds of figures, each as the minimum of k runs plus the spread (max - min)
and every run:

* the per-layer metrics that ``benchmarks/run.py --workload selftest
  --trace 1`` prints for the sweep (``norms.morrey_norm.aligned.self_s``)
  and for the selftest criteria that run it (``acceptance.criterion_02/03/12.s``),
  with the two checkouts run alternately, each one first in half the rounds;
* direct calls of ``norms._morrey_aligned`` on log-uniform data
  ``exp(uniform(-2, 2))`` with p = 4, q = 2 and every side length (no
  thinning), at 1D depths 8/10/12 and 2D depths 5/6/7, with the scaling
  exponent fitted as the least-squares slope of log time against log cells.

Each direct timing runs in a new interpreter that imports the checkout's
``src/``, so both sides run the same timing code.
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

WORKLOADS = ("selftest", "harness", "fields", "weights-cz")
END_TO_END = {"ops_per_s": "higher", "op_s.p50": "lower", "setup_s": "lower",
              "peak_rss_mb": "lower"}
TRACE_KEYS = ("norms.morrey_norm.aligned.self_s", "acceptance.criterion_02.s",
              "acceptance.criterion_03.s", "acceptance.criterion_12.s")
DEPTHS = {1: (8, 10, 12), 2: (5, 6, 7)}
SETTINGS = {
    "runs": 5,             # traced selftest runs per side
    "seed": 3,             # seed of the traced runs
    "seconds": 5.0,        # --seconds of each traced run
    "repeats": 7,          # direct calls per depth
    "pairs": 10,           # end-to-end pairs on selftest
    "check_pairs": 4,      # end-to-end pairs on each other workload
    "pair_seed": 13,       # seed of the end-to-end runs
    "pair_seconds": 25.0,  # --seconds of each end-to-end run
}

DIRECT = r"""
import json, sys, time
import numpy as np
from morreybench.grid import GridFunction, unit_root
from morreybench.norms import ALIGNED, CubeFamily, _morrey_aligned
dim, depth, repeats = (int(a) for a in sys.argv[1:4])
m = 2 ** depth
values = np.exp(np.random.default_rng(depth).uniform(-2, 2, size=(m,) * dim))
f = GridFunction(dim, unit_root(dim), depth, values, "pos")
family = CubeFamily(ALIGNED, f.root, f.cell_level, tuple(range(1, m + 1)))
times = []
for _ in range(repeats):
    t0 = time.perf_counter()
    _morrey_aligned(f, 4.0, 2.0, family)
    times.append(time.perf_counter() - t0)
print(json.dumps(times))
"""


def summary(values):
    return {"min": min(values), "spread": max(values) - min(values), "runs": values}


def bench_run(checkout, workload, seed, seconds, trace):
    """The last JSON line of one ``benchmarks/run.py`` run in ``checkout``."""
    out = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def pairs(sides, workload, n, seed, seconds):
    """Per metric: each side's median, quartiles and runs, and pairs won."""
    runs = {side: [] for side in sides}
    for r in range(n):
        for side in (("before", "after") if r % 2 == 0 else ("after", "before")):
            runs[side].append(bench_run(sides[side], workload, seed, seconds, 0))
    out = {"failed": {side: [r["failed"] for r in runs[side]] for side in sides}}
    for name, better in END_TO_END.items():
        vals = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in sides}
        wins = sum((a > b) if better == "higher" else (a < b)
                   for a, b in zip(vals["after"], vals["before"]))
        out[name] = {"better": better, "after_won": f"{wins}/{n}"}
        for side, v in vals.items():
            q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
            out[name][side] = {"median": med, "q1": q1, "q3": q3, "runs": v}
    return out


def direct_times(checkout, dim, depth, repeats):
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(checkout), "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", DIRECT, str(dim), str(depth), str(repeats)],
                         env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out)


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

    end_to_end = {wl: pairs(sides, wl, cfg["pairs"] if wl == "selftest" else cfg["check_pairs"],
                            cfg["pair_seed"], cfg["pair_seconds"]) for wl in WORKLOADS}

    traced = {side: {k: [] for k in TRACE_KEYS} for side in sides}
    for r in range(cfg["runs"]):
        order = ("before", "after") if r % 2 == 0 else ("after", "before")
        for side in order:
            metrics = bench_run(sides[side], "selftest", cfg["seed"], cfg["seconds"], 1)["metrics"]
            for k in TRACE_KEYS:
                traced[side][k].append(metrics[k]["value"])

    direct = {side: {} for side in sides}
    for side, checkout in sides.items():
        for dim, depths in DEPTHS.items():
            mins = []
            for depth in depths:
                times = direct_times(checkout, dim, depth, cfg["repeats"])
                direct[side][f"{dim}d.depth{depth}"] = summary(times)
                mins.append(min(times))
            direct[side][f"{dim}d.exp"] = slope(depths, dim, mins)

    record = {
        "what": "aligned Morrey sweep: branch and bound over side lengths",
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "nproc": os.cpu_count()},
        "settings": cfg,
        "units": "seconds; traced figures are per cycle, direct ones per call",
        "end_to_end": end_to_end,
        "traced_selftest": {side: {k: summary(v) for k, v in traced[side].items()}
                            for side in sides},
        "direct_morrey_aligned": direct,
    }
    with open(ns.out, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
