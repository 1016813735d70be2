"""Acceptance criteria: the executable exit gate of the workbench.

Each criterion is a callable returning a pass/fail result with a one-line
detail; ``run_selftest`` executes them in order, prints one line per
criterion, and writes the CSV artifacts.  The same functions back the
pytest acceptance module, so `morreybench selftest` and `pytest` agree by
construction.

Criterion 2 is special: its cluster-norm bound asserts the single-cluster
constant 3**(n/p1) for the exact all-aligned Morrey norm of the sharpness
pair.  Cubes that capture every cluster push the exact norm to about
3**(n/q1) > 3**(n/p1), so the check fails for every delta while the norm
remains delta-stable (which is what the blow-up argument actually uses).
The criterion is implemented as stated and reports the counterexample; the
uniform-boundedness property it protects is checked (and passes) alongside.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .decomposition import CZ_COLUMNS, choose_a, packing_sum
from .experiments import (NECESSITY_COLUMNS, ExponentProfile, SharpnessConfig,
                          SteinWeissParams, _pair_stacks, log_uniform, make_pairs,
                          necessity_check, random_weights, ratio_harness, run_sharpness,
                          stein_weiss_check)
from .grid import GridFunction, cube_box, unit_root
from .norms import dyadic_family
from .operators import (_b_values, _bilinear_maximal, _correlate, _dyadic_table, _i_values,
                        b_alpha, i_alpha, kernel_cell_table)
from .util import by_level, csv_text, finite, fmt, make_rng
from .weights import (CharParams, char_remark, char_two_weight, power_system,
                      power_weight)

# recorded regression constant for the necessity ratio (measured max 1.7 on
# the seeded systems; factor-two headroom)
NECESSITY_RATIO_BOUND = 4.0

BLOWUP = SharpnessConfig(n=1, alpha=0.3, p1=4, q1=2, p2=4, q2=2, t=5.0)
BOUNDARY = SharpnessConfig(n=1, alpha=0.3, p1=4, q1=2, p2=4, q2=2, t=2.5)

TWO_WEIGHT_CP = CharParams(alpha=0.5, n=1, q1=9 / 8, q2=9 / 8, p=16 / 27,
                           s=0.8, t=0.8 * (9 / 16) / (16 / 27), r=16.0,
                           a=17 / 16)
TESTING_CP = CharParams(alpha=0.5, n=1, q1=4.0, q2=4.0, p=2.5, s=20 / 3,
                        t=16 / 3, r=4.0, a=2.0)
SW_FINITE = SteinWeissParams(n=1, alpha=0.5, q1=9 / 8, q2=9 / 8, p1=32 / 27,
                             p2=32 / 27, r=16.0, a=17 / 16, beta=0.0225,
                             gamma1=0.02, gamma2=0.02)
SW_DIVERGENT = SteinWeissParams(n=1, alpha=0.5, q1=9 / 8, q2=9 / 8, p1=32 / 27,
                                p2=32 / 27, r=16.0, a=17 / 16, beta=-0.54,
                                gamma1=0.02, gamma2=0.02)


@dataclass
class CriterionResult:
    number: int
    slug: str
    passed: bool
    detail: str
    artifacts: dict = field(default_factory=dict)  # file name -> CSV text

    @property
    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion-{self.number:02d} {self.slug}: {status} ({self.detail})"


def _rand_pair(seed, depth, flags="pos"):
    rng = make_rng(seed, 17)
    return tuple(log_uniform(rng, unit_root(1), depth, flags) for _ in range(2))


def criterion_01(ctx) -> CriterionResult:
    """Closed-form quadrature at depth 8 within half a percent, under 1 s."""
    depth = 8
    f = GridFunction(unit_root(1), np.ones(2 ** depth), "nonneg")
    alpha = 0.5
    t0 = time.perf_counter()
    bval = b_alpha(f, f, alpha).fn.values[2 ** (depth - 1) - 1]
    ival = i_alpha(f, alpha).fn.values[2 ** (depth - 1) - 1]
    elapsed = time.perf_counter() - t0
    target = 2.0 * np.sqrt(2.0)
    rel_b = abs(bval - target) / target
    rel_i = abs(ival - target) / target
    ok = rel_b <= 5e-3 and rel_i <= 5e-3 and elapsed < 1.0
    return CriterionResult(1, "quadrature-closed-form", ok,
                           f"b rel {fmt(rel_b)}, i rel {fmt(rel_i)}, {elapsed:.3f}s")


def _sharpness(ctx, cfg):
    """(result, elapsed seconds) of ``run_sharpness(cfg)``, once per context."""
    runs = ctx.setdefault("sharp", {})
    if cfg not in runs:
        t0 = time.perf_counter()
        res = run_sharpness(cfg, ctx.setdefault("sharp-deltas", {}))
        runs[cfg] = (res, time.perf_counter() - t0)
    return runs[cfg]


def criterion_02(ctx) -> CriterionResult:
    """Cluster norms against 3**(n/p_i) plus the pointwise product floor."""
    blow, elapsed = _sharpness(ctx, BLOWUP)
    floors = blow.floors_hold()
    norms = blow.norm_bounds_hold()
    # the property the bound protects: delta-uniform boundedness of the norms
    nf = [r.norm_f for r in blow.rows]
    uniform = max(nf) / min(nf) < 1.10
    worst = max(r.norm_f / r.bound_f for r in blow.rows)
    ok = floors and norms and elapsed < 60.0
    if norms:
        norm_msg = "ok"
    else:
        norm_msg = (f"exceeded {fmt(worst)}x: cubes capturing all clusters beat "
                    f"the one-cluster constant (delta-uniform boundedness: {uniform})")
    detail = (f"floors {'ok' if floors else 'FAIL'}; norm bound {norm_msg}; "
              f"{elapsed:.2f}s")
    header = ["delta", "min_pointwise", "floor", "norm", "norm_f", "bound_f",
              "norm_g", "bound_g"]
    return CriterionResult(2, "sharpness-norm-floor", ok, detail,
                           {"sharpness.csv": csv_text(header, blow.table())})


def criterion_03(ctx) -> CriterionResult:
    """Blow-up slope under the predicted power law; flat on the boundary."""
    blow, _ = _sharpness(ctx, BLOWUP)
    boundary, _ = _sharpness(ctx, BOUNDARY)
    ok_blow = blow.slope <= -0.07
    ok_flat = abs(boundary.slope) <= 0.03
    ok = ok_blow and ok_flat
    return CriterionResult(3, "sharpness-blowup-slope", ok,
                           f"blow-up slope {fmt(blow.slope)} (<= -0.07 "
                           f"{'ok' if ok_blow else 'FAIL'}); boundary slope "
                           f"{fmt(boundary.slope)} (|.| <= 0.03 "
                           f"{'ok' if ok_flat else 'FAIL'})")


def criterion_04(ctx) -> CriterionResult:
    """Two-sided dyadic-model envelope with a level-stable spread."""
    alpha = 0.5
    pairs = [(seed, *_rand_pair(seed, 4)) for seed in range(20)]
    spreads = {}
    for depth in (4, 5, 6, 7):
        # B_alpha and the dyadic model over Q0 = the root, as two columns of one table
        grid, fv, gv, _ = _pair_stacks(pairs, depth)
        tables = np.stack([kernel_cell_table(alpha, grid),
                           _dyadic_table(grid, alpha, grid.cell_level, 0)], axis=-1)
        out = finite(_correlate(fv, gv, tables), "operator output")
        ratios = out[..., 0] / out[..., 1]
        spreads[depth] = float(np.max(ratios)) / float(np.min(ratios))
    vals = list(spreads.values())
    ok = max(vals) / min(vals) < 1.10
    return CriterionResult(4, "dyadic-model-equivalence", ok,
                           f"spread by level {by_level(spreads)}")


def criterion_05(ctx) -> CriterionResult:
    """Pointwise product bound through conjugate-power potentials."""
    alpha = 0.45
    grid, fv, gv, _ = _pair_stacks([(seed, *_rand_pair(seed, 5)) for seed in range(20)], 5)
    lhs = _b_values(grid, fv, gv, alpha)
    ells = ((1.5, 3.0), (2.0, 2.0), (3.0, 1.5))  # conjugate exponents; one I_alpha call for all
    rf, rg = np.split(_i_values(grid, np.stack([fv ** ell for ell, _ in ells]
                                               + [gv ** ellp for _, ellp in ells]), alpha), 2)
    worst = max(float(np.max(lhs - a ** (1 / ell) * b ** (1 / ellp)))
                for (ell, ellp), a, b in zip(ells, rf, rg))
    ok = worst <= 1e-9
    return CriterionResult(5, "pointwise-holder", ok, f"worst excess {fmt(worst)}")


def criterion_06(ctx) -> CriterionResult:
    """Truncated maximal dominated by the singular integral, stable constant."""
    alpha = 0.5
    pairs = [(seed, *_rand_pair(seed, 4)) for seed in range(10)]
    consts = {}
    for depth in (4, 5, 6):
        grid, fv, gv, own = _pair_stacks(pairs, depth)
        fam = dyadic_family(unit_root(1), -depth)
        consts[depth] = float(np.max(_bilinear_maximal(grid, fv, gv, alpha, fam)
                                     / _b_values(grid, *own, alpha)))
    levels = sorted(consts)
    ok = all(consts[b] <= 1.05 * consts[a] for a, b in zip(levels, levels[1:]))
    return CriterionResult(6, "maximal-control", ok,
                           f"c by level {by_level(consts)}")


def criterion_07(ctx) -> CriterionResult:
    """Stopping-time structure: partition, sandwich, and halving measured on
    the sets D_k = {peak > a**k}: |D_1| <= |Q0|/2 and |Q_jk meet D_{k+1}| <= |Q_jk|/2."""
    t0 = time.perf_counter()
    problems = []
    for seed in range(20):
        f, g = _rand_pair(seed, 6, flags="nonneg")
        sf = choose_a(f, g, unit_root(1))  # Q0 is the whole grid: peak covers every cell
        total = (sf.peak <= sf.a).astype(int)  # E_0 plus every E_jk = Q_jk minus D_{k+1}
        halved = 2 * np.count_nonzero(sf.peak > sf.a) <= total.size
        for k, gen in enumerate(sf.generations, 1):
            nxt = sf.peak > sf.a ** (k + 1)  # D_{k+1}, empty after the last generation
            cover = np.zeros_like(total)
            for sel in gen:
                if not (sf.a ** k < sel.m_value <= 2 ** 2 * sf.a ** k):
                    problems.append(f"seed {seed}: sandwich broken at k={k}")
                sl = cube_box(f, sel.cube).slices()
                cover[sl] += 1
                total[sl] += ~nxt[sl]
                halved &= 2 * nxt[sl].sum() <= cover[sl].size
            if cover.max() > 1:
                problems.append(f"seed {seed}: generation {k} cubes overlap")
        if not np.all(total == 1):
            problems.append(f"seed {seed}: partition broken")
        if not halved:
            problems.append(f"seed {seed}: halving violated at a={sf.a}")
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 60.0
    detail = f"20 seeds clean, {elapsed:.2f}s" if ok else "; ".join(problems[:3])
    return CriterionResult(7, "stopping-decomposition", ok, detail)


def criterion_08(ctx) -> CriterionResult:
    """Packing ratio at most one over the parameter grid and weight shapes."""
    depth = 6
    spike = np.ones(2 ** depth)
    spike[2 ** depth // 3] = 1e6
    weights = {
        "ones": GridFunction(unit_root(1), np.ones(2 ** depth), "pos"),
        "spike": GridFunction(unit_root(1), spike, "pos"),
        "power": power_weight(0.3, 0.0, unit_root(1), depth),
    }
    worst = 0.0
    for t in (0.3, 0.5, 0.7):
        for alpha in (0.25, 0.5, 0.75):
            for v in weights.values():
                worst = max(worst, packing_sum(unit_root(1), v, t, alpha))
    ok = worst <= 1.0 + 1e-12
    return CriterionResult(8, "packing-bound", ok, f"worst ratio {fmt(worst)}")


def criterion_09(ctx) -> CriterionResult:
    """Weighted bound harness on admissible power weights, plus the
    single-cube majorant chain on every tested system."""
    cp = TWO_WEIGHT_CP
    ws = power_system(SW_FINITE.beta, SW_FINITE.gamma1, SW_FINITE.gamma2,
                      0.0, unit_root(1), 4)
    pairs = make_pairs("step", 6, ctx.get("seed", 20240801), 4)
    res = ratio_harness("two-weight", cp, pairs, (4, 5, 6), ws=ws)
    fam = dyadic_family(unit_root(1), -4)
    rng = make_rng(ctx.get("seed", 20240801), 59)
    systems = [ws] + [random_weights(rng, unit_root(1), 4) for _ in range(5)]
    chain_ok = not np.any(char_two_weight(systems, cp, fam)
                          > char_remark(systems, cp, fam) * (1 + 1e-12))
    ok = res.stable and chain_ok
    detail = (f"max ratio by level {by_level(res.max_ratio_by_level)}; "
              f"majorant chain {'ok' if chain_ok else 'FAIL'}")
    header = ["theorem", "pair_id", "level", "lhs", "rhs", "ratio"]
    return CriterionResult(9, "weighted-harness", ok, detail,
                           {"two_weight_ratios.csv":
                            csv_text(header, [r.row() for r in res.records])})


def criterion_10(ctx) -> CriterionResult:
    """Power-weight dichotomy over growing roots."""
    fin = stein_weiss_check(SW_FINITE)
    div = stein_weiss_check(SW_DIVERGENT)
    ok = fin.verdict == "FINITE" and div.verdict == "DIVERGENT"
    return CriterionResult(10, "power-weight-dichotomy", ok,
                           f"balanced: {fin.verdict}, negative-sum: {div.verdict} "
                           f"(growth {fmt(min(div.growth))}x/level)")


def criterion_11(ctx) -> CriterionResult:
    """Testing constant against the empirical operator constant, 10 systems."""
    seed = ctx.get("seed", 20240801)
    fam = dyadic_family(unit_root(1), -5)
    reports = necessity_check([random_weights(make_rng(seed, 83, k), unit_root(1), 5)
                               for k in range(10)], TESTING_CP, fam, seed=0)
    c_emp = max(r.ratio for r in reports)
    floors = all(r.exact_floor_ok for r in reports)
    ok = floors and all(np.isfinite(r.ratio) for r in reports) and c_emp <= NECESSITY_RATIO_BOUND
    return CriterionResult(11, "necessity-testing", ok,
                           f"C_emp {fmt(c_emp)} (bound {fmt(NECESSITY_RATIO_BOUND)}); "
                           f"exact indicator floor {'ok' if floors else 'FAIL'}",
                           {"necessity.csv": csv_text(NECESSITY_COLUMNS, [
                               r.row(k) for k, r in enumerate(reports)])})


def _deterministic_artifacts(seed: int) -> dict:
    """The CSV texts a selftest emits, as strings, for byte comparison."""
    cfg = replace(BLOWUP, delta_exps=(4, 5, 6))
    prof = ExponentProfile(alpha=0.3, n=1, p1=4, q1=2.5, p2=4, q2=2.5,
                           s=5.0, t=3.125)
    ratio = ratio_harness("bilinear-ratio", prof, make_pairs("step", 3, seed, 4), (4, 5))
    f, g = _rand_pair(seed, 6, flags="nonneg")
    sf = choose_a(f, g, unit_root(1))
    return {
        "sharpness.csv": csv_text(["delta", "min_pointwise", "floor", "norm"],
                                  run_sharpness(cfg).table()),
        "ratios.csv": csv_text(["pair_id", "level", "lhs", "rhs"],
                               [r.row() for r in ratio.records]),
        # generations k >= 1 only: no base-cube row
        "decomposition.csv": csv_text(CZ_COLUMNS, sf.rows(f.cell_volume)[1:]),
    }


def criterion_12(ctx) -> CriterionResult:
    """Same seed, repeated runs, byte-identical CSV artifacts."""
    seed = ctx.get("seed", 20240801)
    first = _deterministic_artifacts(seed)
    second = _deterministic_artifacts(seed)
    same = {name: first[name] == second[name] for name in first}
    ok = all(same.values())
    bad = [name for name, eq in same.items() if not eq]
    detail = "3 artifact files byte-identical" if ok else f"mismatch in {bad}"
    return CriterionResult(12, "determinism", ok, detail, first)


CRITERIA = (criterion_01, criterion_02, criterion_03, criterion_04,
            criterion_05, criterion_06, criterion_07, criterion_08,
            criterion_09, criterion_10, criterion_11, criterion_12)


def run_selftest(seed: int = 20240801, outdir=None, criteria=None):
    """Run the acceptance suite; print one line per criterion.

    Returns the list of results.  CSV artifacts land in ``outdir`` when
    given; file contents depend only on the seed.
    """
    ctx = {"seed": seed}
    results = []
    for idx, fn in enumerate(CRITERIA, 1):
        if criteria and idx not in criteria:
            continue
        res = fn(ctx)
        results.append(res)
        print(res.line)
        if outdir is not None:
            os.makedirs(outdir, exist_ok=True)
            for name, text in res.artifacts.items():
                with open(os.path.join(outdir, name), "w") as fh:
                    fh.write(text)
    return results
