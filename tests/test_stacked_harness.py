"""The ratio harness as stacked calls per level, against a per-pair loop.

Each level refines its pairs onto one grid as stacks and makes one stacked
operator call and one stacked scan for its left side; the right sides are
computed once, the unweighted ones on the base-depth family and the weighted
ones on the grid of the deeper of the pairs and the weights (the
characteristic per level where its exponent E < 0).  ``per_pair`` below is
the loop the harness used to run, one closure call per (pair, level) through
the public single calls, refining every pair and computing every norm on the
level's family; ``per_level_right_sides`` is the weighted right side as the
harness once computed it on each level.  The records must agree in order,
pair and level, and their sides within relative 1e-13: the stacked correlate
blocks its columns over the whole stack, so BLAS may sum in another order,
and a norm on a coarser grid sums fewer cells than the same norm on a finer
one.
"""

import numpy as np
import pytest

from morreybench import (DyadicCube, GridFunction, NumericalError, ParameterError,
                         b_alpha, dyadic_family, morrey_norm, pair_morrey_sup, unit_root)
from morreybench import experiments, norms
from morreybench.experiments import (THEOREMS, ExponentProfile, FsDualParams,
                                     SteinWeissParams, _ratio_core, fs_dual_check,
                                     make_pairs, ratio_harness, stein_weiss_harness)
from morreybench.operators import i_alpha
from morreybench.util import make_rng
from morreybench.weights import (INF, CharParams, WeightSystem, char_one_weight, char_testing,
                                 char_two_weight, fs_majorant, power_system, power_weight)

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

REL = 1e-13
PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)

# alpha/n is the same in 1D and 2D, so one exponent tuple serves both
UNWEIGHTED = {
    "bilinear-ratio": dict(alpha=0.3, p1=4, q1=2.5, p2=4, q2=2.5, s=5.0, t=3.125),
    "bilinear-sum": dict(alpha=0.3, p1=4, q1=2.5, p2=4, q2=2.5, s=5.0, t=2.0),
    "bilinear-critical": dict(alpha=0.25, p1=4.0, q1=2.5, p2=3.0, q2=2.5),
    "linear-adams": dict(alpha=0.5, p1=1.5, q1=1.2, s=6.0, t=4.8),
    "product-embedding": dict(alpha=0.6, p1=1.25, q1=1.25, p2=2.0, q2=2.0, s=10 / 7, t=10 / 7),
}
TWO_WEIGHT = dict(alpha=0.5, q1=9 / 8, q2=9 / 8, p=16 / 27, s=0.8,
                  t=0.8 * (9 / 16) / (16 / 27), r=16.0, a=17 / 16)
ONE_WEIGHT = dict(alpha=0.5, q1=9 / 8, q2=9 / 8, p=0.6, s=6 / 7,
                  t=6 / 7 * (9 / 16) / 0.6, r=INF, a=17 / 16)
# the s >= 1 rows, where E < 0: two-weight at s = 16/9 and at s = 1 exactly
# (E = (1-a)/a), and one-weight at s = 4/3
TWO_WEIGHT_ABOVE_1 = dict(alpha=0.5, q1=9 / 8, q2=9 / 8, p=1.0, s=16 / 9, t=1.0, r=16.0,
                          a=17 / 16)
TWO_WEIGHT_AT_1 = dict(alpha=0.5, q1=9 / 8, q2=9 / 8, p=0.75, s=1.0, t=0.75, r=6.0, a=17 / 16)
ONE_WEIGHT_ABOVE_1 = dict(alpha=0.25, q1=6 / 5, q2=6 / 5, p=1.0, s=4 / 3, t=0.8, r=INF,
                          a=11 / 10)
LEVELS = {1: (3, 4, 5, 6), 2: (3, 4, 5)}


def scaled(exps, dim):
    return {**exps, "alpha": exps["alpha"] * dim}


def weights(dim, depth=3):
    return power_system(0.0225, 0.02, 0.02, (0.0,) * dim, unit_root(dim), depth)


def mixed_pairs(dim, depth=3):
    """Steps, indicators, a bump and a signed pair on the unit root."""
    _, f, g = make_pairs("step", 1, 77, depth, dim)[0]
    signs = np.where(np.arange(f.values.size).reshape(f.values.shape) % 3, 1.0, -1.0)
    return (make_pairs("step", 3, 2024, depth, dim) + make_pairs("indicator", 2, 55, depth, dim)
            + make_pairs("bump", 1, 9, depth, dim)
            + [("signed", f.with_values(-f.values), g.with_values(signs * g.values))])


def setup(theorem, dim):
    """(profile, ws) of one theorem id in ``dim`` dimensions: an
    ExponentProfile, or for the weighted ids a CharParams and the weights."""
    if theorem in UNWEIGHTED:
        return ExponentProfile(n=dim, **scaled(UNWEIGHTED[theorem], dim)), None
    if theorem != "one-weight":
        return CharParams(n=dim, **scaled(TWO_WEIGHT, dim)), weights(dim)
    ws = weights(dim)  # one weight: v = w1 w2
    ws = WeightSystem(ws.w1.with_values(ws.w1.values * ws.w2.values, "pos"), ws.w1, ws.w2)
    return CharParams(n=dim, **scaled(ONE_WEIGHT, dim)), ws


def per_pair(theorem, pr, pairs, levels, ws=None):
    """(pair id, level, lhs, rhs) per pair and level, one pair at a time, all
    exponents read from the one profile ``pr``."""
    alpha = pr.alpha
    root = pairs[0][1].root
    out = []
    for level in levels:
        fam = dyadic_family(root, root.level - level)

        def norm(h, p, q):
            return morrey_norm(h, p, q, fam).value
        if theorem not in UNWEIGHTED:
            w = WeightSystem(*(x.refine(level - x.depth) for x in (ws.v, ws.w1, ws.w2)))
        for name, f0, g0 in pairs:
            f, g = f0.refine(level - f0.depth), g0.refine(level - g0.depth)
            if theorem in ("bilinear-ratio", "bilinear-sum", "bilinear-critical"):
                s, t = (pr.p2, pr.q2) if theorem == "bilinear-critical" else (pr.s, pr.t)
                sides = (norm(b_alpha(f, g, alpha).fn, s, t),
                         norm(f, pr.p1, pr.q1) * norm(g, pr.p2, pr.q2))
            elif theorem == "linear-adams":
                sides = norm(i_alpha(f, alpha).fn, pr.s, pr.t), norm(f, pr.p1, pr.q1)
            elif theorem == "product-embedding":
                big_i = i_alpha(f, alpha).fn
                sides = (norm(big_i.with_values(np.abs(g.values) * big_i.values), pr.s, pr.t),
                         norm(g, pr.p2, pr.q2) * norm(f, pr.p1, pr.q1))
            else:
                big_b = b_alpha(f, g, alpha).fn
                weighted = big_b.with_values(big_b.values * w.v.values)
                if theorem == "olsen":
                    sides = (norm(weighted, pr.s, pr.t),
                             norm(w.v, pr.r, pr.t / (1.0 - pr.t))
                             * pair_morrey_sup(f, g, pr.p, pr.q1, pr.q2, fam).value)
                else:
                    char = (char_two_weight if theorem == "two-weight"
                            else char_one_weight)(w, pr, fam).value
                    sides = (norm(weighted, pr.s, pr.t),
                             char * pair_morrey_sup(
                                 f.with_values(np.abs(f.values) * w.w1.values),
                                 g.with_values(np.abs(g.values) * w.w2.values),
                                 pr.p, pr.q1, pr.q2, fam).value)
            out.append((name, level) + sides)
    return out


def assert_same(records, expected, theorem):
    assert [(r.theorem, r.pair_id, r.level) for r in records] == [
        (theorem, name, level) for name, level, _, _ in expected]
    for rec, (_, _, lhs, rhs) in zip(records, expected):
        assert type(rec.lhs) is float and type(rec.rhs) is float
        assert rec.lhs == pytest.approx(lhs, rel=REL, abs=0.0)
        assert rec.rhs == pytest.approx(rhs, rel=REL, abs=0.0)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("theorem", sorted(THEOREMS))
def test_every_theorem_matches_the_per_pair_loop(theorem, dim):
    pr, ws = setup(theorem, dim)
    pairs = mixed_pairs(dim)
    res = ratio_harness(theorem, pr, pairs, LEVELS[dim], ws=ws)
    assert_same(res.records, per_pair(theorem, pr, pairs, LEVELS[dim], ws), theorem)


@pytest.mark.parametrize("dim", [1, 2])
def test_stein_weiss_harness_matches_the_per_pair_loop(dim):
    # the 1D balanced set; alpha/n and so every derived exponent is the same in 2D
    sw = SteinWeissParams(n=dim, alpha=0.5 * dim, q1=9 / 8, q2=9 / 8, p1=32 / 27,
                          p2=32 / 27, r=16.0, a=17 / 16, beta=0.0225, gamma1=0.02,
                          gamma2=0.02)
    alpha = sw.n - sw.alpha
    expected = []
    for level in (4, 5, 6):
        fam = dyadic_family(unit_root(dim), -level)
        w = power_system(sw.beta, sw.gamma1, sw.gamma2, (0.0,) * dim, fam.root, level)
        for name, f, g in make_pairs("indicator", 4, 11, level, dim):
            big_b = b_alpha(f, g, alpha).fn
            expected.append((name, level,
                             morrey_norm(big_b.with_values(big_b.values * w.v.values),
                                         sw.s, sw.t, fam).value,
                             morrey_norm(f.with_values(f.values * w.w1.values),
                                         sw.p1, sw.q1, fam).value
                             * morrey_norm(g.with_values(g.values * w.w2.values),
                                           sw.p2, sw.q2, fam).value))
    assert_same(stein_weiss_harness(sw).records, expected, "stein-weiss")


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("root_level", [0, -1])
def test_fs_dual_harness_matches_the_per_pair_loop(dim, root_level):
    # the pairs live on the weights' root, also off the unit cube
    root = DyadicCube(root_level, (-root_level,) * dim)
    cp = CharParams(n=dim, **scaled(TWO_WEIGHT, dim))
    params = FsDualParams(cp, r1=32.0, r2=32.0, s1=17 / 19, s2=17 / 19)
    w1 = power_weight(0.05, (0.0,) * dim, root, 3)
    w2 = power_weight(0.02, (0.0,) * dim, root, 3)
    levels = (3, 4, 5) if dim == 1 else (3, 4)
    alpha = cp.alpha
    expected = []
    for level in levels:
        fam = dyadic_family(root, root.level - level)
        ww1, ww2 = w1.refine(level - 3), w2.refine(level - 3)
        maj1 = fs_majorant(ww1, params.r1, params.s1, fam)
        maj2 = fs_majorant(ww2, params.r2, params.s2, fam)
        for name, f0, g0 in make_pairs("step", 4, 7, 3, dim, root):
            f, g = f0.refine(level - 3), g0.refine(level - 3)
            big_b = b_alpha(f, g, alpha).fn
            expected.append((name, level,
                             morrey_norm(big_b.with_values(big_b.values * ww1.values
                                                           * ww2.values),
                                         cp.s, cp.t, fam).value,
                             pair_morrey_sup(f.with_values(np.abs(f.values) * maj1.values),
                                             g.with_values(np.abs(g.values) * maj2.values),
                                             cp.p, cp.q1, cp.q2, fam).value))
    rep = fs_dual_check(w1, w2, params, levels=levels)
    assert_same(rep.harness.records, expected, "fs-dual")


@st.composite
def refined_steps(draw):
    """A step pair on a random root at a base depth, and how far to refine it."""
    dim = draw(st.sampled_from([1, 2]))
    depth = draw(st.integers(0, 4 if dim == 1 else 3))
    extra = draw(st.integers(1, 3 if dim == 1 else 2))
    root = DyadicCube(draw(st.integers(-1, 1)),
                      tuple(draw(st.integers(-2, 2)) for _ in range(dim)))
    elements = st.one_of(st.just(0.0), st.floats(-1e6, 1e6, allow_nan=False,
                                                 allow_subnormal=False))
    f, g = (GridFunction(root, draw(arrays(np.float64, (2 ** depth,) * dim, elements=elements)))
            for _ in range(2))
    q1, q2 = (draw(st.floats(0.5, 4.0)) for _ in range(2))
    p = draw(st.floats(0.5, 8.0))
    return f, g, extra, p, q1, q2


@PROPERTY
@given(refined_steps())
def test_refined_steps_keep_their_norms_on_every_level(case):
    # a step function refined past its base depth is constant on every finer
    # cube, whose value is below its parent's: the base family attains the sup
    f, g, extra, p, q1, q2 = case
    base = dyadic_family(f.root, f.cell_level)
    for k in range(1, extra + 1):
        fam = dyadic_family(f.root, f.cell_level - k)
        fk, gk = f.refine(k), g.refine(k)
        for h, hk, q in ((f, fk, q1), (g, gk, q2)):
            assert morrey_norm(hk, max(p, q), q, fam).value == pytest.approx(
                morrey_norm(h, max(p, q), q, base).value, rel=REL, abs=0.0)
        assert pair_morrey_sup(fk, gk, p, q1, q2, fam).value == pytest.approx(
            pair_morrey_sup(f, g, p, q1, q2, base).value, rel=REL, abs=0.0)


def per_level_right_sides(theorem, pr, pairs, level, ws):
    """The weighted right sides of one level, one per pair, as the harness
    once computed them: the weights refined onto the level, then the
    characteristic (olsen: the weight norm) times the pair supremum, both on
    the level's family."""
    grid, fv, gv, _ = experiments._pair_stacks(pairs, level)
    fam = dyadic_family(grid.root, grid.cell_level)
    w = WeightSystem(*(x.refine(level - x.depth) for x in (ws.v, ws.w1, ws.w2)))
    if theorem == "olsen":
        scale = norms._morrey_sup(grid, fam, pr.r, (w.v.values, pr.t / (1.0 - pr.t)))[0]
    else:
        fv, gv = fv * w.w1.values, gv * w.w2.values
        scale = {"two-weight": char_two_weight,
                 "one-weight": char_one_weight}[theorem]([w], pr, fam)
    return (scale * norms._morrey_sup(grid, fam, pr.p, (fv, pr.q1), (gv, pr.q2))[0]).tolist()


@st.composite
def weighted_runs(draw):
    """Random positive weights at a depth below, at or above the pairs' base
    depth, and levels from ``top`` (the deeper of the two) or above it."""
    dim = draw(st.sampled_from([1, 2]))
    base = draw(st.integers(1, 3 if dim == 1 else 2))
    depth = draw(st.integers(0, base + 1))
    first = max(base, depth) + draw(st.integers(0, 2 if dim == 1 else 1))
    levels = tuple(range(first, first + draw(st.integers(1, 2))))
    return dim, base, depth, levels, draw(st.integers(0, 2 ** 16))


@pytest.mark.parametrize("theorem,exps", [
    pytest.param("two-weight", TWO_WEIGHT, id="two-weight-s<1"),
    pytest.param("two-weight", TWO_WEIGHT_ABOVE_1, id="two-weight-s>1"),
    pytest.param("two-weight", TWO_WEIGHT_AT_1, id="two-weight-s=1"),
    pytest.param("one-weight", ONE_WEIGHT, id="one-weight-s<1"),
    pytest.param("one-weight", ONE_WEIGHT_ABOVE_1, id="one-weight-s>1"),
    pytest.param("olsen", TWO_WEIGHT, id="olsen")])
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(run=weighted_runs())
def test_weighted_right_sides_match_the_per_level_computation(theorem, exps, run):
    # the right sides are computed once on the grid of top; on that level
    # they are the per-level computation bit for bit, on finer ones within REL
    dim, base, depth, levels, seed = run
    pr = CharParams(n=dim, **scaled(exps, dim))
    ws = experiments.random_weights(make_rng(seed, 1), unit_root(dim), depth)
    if theorem == "one-weight":
        ws = WeightSystem(ws.w1.with_values(ws.w1.values * ws.w2.values, "pos"), ws.w1, ws.w2)
    pairs = make_pairs("step", 2, seed, base, dim) + make_pairs("indicator", 1, seed, base, dim)
    records = ratio_harness(theorem, pr, pairs, levels, ws=ws).records
    expected = [rhs for level in levels
                for rhs in per_level_right_sides(theorem, pr, pairs, level, ws)]
    assert len(records) == len(expected)
    for rec, rhs in zip(records, expected):
        if rec.level == max(base, depth):
            assert rec.rhs == rhs
        assert rec.rhs == pytest.approx(rhs, rel=REL, abs=0.0)


@pytest.mark.parametrize("theorem", sorted(THEOREMS))
def test_scans_per_level_do_not_grow_with_the_pairs(theorem, monkeypatch):
    pr, ws = setup(theorem, 1)
    calls = []

    def counting(fn):
        def counted(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return counted
    for module in (experiments, norms):  # norms: the olsen weight norm's own scan
        monkeypatch.setattr(module, "_morrey_sup", counting(norms._morrey_sup))
    counts = {}
    for count in (2, 7):
        for levels in ((3, 4, 5), (3, 4, 5, 6)):
            calls.clear()
            ratio_harness(theorem, pr, make_pairs("step", count, 3, 3), levels, ws=ws)
            counts[count, levels] = len(calls)
    # one left side per level; the right sides once per run, whatever the
    # levels: a norm per unweighted factor, or the weighted pair supremum,
    # and olsen its weight norm
    base = {"linear-adams": 1, "two-weight": 1, "one-weight": 1}.get(theorem, 2)
    assert counts == {(count, levels): base + len(levels) for count, levels in counts}


@pytest.mark.parametrize("dim", [1, 2])
def test_fs_dual_takes_the_majorants_once_per_run(dim, monkeypatch):
    # the majorant right side sits on the weights' grid, whatever the levels
    cp = CharParams(n=dim, **scaled(TWO_WEIGHT, dim))
    params = FsDualParams(cp, r1=32.0, r2=32.0, s1=17 / 19, s2=17 / 19)
    w1, w2 = (power_weight(beta, (0.0,) * dim, unit_root(dim), 3) for beta in (0.05, 0.02))
    calls = []
    monkeypatch.setattr(experiments, "fs_majorant",
                        lambda *args: calls.append(args) or fs_majorant(*args))
    for levels in ((3,), (3, 4), (3, 4, 5)):
        calls.clear()
        fs_dual_check(w1, w2, params, levels=levels)
        assert len(calls) == 2


def placing(monkeypatch):
    """The calls of ``CubeFamily.cube_at`` and ``CubeFamily.cube`` from now on."""
    calls = []
    for name in ("cube_at", "cube"):
        real = getattr(norms.CubeFamily, name)
        monkeypatch.setattr(norms.CubeFamily, name, lambda *args, real=real:
                            calls.append(args) or real(*args))
    return calls


@pytest.mark.parametrize("theorem", sorted(THEOREMS))
def test_stacked_scans_build_no_cube(theorem, monkeypatch):
    # a scan returns maxima and positions, and only a report places a cube:
    # olsen's weight norm reads only the maximum of its scan, and the
    # two-weight and one-weight scales are one-item lists of systems.  ``CubeFamily.cube`` also counts the attaining pairs that
    # ``_pair_scan`` builds for a single system's report
    pr, ws = setup(theorem, 1)
    calls = placing(monkeypatch)
    ratio_harness(theorem, pr, make_pairs("step", 3, 3, 3), (3, 4, 5), ws=ws)
    assert calls == []


def test_necessity_scans_build_no_cube(monkeypatch):
    # the testing constants are one stacked scan: a single report places its
    # attaining cube, the necessity check places none
    ws = WeightSystem(*(power_weight(beta, 0.0, unit_root(1), 4) for beta in (0.1, 0.2, 0.3)))
    cp = CharParams(alpha=0.5, n=1, q1=4.0, q2=4.0, p=2.5, s=20 / 3, t=16 / 3, r=4.0, a=2.0)
    family = dyadic_family(unit_root(1), -4)
    calls = placing(monkeypatch)
    char_testing(ws, cp, family)
    assert [args[0] for args in calls] == [family] * 2  # cube_at, then the cube it places
    calls.clear()
    experiments.necessity_check([ws, ws], cp, family)
    assert calls == []


@pytest.mark.parametrize("dim", [1, 2])
def test_value_only_scans_build_no_cube(dim, monkeypatch):
    # the proof characteristic of stein_weiss_check and the split of
    # fs_dual_check read only the value of their scans
    calls = placing(monkeypatch)
    cp = CharParams(n=dim, **scaled(TWO_WEIGHT, dim))
    params = FsDualParams(cp, r1=32.0, r2=32.0, s1=17 / 19, s2=17 / 19)
    w1, w2 = (power_weight(beta, (0.0,) * dim, unit_root(dim), 3) for beta in (0.05, 0.02))
    report = fs_dual_check(w1, w2, params, levels=(3, 4))
    sw = SteinWeissParams(n=dim, alpha=0.5 * dim, q1=9 / 8, q2=9 / 8, p1=32 / 27,
                          p2=32 / 27, r=16.0, a=17 / 16, beta=0.0225, gamma1=0.02, gamma2=0.02)
    verdict = experiments.stein_weiss_check(sw, (0, 1))
    assert calls == []
    assert type(report.worst_split_excess) is float
    assert all(type(value) is float for value in verdict.char_by_level.values())


def test_pairs_on_mixed_grids_are_refused():
    pairs = make_pairs("step", 2, 5, 3)
    deeper = make_pairs("step", 1, 5, 4)
    moved = make_pairs("step", 1, 5, 3, root=DyadicCube(0, (1,)))
    pr, _ = setup("bilinear-ratio", 1)
    for other in (deeper, moved):
        with pytest.raises(ParameterError, match="share one grid"):
            ratio_harness("bilinear-ratio", pr, pairs + other, (4, 5))
    f, g = pairs[0][1], deeper[0][2]
    with pytest.raises(ParameterError, match="share one grid"):
        ratio_harness("bilinear-ratio", pr, [("mixed", f, g)], (4, 5))


def test_level_below_the_base_depth_is_refused():
    pr, _ = setup("bilinear-ratio", 1)
    with pytest.raises(ParameterError, match="below the pair's base depth"):
        ratio_harness("bilinear-ratio", pr, make_pairs("step", 2, 5, 4), (4, 3))


@pytest.mark.parametrize("theorem", ["olsen", "two-weight", "one-weight"])
def test_weights_off_the_pairs_grid_are_refused(theorem, monkeypatch):
    # the pairs sit on the unit root at depth 3 and the levels start at 3
    pr, ws = setup(theorem, 1)
    calls = []
    monkeypatch.setattr(experiments, "_b_values", lambda *args: calls.append(args))
    finer = WeightSystem(*(x.refine(1) for x in (ws.v, ws.w1, ws.w2)))
    moved = power_system(0.0225, 0.02, 0.02, (0.0,), DyadicCube(1, (0,)), 2)
    for bad, named in ((finer, "DyadicCube(level=0, coords=(0,)) at depth 4"),
                       (moved, "DyadicCube(level=1, coords=(0,)) at depth 2")):
        with pytest.raises(ParameterError, match="weights on root") as err:
            ratio_harness(theorem, pr, mixed_pairs(1), (3, 4, 5), ws=bad)
        assert named in str(err.value)
        assert "pairs on root DyadicCube(level=0, coords=(0,)) at levels (3, 4, 5)" in str(err.value)
    assert calls == []  # refused before any operator call
    monkeypatch.undo()  # weights coarser than the first level are refined per level
    coarser = WeightSystem(*(GridFunction(unit_root(1), x.values[::2], "pos")
                             for x in (ws.v, ws.w1, ws.w2)))
    res = ratio_harness(theorem, pr, make_pairs("step", 2, 5, 3), (3, 4), ws=coarser)
    assert len(res.records) == 4


def test_zero_right_side_names_its_pair():
    pairs = make_pairs("step", 3, 5, 3)

    def hook(grid, fam, fv, gv, base):
        assert fv.shape == gv.shape == (3, 2 ** grid.depth)
        assert base[0].shape == base[1].shape == (3, 2 ** 3)  # the pairs' own depth
        return np.ones(3), np.array([1.0, 0.0, 0.0])
    with pytest.raises(NumericalError, match="for pair step-1$"):
        _ratio_core("t", (4,), lambda level: pairs, hook)


def test_overflowing_operator_output_is_refused():
    pr, _ = setup("bilinear-ratio", 1)
    big = GridFunction(unit_root(1), np.full(8, 1e200))
    with pytest.raises(NumericalError, match="overflowed"):
        ratio_harness("bilinear-ratio", pr, [("big", big, big)], (3, 4))


@pytest.mark.parametrize("theorem", ["olsen", "two-weight"])
def test_overflowing_weighted_product_is_refused(theorem):
    # B v overflows: a numerical failure of the scan over it, not a bad input
    pr, ws = setup(theorem, 1)
    huge = WeightSystem(ws.v.with_values(np.full(8, 1e308), "pos"), ws.w1, ws.w2)
    with pytest.raises(NumericalError, match="^supremum overflowed to a non-finite value$"):
        ratio_harness(theorem, pr, mixed_pairs(1), (3, 4), ws=huge)
