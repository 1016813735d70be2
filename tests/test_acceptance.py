"""Acceptance gate: one test per criterion, at the stated tolerances.

These call the same functions as `morreybench selftest`, so the CLI gate and
the pytest gate cannot drift apart.

Known red: the cluster-norm bound inside criterion 2 asserts the
single-cluster constant 3**(n/p1) for the exact Morrey norm of the
cluster-lattice pair.  The exact norm of the union construction is driven by
cubes that capture every cluster and lands near 3**(n/q1) > 3**(n/p1), so
the assertion fails for every delta even though the norms are delta-uniform
(the property the blow-up argument consumes, asserted separately below).
The check is kept as stated rather than loosened.
"""

import numpy as np
import pytest

from morreybench import acceptance, decomposition, experiments
from morreybench.grid import DyadicCube, GridFunction, unit_root
from morreybench.operators import b_alpha, b_alpha_dyadic


@pytest.fixture(scope="module")
def ctx():
    return {"seed": 20240801}


def _run(fn, ctx):
    res = fn(ctx)
    print(res.line)
    return res


def test_criterion_01_quadrature_closed_form(ctx):
    assert _run(acceptance.criterion_01, ctx).passed


def test_criterion_02_sharpness_norm_floor(ctx):
    res = _run(acceptance.criterion_02, ctx)
    assert res.passed, res.detail


def test_criterion_02_floor_and_uniformity_components(ctx):
    # the two sub-properties that hold: pointwise floor with 5% tolerance and
    # delta-uniform boundedness of the cluster norms
    blow, _ = acceptance._sharpness(ctx, acceptance.BLOWUP)
    assert blow.floors_hold()
    nf = [r.norm_f for r in blow.rows]
    assert max(nf) / min(nf) < 1.10


@pytest.mark.parametrize("spread,uniform", [(1.0999, True), (1.1001, False)])
def test_criterion_02_uniformity_detail_just_past_its_threshold(spread, uniform):
    # cluster norms fed in place of the blow-up run: 1 and ``spread``, both
    # above the bound 1, so the detail reports their delta-uniformity
    rows = [experiments.SharpnessRow(m, 2.0 ** -m, 1.0, 1.0, True, norm, 1.0, 1.0, 1.0, 1.0)
            for m, norm in ((4, 1.0 + 1e-9), (5, spread))]
    blow = experiments.SharpnessResult(acceptance.BLOWUP, rows, 0.0, -0.1, False)
    res = acceptance.criterion_02({"sharp": {acceptance.BLOWUP: (blow, 0.0)}})
    assert not res.passed
    assert f"(delta-uniform boundedness: {uniform})" in res.detail


def test_criterion_03_blowup_slope(ctx):
    assert _run(acceptance.criterion_03, ctx).passed


@pytest.mark.parametrize("blow,flat,passed,detail", [
    pytest.param(-0.069, 0.0, False, "blow-up slope -0.069 (<= -0.07 FAIL)", id="blow-up-past"),
    pytest.param(-0.071, 0.0, True, "blow-up slope -0.071 (<= -0.07 ok)", id="blow-up-inside"),
    pytest.param(-0.1, 0.0301, False, "boundary slope 0.0301 (|.| <= 0.03 FAIL)",
                 id="boundary-past"),
    pytest.param(-0.1, -0.0301, False, "boundary slope -0.0301 (|.| <= 0.03 FAIL)",
                 id="boundary-past-below"),
    pytest.param(-0.1, 0.0299, True, "boundary slope 0.0299 (|.| <= 0.03 ok)",
                 id="boundary-inside"),
])
def test_criterion_03_gates_just_past_their_thresholds(blow, flat, passed, detail):
    # slopes fed in place of the two sharpness runs
    runs = {cfg: (experiments.SharpnessResult(cfg, [], slope, -0.1, cfg is acceptance.BOUNDARY),
                  0.0)
            for cfg, slope in ((acceptance.BLOWUP, blow), (acceptance.BOUNDARY, flat))}
    res = acceptance.criterion_03({"sharp": runs})
    assert res.passed is passed and detail in res.detail


def test_criterion_04_dyadic_model_equivalence(ctx):
    assert _run(acceptance.criterion_04, ctx).passed


def test_criterion_05_pointwise_holder(ctx):
    assert _run(acceptance.criterion_05, ctx).passed


@pytest.mark.parametrize("criterion,name,count", [
    pytest.param(acceptance.criterion_04, "_rand_pair", 20, id="04-draws"),
    pytest.param(acceptance.criterion_04, "_correlate", 4, id="04-correlate"),
    pytest.param(acceptance.criterion_05, "_rand_pair", 20, id="05-draws"),
    pytest.param(acceptance.criterion_05, "_b_values", 1, id="05-b-values"),
    pytest.param(acceptance.criterion_06, "_rand_pair", 10, id="06-draws"),
])
def test_seeded_pairs_drawn_and_used_once(ctx, monkeypatch, criterion, name, count):
    # every seeded pair is drawn once, not once per depth or exponent;
    # criterion 4 takes both of its operators from one two-column correlate
    # per depth, and criterion 5 B_alpha from one call over all pairs
    calls = []
    fn = getattr(acceptance, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    monkeypatch.setattr(acceptance, name, counted)
    assert criterion(ctx).passed
    assert len(calls) == count
    if name == "_correlate":
        assert [args[2].shape[-1] for args in calls] == [2] * count


def test_criterion_04_columns_are_the_two_operators(monkeypatch):
    # each depth's two columns agree with b_alpha and b_alpha_dyadic per pair
    # (the column blocks of a stacked correlate may move the last digits)
    outs = []
    real = acceptance._correlate

    def recorded(fv, gv, tables):
        outs.append((fv, gv, real(fv, gv, tables)))
        return outs[-1][2]
    monkeypatch.setattr(acceptance, "_correlate", recorded)
    acceptance.criterion_04({})
    assert len(outs) == 4
    for fv, gv, out in outs:
        for f, g, b, d in zip(fv, gv, out[..., 0], out[..., 1]):
            f, g = (GridFunction(unit_root(1), x) for x in (f, g))
            np.testing.assert_allclose(b, b_alpha(f, g, 0.5).fn.values, rtol=1e-12, atol=0)
            np.testing.assert_allclose(d, b_alpha_dyadic(f, g, 0.5, unit_root(1)).fn.values,
                                       rtol=1e-12, atol=0)


@pytest.mark.parametrize("spread,passed", [(1.0999, True), (1.1001, False)])
def test_criterion_04_gates_the_spread_of_its_spreads(ctx, monkeypatch, spread, passed):
    # the per-depth spreads read 1, 1, 1 and ``spread``: their ratio must stay below 1.10
    def fake(fv, gv, tables):
        out = np.ones(fv.shape + (2,))
        out[..., 0, 0] = spread if fv.shape[-1] == 2 ** 7 else 1.0
        return out
    monkeypatch.setattr(acceptance, "_correlate", fake)
    res = acceptance.criterion_04(ctx)
    assert res.passed == passed
    assert res.detail == f"spread by level 4:1.0 5:1.0 6:1.0 7:{spread!r}"


@pytest.mark.parametrize("excess,passed", [(1e-9, True), (1.0001e-9, False)])
def test_criterion_05_gates_its_worst_excess(ctx, monkeypatch, excess, passed):
    # B reads ``excess`` everywhere and every I_alpha reads 0
    monkeypatch.setattr(acceptance, "_b_values",
                        lambda grid, fv, gv, alpha: np.full(fv.shape, excess))
    monkeypatch.setattr(acceptance, "_i_values", lambda grid, fv, alpha: np.zeros(fv.shape))
    res = acceptance.criterion_05(ctx)
    assert res.passed == passed
    assert res.detail == f"worst excess {excess!r}"


def test_criterion_06_maximal_control(ctx):
    assert _run(acceptance.criterion_06, ctx).passed


@pytest.mark.parametrize("growth,passed", [(1.049, True), (1.051, False)])
def test_criterion_06_gates_the_growth_of_its_constant(ctx, monkeypatch, growth, passed):
    # the constant may grow at most 1.05x per depth: here it is growth**depth
    monkeypatch.setattr(acceptance, "_b_values",
                        lambda grid, fv, gv, alpha: np.ones(fv.shape[:1] + grid.values.shape))
    monkeypatch.setattr(acceptance, "_bilinear_maximal",
                        lambda grid, fv, gv, alpha, fam: np.full(fv.shape, growth ** grid.depth))
    assert acceptance.criterion_06(ctx).passed == passed


def test_criterion_07_stopping_decomposition(ctx):
    assert _run(acceptance.criterion_07, ctx).passed


def test_criterion_07_measures_halving_itself(ctx, monkeypatch):
    # handed the family at a = 2, whose halving fails, criterion 7 measures
    # it on the masks
    monkeypatch.setattr(acceptance, "choose_a",
                        lambda f, g, q0: decomposition.cz_decompose(f, g, q0, 2.0))
    res = acceptance.criterion_07(ctx)
    assert not res.passed
    assert res.detail.startswith("seed 0: halving violated at a=2.0")


@pytest.mark.parametrize("sandwich,second,problems", [
    pytest.param(2.0, None, ["sandwich broken at k=1"], id="sandwich"),
    pytest.param(3.0, DyadicCube(-2, (0,)), ["generation 1 cubes overlap", "partition broken"],
                 id="overlap"),
    pytest.param(3.0, DyadicCube(-1, (1,)), ["partition broken"], id="partition"),
])
def test_criterion_07_reports_each_broken_structure(ctx, monkeypatch, sandwich, second, problems):
    # a fake decomposition at a = 2 selects [0, 1/2) with m_3Q = ``sandwich``
    # (a**1 < m_3Q is strict), and a second cube that overlaps it or lies
    # where E_0 already counts its cells; peak 3 on [0, 1/2) keeps D_2 empty
    def fake(f, g, q0):
        peak = np.where(np.arange(64) < 32, 3.0, 0.0)
        gen = [decomposition.SelectedCube(cube, m, 0) for cube, m in
               ((DyadicCube(-1, (0,)), sandwich), (second, 3.0)) if cube is not None]
        return decomposition.StoppingFamily(f, q0, 2.0, [gen], peak, 0.0)
    monkeypatch.setattr(acceptance, "choose_a", fake)
    res = acceptance.criterion_07(ctx)
    assert not res.passed
    assert res.detail.split("; ") == [f"seed {seed}: {p}" for seed in (0, 1, 2)
                                      for p in problems][:3]


def test_criterion_08_packing_bound(ctx):
    assert _run(acceptance.criterion_08, ctx).passed


@pytest.mark.parametrize("ratio,passed", [(1.0 + 5e-13, True), (1.0 + 2e-12, False)])
def test_criterion_08_gates_its_worst_ratio(ctx, monkeypatch, ratio, passed):
    monkeypatch.setattr(acceptance, "packing_sum", lambda q, v, t, alpha: ratio)
    res = acceptance.criterion_08(ctx)
    assert res.passed is passed and res.detail == f"worst ratio {ratio!r}"


def test_criterion_09_weighted_harness(ctx):
    assert _run(acceptance.criterion_09, ctx).passed


@pytest.mark.parametrize("excess,chain", [(5e-13, "ok"), (2e-12, "FAIL")])
def test_criterion_09_gates_the_majorant_chain(ctx, monkeypatch, excess, chain):
    # the single-cube majorant fed as the two-weight values over 1 + ``excess``
    # on every system of the stack: the chain allows 1e-12 of rounding
    monkeypatch.setattr(acceptance, "char_remark", lambda systems, cp, fam:
                        acceptance.char_two_weight(systems, cp, fam) / (1.0 + excess))
    res = acceptance.criterion_09(ctx)
    assert res.passed is (chain == "ok") and res.detail.endswith(f"majorant chain {chain}")


def test_criterion_10_power_weight_dichotomy(ctx):
    assert _run(acceptance.criterion_10, ctx).passed


def test_criterion_11_necessity_testing(ctx):
    assert _run(acceptance.criterion_11, ctx).passed


def test_criterion_11_stack_reports_each_system_alone(ctx, monkeypatch):
    # item k of the one stacked call equals the check of system k alone,
    # which draws its pairs from seed + k
    calls = []
    real = acceptance.necessity_check
    monkeypatch.setattr(acceptance, "necessity_check",
                        lambda *args, **kw: calls.append((args, kw)) or real(*args, **kw))
    acceptance.criterion_11(ctx)
    ((systems, cp, family), kw), = calls
    reports = real(systems, cp, family, **kw)
    assert len(reports) == 10
    for k, ws in enumerate(systems):
        assert reports[k] == real([ws], cp, family, seed=kw["seed"] + k)[0]


def test_criterion_11_makes_one_bilinear_maximal_call(ctx, monkeypatch):
    calls = []
    real = experiments._bilinear_maximal
    monkeypatch.setattr(experiments, "_bilinear_maximal",
                        lambda *args: calls.append(args) or real(*args))
    assert acceptance.criterion_11(ctx).passed
    assert len(calls) == 1


def test_criterion_12_determinism(ctx):
    assert _run(acceptance.criterion_12, ctx).passed


def test_sharpness_runs_each_config_once_when_read(monkeypatch):
    # BLOWUP and BOUNDARY differ only in t: criterion 3 makes one B per delta,
    # and criterion 2 reads only the blow-up run, so it computes no t = 2.5 norm
    calls, norm_ts = [], []
    real_b, real_norm = experiments.b_alpha, experiments.morrey_norm
    monkeypatch.setattr(experiments, "b_alpha", lambda *a: calls.append(a) or real_b(*a))
    monkeypatch.setattr(experiments, "morrey_norm",
                        lambda f, p, q, fam: norm_ts.append(q) or real_norm(f, p, q, fam))
    deltas = len(acceptance.BLOWUP.delta_exps)
    acceptance.criterion_03({"seed": 20240801})
    assert len(calls) == deltas == 5
    calls.clear()
    norm_ts.clear()
    shared = {"seed": 20240801}
    acceptance.criterion_02(shared)
    assert len(calls) == deltas and acceptance.BOUNDARY.t not in norm_ts
    acceptance.criterion_03(shared)
    acceptance.criterion_02(shared)
    assert len(calls) == deltas and norm_ts.count(acceptance.BOUNDARY.t) == deltas


def test_shared_sharpness_rows_equal_a_run_per_t():
    # each t's result from the shared t-free part equals its own run bit for bit
    shared = {}
    for cfg in (acceptance.BLOWUP, acceptance.BOUNDARY):
        got, alone = experiments.run_sharpness(cfg, shared), experiments.run_sharpness(cfg)
        assert got.table() == alone.table() and got.slope == alone.slope
    assert len(shared) == len(acceptance.BLOWUP.delta_exps)
