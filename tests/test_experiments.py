from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from morreybench import experiments
from morreybench import (DyadicCube, GridFunction, NumericalError, ParameterError,
                         aligned_family, b_alpha, cube_box, dyadic_family,
                         enumerate_subcubes, m_alpha_bilinear, m_alpha_vector, morrey_norm,
                         pair_morrey_sup, unit_root)
from morreybench.experiments import (ExponentProfile, FsDualParams, HarnessResult,
                                     NecessityReport, SharpnessConfig,
                                     SteinWeissParams, build_sharpness_pair,
                                     fs_dual_check, make_pairs, necessity_check,
                                     random_weights, ratio_harness, run_sharpness,
                                     stein_weiss_check, stein_weiss_harness)
from morreybench.relations import violations
from morreybench.util import make_rng
from morreybench.weights import (INF, CharParams, WeightSystem, char_one_weight, char_remark,
                                 char_testing, char_two_weight, power_system,
                                 power_weight)

from geometry_reference import center

BLOWUP_CFG = SharpnessConfig(n=1, alpha=0.3, p1=4, q1=2, p2=4, q2=2, t=5.0)
BOUNDARY_CFG = SharpnessConfig(n=1, alpha=0.3, p1=4, q1=2, p2=4, q2=2, t=2.5)


def two_weight_cp():
    s, p, q = 0.8, 16.0 / 27.0, 9.0 / 16.0
    return CharParams(alpha=0.5, n=1, q1=9 / 8, q2=9 / 8, p=p, s=s,
                      t=s * q / p, r=16.0, a=17 / 16)


def power_weights(depth=4):
    return power_system(0.0225, 0.02, 0.02, 0.0, unit_root(1), depth)


class TestProfiles:
    def test_valid_configs(self):
        assert violations(ExponentProfile(alpha=0.3, n=1, p1=4, q1=2.5, p2=4, q2=2.5,
                                          s=5.0, t=3.125), "bilinear-ratio") == []
        assert violations(ExponentProfile(alpha=0.5, n=1, p1=1.5, q1=1.2,
                                          s=6.0, t=4.8), "linear-adams") == []

    def test_conjugate_room_is_enforced(self):
        # q1 = q2 = 2 leaves no room for conjugate exponents below q_i
        prof = ExponentProfile(alpha=0.3, n=1, p1=4, q1=2, p2=4, q2=2,
                               s=5.0, t=2.5)
        assert "1/q1 + 1/q2 < 1" in violations(prof, "bilinear-ratio")

    def test_validation_raises_named_predicate(self):
        prof = ExponentProfile(alpha=0.3, n=1, p1=4, q1=2.5, p2=4, q2=2.5,
                               s=4.0, t=2.5)
        with pytest.raises(ParameterError, match="1/s = 1/p1"):
            ratio_harness("bilinear-ratio", prof, make_pairs("step", 1, 1, 4), (4,))


class TestSharpnessPair:
    def test_delta_sixteenth_lattice(self):
        f, g, meta = build_sharpness_pair(BLOWUP_CFG, 4)
        assert len(meta.inner_boxes) == 3               # N - 1 cubes, N = floor(delta^-1/2)
        assert f.values.max() == pytest.approx((1 / 16) ** -0.25)
        # support is the union of triples: 3 clusters x width 3*delta
        support = np.count_nonzero(f.values) * f.cell_volume
        assert support == pytest.approx(3 * 3 * meta.delta, rel=1e-12)
        assert np.array_equal(f.values > 0, g.values > 0)

    def test_norms_are_delta_stable_but_exceed_single_cluster_bound(self):
        # the exact all-aligned Morrey norm of the pair is bounded uniformly
        # in delta, which is what the blow-up argument needs; cubes capturing
        # every cluster push it above the one-cluster constant 3**(n/p1),
        # close to 3**(n/q1)
        norms = []
        for m in (4, 6, 8):
            f, _, _ = build_sharpness_pair(BLOWUP_CFG, m)
            norms.append(morrey_norm(f, 4.0, 2.0, aligned_family(f)).value)
        assert max(norms) / min(norms) < 1.10
        assert all(v > 3 ** 0.25 for v in norms)
        assert all(v <= 3 ** 0.5 * (1 + 1e-9) for v in norms)

    def test_single_cluster_value_is_attained(self):
        # a cube equal to one triple evaluates exactly to 3**(n/p1)
        f, _, meta = build_sharpness_pair(BLOWUP_CFG, 4)
        lo, hi = meta.inner_boxes[0]
        w = (hi - lo) * 3 // 2
        c = (lo + hi) // 2
        block = f.values[c - w:c + w]
        val = ((2 * w) * f.cell_volume) ** 0.25 * np.mean(block ** 2) ** 0.5
        assert val == pytest.approx(3 ** 0.25, rel=1e-12)


class TestSharpnessRun:
    def test_blowup_branch(self):
        res = run_sharpness(BLOWUP_CFG)
        assert res.floors_hold()
        assert not res.boundary
        assert res.slope <= res.slope_bound + 0.03
        assert res.slope_bound == pytest.approx(-0.1)

    def test_boundary_branch(self):
        res = run_sharpness(BOUNDARY_CFG)
        assert res.boundary
        assert abs(res.slope) <= 0.03

    def test_pointwise_floor_has_margin(self):
        res = run_sharpness(BLOWUP_CFG)
        for row in res.rows:
            assert row.min_pointwise >= 0.95 * row.floor

    @pytest.mark.parametrize("p2,q2", [pytest.param(5.0, 2.0, id="p1-ne-p2"),
                                       pytest.param(4.0, 3.0, id="p1-eq-p2-q1-ne-q2")])
    def test_norm_of_g_reads_its_own_exponents(self, p2, q2):
        # only (p2, q2) == (p1, q1) makes g equal to f, and its norm a copy
        cfg = replace(BLOWUP_CFG, p2=p2, q2=q2, delta_exps=(4, 5))
        for m, row in zip(cfg.delta_exps, run_sharpness(cfg).rows):
            f, g, _ = build_sharpness_pair(cfg, m)
            fam = aligned_family(f)
            assert row.norm_f == morrey_norm(f, cfg.p1, cfg.q1, fam).value
            assert row.norm_g == morrey_norm(g, p2, q2, fam).value != row.norm_f


class TestGates:
    """Each gate fails just past its threshold and holds just inside it."""

    @pytest.mark.parametrize("growth,stable", [(1.051, False), (1.049, True)])
    def test_harness_growth_limit(self, growth, stable):
        res = HarnessResult("bilinear-ratio", [], {k: growth ** k for k in (4, 5, 6)})
        assert res.stable is stable

    @pytest.mark.parametrize("share,ok", [(0.949, False), (0.951, True)])
    def test_sharpness_floor_tolerance(self, monkeypatch, share, ok):
        # B replaced by a constant at ``share`` of each delta's floor delta**(-n/s)
        cfg = replace(BLOWUP_CFG, delta_exps=(4, 5))
        deltas, build = [], experiments.build_sharpness_pair

        def pair(cfg, m):
            f, g, meta = build(cfg, m)
            deltas.append(meta.delta)
            return f, g, meta

        def flat(f, g, alpha):
            floor = deltas[-1] ** (-cfg.n / cfg.s)
            return SimpleNamespace(fn=GridFunction(f.root, np.full(f.values.shape, share * floor),
                                                   "pos"))
        monkeypatch.setattr(experiments, "build_sharpness_pair", pair)
        monkeypatch.setattr(experiments, "b_alpha", flat)
        res = run_sharpness(cfg)
        assert [row.floor_ok for row in res.rows] == [ok, ok]
        assert res.floors_hold() is ok


class TestRatioHarness:
    def test_zero_pair_gives_zero_ratio(self):
        prof = ExponentProfile(alpha=0.3, n=1, p1=4, q1=2.5, p2=4, q2=2.5,
                               s=5.0, t=3.125)
        z = GridFunction(unit_root(1), np.zeros(16))
        res = ratio_harness("bilinear-ratio", prof, [("zero", z, z)], (4,))
        assert res.records[0].ratio == 0.0

    def test_invalid_hypotheses_rejected(self):
        prof = ExponentProfile(alpha=0.3, n=1, p1=4, q1=2, p2=4, q2=2,
                               s=5.0, t=2.5)
        with pytest.raises(ParameterError, match="1/q1"):
            ratio_harness("bilinear-ratio", prof, [], (4,))
        # valid exponents, but no pairs, or no weights for a weighted theorem
        with pytest.raises(ParameterError, match="^ratio harness needs at least one pair$"):
            ratio_harness("bilinear-ratio", replace(prof, q1=2.5, q2=2.5, t=3.125), [], (4,))
        with pytest.raises(ParameterError, match="^two-weight harness needs a weight system$"):
            ratio_harness("two-weight", two_weight_cp(), make_pairs("step", 1, 0, 4), (4,))

    @pytest.mark.parametrize("theorem,profile", [
        ("bilinear-ratio", ExponentProfile(alpha=0.3, n=1, p1=4, q1=2.5,
                                           p2=4, q2=2.5, s=5.0, t=3.125)),
        ("bilinear-sum", ExponentProfile(alpha=0.3, n=1, p1=4, q1=2.5,
                                         p2=4, q2=2.5, s=5.0, t=2.0)),
        ("bilinear-critical", ExponentProfile(alpha=0.25, n=1, p1=4.0, q1=2.5,
                                              p2=3.0, q2=2.5)),
        ("linear-adams", ExponentProfile(alpha=0.5, n=1, p1=1.5, q1=1.2,
                                         s=6.0, t=4.8)),
        ("product-embedding", ExponentProfile(alpha=0.6, n=1, p1=1.25, q1=1.25,
                                              p2=2.0, q2=2.0, s=10 / 7, t=10 / 7)),
    ])
    def test_unweighted_harnesses_stable(self, theorem, profile):
        pairs = make_pairs("step", 6, 2024, 4) + make_pairs("indicator", 2, 55, 4)
        res = ratio_harness(theorem, profile, pairs, (4, 5, 6))
        assert res.stable
        assert all(r.ratio >= 0 for r in res.records)

    def test_two_weight_power_harness_stable(self):
        cp = two_weight_cp()
        ws = power_weights()
        pairs = make_pairs("step", 6, 42, 4)
        res = ratio_harness("two-weight", cp, pairs, (4, 5, 6), ws=ws)
        assert res.stable

    def test_remark_chain_on_every_system(self):
        cp = two_weight_cp()
        fam = dyadic_family(unit_root(1), -4)
        systems = [power_weights()]
        rng = make_rng(9, 47)
        for _ in range(5):
            mk = lambda: GridFunction(unit_root(1), np.exp(rng.uniform(-2, 2, 16)), "pos")
            systems.append(WeightSystem(mk(), mk(), mk()))
        for ws in systems:
            two = char_two_weight(ws, cp, fam).value
            single = char_remark(ws, cp, fam).value
            assert two <= single * (1 + 1e-12)

    def test_pair_generation_is_deterministic(self):
        a = make_pairs("step", 3, 77, 4)
        b = make_pairs("step", 3, 77, 4)
        for (na, fa, ga), (nb, fb, gb) in zip(a, b):
            assert na == nb
            assert np.array_equal(fa.values, fb.values)
            assert np.array_equal(ga.values, gb.values)


class TestSteinWeiss:
    def finite_params(self):
        return SteinWeissParams(n=1, alpha=0.5, q1=9 / 8, q2=9 / 8,
                                p1=32 / 27, p2=32 / 27, r=16.0, a=17 / 16,
                                beta=0.0225, gamma1=0.02, gamma2=0.02)

    def test_balanced_set_satisfies_conditions(self):
        assert violations(self.finite_params(), "stein-weiss-weights") == []

    def test_finite_verdict(self):
        v = stein_weiss_check(self.finite_params())
        assert v.verdict == "FINITE"
        vals = list(v.char_by_level.values())
        assert max(vals) / min(vals) < 1.10
        assert stein_weiss_harness(self.finite_params()).stable

    def test_unweighted_reduction_characteristic_is_one(self):
        sw = SteinWeissParams(n=1, alpha=0.5, q1=9 / 8, q2=9 / 8,
                              p1=32 / 27, p2=32 / 27, r=INF, a=17 / 16,
                              beta=0.0, gamma1=0.0, gamma2=0.0)
        assert violations(sw, "stein-weiss-weights") == []
        v = stein_weiss_check(sw)
        assert v.verdict == "FINITE"
        for val in v.char_by_level.values():
            assert val == pytest.approx(1.0, rel=1e-12)

    def test_negative_exponent_sum_diverges(self):
        sw = SteinWeissParams(n=1, alpha=0.5, q1=9 / 8, q2=9 / 8,
                              p1=32 / 27, p2=32 / 27, r=16.0, a=17 / 16,
                              beta=-0.54, gamma1=0.02, gamma2=0.02)
        assert sw.sigma < 0
        v = stein_weiss_check(sw)
        assert v.verdict == "DIVERGENT"
        assert all(g > 1.10 for g in v.growth)

    @pytest.mark.parametrize("k_levels", [(0,), (2, 2), ()])
    def test_fewer_than_two_root_levels_refused(self, k_levels):
        # a single root level always has spread 1, so it would read FINITE
        # even for the negative-sum weights that diverge
        sw = SteinWeissParams(n=1, alpha=0.5, q1=9 / 8, q2=9 / 8,
                              p1=32 / 27, p2=32 / 27, r=16.0, a=17 / 16,
                              beta=-0.54, gamma1=0.02, gamma2=0.02)
        with pytest.raises(ParameterError, match="^a dichotomy needs at least two distinct"):
            stein_weiss_check(sw, k_levels=k_levels)

    @pytest.mark.parametrize("chars,verdict", [
        pytest.param([1.0, 1.0, 1.0, 1.0, 1.0999], "FINITE", id="spread-inside"),
        pytest.param([1.0, 1.0, 1.0, 1.0, 1.1001], "INCONCLUSIVE", id="spread-past"),
        pytest.param([1.1001 ** k for k in range(5)], "DIVERGENT", id="growth-past"),
        pytest.param([1.0, 1.2, 1.44, 1.728, 1.728 * 1.0999], "INCONCLUSIVE",
                     id="one-growth-inside"),
    ])
    def test_verdict_just_past_its_thresholds(self, monkeypatch, chars, verdict):
        # the characteristic of root level k is fed as chars[k]: FINITE below
        # a spread of 1.10, DIVERGENT when every growth exceeds 1.10
        monkeypatch.setattr(experiments, "_power_char", lambda sw, root, depth: chars[root.level])
        assert stein_weiss_check(self.finite_params()).verdict == verdict

    def test_far_cube_factor_bounded_on_balanced_set(self):
        # far from the origin (|c_Q| >= l(Q)) the cube factor behaves like
        # l(Q)**sigma |c_Q|**-sigma times |Q|**(1/r); with the balanced set it
        # stays below the near-origin supremum
        sw = self.finite_params()
        v = stein_weiss_check(sw, k_levels=(0, 4))
        assert v.char_by_level[4] <= v.char_by_level[0] * (1 + 1e-9)

    def test_far_cube_factor_cubewise(self):
        # cube-by-cube: the product of powered-weight averages on far cubes
        # is at most a small stable multiple of |c_Q|**-sigma
        from morreybench import DyadicCube, cube_box
        from morreybench.weights import power_weight
        sw = self.finite_params()
        e_v = sw.a * sw.s / (1.0 - sw.s)
        d1 = (sw.q1 / sw.a) / (sw.q1 / sw.a - 1.0)
        d2 = d1
        worst_by_level = []
        for k in (2, 3):
            root = DyadicCube(k, (0,))
            depth = 5 + k
            pv = power_weight(-sw.beta * e_v, 0.0, root, depth)
            p1 = power_weight(-sw.gamma1 * d1, 0.0, root, depth)
            p2 = power_weight(-sw.gamma2 * d2, 0.0, root, depth)
            worst = 0.0
            for cube in enumerate_subcubes(root, k - depth + 2):
                x = center(cube)[0]
                if x < cube.side:  # near-origin cubes excluded
                    continue
                sl = cube_box(pv, cube).slices()
                product = (np.mean(pv.values[sl]) ** (1.0 / e_v)
                           * np.mean(p1.values[sl]) ** (1.0 / d1)
                           * np.mean(p2.values[sl]) ** (1.0 / d2))
                worst = max(worst, product * x ** sw.sigma)
            worst_by_level.append(worst)
        assert max(worst_by_level) < 4.0
        assert max(worst_by_level) / min(worst_by_level) < 1.05

    def test_structural_violation_rejected(self):
        sw = SteinWeissParams(n=1, alpha=0.5, q1=9 / 8, q2=9 / 8,
                              p1=32 / 27, p2=32 / 27, r=1.5, a=17 / 16,
                              beta=0.0225, gamma1=0.02, gamma2=0.02)
        with pytest.raises(ParameterError, match="n/\\(n-alpha\\) < r"):
            stein_weiss_check(sw)
        with pytest.raises(ParameterError, match="n/\\(n-alpha\\) < r"):
            stein_weiss_harness(sw)

    def test_probe_runs_no_operator(self, monkeypatch, tmp_path):
        # the dichotomy reads only the characteristic: neither the library
        # probe nor the CLI experiment applies the bilinear operator, either
        # one pair at a time or as a stack
        from morreybench import cli, experiments
        calls = []

        def counting(fn):
            def counted(*args, **kwargs):
                calls.append(args)
                return fn(*args, **kwargs)
            return counted
        monkeypatch.setattr(experiments, "b_alpha", counting(b_alpha))
        monkeypatch.setattr(experiments, "_b_values", counting(experiments._b_values))
        assert stein_weiss_check(self.finite_params()).verdict == "FINITE"
        argv = ["experiment", "stein-weiss", "--alpha", "1/2", "--q1", "9/8", "--q2", "9/8",
                "--p1", "32/27", "--p2", "32/27", "--r", "16", "--a", "17/16",
                "--beta", "0.0225", "--gamma1", "0.02", "--gamma2", "0.02",
                "--out", str(tmp_path / "verdict.txt")]
        assert cli.main(argv) == 0
        assert calls == []
        stein_weiss_harness(self.finite_params())  # the counter does see the harness
        assert [args[1].shape[0] for args in calls] == [4, 4, 4]  # one stack of 4 per level


class TestNecessity:
    def cp(self):
        return CharParams(alpha=0.5, n=1, q1=4.0, q2=4.0, p=2.5, s=20 / 3,
                          t=16 / 3, r=4.0, a=2.0)

    def random_system(self, seed, depth=5):
        rng = make_rng(seed, 23)
        mk = lambda: GridFunction(unit_root(1),
                                  np.exp(rng.uniform(-2, 2, size=2 ** depth)), "pos")
        return WeightSystem(mk(), mk(), mk())

    def test_all_ones_trivial(self):
        root = unit_root(1)
        mk = lambda: GridFunction(root, np.ones(16), "pos")
        ws = WeightSystem(mk(), mk(), mk())
        rep, = necessity_check([ws], self.cp(), dyadic_family(root, -4))
        assert rep.exact_floor_ok
        assert rep.char_value == pytest.approx(1.0, rel=1e-12)
        assert np.isfinite(rep.ratio)

    def test_exact_indicator_floor_and_bounded_ratio(self):
        ratios = []
        for seed in range(10):
            ws = self.random_system(seed)
            rep, = necessity_check([ws], self.cp(), dyadic_family(unit_root(1), -5),
                                   seed=seed)
            assert rep.exact_floor_ok
            ratios.append(rep.ratio)
        # necessary constant is controlled by the empirical operator constant
        # with a data-independent factor
        assert max(ratios) < 4.0

    def test_ratio_is_refinement_stable(self):
        base = self.random_system(3, depth=4)
        fine = WeightSystem(base.v.refine(1), base.w1.refine(1), base.w2.refine(1))
        r0 = necessity_check([base], self.cp(), dyadic_family(unit_root(1), -4))[0].ratio
        r1 = necessity_check([fine], self.cp(), dyadic_family(unit_root(1), -5))[0].ratio
        assert r1 <= 1.25 * r0


def necessity_by_probe(ws, cp, family, pairs=None, seed=5):
    """The necessity check one probe and one pair at a time, through the
    public single-pair operators and norms."""
    grid, n = ws.v, ws.v.dim
    d1, d2 = cp.q1 / (cp.q1 - 1.0), cp.q2 / (cp.q2 - 1.0)
    exact_ok, extremal = True, []
    lowest = max(family.min_level, grid.cell_level + 1)
    probes = (enumerate_subcubes(family.root, lowest)[:24]
              if lowest <= family.root.level else [])
    for cube in probes:
        sl = cube_box(grid, cube).slices()
        fvals, gvals = np.zeros_like(grid.values), np.zeros_like(grid.values)
        fvals[sl] = ws.w1.values[sl] ** (-d1)
        gvals[sl] = ws.w2.values[sl] ** (-d2)
        f, g = grid.with_values(fvals, "nonneg"), grid.with_values(gvals, "nonneg")
        extremal.append(("extremal", f, g))
        ind = grid.with_values((fvals > 0).astype(float), "nonneg")
        m_ind = m_alpha_vector(ind, ind, cp.alpha, 1.0, 1.0, family).fn.values
        floor_rhs = float(np.mean(m_ind[sl] ** cp.t)) ** (1.0 / cp.t)
        exact_ok &= floor_rhs >= cube.volume ** (cp.alpha / n) * (1.0 - 1e-12)
    if pairs is None:
        pairs = make_pairs("step", 4, seed, grid.depth, n)
    op_const = 0.0
    for _, f, g in list(pairs) + extremal:
        mb = m_alpha_bilinear(f, g, cp.alpha, family).fn
        lhs = morrey_norm(mb.with_values(mb.values * ws.v.values), cp.s, cp.t, family).value
        rhs = pair_morrey_sup(f.with_values(np.abs(f.values) * ws.w1.values),
                              g.with_values(np.abs(g.values) * ws.w2.values),
                              cp.p, cp.q1, cp.q2, family).value
        if rhs > 0:
            op_const = max(op_const, lhs / rhs)
    char = char_testing(ws, cp, family).value
    return NecessityReport(char, op_const, char / op_const if op_const > 0 else INF,
                           exact_ok)


class TestNecessityStacked:
    """The stacked necessity check against the per-probe loop."""

    CP2 = CharParams(alpha=1.0, n=2, q1=4.0, q2=4.0, p=2.5, s=20 / 3, t=16 / 3, r=4.0,
                     a=2.0)

    def cases(self):
        cp = TestNecessity().cp()
        one = unit_root(1)
        yield random_weights(make_rng(1, 83, 0), one, 5), cp, dyadic_family(one, -5), None, 0
        yield random_weights(make_rng(1, 83, 1), one, 5), cp, dyadic_family(one, -3), None, 1
        # a sub-root family, and one whose finest level is the root's child
        yield (random_weights(make_rng(2, 83), one, 5), cp,
               dyadic_family(DyadicCube(-1, (1,)), -5), None, 2)
        yield random_weights(make_rng(3, 83), one, 4), cp, dyadic_family(one, -1), None, 3
        # one cell: no probe cube above the cell level, so every probe stack is empty
        ws = random_weights(make_rng(3, 83), one, 0)
        cell = [("cell", ws.v.with_values([2.0]), ws.v.with_values([-3.0]))]
        yield ws, cp, dyadic_family(one, 0), cell, 3
        # explicit pairs, signed and of several kinds
        ws = random_weights(make_rng(4, 83), one, 5)
        pairs = (make_pairs("indicator", 2, 9, 5, 1) + make_pairs("bump", 2, 9, 5, 1)
                 + [("signed", ws.v.with_values(np.sin(np.arange(32.0))),
                     ws.v.with_values(np.cos(np.arange(32.0))))])
        yield ws, cp, dyadic_family(one, -5), pairs, 4
        yield ws, cp, dyadic_family(one, -5), [], 4
        two = unit_root(2)
        yield random_weights(make_rng(5, 83), two, 3), self.CP2, dyadic_family(two, -3), None, 5
        yield (random_weights(make_rng(6, 83), two, 3), self.CP2,
               dyadic_family(DyadicCube(-1, (0, 1)), -3), None, 6)

    def test_reports_match_the_per_probe_loop(self):
        count = 0
        for ws, cp, family, pairs, seed in self.cases():
            got, = necessity_check([ws], cp, family, seed=seed, pairs=pairs)
            want = necessity_by_probe(ws, cp, family, pairs=pairs, seed=seed)
            assert got.exact_floor_ok == want.exact_floor_ok
            for name in ("char_value", "op_constant", "ratio"):
                assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-12), name
            count += 1
        assert count == 9

    def test_one_call_per_operator(self, monkeypatch):
        # probes and pairs share one bilinear maximal call; the cube-sup
        # maximal runs once, on the indicators of the exact floor
        from morreybench import experiments
        calls = []

        def counting(fn):
            def counted(grid, fv, gv, *args):
                calls.append((fn.__name__, fv.size // grid.values.size))
                return fn(grid, fv, gv, *args)
            return counted
        for name in ("_bilinear_maximal", "_vector_maximal"):
            monkeypatch.setattr(experiments, name, counting(getattr(experiments, name)))
        for ws, cp, family, pairs, seed in self.cases():
            calls.clear()
            necessity_check([ws], cp, family, seed=seed, pairs=pairs)
            assert sorted(name for name, _ in calls) == ["_bilinear_maximal", "_vector_maximal"]
            probes, stack = dict(calls)["_vector_maximal"], dict(calls)["_bilinear_maximal"]
            assert stack == probes + (4 if pairs is None else len(pairs))

    def test_overflowing_dual_power_refused(self):
        ws = random_weights(make_rng(7, 83), unit_root(1), 4)
        tiny = ws.w1.values.copy()
        tiny[5] = 1e-300  # 1e-300 ** -(4/3) overflows
        ws = WeightSystem(ws.v, ws.w1.with_values(tiny, "pos"), ws.w2)
        # the loop wraps each probe as an input grid, which refuses it; the
        # stacked check computes the probes, and the operator output over
        # them is the non-finite value it refuses
        with pytest.raises(ParameterError, match="finite"):
            necessity_by_probe(ws, TestNecessity().cp(), dyadic_family(unit_root(1), -4))
        with pytest.raises(NumericalError, match="^operator output overflowed"):
            necessity_check([ws], TestNecessity().cp(), dyadic_family(unit_root(1), -4))

    def test_pairs_off_the_weight_grid_refused(self):
        ws = random_weights(make_rng(8, 83), unit_root(1), 4)
        with pytest.raises(ParameterError):
            necessity_check([ws], TestNecessity().cp(), dyadic_family(unit_root(1), -4),
                            pairs=make_pairs("step", 1, 3, 5, 1))

    def test_systems_off_the_first_grid_refused(self):
        # the same array shape on another root: the stack alone would not see it
        systems = [random_weights(make_rng(8, 83), root, 4)
                   for root in (unit_root(1), DyadicCube(0, (1,)))]
        with pytest.raises(ParameterError, match="share one grid"):
            necessity_check(systems, TestNecessity().cp(), dyadic_family(unit_root(1), -4),
                            seed=3)

    def test_no_systems_refused(self):
        with pytest.raises(ParameterError, match="at least one weight system"):
            necessity_check([], TestNecessity().cp(), dyadic_family(unit_root(1), -4))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_system_k_draws_its_pairs_from_seed_plus_k(self, dim):
        # report k of one stacked call is system k alone, its pairs from seed + k
        cp = TestNecessity().cp() if dim == 1 else self.CP2
        root = unit_root(dim)
        family = dyadic_family(root, -3)
        systems = [random_weights(make_rng(9, 83, k), root, 3) for k in range(3)]
        got = necessity_check(systems, cp, family, seed=11)
        assert len(got) == 3
        for k, ws in enumerate(systems):
            want = necessity_by_probe(ws, cp, family, seed=11 + k)
            assert got[k].exact_floor_ok == want.exact_floor_ok
            for name in ("char_value", "op_constant", "ratio"):
                assert getattr(got[k], name) == pytest.approx(getattr(want, name), rel=1e-12)
            assert got[k] == necessity_check([ws], cp, family, seed=11 + k)[0]

    def test_each_step_is_drawn_once(self, monkeypatch):
        # system k's pairs are make_pairs("step", 4, seed + k) bit for bit, and
        # ten systems read 17 distinct steps: system k + 2's repeat system k's
        # shifted by one pair
        root = unit_root(1)
        systems = [random_weights(make_rng(9, 83, k), root, 3) for k in range(10)]
        draws, stacks = [], []
        rng, maximal = experiments.make_rng, experiments._bilinear_maximal
        monkeypatch.setattr(experiments, "make_rng", lambda *a: draws.append(a) or rng(*a))
        monkeypatch.setattr(experiments, "_bilinear_maximal", lambda grid, fv, gv, *rest: (
            stacks.append((fv, gv)) or maximal(grid, fv, gv, *rest)))
        necessity_check(systems, TestNecessity().cp(), dyadic_family(root, -3), seed=11)
        assert len(draws) == 17
        (fv, gv), = stacks
        for k in range(10):
            pairs = make_pairs("step", 4, 11 + k, 3)
            assert np.array_equal(fv[k, :4], [f.values for _, f, _ in pairs])
            assert np.array_equal(gv[k, :4], [g.values for _, _, g in pairs])


class TestFsDual:
    def params(self):
        return FsDualParams(two_weight_cp(), r1=32.0, r2=32.0,
                            s1=17 / 19, s2=17 / 19)

    def test_relations_validated(self):
        params = self.params()
        assert violations(params.cp, "s<1") + violations(params, "fs-dual") == []
        bad = FsDualParams(two_weight_cp(), r1=32.0, r2=16.0, s1=17 / 19, s2=17 / 19)
        ones = GridFunction(unit_root(1), np.ones(16), "pos")
        with pytest.raises(ParameterError, match="^relations violated: 1/r = 1/r1 \\+ 1/r2$"):
            fs_dual_check(ones, ones, bad)

    def test_unit_weights_reduce_to_unweighted(self):
        root = unit_root(1)
        ones = GridFunction(root, np.ones(16), "pos")
        rep = fs_dual_check(ones, ones, self.params(), levels=(4, 5))
        assert rep.split_ok
        assert rep.worst_split_excess == pytest.approx(1.0, rel=1e-12)
        assert rep.harness.stable

    def test_power_weights(self):
        root = unit_root(1)
        w1 = power_weight(0.05, 0.0, root, 4)
        w2 = power_weight(0.02, 0.0, root, 4)
        rep = fs_dual_check(w1, w2, self.params(), levels=(4, 5))
        assert rep.split_ok
        assert rep.harness.stable

    def test_random_weights_split_exact(self):
        rng = make_rng(15, 53)
        root = unit_root(1)
        w1 = GridFunction(root, np.exp(rng.uniform(-2, 2, 16)), "pos")
        w2 = GridFunction(root, np.exp(rng.uniform(-2, 2, 16)), "pos")
        rep = fs_dual_check(w1, w2, self.params(), levels=(4,))
        assert rep.split_ok


# s = 1 exactly, where the s >= 1 row holds: t/s = q/p with q = 9/16, and
# 1/s = 1/p + 1/r - alpha/n; E = (1 - as)/(as) = (1 - a)/a = -1/17
S_AT_1 = CharParams(alpha=0.5, n=1, q1=9 / 8, q2=9 / 8, p=0.75, s=1.0, t=0.75, r=6.0, a=17 / 16)


class TestHarnessLevelConstants:
    @pytest.mark.parametrize("theorem,cp", [
        pytest.param("two-weight", two_weight_cp(), id="two-weight-s<1"),
        pytest.param("two-weight", S_AT_1, id="two-weight-s=1"),
        pytest.param("two-weight", CharParams(alpha=0.5, n=1, q1=9 / 8, q2=9 / 8, p=1.0,
                                              s=16 / 9, t=1.0, r=16.0, a=17 / 16),
                     id="two-weight-s>1"),
        pytest.param("one-weight", CharParams(alpha=0.5, n=1, q1=9 / 8, q2=9 / 8, p=0.6,
                                              s=6 / 7, t=45 / 56, r=INF, a=17 / 16),
                     id="one-weight-s<1"),
        pytest.param("one-weight", CharParams(alpha=0.25, n=1, q1=6 / 5, q2=6 / 5, p=1.0,
                                              s=4 / 3, t=0.8, r=INF, a=11 / 10),
                     id="one-weight-s>1"),
    ])
    def test_characteristic_once_per_run_unless_e_is_negative(self, monkeypatch, theorem, cp):
        # E >= 0: a pair finer than the weight cells has no larger value, so
        # the characteristic is taken once, on the deeper of the pairs' and
        # the weights' grids; E < 0 (s >= 1) on each level's family
        from morreybench import experiments
        char = {"two-weight": char_two_weight, "one-weight": char_one_weight}[theorem]
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[2])
            return char(*args, **kwargs)
        monkeypatch.setattr(experiments, char.__name__, counting)
        ws = power_weights(3)
        if theorem == "one-weight":
            ws = WeightSystem(ws.w1.with_values(ws.w1.values * ws.w2.values, "pos"),
                              ws.w1, ws.w2)
        cp.check(theorem)  # the tuple satisfies the relations of its s row
        for levels in ((4, 5), (4, 5, 6, 7)):
            calls.clear()
            res = ratio_harness(theorem, cp, make_pairs("step", 6, 42, 4), levels, ws=ws)
            assert len(res.records) == 6 * len(levels)
            per_level = levels if cp.pair_exponent < 0.0 else (4,)
            assert [fam.min_level for fam in calls] == [-level for level in per_level]
        assert (cp.pair_exponent < 0.0) == (cp.s >= 1.0)


class TestSteinWeissCharacteristic:
    @pytest.mark.parametrize("beta", [0.0225, -0.54])
    def test_matches_direct_cube_averages(self, beta):
        # per dyadic cube Q of the root, |Q|**(1/r) times the exact averages
        # over Q of |x|**(-beta e_v), |x|**(-gamma_i d_i), each to its power;
        # power_weight on Q itself at depth 0 is that exact average
        from morreybench import DyadicCube
        sw = SteinWeissParams(n=1, alpha=0.5, q1=9 / 8, q2=9 / 8, p1=32 / 27,
                              p2=32 / 27, r=16.0, a=17 / 16, beta=beta,
                              gamma1=0.02, gamma2=0.02)
        e_v = sw.a * sw.s / (1.0 - sw.s)
        d = (sw.q1 / sw.a) / (sw.q1 / sw.a - 1.0)
        got = stein_weiss_check(sw, k_levels=(0, 2)).char_by_level
        for k, value in got.items():
            root = DyadicCube(k, (0,))
            best = 0.0
            for cube in enumerate_subcubes(root, k - 5):
                def avg(power):
                    return float(power_weight(power, 0.0, cube, 0).values[0])
                best = max(best, cube.volume ** (1.0 / sw.r)
                           * avg(-sw.beta * e_v) ** (1.0 / e_v)
                           * avg(-sw.gamma1 * d) ** (1.0 / d)
                           * avg(-sw.gamma2 * d) ** (1.0 / d))
            assert value == pytest.approx(best, rel=1e-12)
