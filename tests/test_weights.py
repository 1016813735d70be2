import dataclasses
import math

import numpy as np
import pytest

from morreybench import (DyadicCube, GridFunction, NumericalError, ParameterError,
                         acceptance, aligned_family, dyadic_family, enumerate_subcubes,
                         unit_root)
from morreybench.relations import violations
from morreybench.util import make_rng
from morreybench.weights import (INF, CharParams, WeightSystem,
                                 ap_characteristic, char_one_weight,
                                 char_remark, char_testing, char_two_weight,
                                 fs_majorant, pair_value, power_system,
                                 power_weight)

from geometry_reference import parent, upper


def ones_system(depth=4, dim=1):
    root = unit_root(dim)
    shape = (2 ** depth,) * dim
    mk = lambda: GridFunction(root, np.ones(shape), "pos")
    return WeightSystem(mk(), mk(), mk())


def random_system(seed, depth=4, dim=1, root=None):
    root = root if root is not None else unit_root(dim)
    rng = make_rng(seed, 23)
    shape = (2 ** depth,) * dim
    mk = lambda: GridFunction(root, np.exp(rng.uniform(-2, 2, size=shape)), "pos")
    return WeightSystem(mk(), mk(), mk())


def cp_two_weight():
    # s < 1 branch with finite r; all side conditions hold exactly
    s = 0.8
    p = 16.0 / 27.0
    q = 9.0 / 16.0
    return CharParams(alpha=0.5, n=1, q1=9 / 8, q2=9 / 8, p=p, s=s,
                      t=s * q / p, r=16.0, a=17 / 16)


def cp_one_weight():
    s = 6.0 / 7.0
    p = 0.6
    q = 9.0 / 16.0
    return CharParams(alpha=0.5, n=1, q1=9 / 8, q2=9 / 8, p=p, s=s,
                      t=s * q / p, r=INF, a=17 / 16)


def cp_testing():
    return CharParams(alpha=0.5, n=1, q1=4.0, q2=4.0, p=2.5, s=20 / 3,
                      t=16 / 3, r=4.0, a=2.0)


class TestPowerWeight:
    def test_beta_zero_is_ones(self):
        w = power_weight(0.0, 0.0, unit_root(1), 4)
        assert np.allclose(w.values, 1.0, rtol=1e-14)

    def test_linear_cell_average(self):
        w = power_weight(1.0, 0.0, unit_root(1), 2)
        assert w.values[2] == pytest.approx(0.625, rel=1e-14)  # cell [0.5, 0.75)

    def test_inverse_sqrt_cell_average(self):
        w = power_weight(-0.5, 0.0, unit_root(1), 2)
        # 4 * int_0^{1/4} x^{-1/2} dx = 4 * 2 * 0.25**0.5
        assert w.values[0] == pytest.approx(4 * (2 * 0.25 ** 0.5), rel=1e-14)

    def test_non_integrable_center_rejected(self):
        with pytest.raises(ParameterError):
            power_weight(-1.0, 0.0, unit_root(1), 3)
        with pytest.raises(ParameterError):
            power_weight(-2.5, (0.5, 0.5), unit_root(2), 3)

    def test_log_branch_away_from_center(self):
        root = DyadicCube(0, (1,))  # [1, 2)
        w = power_weight(-1.0, 0.0, root, 3)
        # cell [1, 1.125): exact average of 1/x is 8 ln(1.125)
        assert w.values[0] == pytest.approx(8 * math.log(1.125), rel=1e-13)

    def test_2d_midpoint_values(self):
        w = power_weight(1.5, (0.0, 0.0), unit_root(2), 2)
        mids = (np.arange(4) + 0.5) / 4
        xx, yy = np.meshgrid(mids, mids, indexing="ij")
        assert np.allclose(w.values, np.hypot(xx, yy) ** 1.5, rtol=1e-14)

    @pytest.mark.parametrize("beta,center,root", [
        pytest.param(255.0, 0.0, unit_root(1), id="1d-underflow"),
        pytest.param(-300.0, -2.0 ** -10, unit_root(1), id="1d-overflow"),
        pytest.param(300.0, (0.0, 0.0), unit_root(2), id="2d-underflow"),
        pytest.param(-300.0, (-2.0 ** -10,) * 2, unit_root(2), id="2d-overflow"),
    ])
    def test_cells_outside_the_float_range_refused(self, beta, center, root):
        # cell values that underflow to 0 or overflow are a numerical failure
        # naming the exponent, not an invalid weight
        with pytest.raises(NumericalError, match=rf"^\|x\|\*\*\({beta}\) leaves the float"):
            with np.errstate(all="ignore"):
                power_weight(beta, center, root, 5)

    def test_2d_midpoint_on_the_center_refused(self):
        # |x|**beta is 0 there for beta > 0: no strictly positive weight
        with pytest.raises(ParameterError, match="coincides with the center"):
            power_weight(1.5, (1 / 16, 1 / 16), unit_root(2), 3)


def _loop_power_weight_1d(beta, center, root, depth):
    """The per-cell reference: the antiderivative of |u|**beta cell by cell."""
    m, h = 2 ** depth, 2.0 ** (root.level - depth)
    edges = root.lower()[0] + h * np.arange(m + 1) - center
    vals = np.empty(m)
    for i in range(m):
        a, b = edges[i], edges[i + 1]
        if beta <= -1.0 and a <= 0.0 <= b:
            raise ParameterError(
                f"cell [{a + center}, {b + center}) touches the center: "
                f"|x|**({beta}) is not integrable there")
        if beta == -1.0:
            integral = abs(math.log(abs(b / a)))
        else:
            def anti(u):
                return math.copysign(abs(u) ** (beta + 1.0), u) / (beta + 1.0)
            integral = anti(b) - anti(a)
        vals[i] = integral / (b - a)
    return vals


@pytest.mark.parametrize("beta", [-2.5, -1.0, -0.5, 0.0, 0.3, 1.0, 2.5])
@pytest.mark.parametrize("center", [0.0, 0.375, 0.3, -0.7, 1.0, 1.5])
@pytest.mark.parametrize("root,depth", [(unit_root(1), 0), (unit_root(1), 5),
                                        (DyadicCube(0, (1,)), 3), (DyadicCube(2, (-1,)), 6)])
def test_power_weight_1d_matches_per_cell_loop(beta, center, root, depth):
    # centers on a cell edge (0, 0.375, 1), inside a cell and outside the grid;
    # refusals name the same first cell touching the center
    try:
        want = _loop_power_weight_1d(beta, center, root, depth)
    except ParameterError as exc:
        with pytest.raises(ParameterError) as info:
            power_weight(beta, center, root, depth)
        assert str(info.value) == str(exc)
        return
    got = power_weight(beta, center, root, depth).values
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)


class TestCharParams:
    def test_valid_sets(self):
        assert violations(cp_two_weight(), "s<1") == []
        assert violations(cp_one_weight(), "one-weight-s<1") == []
        assert violations(cp_testing(), "testing") == []
        for cp, kind in ((cp_two_weight(), "two-weight"), (cp_one_weight(), "one-weight"),
                         (cp_testing(), "testing")):
            cp.check(kind)

    def test_violated_predicates_are_named(self):
        bad = CharParams(alpha=0.5, n=1, q1=9 / 8, q2=9 / 8, p=16 / 27, s=0.8,
                         t=0.9, r=16.0, a=17 / 16)
        names = violations(bad, "s<1")
        assert any("t/s = q/p" in m for m in names)
        with pytest.raises(ParameterError):
            bad.check("two-weight")

    def test_a_window(self):
        bad = dataclasses.replace(cp_two_weight(), a=1.2)  # above min(q_i) = 1.125
        assert any("min" in m for m in violations(bad, "s<1"))


class TestTwoWeight:
    def test_all_ones_is_one_at_root_pair(self):
        ws = ones_system()
        rep = char_two_weight(ws, cp_two_weight(), dyadic_family(unit_root(1), -4))
        assert rep.value == pytest.approx(1.0, rel=1e-13)
        assert rep.attaining == (unit_root(1), unit_root(1))

    def test_essential_sup_at_t_one(self):
        # t = 1 uses the exact max of v over the inner cube
        ws = random_system(1)
        # t = 1 with t/s = q/p forces s = p/q; r balances the s-relation
        q = 9.0 / 16.0
        p = 1.0
        s = p / q
        cp1 = CharParams(alpha=0.5, n=1, q1=9 / 8, q2=9 / 8, p=p, s=s, t=1.0,
                         r=1.0 / (1.0 / s - 1.0 / p + 0.5), a=17 / 16)
        assert violations(cp1, "s>=1") == []
        fam = dyadic_family(unit_root(1), -4)
        rep = char_two_weight(ws, cp1, fam)
        q_in, q_out = rep.attaining
        lo = int(q_in.lower()[0] * 16)
        hi = int(upper(q_in)[0] * 16)
        direct_max = ws.v.values[lo:hi].max()
        assert rep.value == pytest.approx(
            pair_value(ws, cp1, q_in, q_out), rel=0, abs=0)
        # and the v-factor really is the plain max
        probe = pair_value(ws, cp1, q_in, q_out) / direct_max
        ws_unit_v = WeightSystem(ws.v.with_values(np.ones(16), "pos"), ws.w1, ws.w2)
        assert probe == pytest.approx(pair_value(ws_unit_v, cp1, q_in, q_out), rel=1e-13)
        # pair_value reads its exponents unchecked: t = 0 has no v power (the
        # relations refuse it where a characteristic enters)
        with pytest.raises(ZeroDivisionError):
            pair_value(ws, dataclasses.replace(cp1, t=0.0), q_in, q_out)

    def test_homogeneity_degrees(self):
        ws = random_system(2)
        cp = cp_two_weight()
        fam = dyadic_family(unit_root(1), -3)
        base = char_two_weight(ws, cp, fam).value
        scaled = WeightSystem(ws.v.with_values(3.0 * ws.v.values, "pos"),
                              ws.w1.with_values(2.0 * ws.w1.values, "pos"),
                              ws.w2.with_values(5.0 * ws.w2.values, "pos"))
        got = char_two_weight(scaled, cp, fam).value
        assert got == pytest.approx(base * 3.0 / (2.0 * 5.0), rel=1e-12)

    def test_monotone_under_family_growth(self):
        ws = random_system(3, depth=5)
        cp = cp_two_weight()
        small = char_two_weight(ws, cp, dyadic_family(unit_root(1), -3)).value
        large = char_two_weight(ws, cp, dyadic_family(unit_root(1), -5)).value
        assert large >= small - 1e-15

    def test_attaining_pair_recomputes_bit_exact(self):
        ws = random_system(4)
        cp = cp_two_weight()
        rep = char_two_weight(ws, cp, dyadic_family(unit_root(1), -4))
        assert rep.value == pair_value(ws, cp, *rep.attaining)

    def test_remark_chain(self):
        # nested-pair constant never exceeds the single-cube majorant
        cp = cp_two_weight()
        fam = dyadic_family(unit_root(1), -4)
        for seed in range(10):
            ws = random_system(seed)
            two = char_two_weight(ws, cp, fam).value
            single = char_remark(ws, cp, fam).value
            assert two <= single * (1 + 1e-12)

    def test_non_dyadic_family_rejected(self):
        ws = ones_system()
        with pytest.raises(ParameterError):
            char_two_weight(ws, cp_two_weight(), aligned_family(ws.v))

    def test_overflow_refused(self):
        # the pair values overflow: refused by the scan, never reported as +inf
        root = unit_root(1)
        big = GridFunction(root, np.full(4, 1e308), "pos")
        tiny = GridFunction(root, np.full(4, 1e-308), "pos")
        ws = WeightSystem(big, tiny, tiny)
        with pytest.raises(NumericalError, match="^supremum overflowed to a non-finite value$"):
            char_two_weight(ws, cp_two_weight(), dyadic_family(root, -2))


@pytest.mark.parametrize("kind", ["two-weight", "remark", "testing"])
def test_scaled_weights_scale_the_value_exactly(kind):
    # v = w1 = w2 = lam (1 + i/100) scales each characteristic by 1/lam; with
    # the dual factors multiplied together before v, lam = 1e300 printed 0.0
    # and lam = 1e-300 was refused as an overflow
    char, cp = {"two-weight": (char_two_weight, acceptance.TWO_WEIGHT_CP),
                "remark": (char_remark, acceptance.TWO_WEIGHT_CP),
                "testing": (char_testing, acceptance.TESTING_CP)}[kind]
    fam = dyadic_family(unit_root(1), -4)
    scaled = {}
    for lam in (1.0, 2.0 ** 500, 1e300, 1e-300):
        w = GridFunction(unit_root(1), lam * (1 + np.arange(16) / 100), "pos")
        ws = WeightSystem(w, w, w)
        rep = char(ws, cp, fam)
        scaled[lam] = rep.value * lam
        if kind == "two-weight":
            assert rep.value == pair_value(ws, cp, *rep.attaining)
    assert scaled == pytest.approx({lam: scaled[1.0] for lam in scaled}, rel=1e-14)
    if kind == "two-weight":
        assert scaled[1.0] == 0.9639277336079315


class TestRemark:
    def test_all_ones(self):
        rep = char_remark(ones_system(), cp_two_weight(), dyadic_family(unit_root(1), -4))
        assert rep.value == pytest.approx(1.0, rel=1e-13)

    def test_v_scaling_exact(self):
        ws = random_system(5)
        cp = cp_two_weight()
        fam = dyadic_family(unit_root(1), -3)
        base = char_remark(ws, cp, fam).value
        ws2 = WeightSystem(ws.v.with_values(7.0 * ws.v.values, "pos"), ws.w1, ws.w2)
        assert char_remark(ws2, cp, fam).value == pytest.approx(7.0 * base, rel=1e-12)

    def test_s_at_least_one_rejected(self):
        cp = CharParams(alpha=0.5, n=1, q1=4.0, q2=4.0, p=2.5, s=20 / 3,
                        t=16 / 3, r=4.0, a=2.0)
        with pytest.raises(ParameterError):
            char_remark(ones_system(), cp, dyadic_family(unit_root(1), -2))

    def test_admissible_power_weights_stable_over_nested_roots(self):
        # with the power-weight balance satisfied, the single-cube constant
        # settles as the root family grows (cells kept at a fixed size)
        cp = cp_two_weight()
        vals = []
        for k in (0, 1, 2, 3):
            root = DyadicCube(k, (0,))
            ws = power_system(0.0225, 0.02, 0.02, 0.0, root, 4 + k)
            vals.append(char_remark(ws, cp, dyadic_family(root, -4)).value)
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))  # monotone
        assert max(vals) / min(vals) < 1.05


class TestOneWeight:
    def make_system(self, seed, depth=4):
        rng = make_rng(seed, 31)
        root = unit_root(1)
        w1 = GridFunction(root, np.exp(rng.uniform(-1, 1, 2 ** depth)), "pos")
        w2 = GridFunction(root, np.exp(rng.uniform(-1, 1, 2 ** depth)), "pos")
        v = GridFunction(root, w1.values * w2.values, "pos")
        return WeightSystem(v, w1, w2)

    def test_all_ones(self):
        rep = char_one_weight(ones_system(), cp_one_weight(), dyadic_family(unit_root(1), -4))
        assert rep.value == pytest.approx(1.0, rel=1e-13)

    def test_v_mismatch_rejected(self):
        ws = random_system(6)
        with pytest.raises(ParameterError):
            char_one_weight(ws, cp_one_weight(), dyadic_family(unit_root(1), -4))

    @pytest.mark.parametrize("dim,family_root", [
        (1, unit_root(1)), (2, unit_root(2)), (1, DyadicCube(-1, (1,))),
        (2, DyadicCube(-1, (1, 0)))])
    def test_tied_pairs_report_the_family_root_pair(self, dim, family_root):
        # v = c1 c2, w1 = c1, w2 = c2 are constant: every pair (Q, Q) has the
        # same value, so the first strict max is the family root's own pair
        root = unit_root(dim)
        w1, w2 = (GridFunction(root, np.full((8,) * dim, c), "pos") for c in (3.0, 0.7))
        ws = WeightSystem(w1.with_values(w1.values * w2.values, "pos"), w1, w2)
        cp = dataclasses.replace(cp_one_weight(), n=dim, alpha=0.5 * dim)
        rep = char_one_weight(ws, cp, dyadic_family(family_root, -3))
        assert rep.attaining == (family_root, family_root)
        assert all(type(cube.level) is int for cube in rep.attaining)

    def test_power_weight_finiteness_cross_check(self):
        # when the plain single-cube product constant of the system is finite
        # and stable under family growth, the nested-pair one-weight constant
        # grows toward a finite value as well (both monotone in the family)
        cp = cp_one_weight()
        root = unit_root(1)
        single_vals, pair_vals = [], []
        for depth in (3, 4, 5):
            w1 = power_weight(0.04, 0.0, root, depth)
            w2 = power_weight(0.03, 0.0, root, depth)
            ws = WeightSystem(w1.with_values(w1.values * w2.values, "pos"), w1, w2)
            fam = dyadic_family(root, -depth)
            d1, d2 = cp.q1 / (cp.q1 - 1), cp.q2 / (cp.q2 - 1)
            e = cp.s / (1.0 - cp.s)
            best = 0.0
            for cube in enumerate_subcubes(root, -depth):
                lo = int(cube.lower()[0] * 2 ** depth)
                hi = int(upper(cube)[0] * 2 ** depth)
                prod = (w1.values[lo:hi] * w2.values[lo:hi]) ** e
                val = (np.mean(prod) ** (1 / e)
                       * np.mean(w1.values[lo:hi] ** -d1) ** (1 / d1)
                       * np.mean(w2.values[lo:hi] ** -d2) ** (1 / d2))
                best = max(best, val)
            single_vals.append(best)
            pair_vals.append(char_one_weight(ws, cp, fam).value)
        assert max(single_vals) / min(single_vals) < 1.10
        assert max(pair_vals) / min(pair_vals) < 1.10

    def test_per_pair_domination_by_two_weight(self):
        # with r = inf on the same data, the one-weight pair value never
        # exceeds the two-weight pair value: dual exponents (q_i/a)' > q_i'
        # and power means increase with the exponent
        ws = self.make_system(7)
        cp1 = cp_one_weight()
        cp2 = cp1  # also a two-weight tuple of the s < 1 form
        cp2.check("two-weight")
        fam = dyadic_family(unit_root(1), -4)
        cubes = enumerate_subcubes(unit_root(1), -4)
        for q in cubes[::3]:
            anc = q
            while True:
                one = pair_value(ws, dataclasses.replace(cp1, a=1.0 + 1e-12), q, anc)
                two = pair_value(ws, cp2, q, anc)
                assert one <= two * (1 + 1e-9)
                if anc.level == 0:
                    break
                anc = parent(anc)


class TestTesting:
    def test_all_ones_r_inf(self):
        cp = CharParams(alpha=0.5, n=1, q1=3.0, q2=3.0, p=1.8, s=18.0,
                        t=15.0, r=INF, a=2.0)
        assert violations(cp, "testing") == []
        rep = char_testing(ones_system(), cp, dyadic_family(unit_root(1), -4))
        assert rep.value == pytest.approx(1.0, rel=1e-13)

    def test_attaining_cube_recomputes_and_family_growth(self):
        ws = random_system(12)
        cp = cp_testing()
        small = char_testing(ws, cp, dyadic_family(unit_root(1), -2))
        large = char_testing(ws, cp, dyadic_family(unit_root(1), -4))
        assert large.value >= small.value - 1e-15
        # recompute the single-cube quantity at the attaining cube
        q, _ = large.attaining
        lo = int(q.lower()[0] * 16)
        hi = int(upper(q)[0] * 16)
        r_inv = 1.0 / cp.r
        want = (q.volume ** r_inv * ws.v.values[lo:hi].min()
                * pair_value_testing(ws, cp, q) / q.volume ** r_inv)
        assert large.value == pytest.approx(want, rel=1e-12)

    def test_infimum_drives_value(self):
        ws = random_system(8)
        vals = ws.v.values.copy()
        vals[7] = 1e-9
        ws2 = WeightSystem(ws.v.with_values(vals, "pos"), ws.w1, ws.w2)
        rep = char_testing(ws2, cp_testing(), dyadic_family(unit_root(1), 0))
        assert rep.value == pytest.approx(
            1e-9 * pair_value_testing(ws2, cp_testing(), unit_root(1)), rel=1e-12)

    def test_dominated_by_two_weight_constant_across_systems(self):
        # paired sweep: wherever the nested-pair (sufficient) constant is
        # finite, the necessary constant sits below a recorded multiple of it
        # (observed max 0.595 over these seeds; bound frozen with headroom)
        cp_t = cp_testing()
        cp_s = cp_two_weight()
        fam = dyadic_family(unit_root(1), -4)
        ratios = []
        for seed in range(10):
            ws = random_system(seed)
            necessary = char_testing(ws, cp_t, fam).value
            sufficient = char_two_weight(ws, cp_s, fam).value
            assert np.isfinite(sufficient)
            ratios.append(necessary / sufficient)
        assert max(ratios) <= 1.0


def pair_value_testing(ws, cp, cube):
    # w-factor part of the testing constant at one cube (oracle helper)
    lo = int(cube.lower()[0] * ws.v.values.size)
    hi = int(upper(cube)[0] * ws.v.values.size)
    d1 = cp.q1 / (cp.q1 - 1)
    d2 = cp.q2 / (cp.q2 - 1)
    f1 = np.mean(ws.w1.values[lo:hi] ** -d1) ** (1 / d1)
    f2 = np.mean(ws.w2.values[lo:hi] ** -d2) ** (1 / d2)
    r_inv = 0.0 if cp.r == INF else 1.0 / cp.r
    return cube.volume ** r_inv * f1 * f2


class TestApConstant:
    def test_constant_weight(self):
        root = unit_root(1)
        w = GridFunction(root, np.full(16, 2.7), "pos")
        rep = ap_characteristic(w, 2.0, dyadic_family(root, -4))
        assert rep.value == pytest.approx(1.0, rel=1e-13)

    def test_power_weight_matches_direct_two_power_integration(self):
        root = DyadicCube(0, (1,))  # [1, 2), away from the origin
        w = power_weight(0.7, 0.0, root, 5)
        p = 3.0
        rep = ap_characteristic(w, p, dyadic_family(root, -5))
        # direct oracle over every cube with plain numpy means
        best = 0.0
        for cube in enumerate_subcubes(root, -5):
            lo = int((cube.lower()[0] - 1.0) * 32)
            hi = int((upper(cube)[0] - 1.0) * 32)
            slab = w.values[lo:hi]
            val = slab.mean() * np.mean(slab ** (-1 / (p - 1))) ** (p - 1)
            best = max(best, val)
        assert rep.value == pytest.approx(best, rel=1e-12)

    def test_monotone_family_growth(self):
        w = power_weight(0.4, 0.0, DyadicCube(0, (1,)), 5)
        small = ap_characteristic(w, 2.5, dyadic_family(w.root, -2)).value
        large = ap_characteristic(w, 2.5, dyadic_family(w.root, -5)).value
        assert large >= small - 1e-15

    def test_p_below_one_rejected(self):
        w = power_weight(0.0, 0.0, unit_root(1), 2)
        with pytest.raises(ParameterError):
            ap_characteristic(w, 1.0, dyadic_family(unit_root(1), -2))


class TestFsMajorant:
    def test_unit_weight(self):
        root = unit_root(1)
        w = GridFunction(root, np.ones(8), "pos")
        out = fs_majorant(w, INF, 0.5, dyadic_family(root, -3))
        assert np.allclose(out.values, 1.0, rtol=1e-14)

    def test_pointwise_lower_bound_per_cube(self):
        w = random_system(9).w1
        fam = dyadic_family(unit_root(1), -4)
        out = fs_majorant(w, 8.0, 0.5, fam)
        for cube in enumerate_subcubes(unit_root(1), -4):
            lo = int(cube.lower()[0] * 16)
            hi = int(upper(cube)[0] * 16)
            val = cube.volume ** (1 / 8) * np.mean(w.values[lo:hi]) ** 1.0
            assert np.all(out.values[lo:hi] >= val - 1e-12)

    def test_bruteforce_two_level_grid(self):
        root = unit_root(1)
        w = GridFunction(root, np.array([0.5, 2.0]), "pos")
        fam = dyadic_family(root, -1)
        s_i, r_i = 0.4, 4.0
        e = s_i / (1 - s_i)
        out = fs_majorant(w, r_i, s_i, fam)
        root_val = 1.0 ** (1 / r_i) * np.mean(w.values ** e) ** (1 / e)
        left = max(root_val, 0.5 ** (1 / r_i) * 0.5)
        right = max(root_val, 0.5 ** (1 / r_i) * 2.0)
        assert out.values[0] == pytest.approx(left, rel=1e-12)
        assert out.values[1] == pytest.approx(right, rel=1e-12)


class TestIidaCrossCheck:
    def test_power_weights_ap_memberships_are_stable(self):
        # single-cube product constant finite <-> the powered weights carry
        # finite Muckenhoupt constants; numerically: both stay in a stable
        # band as the family grows
        q1 = q2 = 4.0
        q = 2.0
        t_hat = 2.5  # raw input, t_hat >= q
        root = DyadicCube(0, (1,))
        vals = []
        for depth in (3, 4, 5):
            w1 = power_weight(0.05, 0.0, root, depth)
            w2 = power_weight(0.02, 0.0, root, depth)
            fam = dyadic_family(root, -depth)
            prod = w1.with_values((w1.values * w2.values) ** t_hat, "pos")
            a1 = ap_characteristic(prod, 1 + t_hat * (2 - 1 / q), fam).value
            neg1 = w1.with_values(w1.values ** (-(q1 / (q1 - 1))), "pos")
            a2 = ap_characteristic(neg1, (q1 / (q1 - 1)) * (1 / t_hat + 2 - 1 / q), fam).value
            vals.append((a1, a2))
        for i in (0, 1):
            seq = [v[i] for v in vals]
            assert max(seq) / min(seq) < 1.05
