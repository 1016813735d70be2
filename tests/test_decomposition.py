import numpy as np
import pytest

from morreybench import (DyadicCube, GridFunction, NumericalError, ParameterError,
                         dyadic_family, enumerate_subcubes, m_triple_dyadic, unit_root)
from morreybench.decomposition import (choose_a, cz_decompose, packing_sum,
                                       verify_halving)
from morreybench.operators import triple_means
from morreybench.util import make_rng
from morreybench.weights import power_weight

from geometry_reference import e_sets_by_cube, parent, stopping_sets, triple


def step(values, flags="nonneg", root=None):
    root = root if root is not None else unit_root(1)
    return GridFunction(root, values, flags)


def rand_pair(seed, depth=6):
    rng = make_rng(seed, 41)
    f = step(np.exp(rng.uniform(-2, 2, size=2 ** depth)))
    g = step(np.exp(rng.uniform(-2, 2, size=2 ** depth)))
    return f, g


def spike_pair(depth=6, height=100.0):
    vals = np.ones(2 ** depth)
    vals[2 ** depth // 3] = height
    f = step(vals)
    return f, step(vals.copy())


def count_decompositions(monkeypatch):
    """The threshold base of every ``_decompose`` call from here on."""
    from morreybench import decomposition
    tried, decompose = [], decomposition._decompose

    def counted(*args):
        tried.append(args[2])
        return decompose(*args)
    monkeypatch.setattr(decomposition, "_decompose", counted)
    return tried


class TestDecompose:
    def test_constant_data_below_threshold(self):
        f = step(np.ones(32))
        sf = cz_decompose(f, f, unit_root(1), 2.0)
        assert sf.kmax == 0
        assert stopping_sets(sf, f)[0].all()

    def test_spike_generations_match_predicate_scan(self):
        f, g = spike_pair()
        a = 3.0
        sf = cz_decompose(f, g, unit_root(1), a)
        cubes = enumerate_subcubes(unit_root(1), f.cell_level)

        def mean3(h, c):  # zero-extended average over 3Q, from the clipped box
            return h.values[triple(c, h).slices()].sum() * h.cell_volume / (3 * c.volume)
        m = {c: mean3(f, c) * mean3(g, c) for c in cubes}
        for k in range(1, sf.kmax + 1):
            # brute force: maximal cubes with m > a^k
            want = []
            for c in cubes:
                if m[c] <= a ** k:
                    continue
                cur, covered = c, False
                while cur.level < 0:
                    cur = parent(cur)
                    if m[cur] > a ** k:
                        covered = True
                        break
                if not covered:
                    want.append(c)
            got = [sel.cube for sel in sf.generations[k - 1]]
            assert got == want  # both in canonical order: coarsest first, row-major

    def test_partition_exactness_and_disjointness(self):
        for seed in range(8):
            f, g = rand_pair(seed)
            sf = cz_decompose(f, g, unit_root(1), 4.0)
            total = stopping_sets(sf, f)[0].astype(int)
            for mask in e_sets_by_cube(sf, f).values():
                total += mask
            assert np.all(total == 1)  # covers Q0 exactly once

    def test_generation_monotonicity(self):
        f, g = spike_pair(height=2000.0)
        sf = cz_decompose(f, g, unit_root(1), 2.5)
        for k in range(1, sf.kmax):
            coarse = [s.cube for s in sf.generations[k - 1]]
            for sel in sf.generations[k]:
                assert any(c.contains(sel.cube) for c in coarse)

    def test_sandwich_for_choose_a(self):
        for seed in range(20):
            f, g = rand_pair(seed, depth=6)
            sf = choose_a(f, g, unit_root(1))
            a = sf.a
            n = 1
            for k in range(1, sf.kmax + 1):
                for sel in sf.generations[k - 1]:
                    assert sel.m_value > a ** k
                    assert sel.m_value <= 2 ** (2 * n) * a ** k

    def test_base_cube_must_be_coarser_than_cells(self):
        f = step(np.ones(2))
        with pytest.raises(ParameterError):
            cz_decompose(f, f, DyadicCube(-1, (0,)), 2.0)

    def test_threshold_base_above_one(self):
        f = step(np.ones(8))
        with pytest.raises(ParameterError):
            cz_decompose(f, f, unit_root(1), 1.0)


class TestDecompose2D:
    def test_partition_and_sandwich(self):
        rng = make_rng(5, 43)
        vals = np.exp(rng.uniform(-2, 2, size=(8, 8)))
        vals[2, 5] = 60.0
        f = GridFunction(unit_root(2), vals, "nonneg")
        sf = choose_a(f, f, unit_root(2))
        a = sf.a
        total = stopping_sets(sf, f)[0].astype(int)
        for mask in e_sets_by_cube(sf, f).values():
            total += mask
        assert np.all(total == 1)
        for k, gen in enumerate(sf.generations, 1):
            for sel in gen:
                assert a ** k < sel.m_value <= 2 ** 4 * a ** k  # 2^(2n), n=2

    def test_packing_2d(self):
        v = GridFunction(unit_root(2), np.ones((16, 16)), "pos")
        assert packing_sum(unit_root(2), v, 0.5, 1.0) <= 1.0


@pytest.mark.parametrize("dim,depth", [(1, 7), (2, 4)])
def test_triple_maximal_is_the_decomposition_peak(dim, depth):
    # both take the one ancestor-max pass over the m_3Q levels: the triple
    # maximal over every dyadic subcube of the root is the peak of Q0 = root
    rng = make_rng(dim, 47)
    root = DyadicCube(1, (-1,) * dim)
    f, g = (GridFunction(root, np.exp(rng.uniform(-8, 8, (2 ** depth,) * dim)), "pos")
            for _ in range(2))
    field = m_triple_dyadic(f, g, dyadic_family(f.root, f.cell_level)).fn.values
    peak = cz_decompose(f, g, f.root, 2.0).peak
    assert field.shape == peak.shape and field.tobytes() == peak.tobytes()


class TestHalving:
    def test_trivial_decomposition_ratio_zero(self):
        f = step(np.ones(16))
        sf = cz_decompose(f, f, unit_root(1), 2.0)
        rep = verify_halving(sf)
        assert rep.ok and rep.worst_ratio == 0.0

    def test_spike_with_large_base_passes(self):
        f, g = spike_pair()
        a = 4 ** 1 * 16.0
        sf = cz_decompose(f, g, unit_root(1), a)
        assert verify_halving(sf).ok

    def test_adversarial_small_base_fails_and_reports(self):
        # a geometric ramp makes consecutive generations nearly identical,
        # so almost nothing is carved and halving must fail at a = 1.01
        vals = 2.0 ** (np.arange(64) / 4.0)
        f = step(vals)
        sf = cz_decompose(f, f, unit_root(1), 1.01)
        rep = verify_halving(sf)
        assert not rep.ok
        assert rep.worst_ratio > 0.5
        assert rep.offender is not None


class TestChooseA:
    def test_constant_data_first_candidate(self):
        f = step(np.ones(32))
        assert choose_a(f, f, unit_root(1)).a == 2.0

    def test_spike_within_schedule(self):
        f, g = spike_pair()
        assert choose_a(f, g, unit_root(1)).a <= 64.0

    def test_returned_base_certifies_halving(self):
        for seed in (3, 11):
            f, g = rand_pair(seed)
            sf = choose_a(f, g, unit_root(1))
            assert verify_halving(sf).ok

    def test_triple_means_once_per_level(self, monkeypatch):
        # the products m_3Q do not depend on a: one triple_means call per
        # operand and level, however many candidates the schedule tries
        from morreybench import decomposition
        calls = []

        def counted(f, shift):
            calls.append(shift)
            return triple_means(f, shift)
        monkeypatch.setattr(decomposition, "triple_means", counted)
        tried = count_decompositions(monkeypatch)
        f, g = spike_pair()
        sf = choose_a(f, g, unit_root(1))
        assert sorted(calls) == sorted(2 * list(range(f.depth + 1)))
        # consecutive powers of two ending at the chosen base; every power of
        # two passed over before the first of them fails halving
        first = round(np.log2(tried[0]))
        assert tried == [2.0 ** k for k in range(first, first + len(tried))] and sf.a == tried[-1]
        monkeypatch.undo()
        assert not any(verify_halving(cz_decompose(f, g, unit_root(1), 2.0 ** k)).ok
                       for k in range(1, first))

    @pytest.mark.parametrize("depth, values", [
        (4, np.full(16, 1e150)),
        (8, np.where(np.arange(256) == 256 // 3, 1e100, 1.0)),
    ])
    def test_one_decomposition_on_products_far_above_two(self, monkeypatch, depth, values):
        # the doubling schedule passes every candidate whose base tally fails
        # without decomposing it, and still lands on the first certified one
        f = step(values, "pos")
        assert f.depth == depth
        want = 2.0
        while not verify_halving(cz_decompose(f, f, unit_root(1), want)).ok:
            want *= 2.0
        tried = count_decompositions(monkeypatch)
        assert choose_a(f, f, unit_root(1)).a == want
        assert tried == [want]


class TestDynamicRange:
    def test_overflowing_triple_products_refused(self):
        # 1e200 squared overflows: refused before any threshold is compared
        f = step(np.full(16, 1e200), "pos")
        with pytest.raises(NumericalError, match="triple-average products overflowed"):
            cz_decompose(f, f, unit_root(1), 2.0)
        with pytest.raises(NumericalError, match="triple-average products overflowed"):
            choose_a(f, f, unit_root(1))

    def test_threshold_past_the_float_range_selects_nothing(self):
        # products near 1e300 exceed a = 1e200, while a**2 lies past the float
        # range: one generation, the base cube, and none beyond it
        f = step(np.full(16, 1e150), "pos")
        sf = cz_decompose(f, f, unit_root(1), 1e200)
        assert sf.kmax == 1
        assert [sel.cube for sel in sf.generations[0]] == [unit_root(1)]

    def test_choose_a_terminates_on_products_near_the_float_limit(self):
        f = step(np.full(16, 1e150), "pos")
        sf = choose_a(f, f, unit_root(1))
        assert verify_halving(sf).ok
        assert sf.a == 2.0 ** round(np.log2(sf.a)) and sf.kmax == 0


class TestPackingSum:
    def test_unit_weight_matches_geometric_formula(self):
        # with v = 1 in 1D the finite ratio is exactly 1 - 2^{-(L+1) alpha t}
        alpha, t, depth = 0.5, 0.5, 6
        v = GridFunction(unit_root(1), np.ones(2 ** depth), "pos")
        ratio = packing_sum(unit_root(1), v, t, alpha)
        assert ratio == pytest.approx(1.0 - 2.0 ** (-(depth + 1) * alpha * t), rel=1e-12)
        assert ratio <= 1.0

    def test_ratio_increases_toward_bound_with_depth(self):
        alpha, t = 0.5, 0.5
        r4 = packing_sum(unit_root(1), GridFunction(unit_root(1), np.ones(16), "pos"), t, alpha)
        r7 = packing_sum(unit_root(1), GridFunction(unit_root(1), np.ones(128), "pos"), t, alpha)
        assert r4 < r7 < 1.0

    def test_spike_weight_stays_below_one(self):
        vals = np.ones(64)
        vals[17] = 1e6
        v = GridFunction(unit_root(1), vals, "pos")
        assert packing_sum(unit_root(1), v, 0.5, 0.5) <= 1.0

    def test_grid_of_parameters(self):
        rng = make_rng(77)
        vals = np.exp(rng.uniform(-2, 2, size=64))
        v = GridFunction(unit_root(1), vals, "pos")
        for t in (0.3, 0.5, 0.7):
            for alpha in (0.25, 0.5, 0.75):
                assert packing_sum(unit_root(1), v, t, alpha) <= 1.0 + 1e-12

    def test_alpha_to_n_limit_geometric_factor(self):
        # the closed-form factor tends to 2^{nt}/(2^{nt}-1)
        t, n = 0.5, 1
        geo = 2.0 ** (n * t) / (2.0 ** (n * t) - 1.0)
        v = GridFunction(unit_root(1), np.ones(32), "pos")
        lhs_ratio = packing_sum(unit_root(1), v, t, n)  # alpha = n endpoint
        finite = 1.0 - 2.0 ** (-(5 + 1) * n * t)
        assert lhs_ratio == pytest.approx(finite, rel=1e-12)
        assert abs(geo - 2.0 ** (n * t) / (2.0 ** (n * t) - 1.0)) < 1e-12

    def test_subcube_of_root(self):
        v = power_weight(0.3, 0.0, unit_root(1), 6)
        q = DyadicCube(-2, (2,))
        assert packing_sum(q, v, 0.4, 0.6) <= 1.0
