import numpy as np
import pytest

from morreybench import (DyadicCube, GridFunction, ParameterError,
                         aligned_family, dyadic_family, enumerate_subcubes,
                         lebesgue_norm, morrey_norm, pair_morrey_sup,
                         unit_root, weak_quasinorm)
from morreybench.norms import _morrey_aligned

from geometry_reference import upper


def step(values, dim=1, root=None, flags="none"):
    values = np.asarray(values, dtype=float)
    root = root if root is not None else unit_root(dim)
    return GridFunction(root, values, flags)


class TestLebesgue:
    def test_unit_mass(self):
        f = step(np.ones(16))
        assert lebesgue_norm(f, 2.0) == pytest.approx(1.0, rel=1e-14)

    def test_indicator(self):
        vals = np.zeros(16)
        vals[:8] = 1.0
        assert lebesgue_norm(step(vals), 1.0) == pytest.approx(0.5)

    def test_fractional_exponent_matches_direct(self):
        rng = np.random.default_rng(2)
        vals = rng.uniform(0.0, 3.0, size=64)
        f = step(vals)
        direct = (np.sum(np.abs(vals) ** 0.7) * f.cell_volume) ** (1 / 0.7)
        assert lebesgue_norm(f, 0.7) == pytest.approx(direct, rel=1e-12)

    def test_nonpositive_exponent_rejected(self):
        with pytest.raises(ParameterError):
            lebesgue_norm(step(np.ones(4)), 0.0)
        with pytest.raises(ParameterError, match="^weak exponent must be positive, got 0$"):
            weak_quasinorm(step(np.ones(4)), 0)


class TestWeakQuasinorm:
    def test_single_level_set(self):
        vals = np.zeros(16)
        vals[:4] = 1.0  # |E| = 0.25
        assert weak_quasinorm(step(vals), 2.0) == pytest.approx(0.5)

    def test_zero_function(self):
        assert weak_quasinorm(step(np.zeros(8)), 1.5) == 0.0

    def test_two_level_against_dense_lambda_scan(self):
        vals = np.zeros(32)
        vals[:8] = 2.0
        vals[8:20] = 0.7
        f = step(vals)
        p = 1.3
        lams = np.linspace(1e-6, 2.5, 200001)
        measures = np.array([np.sum(vals > lam) for lam in lams]) * f.cell_volume
        dense = np.max(lams * measures ** (1 / p))
        assert weak_quasinorm(f, p) == pytest.approx(dense, abs=1e-4)
        assert weak_quasinorm(f, p) >= dense - 1e-9


class TestMorrey:
    def test_root_indicator(self):
        f = step(np.ones(16))
        fam = dyadic_family(unit_root(1), -4)
        rep = morrey_norm(f, 3.0, 1.5, fam)
        assert rep.value == pytest.approx(1.0, rel=1e-14)
        assert rep.attaining == unit_root(1)

    def test_half_indicator_attains_at_half(self):
        vals = np.zeros(16)
        vals[:8] = 1.0
        f = step(vals)
        rep = morrey_norm(f, 2.0, 1.0, dyadic_family(unit_root(1), -4))
        assert rep.value == pytest.approx(np.sqrt(2) / 2, rel=1e-12)
        assert rep.attaining == DyadicCube(-1, (0,))

    def test_q_above_p_rejected(self):
        with pytest.raises(ParameterError):
            morrey_norm(step(np.ones(4)), 1.0, 2.0, dyadic_family(unit_root(1), -2))
        # and the aligned family of another grid, or of more cubes than the budget
        with pytest.raises(ParameterError, match="^aligned family was built for a different grid$"):
            morrey_norm(step(np.ones(4)), 2.0, 1.0, aligned_family(step(np.ones(8))))
        with pytest.raises(ParameterError, match="^aligned family needs 2097171 cubes, budget"):
            aligned_family(step(np.ones(2 ** 17)))

    def test_zero_function_total(self):
        fam = dyadic_family(unit_root(1), -3)
        rep = morrey_norm(step(np.zeros(8)), 2.0, 1.0, fam)
        assert rep.value == 0.0
        assert rep.attaining == enumerate_subcubes(unit_root(1), -3)[0]

    def test_nesting_in_q(self):
        # same family, q1 >= q2 implies larger norm
        rng = np.random.default_rng(4)
        f = step(rng.uniform(0, 2, size=64))
        fam = dyadic_family(unit_root(1), -6)
        hi = morrey_norm(f, 2.0, 1.5, fam).value
        lo = morrey_norm(f, 2.0, 1.0, fam).value
        assert hi >= lo - 1e-12

    def test_lebesgue_endpoint(self):
        rng = np.random.default_rng(8)
        f = step(rng.uniform(0, 2, size=64))
        fam = aligned_family(f)
        p = 2.5
        rep = morrey_norm(f, p, p, fam)
        assert rep.value == pytest.approx(lebesgue_norm(f, p), rel=1e-12)

    def test_homogeneity(self):
        rng = np.random.default_rng(6)
        f = step(rng.uniform(0, 1, size=32))
        fam = dyadic_family(unit_root(1), -5)
        base = morrey_norm(f, 3.0, 2.0, fam).value
        scaled = morrey_norm(f.with_values(4.0 * f.values), 3.0, 2.0, fam).value
        assert scaled == pytest.approx(4.0 * base, rel=1e-13)

    def test_weak_embedding_constant_is_refinement_stable(self):
        # discrete form of the weak-Lebesgue embedding: the ratio
        # morrey(p,q) / weak(p) stays in a stable band as the grid refines
        p, q = 3.0, 1.5
        rng = np.random.default_rng(12)
        base = step(np.exp(rng.uniform(-2, 2, size=16)))
        ratios = []
        for extra in range(0, 5):  # levels 4..8
            f = base.refine(extra)
            fam = dyadic_family(unit_root(1), f.cell_level)
            ratios.append(morrey_norm(f, p, q, fam).value / weak_quasinorm(f, p))
        spread = max(ratios) / min(ratios)
        assert spread < 1.10

    def test_aligned_fast_path_matches_entry_loop(self):
        rng = np.random.default_rng(10)
        f = step(rng.uniform(0, 3, size=16))
        fam = aligned_family(f)
        fast = _morrey_aligned(f, 2.0, 1.0, fam)
        m = f.cells_per_axis
        # oracle: every window, |window|**(1/2) * mean over its cells
        slow = max((s * f.cell_side) ** 0.5 * np.mean(f.values[i:i + s])
                   for s in range(1, m + 1) for i in range(m - s + 1))
        assert fast.value == pytest.approx(slow, rel=1e-13)

    def test_aligned_2d(self):
        rng = np.random.default_rng(13)
        f = step(rng.uniform(0, 1, size=(8, 8)), dim=2)
        fam = aligned_family(f)
        rep = morrey_norm(f, 4.0, 2.0, fam)
        # oracle: direct triple loop over square windows
        best = 0.0
        h = f.cell_side
        for s in range(1, 9):
            for i in range(9 - s):
                for j in range(9 - s):
                    block = f.values[i:i + s, j:j + s]
                    val = ((s * h) ** 2) ** 0.25 * np.mean(block ** 2) ** 0.5
                    best = max(best, val)
        assert rep.value == pytest.approx(best, rel=1e-12)


    def test_wide_dynamic_range_keeps_small_cubes(self):
        # one 1e12 cell among ones: prefix-sum differences cancelled the right
        # half's squares to 0; block sums keep them exact
        vals = np.ones(64)
        vals[0] = 1e12
        rep = morrey_norm(step(vals), 4.0, 2.0, dyadic_family(DyadicCube(-1, (1,)), -6))
        assert rep.value == pytest.approx(0.5 ** 0.25, rel=1e-14)
        assert rep.attaining == DyadicCube(-1, (1,))

    def test_family_finer_than_cells_rejected(self):
        with pytest.raises(ParameterError, match="finer"):
            morrey_norm(step(np.ones(8)), 2.0, 1.0, dyadic_family(unit_root(1), -4))

    def test_closed_form_family_size(self):
        for dim, depth in ((1, 6), (2, 3)):
            fam = dyadic_family(unit_root(dim), -depth)
            assert len(fam) == len(enumerate_subcubes(unit_root(dim), -depth))
            assert list(fam.levels()) == list(range(0, -depth - 1, -1))

    @pytest.mark.parametrize("root,min_level", [
        (unit_root(1), -4), (unit_root(2), -3), (unit_root(1), 0),
        (DyadicCube(-2, (3,)), -5), (DyadicCube(-1, (1, 0)), -3),  # subcubes of the unit root
        (DyadicCube(1, (-3,)), -2), (DyadicCube(2, (-1, 5)), 0),   # roots off the origin
    ])
    def test_cube_at_walks_the_canonical_order(self, root, min_level):
        # the positions that family_max returns: coarsest level first, then row-major
        fam = dyadic_family(root, min_level)
        assert [fam.cube_at(i) for i in range(len(fam))] == enumerate_subcubes(root, min_level)
        with pytest.raises(ValueError):
            fam.cube_at(len(fam))


class TestPairSup:
    def test_matches_bruteforce(self):
        rng = np.random.default_rng(20)
        f = step(rng.uniform(0.1, 2.0, size=32))
        g = step(rng.uniform(0.1, 2.0, size=32))
        fam = dyadic_family(unit_root(1), -5)
        rep = pair_morrey_sup(f, g, 2.0, 1.5, 2.5, fam)
        best = 0.0
        for cube in enumerate_subcubes(unit_root(1), -5):
            lo = int(cube.lower()[0] * 32)
            hi = int(upper(cube)[0] * 32)
            mf = np.mean(np.abs(f.values[lo:hi]) ** 1.5)
            mg = np.mean(np.abs(g.values[lo:hi]) ** 2.5)
            best = max(best, cube.volume ** 0.5 * mf ** (1 / 1.5) * mg ** (1 / 2.5))
        assert rep.value == pytest.approx(best, rel=1e-12)

    def test_grid_mismatch_rejected(self):
        f = step(np.ones(8))
        g = step(np.ones(16))
        with pytest.raises(ParameterError):
            pair_morrey_sup(f, g, 2.0, 1.0, 1.0, dyadic_family(unit_root(1), -3))
        with pytest.raises(ParameterError, match="^pair supremum exponents must be positive$"):
            pair_morrey_sup(f, f, 2.0, 0.0, 1.0, dyadic_family(unit_root(1), -3))
