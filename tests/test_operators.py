import itertools
import math
import operator
import warnings

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from morreybench import (DyadicCube, GridFunction, ParameterError,
                         b_alpha, b_alpha_dyadic, b_truncated, cube_box,
                         dyadic_family, enumerate_subcubes, i_alpha, lebesgue_norm,
                         m_alpha_bilinear, m_alpha_vector, m_tilde,
                         m_triple_dyadic, unit_root)
from morreybench import operators
from morreybench.operators import kernel_cell_table, triple_means
from morreybench.util import make_rng

from geometry_reference import axis_midpoints, triple, upper


def step(values, dim=1, root=None, flags="none"):
    values = np.asarray(values, dtype=float)
    root = root if root is not None else unit_root(dim)
    return GridFunction(root, values, flags)


def indicator_root(depth, dim=1):
    return step(np.ones((2 ** depth,) * dim), dim=dim, flags="nonneg")


def rand_positive(seed, depth, dim=1):
    rng = make_rng(seed, 17)
    vals = np.exp(rng.uniform(-2, 2, size=(2 ** depth,) * dim))
    return step(vals, dim=dim, flags="pos")


class TestIAlpha:
    def test_indicator_closed_form(self):
        # I_{1/2} of the unit indicator has the exact antiderivative
        # 2 (sqrt(x) + sqrt(1-x)); the 1D quadrature is cell-exact.
        f = indicator_root(6)
        out = i_alpha(f, 0.5).fn
        x = axis_midpoints(f)
        exact = 2.0 * (np.sqrt(x) + np.sqrt(1.0 - x))
        assert np.allclose(out.values, exact, rtol=1e-12)
        mid = 2 ** 5 - 1
        assert out.values[mid] == pytest.approx(2 * np.sqrt(2), rel=5e-3)

    def test_zero_function(self):
        f = step(np.zeros(16))
        assert np.all(i_alpha(f, 0.7).fn.values == 0.0)

    def test_linearity_exact(self):
        f = rand_positive(1, 5)
        one = i_alpha(f, 0.4).fn.values
        two = i_alpha(f.with_values(2.0 * f.values), 0.4).fn.values
        assert np.array_equal(two, 2.0 * one)

    def test_alpha_out_of_range(self):
        with pytest.raises(ParameterError):
            i_alpha(indicator_root(3), 1.0)

    @pytest.mark.parametrize("dim,depth,alpha", [(1, 0, 0.4), (1, 5, 0.45), (2, 1, 0.6),
                                                 (2, 4, 1.3)])
    def test_stacked_rows_are_single_calls(self, dim, depth, alpha):
        # every item of a (2, 3)-stack equals i_alpha of that function alone, bit for bit
        fs = [rand_positive(seed, depth, dim) for seed in range(6)]
        grid = fs[0]
        got = operators._i_values(grid, np.reshape([f.values for f in fs],
                                                   (2, 3) + grid.values.shape), alpha)
        assert got.shape == (2, 3) + grid.values.shape
        for row, f in zip(got.reshape((6,) + grid.values.shape), fs):
            assert np.array_equal(row, i_alpha(f, alpha).fn.values)


class TestBAlpha:
    def test_indicator_closed_form(self):
        # B_{1/2}(chi, chi)(x) = 4 sqrt(min(x, 1-x)) exactly; quadrature is
        # cell-exact at midpoints in 1D.
        f = indicator_root(7)
        out = b_alpha(f, f, 0.5).fn
        x = axis_midpoints(f)
        exact = 4.0 * np.sqrt(np.minimum(x, 1.0 - x))
        assert np.allclose(out.values, exact, rtol=1e-12)
        mid = 2 ** 6 - 1
        assert out.values[mid] == pytest.approx(2 * np.sqrt(2), rel=5e-3)

    def test_zero_second_argument(self):
        f = indicator_root(4)
        g = step(np.zeros(16))
        assert np.all(b_alpha(f, g, 0.5).fn.values == 0.0)

    def test_scale_bilinearity_exact(self):
        f, g = rand_positive(2, 5), rand_positive(3, 5)
        base = b_alpha(f, g, 0.3).fn.values
        scaled = b_alpha(f.with_values(2 * f.values),
                         g.with_values(3 * g.values), 0.3).fn.values
        assert np.allclose(scaled, 6.0 * base, rtol=1e-14)

    def test_swap_symmetry_exact(self):
        # the kernel is even, so swapping f and g is the substitution y -> -y
        f, g = rand_positive(4, 5), rand_positive(5, 5)
        ab = b_alpha(f, g, 0.6).fn.values
        ba = b_alpha(g, f, 0.6).fn.values
        assert np.allclose(ab, ba, rtol=1e-13)

    @pytest.mark.parametrize("ell", [1.5, 2.0, 3.0])
    def test_pointwise_hoelder_bound(self, ell):
        alpha = 0.45
        ellp = ell / (ell - 1.0)
        for seed in range(20):
            f, g = rand_positive(seed, 5), rand_positive(seed + 100, 5)
            lhs = b_alpha(f, g, alpha).fn.values
            rf = i_alpha(f.with_values(np.abs(f.values) ** ell), alpha).fn.values
            rg = i_alpha(g.with_values(np.abs(g.values) ** ellp), alpha).fn.values
            rhs = rf ** (1.0 / ell) * rg ** (1.0 / ellp)
            assert np.all(lhs <= rhs + 1e-9)

    def test_pointwise_hoelder_bound_2d(self):
        alpha = 0.8
        f, g = rand_positive(7, 3, dim=2), rand_positive(8, 3, dim=2)
        lhs = b_alpha(f, g, alpha).fn.values
        rf = i_alpha(f.with_values(f.values ** 2), alpha).fn.values
        rg = i_alpha(g.with_values(g.values ** 2), alpha).fn.values
        assert np.all(lhs <= np.sqrt(rf * rg) + 1e-9)

    def test_quadrature_convergence_smooth_bump(self):
        # less than 1% change from L to L+1 at a fixed location, L >= 6;
        # a coarse midpoint sits on the boundary of two fine cells, so the
        # fine-grid value there is the average of its two neighbours
        alpha = 0.5

        def field(depth):
            m = 2 ** depth
            x = (np.arange(m) + 0.5) / m
            f = step(np.exp(-((x - 0.5) / 0.15) ** 2))
            return b_alpha(f, f, alpha).fn.values

        fields = {d: field(d) for d in (6, 7, 8)}
        for d in (6, 7):
            for i in (2 ** d // 2, 3 * 2 ** d // 8):  # x near 0.5 and 0.375
                coarse = fields[d][i]
                fine = 0.5 * (fields[d + 1][2 * i] + fields[d + 1][2 * i + 1])
                assert abs(fine - coarse) / coarse < 0.01


class TestBTruncated:
    def test_constant_integrand(self):
        f = indicator_root(5)
        out = b_truncated(f, f, 0.25).fn
        i = np.searchsorted(axis_midpoints(f), 0.5) - 1
        x = axis_midpoints(f)[i]
        exact = min(2 * 0.25, 2 * min(x, 1 - x))
        assert out.values[i] == pytest.approx(exact, rel=1e-12)

    def test_saturation_for_large_d(self):
        f, g = rand_positive(6, 5), rand_positive(7, 5)
        a = b_truncated(f, g, 2.0).fn.values
        b = b_truncated(f, g, 50.0).fn.values
        assert np.allclose(a, b, rtol=1e-14)

    def test_exact_for_fractional_d(self):
        # overlap weights make the cell sum exact for any d, not only
        # multiples of the cell side
        f = indicator_root(4)
        d = 0.3
        out = b_truncated(f, f, d).fn
        x = axis_midpoints(f)
        exact = np.minimum(2 * d, 2 * np.minimum(x, 1 - x))
        assert np.allclose(out.values, exact, rtol=1e-12)

    def test_local_mass_bound(self):
        # integral over Q of B_{l(Q)} is at most the product of 3Q masses
        rng = make_rng(99)
        for _ in range(5):
            f = rand_positive(int(rng.integers(1 << 30)), 5)
            g = rand_positive(int(rng.integers(1 << 30)), 5)
            q = DyadicCube(-2, (int(rng.integers(0, 4)),))
            out = b_truncated(f, g, q.side).fn
            lo = int(q.lower()[0] * 32)
            hi = int(upper(q)[0] * 32)
            integral = out.values[lo:hi].sum() * out.cell_volume
            mass_f = f.values[triple(q, f).slices()].sum() * f.cell_volume
            mass_g = g.values[triple(q, g).slices()].sum() * g.cell_volume
            assert integral <= mass_f * mass_g + 1e-12

    def test_nonpositive_d_rejected(self):
        f = indicator_root(3)
        with pytest.raises(ParameterError):
            b_truncated(f, f, 0.0)


class TestBAlphaDyadic:
    def test_zero_inputs(self):
        f = step(np.zeros(16))
        out = b_alpha_dyadic(f, f, 0.5, unit_root(1))
        assert np.all(out.fn.values == 0.0)

    def test_single_level_keeps_root_term(self):
        f, g = rand_positive(8, 4), rand_positive(9, 4)
        alpha = 0.5
        q0 = unit_root(1)
        only_root = b_alpha_dyadic(f, g, alpha, q0, min_level=0).fn.values
        expect = q0.volume ** (alpha / 1 - 1) * b_truncated(f, g, q0.side).fn.values
        assert np.allclose(only_root, expect, rtol=1e-14)

    def test_outside_base_cube_is_zero(self):
        f, g = rand_positive(10, 4), rand_positive(11, 4)
        q0 = DyadicCube(-1, (0,))  # left half
        out = b_alpha_dyadic(f, g, 0.5, q0).fn.values
        assert np.all(out[8:] == 0.0)
        assert np.all(out[:8] > 0.0)

    def test_two_sided_equivalence_stable_over_levels(self):
        # pointwise ratio B_alpha / dyadic model stays in one interval whose
        # spread is level-stable
        alpha = 0.5
        spreads = []
        for depth in (4, 5, 6, 7):
            ratios = []
            for seed in range(6):
                f = rand_positive(seed, 4).refine(depth - 4)
                g = rand_positive(seed + 50, 4).refine(depth - 4)
                num = b_alpha(f, g, alpha).fn.values
                den = b_alpha_dyadic(f, g, alpha, unit_root(1)).fn.values
                ratios.extend((num / den).ravel())
            spreads.append(max(ratios) / min(ratios))
        for a, b in zip(spreads, spreads[1:]):
            assert b <= 1.10 * a

    def test_tail_bound_reported(self):
        f, g = rand_positive(12, 5), rand_positive(13, 5)
        out = b_alpha_dyadic(f, g, 0.5, unit_root(1))
        assert out.tail_bound > 0.0
        # the tail bound dominates the actually-omitted next level
        next_term = (2.0 ** (f.cell_level - 1)) ** (0.5 - 1) * \
            b_truncated(f, g, 2.0 ** (f.cell_level - 1)).fn.values
        assert out.tail_bound >= next_term.max()
        assert np.isfinite(out.tail_bound)


class TestMaximalOperators:
    def test_bilinear_maximal_matches_radius_scan(self):
        f = indicator_root(6)
        fam = dyadic_family(unit_root(1), -6)
        alpha = 0.5
        out = m_alpha_bilinear(f, f, alpha, fam).fn
        # oracle: explicit maximum over the dyadic radii
        stack = []
        for level in range(0, -7, -1):
            d = 2.0 ** level
            stack.append((2 * d) ** (alpha - 1) * b_truncated(f, f, d).fn.values)
        assert np.allclose(out.values, np.max(stack, axis=0), rtol=1e-13)
        # at the midpoint nearest 1/2 the scan peaks at d = 1/2 with value
        # min(2d, 2 min(x, 1-x)) / sqrt(2d); compare against that closed form
        i = 2 ** 5 - 1
        x = axis_midpoints(f)[i]
        best = max(min(2 * 2.0 ** lv, 2 * min(x, 1 - x)) * (2 * 2.0 ** lv) ** (alpha - 1)
                   for lv in range(0, -7, -1))
        assert out.values[i] == pytest.approx(best, rel=1e-12)
        assert out.values[i] == pytest.approx(1.0, rel=5e-2)

    def test_bilinear_maximal_zero(self):
        f = step(np.zeros(8))
        fam = dyadic_family(unit_root(1), -3)
        assert np.all(m_alpha_bilinear(f, f, 0.3, fam).fn.values == 0.0)

    def test_maximal_controlled_by_b_alpha(self):
        alpha = 0.5
        fam = dyadic_family(unit_root(1), -5)
        cs = []
        for seed in range(5):
            f, g = rand_positive(seed, 5), rand_positive(seed + 9, 5)
            m = m_alpha_bilinear(f, g, alpha, fam).fn.values
            b = b_alpha(f, g, alpha).fn.values
            cs.append(np.max(m / b))
        assert max(cs) / min(cs) < 1.6  # one data-independent constant band

    def test_vector_maximal_constant(self):
        f = indicator_root(4)
        fam = dyadic_family(unit_root(1), -4)
        out = m_alpha_vector(f, f, 0.5, 1.0, 1.0, fam).fn
        assert np.allclose(out.values, 1.0, rtol=1e-13)
        with pytest.raises(ParameterError, match=r"^vector maximal exponents need 0 < r1, r2 < inf$"):
            m_alpha_vector(f, f, 0.5, 0.0, 1.0, fam)

    def test_vector_maximal_bruteforce_alpha0(self):
        f, g = rand_positive(14, 4), rand_positive(15, 4)
        fam = dyadic_family(unit_root(1), -4)
        out = m_alpha_vector(f, g, 0.0, 1.0, 1.0, fam).fn.values
        m = 16
        expect = np.zeros(m)
        for cube in enumerate_subcubes(unit_root(1), -4):
            lo, hi = int(cube.lower()[0] * m), int(upper(cube)[0] * m)
            val = f.values[lo:hi].mean() * g.values[lo:hi].mean()
            expect[lo:hi] = np.maximum(expect[lo:hi], val)
        assert np.allclose(out, expect, rtol=1e-13)

    def test_vector_maximal_monotone_in_alpha(self):
        f, g = rand_positive(16, 4), rand_positive(17, 4)
        fam = dyadic_family(unit_root(1), -4)
        lo = m_alpha_vector(f, g, 0.2, 1.0, 1.0, fam).fn.values
        hi = m_alpha_vector(f, g, 0.6, 1.0, 1.0, fam).fn.values
        assert np.all(hi <= lo + 1e-12)  # |Q| <= 1 so larger alpha shrinks

    def test_m_tilde_unit_weight_reduction(self):
        f, g = rand_positive(18, 4), rand_positive(19, 4)
        v = indicator_root(4).with_values(np.ones(16), "pos")
        fam = dyadic_family(unit_root(1), -4)
        a = m_tilde(f, g, v, 0.5, 0.5, fam).fn.values
        b = m_alpha_vector(f, g, 0.5, 1.0, 1.0, fam).fn.values
        assert np.allclose(a, b, rtol=1e-12)

    def test_m_tilde_essential_sup_at_t1(self):
        f = indicator_root(3)
        v = rand_positive(20, 3)
        fam = dyadic_family(unit_root(1), 0)  # root only
        out = m_tilde(f, f, v, 0.5, 1.0, fam).fn.values
        assert np.allclose(out, v.values.max(), rtol=1e-13)

    def test_local_weighted_control_is_refinement_stable(self):
        # L^t norm of B(f,g) v over Q0 against the weighted maximal: the
        # ratio stays in a stable band as the representation refines
        alpha = 0.5
        t = 0.5
        ratios = []
        for extra in range(0, 3):
            f = rand_positive(21, 4).refine(extra)
            g = rand_positive(22, 4).refine(extra)
            v = rand_positive(23, 4).refine(extra)
            fam = dyadic_family(unit_root(1), f.cell_level)
            bv = b_alpha(f, g, alpha).fn
            lhs = lebesgue_norm(bv.with_values(bv.values * v.values), t)
            rhs = lebesgue_norm(m_tilde(f, g, v, alpha, t, fam).fn, t)
            ratios.append(lhs / rhs)
        assert max(ratios) <= 1.05 * min(ratios)

    def test_triple_maximal_bruteforce(self):
        f, g = rand_positive(24, 4), rand_positive(25, 4)
        fam = dyadic_family(unit_root(1), -4)
        out = m_triple_dyadic(f, g, fam).fn.values
        m = 16
        expect = np.zeros(m)
        for cube in enumerate_subcubes(unit_root(1), -4):
            lo, hi = int(cube.lower()[0] * m), int(upper(cube)[0] * m)
            shift = cube.level - f.cell_level
            i = cube.coords[0]
            val = triple_means(f, shift)[i] * triple_means(g, shift)[i]
            expect[lo:hi] = np.maximum(expect[lo:hi], val)
        assert np.array_equal(out, expect)

    @pytest.mark.parametrize("dim,depth", [(1, 5), (2, 3)])
    def test_triple_means_match_triple_boxes(self, dim, depth):
        f = rand_positive(28, depth, dim=dim)
        for cube in enumerate_subcubes(f.root, f.cell_level):
            shift = cube.level - f.cell_level
            want = (f.values[triple(cube, f).slices()].sum() * f.cell_volume
                    / (3.0 ** dim * cube.volume))
            got = triple_means(f, shift)[tuple(lo >> shift for lo in cube_box(f, cube).lo)]
            assert got == pytest.approx(want, rel=1e-13)

    def test_triple_maximal_root_indicator(self):
        f = indicator_root(4)
        fam = dyadic_family(unit_root(1), -4)
        out = m_triple_dyadic(f, f, fam).fn.values
        # root cube alone would give (1/3)^2 with zero extension
        assert triple_means(f, f.depth)[0] == pytest.approx(1 / 3)
        assert np.all(out >= (1 / 3) ** 2 - 1e-15)
        # interior cells see fully-contained triples with average one
        assert out[8] == pytest.approx(1.0, rel=1e-12)

    def test_triple_maximal_zero(self):
        z = step(np.zeros(16))
        fam = dyadic_family(unit_root(1), -4)
        assert np.all(m_triple_dyadic(z, z, fam).fn.values == 0.0)

    def test_maximal_outputs_invariant_under_refinement(self):
        # same cube family, finer representation of the same step function:
        # outputs agree on common cells
        f, g = rand_positive(26, 3), rand_positive(27, 3)
        fam = dyadic_family(unit_root(1), -3)
        coarse = m_alpha_vector(f, g, 0.4, 1.5, 2.0, fam).fn.values
        fine = m_alpha_vector(f.refine(2), g.refine(2), 0.4, 1.5, 2.0, fam).fn.values
        assert np.allclose(np.repeat(coarse, 4), fine, rtol=1e-12)
        coarse_t = m_triple_dyadic(f, g, fam).fn.values
        fine_t = m_triple_dyadic(f.refine(2), g.refine(2), fam).fn.values
        assert np.allclose(np.repeat(coarse_t, 4), fine_t, rtol=1e-12)


class Test2DSmoke:
    def test_i_alpha_indicator_closed_form(self):
        # I_1 of the unit-square indicator at the center equals
        # 4 * (1/2) * 2 ln(1 + sqrt 2); the midpoint nearest the center
        # converges to it as the grid refines
        exact = 4 * 0.5 * 2 * np.log(1 + np.sqrt(2))
        errs = {}
        for depth in (4, 5):
            m = 2 ** depth
            f = indicator_root(depth, dim=2)
            out = i_alpha(f, 1.0).fn
            c = m // 2 - 1
            errs[depth] = abs(out.values[c, c] - exact) / exact
        assert errs[4] < 0.02 and errs[5] < 0.01
        assert errs[5] < errs[4]

    def test_dyadic_model_brackets_b_alpha(self):
        alpha = 1.1
        f, g = rand_positive(30, 3, dim=2), rand_positive(31, 3, dim=2)
        num = b_alpha(f, g, alpha).fn.values
        den = b_alpha_dyadic(f, g, alpha, unit_root(2)).fn.values
        ratios = num / den
        assert ratios.min() > 0.1 and ratios.max() < 10.0

    def test_vector_maximal_bruteforce_2d(self):
        f, g = rand_positive(32, 3, dim=2), rand_positive(33, 3, dim=2)
        fam = dyadic_family(unit_root(2), -3)
        out = m_alpha_vector(f, g, 0.5, 1.0, 1.0, fam).fn.values
        expect = np.zeros_like(out)
        for cube in enumerate_subcubes(unit_root(2), -3):
            lo = tuple(int(c * 8) for c in cube.lower())
            hi = tuple(int(c * 8) for c in upper(cube))
            sl = tuple(slice(a, b) for a, b in zip(lo, hi))
            val = cube.volume ** 0.25 * f.values[sl].mean() * g.values[sl].mean()
            expect[sl] = np.maximum(expect[sl], val)
        assert np.allclose(out, expect, rtol=1e-12)

    def test_truncated_form_2d_constant(self):
        f = indicator_root(3, dim=2)
        out = b_truncated(f, f, 0.25).fn.values
        # interior midpoint far from the boundary: the full square of radius
        # 1/4 contributes, area (2*0.25)^2
        assert out[4, 4] == pytest.approx(0.25, rel=1e-12)


def refined_corner_integral(side, alpha, depth):
    """The singular corner by explicit dyadic refinement toward the pole: per
    level three off-corner children of 8x8 midpoint cells, and the geometric
    tail of the remaining corner closed in exactly."""
    offsets = (np.arange(8) + 0.5) / 8
    total, s = 0.0, side
    for _ in range(depth):
        half = 0.5 * s
        for ox, oy in ((half, 0.0), (0.0, half), (half, half)):
            xx, yy = np.meshgrid(ox + offsets * half, oy + offsets * half, indexing="ij")
            total += float(np.sum((xx * xx + yy * yy) ** (0.5 * (alpha - 2.0)))) * (half / 8) ** 2
        s = half
    return total / (1.0 - 2.0 ** (-depth * alpha))


class TestKernelTable2D:
    def test_center_cell_closed_form_matches_refinement(self):
        # the kernel is homogeneous, so every refinement depth gives the
        # closed form up to rounding
        for alpha in (0.2, 0.6, 1.0, 1.8):
            for depth in (1, 6, 20):
                for side in (0.5, 2.0 ** -5):
                    assert operators._corner_square_integral(side, alpha) == pytest.approx(
                        refined_corner_integral(side, alpha, depth), rel=1e-12)

    def test_center_cell_against_polar_reference(self):
        # integral over [-h/2,h/2]^2 of |u|^(a-2) equals
        # 4 (h/2)^a * (2/a) * int_0^{pi/4} sec(theta)^a dtheta
        f = indicator_root(2, dim=2)
        a = 0.9
        table = kernel_cell_table(a, f)
        c = f.cells_per_axis - 1
        h = f.cell_side
        thetas = np.linspace(0.0, np.pi / 4, 20001)
        sec = 1.0 / np.cos(thetas)
        ref = 4 * (h / 2) ** a * (2.0 / a) * np.trapezoid(sec ** a, thetas)
        assert table[c, c] == pytest.approx(ref, rel=1e-3)


def tower_reference(fv, gv, *tables):
    """out[i] = sum_j f[i-j] g[i+j] table[c+j] over in-range indices, for
    each table, one cell and one offset at a time (c: the table's centre)."""
    m = fv.shape[0]
    c = m - 1
    outs = [np.zeros(fv.shape) for _ in tables]
    for i in np.ndindex(fv.shape):
        reach = [min(k, c - k) for k in i]
        prods = [float(fv[tuple(k - o for k, o in zip(i, j))])
                 * float(gv[tuple(k + o for k, o in zip(i, j))])
                 for j in itertools.product(*(range(-r, r + 1) for r in reach))]
        for out, table in zip(outs, tables):
            window = table[tuple(slice(c - r, c + r + 1) for r in reach)].ravel().tolist()
            out[i] = math.fsum(map(operator.mul, prods, window))
    return outs


def overlap_table(f, d):
    """Volumes of the offset cells o*h + [-h/2, h/2]**n inside |y|_inf <= d."""
    m, h = f.cells_per_axis, f.cell_side
    w = np.array([max(0.0, min(o * h + h / 2, d) - max(o * h - h / 2, -d))
                  for o in range(-(m - 1), m)])
    return w if f.dim == 1 else np.multiply.outer(w, w)


def column_blocks(m, rows=1):
    """Column blocks of one row offset that spans ``rows`` rows."""
    cols = max(1, operators._BLOCK // (rows * (2 * m - 1)))
    return -(-m // cols)


# 1D grids below one column block, the largest that fits in one, and grids
# split over several; 2D grids at the default block size
TOWER_GRIDS = [pytest.param(1, 3, 1, id="1d-small"),
               pytest.param(1, 7, 1, id="1d-one-block"),
               pytest.param(1, 8, 2, id="1d-two-blocks"),
               pytest.param(1, 9, 8, id="1d-eight-blocks"),
               pytest.param(2, 2, None, id="2d-depth2"),
               pytest.param(2, 3, None, id="2d-depth3")]


@pytest.mark.parametrize("dim,depth,blocks", TOWER_GRIDS)
class TestScaleTowerAgainstBruteForce:
    def operands(self, dim, depth, blocks):
        if blocks is not None:
            assert column_blocks(2 ** depth) == blocks
        return rand_positive(40 + depth, depth, dim), rand_positive(60 + depth, depth, dim)

    def test_truncated_at_fractional_d(self, dim, depth, blocks):
        f, g = self.operands(dim, depth, blocks)
        for d in (0.3, 2.0 ** -depth * 2.5):
            want, = tower_reference(f.values, g.values, overlap_table(f, d))
            assert np.allclose(b_truncated(f, g, d).fn.values, want, rtol=1e-13, atol=0)

    def test_b_alpha(self, dim, depth, blocks):
        f, g = self.operands(dim, depth, blocks)
        alpha = 0.7
        want, = tower_reference(f.values, g.values, kernel_cell_table(alpha, f))
        assert np.allclose(b_alpha(f, g, alpha).fn.values, want, rtol=1e-13, atol=0)

    def test_dyadic_model_on_a_subcube(self, dim, depth, blocks):
        f, g = self.operands(dim, depth, blocks)
        alpha = 0.7
        q0 = DyadicCube(-1, (1,) + (0,) * (dim - 1))
        min_level = f.cell_level + 1
        levels = range(min_level, q0.level + 1)
        terms = tower_reference(f.values, g.values,
                                *(overlap_table(f, 2.0 ** level) for level in levels))
        want = sum(2.0 ** (level * (alpha - dim)) * term
                   for level, term in zip(levels, terms))
        inside = np.zeros(f.values.shape, dtype=bool)
        inside[cube_box(f, q0).slices()] = True
        got = b_alpha_dyadic(f, g, alpha, q0, min_level=min_level).fn.values
        assert np.allclose(got[inside], want[inside], rtol=1e-13, atol=0)
        assert np.all(got[~inside] == 0.0)

    def test_bilinear_maximal_on_a_subcube_family(self, dim, depth, blocks):
        f, g = self.operands(dim, depth, blocks)
        fam = dyadic_family(DyadicCube(-1, (0,) * dim), f.cell_level + 1)
        alpha = 0.4
        terms = tower_reference(f.values, g.values,
                                *(overlap_table(f, 2.0 ** level) for level in fam.levels()))
        want = np.max([(2.0 ** (level + 1)) ** (alpha - dim) * term
                       for level, term in zip(fam.levels(), terms)], axis=0)
        got = m_alpha_bilinear(f, g, alpha, fam).fn.values
        assert np.allclose(got, want, rtol=1e-13, atol=0)


@pytest.mark.parametrize("dim,depth", [pytest.param(dim, depth, id=f"{dim}d-depth{depth}")
                                       for dim in (1, 2) for depth in (2, 3, 4)])
class TestRowPassColumnBlocks:
    """A block size of three columns at j0 = 0 splits the row offsets into
    several column blocks, the last one ragged."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch, dim, depth):
        m = 2 ** depth
        rows = m if dim == 2 else 1
        monkeypatch.setattr(operators, "_BLOCK", 3 * rows * (2 * m - 1))
        assert column_blocks(m, rows) == -(-m // 3) > 1

    def operands(self, dim, depth):
        return rand_positive(80 + depth, depth, dim), rand_positive(90 + depth, depth, dim)

    def test_one_scale(self, dim, depth):
        f, g = self.operands(dim, depth)
        table = kernel_cell_table(0.7, f)
        want, = tower_reference(f.values, g.values, table)
        got = operators._correlate(f.values, g.values, table[..., None])[..., 0]
        assert np.allclose(got, want, rtol=1e-13, atol=0)

    def test_k_scales(self, dim, depth):
        f, g = self.operands(dim, depth)
        tables = [overlap_table(f, d) for d in (0.3, 2.0 ** -depth * 1.5, 1.0)]
        tables.append(kernel_cell_table(0.7, f))
        want = tower_reference(f.values, g.values, *tables)
        got = operators._correlate(f.values, g.values, np.stack(tables, axis=-1))
        for scale, column in enumerate(want):
            assert np.allclose(got[..., scale], column, rtol=1e-13, atol=0)

    def test_stack_of_three(self, dim, depth):
        # the block cap counts the stack, so each block holds one column here
        pairs = [(rand_positive(80 + 7 * k + depth, depth, dim),
                  rand_positive(90 + 7 * k + depth, depth, dim)) for k in range(3)]
        tables = np.stack([overlap_table(pairs[0][0], 0.3),
                           kernel_cell_table(0.7, pairs[0][0])], axis=-1)
        got = operators._correlate(np.stack([f.values for f, _ in pairs]),
                                   np.stack([g.values for _, g in pairs]), tables)
        assert got.shape == (3,) + pairs[0][0].values.shape + (2,)
        for item, (f, g) in zip(got, pairs):
            single = operators._correlate(f.values, g.values, tables)
            want = tower_reference(f.values, g.values, *np.moveaxis(tables, -1, 0))
            assert np.allclose(item, single, rtol=1e-13, atol=0)
            for scale, column in enumerate(want):
                assert np.allclose(item[..., scale], column, rtol=1e-13, atol=0)


def test_one_block_is_one_product():
    # a 1D grid that fits one column block takes exactly the product
    # (F*G) @ tables of the zero-padded matrices F[i, j] = f[i-j], G[i, j] = g[i+j]
    m = 2 ** 7
    assert column_blocks(m) == 1
    f, g = rand_positive(100, 7), rand_positive(101, 7)
    tables = np.stack([overlap_table(f, 0.3), kernel_cell_table(0.7, f),
                       overlap_table(f, 1.0)], axis=-1)
    i, j = np.ogrid[:m, -(m - 1):m]

    def padded(values, index):
        return np.where((index >= 0) & (index < m), values[np.clip(index, 0, m - 1)], 0.0)
    want = (padded(f.values, i - j) * padded(g.values, i + j)) @ tables
    assert operators._correlate(f.values, g.values, tables).tobytes() == want.tobytes()


def direct_i_alpha(values, table):
    """sum_k f[k] table[c + i - k]: in 1D the direct convolution cropped to
    the grid, in 2D one shifted window of the table per cell."""
    m = values.shape[0]
    if values.ndim == 1:
        return np.convolve(values, table)[m - 1:2 * m - 1]
    windows = sliding_window_view(table, (m, m))
    return np.einsum("abuv,uv->ab", windows, values[::-1, ::-1])


class TestIAlphaFFT:
    @pytest.mark.parametrize("dim,depth,alpha", [
        *((1, depth, alpha) for depth in range(1, 13) for alpha in (0.2, 0.5, 0.8)),
        *((2, depth, alpha) for depth in range(1, 7) for alpha in (0.2, 1.0, 1.8))])
    def test_within_documented_bound(self, dim, depth, alpha):
        # relative error per cell <= eps * log2(2m) * max K / min K for f >= 0
        f = rand_positive(70 + depth, depth, dim=dim)
        table = kernel_cell_table(alpha, f)
        got = i_alpha(f, alpha).fn.values
        want = direct_i_alpha(f.values, table)
        bound = np.finfo(float).eps * np.log2(2 * f.cells_per_axis) * table.max() / table.min()
        assert np.max(np.abs(got - want) / want) <= bound

    @pytest.mark.parametrize("dim,depth,spike,alpha", [
        (1, 12, (1234,), 0.2), (1, 12, (1234,), 0.8),
        (2, 7, (42, 25), 0.2), (2, 7, (42, 25), 1.8)])
    def test_next_to_a_spike(self, dim, depth, spike, alpha):
        vals = np.ones((2 ** depth,) * dim)
        vals[spike] = 1e12
        f = step(vals, dim=dim, flags="pos")
        got = i_alpha(f, alpha).fn.values
        want = direct_i_alpha(vals, kernel_cell_table(alpha, f))
        assert np.max(np.abs(got - want) / want) <= 1e-9

    @pytest.mark.parametrize("dim", [1, 2])
    def test_no_deprecation_warning(self, dim):
        # the transforms name their axes next to their lengths
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            i_alpha(rand_positive(3, 4, dim=dim), 0.5)
