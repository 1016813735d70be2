"""Property tests of the stacked scans and operator kernels: a stack of grids
on one lattice gives, item by item, what the public single calls give.

The public calls read one grid each, so these tests pin the stack axis
itself: per-item reductions, also per weight system of a characteristic
given a list of systems (a stacked scan returns its maxima and their
positions, and places no cube; the attaining cubes of single calls are
pinned in ``test_pyramid_properties``),
a stack refused when one item overflows, and the bilinear correlate with its
column blocks sized over the whole stack (products of a different shape, so
BLAS may sum in a different order: relative 1e-13 there), and B of steps
given on a coarser grid than they are evaluated on.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from morreybench import (DyadicCube, GridFunction, NumericalError, ParameterError,  # noqa: E402
                         dyadic_family, m_alpha_bilinear, m_alpha_vector, morrey_norm,
                         pair_morrey_sup)
from morreybench.grid import spread  # noqa: E402
from morreybench.norms import _morrey_sup  # noqa: E402
from morreybench.operators import _b_values, _bilinear_maximal, _vector_maximal  # noqa: E402
from morreybench.weights import (CharParams, WeightSystem, char_one_weight,  # noqa: E402
                                 char_remark, char_testing, char_two_weight, pair_value)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def stacks(draw):
    """Two stacks of 1-4 grids on one random root, and a dyadic family inside
    the root whose finest level may lie above the cell level."""
    dim = draw(st.sampled_from([1, 2]))
    depth = draw(st.integers(0, 5 if dim == 1 else 3))
    root = DyadicCube(draw(st.integers(-1, 1)),
                      tuple(draw(st.integers(-2, 2)) for _ in range(dim)))
    size = draw(st.integers(1, 4))
    shape = (size,) + (2 ** depth,) * dim
    elements = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)
    fv, gv = (draw(arrays(np.float64, shape, elements=elements)) for _ in range(2))
    cell = root.level - depth
    sub_level = draw(st.integers(cell, root.level))
    shift = root.level - sub_level
    sub = DyadicCube(sub_level, tuple((c << shift) + draw(st.integers(0, (1 << shift) - 1))
                                      for c in root.coords))
    family = dyadic_family(sub, draw(st.integers(cell, sub_level)))
    grid = GridFunction(root, np.zeros(shape[1:]))
    return grid, fv, gv, family


@st.composite
def coarse_stacks(draw):
    """Signed step pairs at a base depth on a random root, the grid ``shift``
    levels finer and a kernel exponent in (0, n)."""
    dim = draw(st.sampled_from([1, 2]))
    depth = draw(st.integers(0, 4 if dim == 1 else 3))
    shift = draw(st.integers(0, 3 if dim == 1 else 2))
    root = DyadicCube(draw(st.integers(-1, 1)),
                      tuple(draw(st.integers(-2, 2)) for _ in range(dim)))
    shape = (draw(st.integers(1, 3)),) + (2 ** depth,) * dim
    # signed, over e**-6..e**6 and zero, so no product leaves the normal range
    elements = st.just(0.0) | st.builds(lambda sign, e: sign * np.exp(e), st.sampled_from(
        [-1.0, 1.0]), st.floats(-6.0, 6.0))
    fv, gv = (draw(arrays(np.float64, shape, elements=elements)) for _ in range(2))
    grid = GridFunction(root, np.zeros((2 ** (depth + shift),) * dim))
    return grid, fv, gv, shift, draw(st.floats(0.05, 0.95)) * dim


def items(grid, stack):
    return [grid.with_values(values) for values in stack]


@PROPERTY
@given(case=stacks(), p=st.sampled_from([1.0, 1.5, 4.0]), q=st.sampled_from([0.5, 1.0, 2.0]))
def test_stacked_norms_match_single_calls(case, p, q):
    grid, fv, gv, family = case
    q = min(p, q)
    tops = _morrey_sup(grid, family, p, (fv, q))[0]
    want = [morrey_norm(f, p, q, family) for f in items(grid, fv)]
    assert tops.shape == fv.shape[:1]
    assert np.array_equal(tops, [rep.value for rep in want])
    tops = _morrey_sup(grid, family, p, (fv, q), (gv, 2.0))[0]
    want = [pair_morrey_sup(f, g, p, q, 2.0, family)
            for f, g in zip(items(grid, fv), items(grid, gv))]
    assert np.array_equal(tops, [rep.value for rep in want])


@PROPERTY
@given(case=stacks(), alpha=st.sampled_from([0.0, 0.3, 0.9]),
       r1=st.sampled_from([1.0, 2.0]), r2=st.sampled_from([0.5, 1.0]))
def test_stacked_maximal_fields_match_single_calls(case, alpha, r1, r2):
    grid, fv, gv, family = case
    pairs = list(zip(items(grid, fv), items(grid, gv)))
    vector = _vector_maximal(grid, fv, gv, alpha, r1, r2, family)
    assert vector.shape == fv.shape
    for got, (f, g) in zip(vector, pairs):
        assert np.array_equal(got, m_alpha_vector(f, g, alpha, r1, r2, family).fn.values)
    bilinear = _bilinear_maximal(grid, fv, gv, alpha, family)
    assert bilinear.shape == fv.shape
    for got, (f, g) in zip(bilinear, pairs):
        want = m_alpha_bilinear(f, g, alpha, family).fn.values
        assert np.allclose(got, want, rtol=1e-13, atol=0)


def _refused(call) -> bool:
    try:
        call()
    except NumericalError as exc:
        assert str(exc) == "supremum overflowed to a non-finite value"
        return True
    return False


@PROPERTY
@given(case=stacks(), item=st.integers(0, 3), cell=st.integers(0, 63))
def test_overflowing_item_refused_like_its_single_call(case, item, cell):
    # |f|**q overflows in one cell of one item: the stack is refused exactly
    # when that item's single call is (the cell may lie outside the family);
    # no other item's single call is refused
    grid, fv, gv, family = case
    item %= len(fv)
    fv = fv.copy()
    fv[item].flat[cell % fv[item].size] = 1e300
    pairs = list(zip(items(grid, fv), items(grid, gv)))
    for stacked, single in (
            (lambda: _morrey_sup(grid, family, 2.0, (fv, 2.0))[0],
             lambda f, g: morrey_norm(f, 2.0, 2.0, family)),
            (lambda: _morrey_sup(grid, family, 2.0, (fv, 2.0), (gv, 1.0))[0],
             lambda f, g: pair_morrey_sup(f, g, 2.0, 2.0, 1.0, family))):
        refused = [_refused(lambda: single(f, g)) for f, g in pairs]
        assert not any(refused[:item] + refused[item + 1:])
        assert _refused(stacked) == refused[item]
        if not refused[item]:
            want = [single(f, g) for f, g in pairs]
            assert np.array_equal(stacked(), [rep.value for rep in want])


def test_overflowing_field_refused_like_the_single_call():
    grid = GridFunction(DyadicCube(0, (0,)), np.zeros(4))
    family = dyadic_family(grid.root, -2)
    fv = np.ones((2, 4))
    fv[1, 0] = 1e300
    with pytest.raises(NumericalError):
        m_alpha_vector(grid.with_values(fv[1]), grid.with_values(fv[1]), 0.5, 2.0, 2.0, family)
    with pytest.raises(NumericalError):
        _vector_maximal(grid, fv, fv, 0.5, 2.0, 2.0, family)


def test_empty_stack():
    grid = GridFunction(DyadicCube(0, (0, 0)), np.zeros((4, 4)))
    family = dyadic_family(grid.root, -2)
    empty = np.zeros((0, 4, 4))
    assert [x.shape for x in _morrey_sup(grid, family, 2.0, (empty, 1.0))] == [(0,)] * 2
    assert _vector_maximal(grid, empty, empty, 0.5, 1.0, 1.0, family).shape == (0, 4, 4)
    assert _bilinear_maximal(grid, empty, empty, 0.5, family).shape == (0, 4, 4)


@PROPERTY
@given(case=coarse_stacks())
def test_coarse_b_values_match_the_fine_call(case):
    # the coarse tables add only positive kernel masses, so every cell agrees
    # with the steps spread onto the grid within 1e-14 of B(|f|, |g|); with
    # nothing to refine the call is the fine one, bit for bit
    grid, fv, gv, shift, alpha = case
    n = grid.dim
    fine = _b_values(grid, spread(fv, shift, n), spread(gv, shift, n), alpha)
    coarse = _b_values(grid, fv, gv, alpha)
    assert coarse.shape == fine.shape == fv.shape[:1] + grid.values.shape
    assert shift or coarse.tobytes() == fine.tobytes()
    scale = _b_values(grid, spread(np.abs(fv), shift, n), spread(np.abs(gv), shift, n), alpha)
    assert np.all(np.abs(coarse - fine) <= 1e-14 * scale)


# alpha/n is the same in 1D and 2D, so each exponent tuple serves both
TWO_WEIGHT_BELOW_1 = dict(alpha=0.5, q1=9 / 8, q2=9 / 8, p=16 / 27, s=0.8,
                          t=0.8 * (9 / 16) / (16 / 27), r=16.0, a=17 / 16)
# s >= 1 at t = 1 (the v factor is the plain max); r balances the s relation
TWO_WEIGHT_FROM_1 = dict(alpha=0.5, q1=9 / 8, q2=9 / 8, p=1.0, s=16 / 9, t=1.0,
                         r=1.0 / (9 / 16 - 1.0 + 0.5), a=17 / 16)
TESTING = dict(alpha=0.5, q1=4.0, q2=4.0, p=2.5, s=20 / 3, t=16 / 3, r=4.0, a=2.0)
ONE_WEIGHT = dict(alpha=0.5, q1=9 / 8, q2=9 / 8, p=0.6, s=6 / 7, t=(6 / 7) * (9 / 16) / 0.6,
                  r=float("inf"), a=17 / 16)
CHARACTERISTICS = {
    "two-weight-s<1": (char_two_weight, TWO_WEIGHT_BELOW_1),
    "two-weight-s>=1": (char_two_weight, TWO_WEIGHT_FROM_1),
    "remark": (char_remark, TWO_WEIGHT_BELOW_1),
    "testing": (char_testing, TESTING),
    "one-weight": (char_one_weight, ONE_WEIGHT),
}


@st.composite
def weight_stacks(draw):
    """1-6 weight systems with cells over e**-8..e**8 on one random root, and
    a dyadic family inside the root whose finest level may lie above the cells."""
    dim = draw(st.sampled_from([1, 2]))
    depth = draw(st.integers(0, 5 if dim == 1 else 3))
    root = DyadicCube(draw(st.integers(-1, 1)),
                      tuple(draw(st.integers(-2, 2)) for _ in range(dim)))
    shape = (draw(st.integers(1, 6)), 3) + (2 ** depth,) * dim
    cells = draw(arrays(np.float64, shape, elements=st.floats(-8.0, 8.0)))
    systems = [WeightSystem(*(GridFunction(root, np.exp(w), "pos") for w in system))
               for system in cells]
    family = dyadic_family(root, draw(st.integers(root.level - depth, root.level)))
    return systems, family


@PROPERTY
@given(case=weight_stacks(), kind=st.sampled_from(sorted(CHARACTERISTICS)))
def test_stacked_characteristics_match_single_calls(case, kind):
    # one call on the list gives each system's single-call value bit for bit,
    # and the single call's attaining pair reproduces its value exactly
    systems, family = case
    char, exponents = CHARACTERISTICS[kind]
    if char is char_one_weight:  # v = w1 w2 of the drawn weights
        systems = [WeightSystem(ws.w1.with_values(ws.w1.values * ws.w2.values, "pos"),
                                ws.w1, ws.w2) for ws in systems]
    dim = family.root.dim
    cp = CharParams(n=dim, **{**exponents, "alpha": exponents["alpha"] * dim})
    values = char(systems, cp, family)
    assert values.shape == (len(systems),)
    for ws, value in zip(systems, values.tolist()):
        rep = char(ws, cp, family)
        assert value == rep.value
        if char is char_two_weight:
            assert rep.value == pair_value(ws, cp, *rep.attaining)


@pytest.mark.parametrize("kind", sorted(CHARACTERISTICS))
def test_empty_weight_stack_refused(kind):
    char, exponents = CHARACTERISTICS[kind]
    with pytest.raises(ParameterError, match="^a stack needs at least one weight system$"):
        char([], CharParams(n=1, **exponents), dyadic_family(DyadicCube(0, (0,)), -2))
