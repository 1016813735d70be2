"""The aligned sweep's branch and bound over side lengths.

``_morrey_aligned`` evaluates only the side lengths whose range bound can
still reach the best value.  These tests pin it to the full loop over every
side, as written before the search (kept below as ``full_loop``): the same
value and the same box, bit for bit.  They also check every range bound the
search computes against the values it covers, count the sides evaluated on
the sharpness data, and compare window sums next to a 1e12 spike with sums
over explicit slices.  In 1D the computed largest window sum does not
decrease with the side, so a range whose ends share it is evaluated without
a scan; in 2D it can dip and recover, and ranges are always bisected.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from morreybench import (AlignedBox, DyadicCube, GridFunction, NumericalError,  # noqa: E402
                         ParameterError, aligned_family, morrey_norm)
from morreybench import norms  # noqa: E402
from morreybench.experiments import SharpnessConfig, build_sharpness_pair  # noqa: E402
from morreybench.norms import (ALIGNED, CubeFamily, _morrey_aligned,  # noqa: E402
                               _prefix_table, _windows)
from morreybench.operators import b_alpha  # noqa: E402

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def full_loop(f, p, q, family):
    """(value, box) of the first strict maximum over every side in order."""
    powered = np.abs(f.values) ** q
    m = f.cells_per_axis
    h = f.cell_side
    best_val, best_at = -1.0, None
    if f.dim == 1:
        prefix = np.concatenate([[0.0], powered.cumsum()])
        for s in family.aligned_sizes:
            windows = prefix[s:] - prefix[:-s]
            i = int(np.argmax(windows))
            measure = (s * h)
            val = measure ** (1.0 / p) * (windows[i] / s) ** (1.0 / q)
            if val > best_val:
                best_val, best_at = val, ((i,), (i + s,))
    else:
        t = np.zeros((m + 1, m + 1))
        t[1:, 1:] = powered.cumsum(axis=0).cumsum(axis=1)
        for s in family.aligned_sizes:
            win = (t[s:, s:] - t[:-s, s:] - t[s:, :-s] + t[:-s, :-s])
            flat = int(np.argmax(win))
            i0, i1 = divmod(flat, win.shape[1])
            measure = (s * h) ** 2
            val = measure ** (1.0 / p) * (win[i0, i1] / s ** 2) ** (1.0 / q)
            if val > best_val:
                best_val, best_at = val, ((i0, i1), (i0 + s, i1 + s))
    return best_val, AlignedBox(*best_at) if best_at else None


def size_values(f, p, q, family):
    """side -> the computed value of the side's largest window, as the loop has it."""
    table = _prefix_table(np.abs(f.values) ** q)
    n, h = f.dim, f.cell_side
    out = {}
    for s in family.aligned_sizes:
        w = np.max(_windows(table, s))
        out[s] = ((s * h) ** n) ** (1.0 / p) * (w / s ** n) ** (1.0 / q)
    return out


def thinned(family):
    """The same grid's family with dyadic side lengths only."""
    m = max(family.aligned_sizes)
    return CubeFamily(ALIGNED, family.root, family.min_level,
                      tuple(1 << j for j in range(m.bit_length())))


def grid(values, root=None):
    values = np.asarray(values, dtype=float)
    return GridFunction(root or DyadicCube(0, (0,) * values.ndim), values)


@st.composite
def cases(draw):
    """A 1D or 2D grid on a random root, exponents with q <= p (p = q often),
    and the full or the dyadic-thinned aligned family."""
    dim = draw(st.sampled_from([1, 2]))
    depth = draw(st.integers(0, 7 if dim == 1 else 4))
    shape = (2 ** depth,) * dim
    kind = draw(st.sampled_from(["ties", "log", "spike", "zero", "margins"]))
    if kind == "zero":
        values = np.zeros(shape)
    elif kind == "margins":  # a positive interior in zero borders: the largest sides share W
        lo = draw(st.integers(0, (shape[0] - 1) // 2))
        inner = (slice(lo, draw(st.integers(lo + 1, shape[0]))),) * dim
        values = np.zeros(shape)
        values[inner] = np.exp(draw(arrays(np.float64, values[inner].shape,
                                           elements=st.floats(-8, 8))))
    elif kind == "ties":
        values = draw(arrays(np.float64, shape, elements=st.sampled_from(
            [-3.0, -1.0, 0.0, 1.0, 2.0, 3.0])))
    else:
        values = np.exp(draw(arrays(np.float64, shape, elements=st.floats(-8, 8))))
        if kind == "spike":
            values.flat[draw(st.integers(0, values.size - 1))] = 1e12
    root = DyadicCube(draw(st.integers(-1, 1)), tuple(draw(st.integers(-2, 2))
                                                      for _ in range(dim)))
    f = GridFunction(root, values)
    q = draw(st.sampled_from([0.5, 1.0, 2.0, 2.5, 5.0]))
    p = q if draw(st.booleans()) else q * draw(st.sampled_from([1.25, 2.0, 4.0]))
    family = aligned_family(f)
    if draw(st.booleans()):
        family = thinned(family)
    return f, p, q, family


@PROPERTY
@given(cases())
def test_search_equals_full_loop(case):
    f, p, q, family = case
    rep = _morrey_aligned(f, p, q, family)
    value, box = full_loop(f, p, q, family)
    assert rep.value == value
    assert type(rep.value) is type(value)
    assert rep.attaining == box


@PROPERTY
@given(cases())
def test_every_range_bound_covers_its_values(case):
    f, p, q, family = case
    bounds = []
    real = norms._range_bound

    def record(lo, top, *args):
        b = real(lo, top, *args)
        bounds.append((lo, top, b))
        return b
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(norms, "_range_bound", record)
        _morrey_aligned(f, p, q, family)
    values = size_values(f, p, q, family)
    for lo, top, b in bounds:
        for s, v in values.items():
            if lo <= s <= top and v == v:  # a NaN value never counts
                assert v <= b, (lo, top, s, v, b)


@pytest.mark.parametrize("dim,depth", [(1, 0), (2, 0), (1, 6), (2, 3)])
def test_all_zero_and_one_cell_grids(dim, depth):
    # also, at q = 1, data near 2**950 and 2**-950: window sums beyond 2**900
    # and below 2**-900 leave the range where ``_range_bound`` is certified,
    # so their ranges are bounded by +inf and every side is visited
    shape = (2 ** depth,) * dim
    ramp = np.linspace(1.0, 2.0, num=math.prod(shape)).reshape(shape)
    for values, q in ((np.zeros(shape), 1.5), (np.full(shape, 2.0), 1.5),
                      (2.0 ** 950 * ramp, 1.0), (2.0 ** -950 * ramp, 1.0)):
        f = grid(values)
        fam = aligned_family(f)
        rep = _morrey_aligned(f, 3.0, q, fam)
        assert (rep.value, rep.attaining) == full_loop(f, 3.0, q, fam)


@pytest.mark.parametrize("dim,depth,thinned_out", [(1, 10, False), (1, 11, True),
                                                    (2, 7, False), (2, 8, True)])
def test_family_length_counts_every_cube(dim, depth, thinned_out):
    # the count decides the thinning past ALIGNED_BUDGET, from 1D depth 11 and 2D depth 8
    fam = aligned_family(grid(np.ones((2 ** depth,) * dim)))
    m = 2 ** depth
    assert len(fam) == sum((m - s + 1) ** dim for s in fam.aligned_sizes)
    assert (len(fam.aligned_sizes) < m) == thinned_out


@pytest.mark.parametrize("sizes", [(), (2, 1), (1, 1, 2), (0, 1), (1, 17)])
def test_unordered_or_out_of_range_sizes_are_refused(sizes):
    # the range bound needs W to grow along the sizes, so a family that is
    # not strictly increasing within 1..m is refused when it is built
    f = grid(np.ones(16))
    with pytest.raises(ParameterError, match="strictly increasing"):
        CubeFamily(ALIGNED, f.root, f.cell_level, sizes)


@pytest.mark.parametrize("dim", [1, 2])
def test_overflowed_power_is_refused(dim):
    # |f|**q overflows to inf: the loop reports inf, and the search refuses
    # the first side it visits with a non-finite value (the CLI exits 3, see
    # test_cli.TestExitContract)
    values = np.ones((16,) * dim)
    values.flat[37 % values.size] = 1e200
    f = grid(values)
    for fam in (aligned_family(f), thinned(aligned_family(f))):
        with np.errstate(all="ignore"):
            assert full_loop(f, 4.0, 2.0, fam)[0] == np.inf
            with pytest.raises(NumericalError, match="^supremum overflowed"):
                _morrey_aligned(f, 4.0, 2.0, fam)


def test_cancelled_window_sums_are_refused():
    # every window sum of eight cells of 1e200 at q = 2 is inf - inf = nan, so
    # no side beat the sweep's initial -1.0, which was returned as the norm
    f = grid(np.full(8, 1e200))
    family = CubeFamily(ALIGNED, f.root, f.cell_level, (1, 2))
    with np.errstate(all="ignore"):
        with pytest.raises(NumericalError, match="^supremum overflowed to a non-finite value$"):
            morrey_norm(f, 4, 2, family)


def test_sharpness_data_evaluates_few_sides(monkeypatch):
    # the blow-up pair at delta = 2**-7 lives on 1D depth 10: 1,024 sides.
    # B's norm has p = q = 5, so every side from the one holding B's whole
    # support on has the same computed W: those sides take no scan, and the
    # best of them (865, of 862-1,024) is scanned once for its box
    cfg = SharpnessConfig(n=1, alpha=0.3, p1=4, q1=2, p2=4, q2=2, t=5.0)
    f, g, _ = build_sharpness_pair(cfg, 7)
    fam = aligned_family(f)
    assert len(fam.aligned_sizes) == 1024
    real = norms._windows
    for x, p, q, most in ((f, cfg.p1, cfg.q1, 64),
                          (b_alpha(f, g, cfg.alpha).fn, cfg.s, cfg.t, 32)):
        sides = []
        monkeypatch.setattr(norms, "_windows", lambda t, s: sides.append(s) or real(t, s))
        rep = morrey_norm(x, p, q, fam)
        assert len(set(sides)) == len(sides) <= most
        assert (rep.value, rep.attaining) == full_loop(x, p, q, fam)


@PROPERTY
@given(depth=st.integers(0, 7), q=st.sampled_from([0.5, 1.0, 2.0]),
       data=st.data())
def test_1d_window_maxima_never_decrease(depth, q, data):
    # the order the 1D walk relies on, as computed: sequential prefix sums,
    # one rounded difference per window; on data over 1e-150..1e150 the
    # sums round at every scale, and zeros make runs of equal maxima
    m = 2 ** depth
    values = 10.0 ** data.draw(arrays(np.float64, m, elements=st.floats(-150, 150)))
    values[data.draw(arrays(np.bool_, m))] = 0.0
    table = _prefix_table(values ** q)
    maxima = [np.max(_windows(table, s)) for s in range(1, m + 1)]
    assert all(a <= b for a, b in zip(maxima, maxima[1:]))


def test_2d_window_maxima_can_dip_so_2d_is_bisected():
    # four-corner inclusion-exclusion next to spikes up to 1e18: the computed
    # W of sides 10 and 11 falls below the equal W of sides 9 and 12.  A walk
    # over those ends would give side 10 the larger W, and its value would
    # then tie the first strict maximum, at side 13, and take its box
    rng = np.random.default_rng(106)
    values = rng.integers(0, 4, size=(16, 16)).astype(float)
    for e in (15, 16, 17, 18):
        values.flat[rng.integers(256)] = 10.0 ** e
    table = _prefix_table(values)
    maxima = [np.max(_windows(table, s)) for s in range(1, 17)]
    assert maxima[8] == maxima[11] > maxima[9] == maxima[10]
    f = grid(values)
    fam = aligned_family(f)
    rep = _morrey_aligned(f, 1.0, 1.0, fam)
    assert (rep.value, rep.attaining) == full_loop(f, 1.0, 1.0, fam)
    assert rep.attaining == AlignedBox((3, 2), (16, 15))


@pytest.mark.parametrize("dim,depth", [(1, 7), (2, 4)])
def test_windows_next_to_a_spike_match_explicit_slices(dim, depth):
    rng = np.random.default_rng(40 + dim)
    shape = (2 ** depth,) * dim
    spike = tuple(int(rng.integers(1, k - 1)) for k in shape)

    def explicit(powered, s):
        return np.array([[powered[i:i + s, j:j + s].sum() for j in range(shape[0] - s + 1)]
                         for i in range(shape[0] - s + 1)] if dim == 2 else
                        [powered[i:i + s].sum() for i in range(shape[0] - s + 1)])

    # small integers around 1e12: every sum is exact, so windows and boxes
    # must agree exactly, ties included
    ints = rng.integers(0, 4, size=shape).astype(float)
    ints[spike] = 1e12
    f = grid(ints)
    table = _prefix_table(ints)
    for s in range(1, shape[0] + 1):
        np.testing.assert_array_equal(_windows(table, s), explicit(ints, s))
    for p in (1.0, 2.0):
        rep = _morrey_aligned(f, p, 1.0, aligned_family(f))
        assert (rep.value, rep.attaining) == full_loop(f, p, 1.0, aligned_family(f))
    # log-uniform data: the largest window of each side and the search's box
    # agree with the explicit sums within their own rounding
    logs = np.exp(rng.uniform(-8, 8, size=shape))
    logs[spike] = 1e12
    powered = logs ** 2
    table = _prefix_table(powered)
    for s in range(1, shape[0] + 1):
        want = explicit(powered, s)
        assert np.max(_windows(table, s)) == pytest.approx(want.max(), rel=1e-13)
    f = grid(logs)
    rep = _morrey_aligned(f, 4.0, 2.0, aligned_family(f))
    s = rep.attaining.hi[0] - rep.attaining.lo[0]
    at = explicit(powered, s)[rep.attaining.lo]
    assert at == pytest.approx(explicit(powered, s).max(), rel=1e-13)
    assert (rep.value, rep.attaining) == full_loop(f, 4.0, 2.0, aligned_family(f))


@pytest.mark.parametrize("dim,depth", [(1, 6), (2, 3)])
def test_window_slack_covers_rounding_twice(dim, depth):
    # computed window sums against exact rational ones, on wide-range data
    rng = np.random.default_rng(7 + dim)
    shape = (2 ** depth,) * dim
    worst = 0.0
    for _ in range(4):
        powered = np.exp(rng.uniform(-8, 8, size=shape)) ** 2
        powered.flat[int(rng.integers(powered.size))] = 1e24
        table = _prefix_table(powered)
        slack = norms._window_slack(table)
        exact = np.zeros(tuple(k + 1 for k in shape), dtype=object)
        exact[(slice(1, None),) * dim] = np.vectorize(Fraction, otypes=[object])(powered)
        for axis in range(dim):
            exact = np.cumsum(exact, axis=axis)
        for s in range(1, shape[0] + 1):
            got = _windows(table, s)
            want = _windows(exact, s)
            err = max(abs(Fraction(float(g)) - w) for g, w in zip(got.flat, want.flat))
            assert err <= Fraction(slack) / 2
            worst = max(worst, float(err))
    assert worst > 0.0  # the data does round
