"""Property tests of the dyadic level-block scans against per-cube loops, and
of MGF round trips.

Grid data are small integers, so cube sums are exact and exact ties between
cubes are common: the canonical tie-break (coarsest level first, then the
first cube in row-major order, strict ``>``) is what decides the attaining
cube.  The brute force walks ``enumerate_subcubes`` one cube at a time and
slices each cube's cells through ``cube_box`` or ``triple``.  numpy's array
power is not bit-identical to Python's scalar ``**``, so the brute force
gathers its per-cube sums into arrays and applies each formula as one array
operation before its per-cube maximum loop.
"""

import itertools
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from morreybench import (DyadicCube, GridFunction, cube_box, dyadic_family,  # noqa: E402
                         enumerate_subcubes, m_alpha_vector, m_triple_dyadic,
                         morrey_norm, pair_morrey_sup, read_mgf, write_mgf)
from morreybench.grid import triple_sums  # noqa: E402
from morreybench.decomposition import (CZ_COLUMNS, choose_a, cz_decompose,  # noqa: E402
                                       verify_halving)
from morreybench.weights import (CharParams, WeightSystem, char_two_weight,  # noqa: E402
                                 pair_value)

from geometry_reference import (cells, e_sets_by_cube, parent, stopping_sets,  # noqa: E402
                                triple)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def scans(draw, low=0, high=2, count=2):
    """``count`` integer grids on one random root, and a dyadic family inside it."""
    dim = draw(st.sampled_from([1, 2]))
    depth = draw(st.integers(0, 5 if dim == 1 else 3))
    root = DyadicCube(draw(st.integers(-1, 1)),
                      tuple(draw(st.integers(-2, 2)) for _ in range(dim)))
    grids = [GridFunction(root,
                          draw(arrays(np.float64, (2 ** depth,) * dim,
                                      elements=st.integers(low, high).map(float))))
             for _ in range(count)]
    cell = root.level - depth
    sub_level = draw(st.integers(cell, root.level))
    shift = root.level - sub_level
    sub = DyadicCube(sub_level, tuple((c << shift) + draw(st.integers(0, (1 << shift) - 1))
                                      for c in root.coords))
    family = dyadic_family(sub, draw(st.integers(cell, sub_level)))
    return grids, family


def by_level(family):
    """The family's cubes, grouped per level in canonical order."""
    cubes = enumerate_subcubes(family.root, family.min_level)
    return [[c for c in cubes if c.level == level] for level in family.levels()]


def first_max(levels, values):
    best = None
    for cubes, vals in zip(levels, values):
        for cube, val in zip(cubes, vals):
            if best is None or val > best[0]:
                best = (val, cube)
    return best


def slab(grid, cube):
    return grid.values[cube_box(grid, cube).slices()]


@PROPERTY
@given(case=scans(), p=st.sampled_from([1.0, 1.5, 2.0, 4.0]), q=st.sampled_from([1.0, 2.0]))
def test_morrey_and_pair_sup_match_cube_loop(case, p, q):
    (f, g), family = case
    q = min(p, q)
    levels = by_level(family)
    # per-cube means of |f|**q are exact (integer sums over 2**k cells)
    means = [np.array([np.mean(np.abs(slab(f, c)) ** q) for c in cubes]) for cubes in levels]
    gmeans = [np.array([np.mean(slab(g, c) ** 2.0) for c in cubes]) for cubes in levels]
    vols = [cubes[0].volume ** (1.0 / p) for cubes in levels]
    rep = morrey_norm(f, p, q, family)
    assert (rep.value, rep.attaining) == first_max(
        levels, [v * m ** (1.0 / q) for v, m in zip(vols, means)])
    rep = pair_morrey_sup(f, g, p, q, 2.0, family)
    assert (rep.value, rep.attaining) == first_max(
        levels, [v * m ** (1.0 / q) * gm ** 0.5 for v, m, gm in zip(vols, means, gmeans)])


@PROPERTY
@given(case=scans(), alpha=st.sampled_from([0.0, 0.3, 1.0]),
       r1=st.sampled_from([1.0, 2.0]), r2=st.sampled_from([1.0, 2.0]))
def test_maximal_fields_match_cube_loop(case, alpha, r1, r2):
    (f, g), family = case
    n = f.dim
    vector = np.zeros_like(f.values)
    tripled = np.zeros_like(f.values)
    for cubes in by_level(family):
        mf = np.array([np.mean(slab(f, c) ** r1) for c in cubes])
        mg = np.array([np.mean(slab(g, c) ** r2) for c in cubes])
        vals = cubes[0].volume ** (alpha / n) * mf ** (1.0 / r1) * mg ** (1.0 / r2)
        # zero-extended triple averages: clipped sums over the full |3Q|
        tf, tg = (np.array([h.values[triple(c, h).slices()].sum() for c in cubes])
                  * h.cell_volume / (3.0 ** n * cubes[0].volume) for h in (f, g))
        for cube, val, tval in zip(cubes, vals, tf * tg):
            sl = cube_box(f, cube).slices()
            vector[sl] = np.maximum(vector[sl], val)
            tripled[sl] = np.maximum(tripled[sl], tval)
    assert np.array_equal(m_alpha_vector(f, g, alpha, r1, r2, family).fn.values, vector)
    assert np.array_equal(m_triple_dyadic(f, g, family).fn.values, tripled)


CP = CharParams(alpha=0.5, n=1, q1=9 / 8, q2=9 / 8, p=16 / 27, s=0.8,
                t=0.8 * (9 / 16) / (16 / 27), r=16.0, a=17 / 16)


def padded_triple_sums(sums):
    """Per axis, the sum of three takes of a zero-padded copy: left, own, right."""
    for axis in range(sums.ndim):
        pad = [(0, 0)] * sums.ndim
        pad[axis] = (1, 1)
        padded = np.pad(sums, pad)
        m = sums.shape[axis]
        sums = sum(padded.take(np.arange(j, j + m), axis=axis) for j in range(3))
    return sums


@PROPERTY
@given(dim=st.sampled_from([1, 2]), data=st.data())
def test_triple_sums_match_padded_takes(dim, data):
    # the same additions in the same order: equal bit for bit, signs of zero too
    m = data.draw(st.integers(1, 17 if dim == 1 else 9))
    signed = st.builds(lambda sign, e: sign * math.exp(e), st.sampled_from([-1.0, 1.0]),
                       st.floats(-30.0, 30.0))
    sums = data.draw(arrays(np.float64, (m,) * dim,
                            elements=signed | st.sampled_from([0.0, -0.0])))
    got, want = triple_sums(sums), padded_triple_sums(sums)
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


@PROPERTY
@given(case=scans(low=1, high=3, count=3))
def test_two_weight_pair_matches_pair_loop(case):
    grids, family = case
    ws = WeightSystem(*grids)
    cp = CharParams(**{**CP.__dict__, "n": ws.v.dim, "alpha": 0.5 * ws.v.dim})
    best, pairs = None, 0
    for q in enumerate_subcubes(family.root, family.min_level):
        outer = q
        while True:  # Q itself first, then its ancestors up to the family root
            val = pair_value(ws, cp, q, outer)
            pairs += 1
            if best is None or val > best[0]:
                best = (val, (q, outer))
            if outer == family.root:
                break
            outer = parent(outer)
    rep = char_two_weight(ws, cp, family)
    assert (rep.value, rep.attaining, rep.pairs_scanned) == (best[0], best[1], pairs)
    # the attaining value from plain slab averages of the weights
    q, outer = rep.attaining
    e, d = cp.t / (1.0 - cp.t), (cp.q1 / cp.a) / (cp.q1 / cp.a - 1.0)
    direct = ((q.volume / outer.volume) ** ((1.0 - cp.s) / (cp.a * cp.s))
              * outer.volume ** (1.0 / cp.r)
              * np.mean(slab(ws.v, q) ** e) ** (1.0 / e)
              * np.mean(slab(ws.w1, outer) ** -d) ** (1.0 / d)
              * np.mean(slab(ws.w2, outer) ** -d) ** (1.0 / d))
    assert rep.value == pytest.approx(direct, rel=1e-12)


def generations_by_cube(f, g, q0, a):
    """Per k, the maximal cubes of Q0 with m_3Q > a**k and their m_3Q: every
    cube of ``enumerate_subcubes`` above a**k whose parents up to Q0 are not."""
    n = f.dim
    m = {}
    for cubes in by_level(dyadic_family(q0, f.cell_level)):
        tf, tg = (np.array([h.values[triple(c, h).slices()].sum() for c in cubes])
                  * h.cell_volume / (3.0 ** n * cubes[0].volume) for h in (f, g))
        m.update(zip(cubes, tf * tg))

    def maximal(cube, threshold):
        while cube != q0:
            cube = parent(cube)
            if m[cube] > threshold:
                return False
        return True
    gens, k = [], 1
    while max(m.values()) > a ** k:
        gens.append([(c, v) for c, v in m.items() if v > a ** k and maximal(c, a ** k)])
        k += 1
    return gens


@PROPERTY
@given(case=scans(high=8), a=st.sampled_from([1.5, 2.0, 3.0, 8.0]))
def test_generations_match_cube_loop(case, a):
    (f, g), family = case
    q0 = family.root
    assume(q0.level > f.cell_level)
    sf = cz_decompose(f, g, q0, a)
    gens, d_masks = generations_by_cube(f, g, q0, a), []
    for gen in gens:
        mask = np.zeros(f.values.shape, dtype=bool)
        for cube, _ in gen:
            mask[cube_box(f, cube).slices()] = True
        d_masks.append(mask)
    e0_set, d_sets = stopping_sets(sf, f)
    assert len(d_sets) == len(d_masks)
    assert all(np.array_equal(x, y) for x, y in zip(d_sets, d_masks))
    nexts = d_masks[1:] + [np.zeros(f.values.shape, dtype=bool)]
    assert [[(sel.cube, sel.m_value, sel.e_cells) for sel in gen] for gen in sf.generations] == [
        [(cube, v, int((~nxt[cube_box(f, cube).slices()]).sum())) for cube, v in gen]
        for gen, nxt in zip(gens, nexts)]
    e0 = np.zeros(f.values.shape, dtype=bool)
    e0[cube_box(f, q0).slices()] = True
    assert np.array_equal(e0_set, e0 & ~d_masks[0] if d_masks else e0)
    # D_k is the superlevel set {M > a**k} of the triple maximal function over Q0
    peak = m_triple_dyadic(f, g, dyadic_family(q0, f.cell_level)).fn.values
    assert np.array_equal(sf.peak, peak[cube_box(f, q0).slices()])
    assert all(np.array_equal(mask, peak > a ** k) for k, mask in enumerate(d_sets, 1))


@PROPERTY
@given(case=scans(high=8), a=st.sampled_from([1.5, 2.0, 3.0, 8.0]))
def test_e_sets_match_cube_loop(case, a):
    (f, g), family = case
    q0 = family.root
    assume(q0.level > f.cell_level)
    sf = cz_decompose(f, g, q0, a)
    ref = e_sets_by_cube(sf, f)
    assert [sel.e_cells for gen in sf.generations for sel in gen] == [
        int(mask.sum()) for mask in ref.values()]
    m_values = [sel.m_value for gen in sf.generations for sel in gen]
    rows = [(0, q0, sf.base_m, float(stopping_sets(sf, f)[0].sum()))]
    rows += [(k, cube, m, int(mask.sum())) for ((k, cube), mask), m in zip(ref.items(), m_values)]
    assert sf.rows(f.cell_volume) == [
        dict(zip(CZ_COLUMNS, (k, cube.level, ";".join(str(c) for c in cube.coords),
                              m, cells * f.cell_volume)))
        for k, cube, m, cells in rows]


def halving_by_cube(sf, f):
    """(ok, worst ratio, offender): |D_1| over the base, then every selected
    cube's share in the next generation, each sliced through ``cube_box``."""
    worst, offender = 0.0, None
    d_sets = stopping_sets(sf, f)[1]
    tallies = [(d_sets[0], [sf.base])] if d_sets else []
    tallies += zip(d_sets[1:], ([sel.cube for sel in gen] for gen in sf.generations))
    for mask, cubes in tallies:
        for cube in cubes:
            box = cube_box(f, cube)
            ratio = mask[box.slices()].sum() / cells(box)
            if ratio > worst:
                worst, offender = ratio, cube
    return worst <= 0.5, worst, offender


@PROPERTY
@given(case=scans(high=8))
def test_halving_matches_cube_loop(case):
    # every candidate of choose_a's doubling schedule, up to the certified one
    (f, g), family = case
    q0 = family.root
    assume(q0.level > f.cell_level)
    for a in (2.0 ** k for k in itertools.count(1)):
        sf = cz_decompose(f, g, q0, a)
        rep = verify_halving(sf)
        assert (rep.ok, rep.worst_ratio, rep.offender) == halving_by_cube(sf, f)
        if rep.ok:
            break
    assert choose_a(f, g, q0).a == a


@PROPERTY
@given(case=scans(high=8))
def test_chosen_family_is_the_decomposition_at_its_base(case):
    # choose_a hands back the certified candidate's decomposition itself
    (f, g), family = case
    q0 = family.root
    assume(q0.level > f.cell_level)
    chosen = choose_a(f, g, q0)
    ref = cz_decompose(f, g, q0, chosen.a)
    assert chosen.generations == ref.generations
    assert np.array_equal(chosen.peak, ref.peak)  # so E_0 and every D_k agree
    assert chosen.rows(f.cell_volume) == ref.rows(f.cell_volume)


@PROPERTY
@given(dim=st.sampled_from([1, 2]), depth=st.integers(0, 3), level=st.integers(-3, 3),
       coords=st.lists(st.integers(-5, 5), min_size=2, max_size=2),
       flags=st.sampled_from(["none", "nonneg", "pos"]), data=st.data())
def test_mgf_round_trip(tmp_path_factory, dim, depth, level, coords, flags, data):
    low = {"none": -1e300, "nonneg": 0.0, "pos": 1e-300}[flags]
    values = data.draw(arrays(np.float64, (2 ** depth,) * dim,
                              elements=st.floats(low, 1e300, allow_subnormal=False)))
    f = GridFunction(DyadicCube(level, tuple(coords[:dim])), values, flags)
    path = tmp_path_factory.mktemp("mgf") / "f.mgf"
    write_mgf(path, f)
    g = read_mgf(path)
    assert (g.dim, g.root, g.depth, g.flags) == (f.dim, f.root, f.depth, f.flags)
    assert np.array_equal(g.values, f.values)
