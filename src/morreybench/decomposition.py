"""Stopping-time decomposition over the dyadic subcubes of a base cube.

Write m_3Q(f,g) for the product of zero-extended averages of f and g over the
(possibly clipped) triple 3Q.  Given a threshold base a > 1, generation k
collects the inclusion-maximal dyadic subcubes Q of Q0 with m_3Q(f,g) > a**k;
their union is D_k.  Carving E_jk = Q_jk minus D_{k+1} and E_0 = Q0 minus D_1
partitions Q0 exactly (cell-level set equality, verified by tests).

Free of a: m_3Q per level, the largest m_3Q over each cube's strict
ancestors, and per cell the peak, the largest m_3Q over the cubes that hold
it.  Generation k is (m > a**k) & (above <= a**k), D_k is {peak > a**k}.

When a is large enough the construction also satisfies, for every selected
cube, the sandwich a**k < m_3Q <= 2**(2n) a**k (via the parent's maximality)
and the measure-halving |Q_jk intersect D_{k+1}| <= |Q_jk| / 2.  The halving
constant classically comes from a weak-type operator norm that is not
computable here, so ``choose_a`` replaces it by the smallest power of two
that ``verify_halving`` certifies, and returns that
candidate's decomposition; the downstream algorithm only ever consumes the
certified halving outcome, not the constant's origin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import DyadicCube, GridFunction, cube_blocks, cube_box
from .norms import ancestor_max, dyadic_family, dyadic_levels
from .operators import triple_means
from .util import INF, ParameterError, finite


@dataclass(frozen=True)
class SelectedCube:
    cube: DyadicCube
    m_value: float
    e_cells: int  # cells of E_jk = cube minus next generation


@dataclass
class StoppingFamily:
    grid: GridFunction                     # the grid whose cells the base cube holds
    base: DyadicCube
    a: float
    generations: list[list[SelectedCube]]  # generations[k-1] holds level k
    peak: np.ndarray                       # per cell of the base cube: D_k = {peak > a**k}
    base_m: float                          # m_3Q of the base cube

    @property
    def kmax(self) -> int:
        return len(self.generations)

    def rows(self, cell_volume: float) -> list[dict]:
        """CSV/JSON rows: k = 0 for the base cube and E_0, then every selected
        cube with the measure of its carved set E_jk."""
        out = [(0, self.base, self.base_m, float(np.count_nonzero(self.peak <= self.a)))]
        out += [(k, sel.cube, sel.m_value, sel.e_cells)
                for k, gen in enumerate(self.generations, 1) for sel in gen]
        return [dict(zip(CZ_COLUMNS, (k, cube.level, ";".join(str(c) for c in cube.coords),
                                      m, cells * cell_volume)))
                for k, cube, m, cells in out]


CZ_COLUMNS = ("k", "cube_level", "cube_coords", "m3q", "e_measure")


def cz_decompose(f: GridFunction, g: GridFunction, q0: DyadicCube,
                 a: float) -> StoppingFamily:
    """Maximal-cube generations for thresholds a**k, with carved E-sets.

    D_k is the superlevel set {peak > a**k} of the triple maximal function
    over Q0; selected cubes are listed coarsest first, then row-major.
    """
    return _decompose(f, q0, a, *_pyramid(f, g, q0))


def _pyramid(f: GridFunction, g: GridFunction, q0: DyadicCube):
    """m_3Q(f,g) per level of the subcubes of Q0, coarsest first, then its
    ``ancestor_max``: the largest over each cube's strict ancestors and the peak per cell."""
    if f.values.min() < 0 or g.values.min() < 0:
        raise ParameterError("decomposition expects nonnegative inputs")
    if q0.level <= f.cell_level:
        raise ParameterError("grid cells must be strictly finer than the base cube")
    m = [finite((triple_means(f, shift) * triple_means(g, shift))[window],
                "triple-average products")
         for shift, _, window in dyadic_levels(f, dyadic_family(q0, f.cell_level))]
    return (m, *ancestor_max(m, f.dim))


def _threshold(a: float, k: int) -> float:
    """a**k, or +inf past the float range: no product lies beyond it."""
    try:
        return a ** k
    except OverflowError:
        return INF


def _decompose(f: GridFunction, q0: DyadicCube, a: float, m, above, peak) -> StoppingFamily:
    if a <= 1.0:
        raise ParameterError(f"threshold base must exceed 1, got {a}")
    family = dyadic_family(q0, f.cell_level)
    generations = []
    k = 1
    while peak.max() > (threshold := _threshold(a, k)):
        free = peak <= _threshold(a, k + 1)  # outside D_{k+1}: all cells after the last k
        gen = []
        for level, level_m, level_above in zip(family.levels(), m, above):
            idx = np.nonzero((level_m > threshold) & (level_above <= threshold))
            if idx[0].size:
                cells = cube_blocks(free, level - f.cell_level).sum(axis=-1)[idx]
                gen += [SelectedCube(family.cube(level, index), float(v), int(c))
                        for index, v, c in zip(np.transpose(idx), level_m[idx], cells)]
        generations.append(gen)
        k += 1
    return StoppingFamily(f, q0, a, generations, peak, float(m[0].flat[0]))


@dataclass(frozen=True)
class HalvingReport:
    ok: bool
    worst_ratio: float
    offender: DyadicCube | None


def verify_halving(sf: StoppingFamily) -> HalvingReport:
    """Check |Q_jk meet D_{k+1}| <= |Q_jk|/2 and |D_1| <= |Q0|/2; never raises.

    The covered share of a cube is (cells - free cells) / cells, where the
    free cells are those the decomposition already counted: E_0 for the base
    cube and ``e_cells`` for a selected cube.  The last generation has no
    next one and is skipped.  The offender is the first strict maximum, the
    base cube first, then every generation in its listed order.
    """
    worst, offender = 0.0, None  # nothing covered: ratio 0, no offender
    if sf.generations:
        tallies = [(sf.base, int(np.count_nonzero(sf.peak <= sf.a)))]
        tallies += [(sel.cube, sel.e_cells) for gen in sf.generations[:-1] for sel in gen]
        for cube, free in tallies:
            cells = 2 ** (sf.grid.dim * (cube.level - sf.grid.cell_level))
            share = (cells - free) / cells
            if share > worst:
                worst, offender = share, cube
    return HalvingReport(worst <= 0.5, worst, offender)


def choose_a(f: GridFunction, g: GridFunction, q0: DyadicCube) -> StoppingFamily:
    """The decomposition at the smallest threshold base a = 2, 4, 8, ...
    whose halving is certified; its base is ``.a``.

    The pyramid is shared by every candidate.  One with 2 |{peak > a}| > |Q0|
    is passed undecomposed: its D_1 covers over half of Q0, which
    ``verify_halving`` refuses.  Termination: once a exceeds the largest
    (finite) product, every generation is empty and halving holds vacuously.
    """
    pyramid = _pyramid(f, g, q0)
    peak, a = pyramid[2], 2.0
    while (2 * np.count_nonzero(peak > a) > peak.size
           or not verify_halving(sf := _decompose(f, q0, a, *pyramid)).ok):
        a *= 2.0
    return sf


def packing_sum(q_jk: DyadicCube, v: GridFunction, t: float, alpha: float) -> float:
    """Ratio of the dyadic-subcube packing sum to its closed-form bound.

    LHS: sum over dyadic Q within q_jk (down to cell level) of
         |Q|**((alpha/n + 1) t) (integral_Q v**(t/(1-t)))**(1-t).
    RHS: 2**(alpha t) / (2**(alpha t) - 1)
         * |q_jk|**((alpha/n) t) (avg v**(t/(1-t)))**(1-t) |q_jk|.

    For 0 < t < 1, 0 < alpha <= n and v > 0, as criterion 8 passes them, the
    bound takes the whole tower; the finite LHS stays below it and nears it with depth.
    """
    n = v.dim
    e = t / (1.0 - t)
    powered = v.values ** e
    cell_vol = v.cell_volume

    def terms(shift, volume, window):
        integrals = cube_blocks(powered, shift).sum(axis=-1)[window] * cell_vol
        return volume ** ((alpha / n + 1.0) * t) * integrals ** (1.0 - t)
    lhs = sum(float(terms(*scan).sum())
              for scan in dyadic_levels(v, dyadic_family(q_jk, v.cell_level)))
    geo = 2.0 ** (alpha * t) / (2.0 ** (alpha * t) - 1.0)
    base_box = cube_box(v, q_jk)
    avg = float(powered[base_box.slices()].mean())
    rhs = geo * q_jk.volume ** ((alpha / n) * t) * avg ** (1.0 - t) * q_jk.volume
    return lhs / rhs
