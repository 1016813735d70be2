"""Discrete Lebesgue, weak-Lebesgue, and Morrey quasi-norms over cube families.

The Morrey quantity of a cube is ``|Q|**(1/p) * (avg_Q |f|**q)**(1/q)`` with
``0 < q <= p``.  The classical supremum ranges over an infinite cube family;
here every supremum is taken over an explicit finite family and is therefore
a monotone lower bound of the classical value: growing the family can only
increase the reported norm.  Two families are provided and both values can be
reported side by side, since no equivalence constant between them is assumed
anywhere:

* ``dyadic-subcubes`` - all dyadic subcubes of a root down to a level;
* ``all-aligned-cubes`` - every axis-aligned cube whose corners are grid
  points (a cofinal subfamily of all open cubes for step functions, so for
  grid data the all-cubes supremum is attained exactly).

Ties in the max-reduction keep the first cube in canonical order (coarsest
first, then row-major start), so results are reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (AlignedBox, DyadicCube, GridFunction, cube_blocks,
                   cube_box, spread)
from .util import INF, ParameterError

DYADIC = "dyadic-subcubes"
ALIGNED = "all-aligned-cubes"
ALIGNED_BUDGET = 2_000_000  # the most cubes an aligned family holds before its sizes thin


@dataclass(frozen=True)
class CubeFamily:
    """A finite cube family, never materialized.

    ``dyadic-subcubes`` holds every dyadic subcube of ``root`` with level in
    ``[min_level, root.level]``.  ``all-aligned-cubes`` holds every
    grid-cornered cube of the grid with root ``root`` and cell level
    ``min_level``, one side length per entry of ``aligned_sizes`` (in cells)
    and positions over every valid start.
    """

    tag: str
    root: DyadicCube
    min_level: int
    aligned_sizes: tuple[int, ...] = ()

    def __len__(self):
        depth = self.root.level - self.min_level
        n = self.root.dim
        if self.tag == ALIGNED:
            return sum((2 ** depth - s + 1) ** n for s in self.aligned_sizes)
        return (2 ** (n * (depth + 1)) - 1) // (2 ** n - 1)

    def levels(self) -> range:
        """The dyadic levels of the family, coarsest first."""
        if self.tag != DYADIC:
            raise ParameterError("family has no dyadic levels")
        return range(self.root.level, self.min_level - 1, -1)

    def cube(self, level: int, index) -> DyadicCube:
        """The cube of ``level`` at grid position ``index`` among the root's subcubes."""
        shift = self.root.level - level
        return DyadicCube(level, tuple((c << shift) + int(i)
                                       for c, i in zip(self.root.coords, index)))


def dyadic_family(root: DyadicCube, min_level: int) -> CubeFamily:
    if min_level > root.level:
        raise ParameterError("min_level exceeds the root level")
    return CubeFamily(DYADIC, root, min_level)


def aligned_family(grid: GridFunction) -> CubeFamily:
    """Every grid-cornered cube; sizes are thinned to dyadic ones over
    ``ALIGNED_BUDGET``."""
    m = grid.cells_per_axis
    n = grid.dim
    sizes = tuple(range(1, m + 1))
    count = sum((m - s + 1) ** n for s in sizes)
    if count > ALIGNED_BUDGET:
        sizes = tuple(1 << j for j in range(grid.depth + 1))
        count = sum((m - s + 1) ** n for s in sizes)
        if count > ALIGNED_BUDGET:
            raise ParameterError(
                f"aligned family needs {count} cubes, budget is {ALIGNED_BUDGET}")
    return CubeFamily(ALIGNED, grid.root, grid.cell_level, sizes)


@dataclass(frozen=True)
class NormReport:
    value: float
    attaining: DyadicCube | AlignedBox | None


# --- scans of a dyadic family: one array op per level -------------------------
#
# ``value(shift, volume)`` returns the per-cube values of one level over the
# whole grid, laid out as ``cube_blocks`` lays out the cubes 2**shift cells
# wide, with any stack axes in front: shape ``stack + (cubes per axis,) * n``.
# The scans crop them to the family root and reduce each stack item on its own.

def dyadic_levels(grid: GridFunction, family: CubeFamily):
    """(cell shift, cube volume, root window) per family level, coarsest first."""
    levels = family.levels()
    if family.min_level < grid.cell_level:
        raise ParameterError("cube family is finer than the grid cells")
    box = cube_box(grid, family.root)
    for level in levels:
        shift = level - grid.cell_level
        yield shift, (2.0 ** level) ** grid.dim, tuple(
            slice(lo >> shift, hi >> shift) for lo, hi in zip(box.lo, box.hi))


def family_max(grid: GridFunction, family: CubeFamily, value):
    """(value, cube, overflowed) of the first strict maximum over the family.

    Canonical order: coarsest level first, then the first cube in row-major
    order; the levels are laid end to end in that order, so one ``argmax``
    per stack item finds it.  Non-finite values count as +inf and set
    ``overflowed``.  For stacked values the three are an array of the
    stack's shape, a list of cubes in row-major stack order and a boolean
    array.
    """
    parts, levels = [], []
    for shift, volume, window in dyadic_levels(grid, family):
        vals = value(shift, volume)[(Ellipsis,) + window]
        stack, cubes = vals.shape[:vals.ndim - grid.dim], vals.shape[vals.ndim - grid.dim:]
        parts.append(vals.reshape(stack + (math.prod(cubes),)))
        levels.append((grid.cell_level + shift, cubes))
    vals = np.concatenate(parts, axis=-1)
    bad = ~np.isfinite(vals)
    overflowed = bad.any(axis=-1)
    if overflowed.any():
        vals = np.where(bad, INF, vals)
    cubes = [_cube_at(family, levels, int(i)) for i in vals.argmax(axis=-1).flat]
    if not stack:
        return float(vals.max()), cubes[0], bool(overflowed)
    return vals.max(axis=-1), cubes, overflowed


def _cube_at(family: CubeFamily, levels, i: int) -> DyadicCube:
    """The cube at position ``i`` of the levels laid end to end."""
    for level, shape in levels:
        size = math.prod(shape)
        if i < size:
            return family.cube(level, np.unravel_index(i, shape))
        i -= size


def cell_sup(grid: GridFunction, family: CubeFamily, value) -> np.ndarray:
    """Per cell, the max of ``value`` over the family's cubes containing it
    (zero outside the family root), per stack item."""
    out = None
    inner = (Ellipsis,) + cube_box(grid, family.root).slices()
    for shift, volume, window in dyadic_levels(grid, family):
        vals = spread(value(shift, volume)[(Ellipsis,) + window], shift, grid.dim)
        if out is None:
            out = np.zeros(vals.shape[:vals.ndim - grid.dim] + grid.values.shape)
        np.maximum(out[inner], vals, out=out[inner])
    return out


def lebesgue_norm(f: GridFunction, t: float) -> float:
    """(sum over the grid of |f|**t * cell_volume)**(1/t)."""
    if t <= 0:
        raise ParameterError(f"Lebesgue exponent must be positive, got {t}")
    s = float(np.sum(np.abs(f.values) ** t)) * f.cell_volume
    return s ** (1.0 / t)


def weak_quasinorm(f: GridFunction, p: float) -> float:
    """sup over lambda of lambda * |{|f| > lambda}|**(1/p), exact on step data.

    Candidates are the distinct values v of |f| with the measure of
    ``{|f| >= v}``: on each plateau of the distribution function the product
    increases in lambda, so its supremum is the left limit at the next value.
    """
    if p <= 0:
        raise ParameterError(f"weak exponent must be positive, got {p}")
    vals = np.abs(f.values).ravel()
    order = np.argsort(vals)[::-1]
    sorted_vals = vals[order]
    if sorted_vals[0] == 0.0:
        return 0.0
    measures = (np.arange(vals.size) + 1) * f.cell_volume
    keep = sorted_vals > 0
    cand = sorted_vals[keep] * measures[keep] ** (1.0 / p)
    return float(cand.max())


def morrey_norm(f: GridFunction, p: float, q: float, family: CubeFamily) -> NormReport:
    """max over the family of |Q|**(1/p) * (avg_Q |f|**q)**(1/q)."""
    if not (0 < q <= p < np.inf):
        raise ParameterError(f"Morrey exponents need 0 < q <= p < inf, got q={q} p={p}")
    if family.tag == ALIGNED:
        return _morrey_aligned(f, p, q, family)
    top, cubes, _ = _morrey_dyadic(f, f.values[None], p, q, family)
    return NormReport(float(top[0]), cubes[0])


def _morrey_dyadic(grid: GridFunction, values: np.ndarray, p: float, q: float,
                   family: CubeFamily):
    """``family_max`` of the Morrey value for a stack of grids on ``grid``'s lattice."""
    powered = np.abs(values) ** q

    def value(shift, volume):
        return (volume ** (1.0 / p)
                * cube_blocks(powered, shift, grid.dim).mean(axis=-1) ** (1.0 / q))
    return family_max(grid, family, value)


def _morrey_aligned(f: GridFunction, p: float, q: float, family: CubeFamily) -> NormReport:
    """Aligned-family sweep without materializing entries.

    For a fixed side the cube value is monotone in the window sum, so only the
    maximal window per side matters; windows come from the prefix table in one
    vectorized pass per side.
    """
    if f.cell_level != family.min_level or f.root != family.root:
        raise ParameterError("aligned family was built for a different grid")
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
    return NormReport(best_val, AlignedBox(*best_at) if best_at else None)


def pair_morrey_sup(f: GridFunction, g: GridFunction, p: float,
                    q1: float, q2: float, family: CubeFamily) -> NormReport:
    """max over cubes of |Q|**(1/p) (avg |f|**q1)**(1/q1) (avg |g|**q2)**(1/q2).

    This is the normalization functional on the right-hand side of the
    weighted bounds; f and g must share a grid.
    """
    if f.values.shape != g.values.shape or f.root != g.root:
        raise ParameterError("pair supremum needs a common grid")
    if q1 <= 0 or q2 <= 0 or p <= 0:
        raise ParameterError("pair supremum exponents must be positive")
    top, cubes, _ = _pair_sup(f, f.values[None], g.values[None], p, q1, q2, family)
    return NormReport(float(top[0]), cubes[0])


def _pair_sup(grid: GridFunction, fv: np.ndarray, gv: np.ndarray, p: float,
              q1: float, q2: float, family: CubeFamily):
    """``family_max`` of the pair value for stacks of pairs on ``grid``'s lattice."""
    pf, pg = np.abs(fv) ** q1, np.abs(gv) ** q2
    n = grid.dim

    def value(shift, volume):
        return (volume ** (1.0 / p) * cube_blocks(pf, shift, n).mean(axis=-1) ** (1.0 / q1)
                * cube_blocks(pg, shift, n).mean(axis=-1) ** (1.0 / q2))
    return family_max(grid, family, value)
