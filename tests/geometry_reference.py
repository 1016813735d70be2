"""Brute-force dyadic geometry that only the tests use as a reference: a
cube's parent, children, upper corner and center, a box's cell count, the
clipped triple box 3Q, cell midpoints, and the D- and E-sets of a stopping
family."""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from morreybench import AlignedBox, DyadicCube, GridFunction, cube_box


def parent(cube: DyadicCube) -> DyadicCube:
    """The dyadic cube one level above ``cube`` that holds it."""
    return DyadicCube(cube.level + 1, tuple(c >> 1 for c in cube.coords))


def children(cube: DyadicCube) -> list[DyadicCube]:
    """The 2**n dyadic cubes one level below ``cube``, offsets row-major."""
    base = tuple(c << 1 for c in cube.coords)
    return [DyadicCube(cube.level - 1, tuple(b + o for b, o in zip(base, off)))
            for off in itertools.product((0, 1), repeat=cube.dim)]


def upper(cube: DyadicCube) -> tuple[float, ...]:
    """The upper corner of ``cube``, per axis."""
    return tuple((c + 1) * cube.side for c in cube.coords)


def center(cube: DyadicCube) -> tuple[float, ...]:
    """The center of ``cube``, per axis."""
    return tuple((c + 0.5) * cube.side for c in cube.coords)


def cells(box: AlignedBox) -> int:
    """The number of cells in ``box``."""
    return math.prod(h - l for l, h in zip(box.lo, box.hi))


@dataclass(frozen=True)
class TripleBox(AlignedBox):
    """A cell box that records whether it was clipped to the grid."""

    clipped: bool = False


def triple(cube: DyadicCube, grid: GridFunction) -> TripleBox:
    """The box 3Q = Q(c_Q, 3 l(Q)) clipped to the grid; clipping recorded."""
    inner = cube_box(grid, cube)
    m = grid.cells_per_axis
    size = inner.hi[0] - inner.lo[0]
    lo, hi, clipped = [], [], False
    for l, h in zip(inner.lo, inner.hi):
        a, b = l - size, h + size
        if a < 0:
            a, clipped = 0, True
        if b > m:
            b, clipped = m, True
        lo.append(a)
        hi.append(b)
    return TripleBox(tuple(lo), tuple(hi), clipped)


def axis_midpoints(grid: GridFunction) -> np.ndarray:
    """The cell midpoints of the grid along its first axis."""
    return grid.root.lower()[0] + (np.arange(grid.cells_per_axis) + 0.5) * grid.cell_side


def stopping_sets(sf, f):
    """(E_0, [D_1, ..., D_kmax]) as cell masks over the grid of ``f``: the
    base cube's ``peak`` compared with a and a**k, placed through ``cube_box``."""
    box = cube_box(f, sf.base).slices()

    def on_grid(cells):
        mask = np.zeros(f.values.shape, dtype=bool)
        mask[box] = cells
        return mask
    return on_grid(sf.peak <= sf.a), [on_grid(sf.peak > sf.a ** k) for k in range(1, sf.kmax + 1)]


def e_sets_by_cube(sf, f):
    """(k, cube) -> mask of E_jk = Q_jk minus D_{k+1}, each cube sliced through ``cube_box``."""
    nexts = stopping_sets(sf, f)[1][1:] + [np.zeros(f.values.shape, dtype=bool)]
    out = {}
    for k, (gen, nxt) in enumerate(zip(sf.generations, nexts), 1):
        for sel in gen:
            sl = cube_box(f, sel.cube).slices()
            mask = np.zeros(f.values.shape, dtype=bool)
            mask[sl] = ~nxt[sl]
            out[(k, sel.cube)] = mask
    return out
