"""Brute-force dyadic geometry that only the tests use as a reference: a
cube's children, the clipped triple box 3Q, and cell midpoints."""

import itertools
from dataclasses import dataclass

import numpy as np

from morreybench import AlignedBox, DyadicCube, GridFunction, cube_box


def children(cube: DyadicCube) -> list[DyadicCube]:
    """The 2**n dyadic cubes one level below ``cube``, offsets row-major."""
    base = tuple(c << 1 for c in cube.coords)
    return [DyadicCube(cube.level - 1, tuple(b + o for b, o in zip(base, off)))
            for off in itertools.product((0, 1), repeat=cube.dim)]


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
