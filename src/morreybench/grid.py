"""Dyadic cubes, grid-sampled step functions, and dyadic level blocks.

Geometry is the standard dyadic lattice: the cube of level ``k`` with integer
coordinates ``m`` occupies ``2**k * (m + [0,1)**n)``.  Grid data is piecewise
constant on the ``2**(n*L)`` cells obtained by halving a root cube ``L`` times
per axis, and is extended by zero outside the root.  Every integral of grid
data is then an exact finite sum over cells, which keeps downstream checks
exact for step functions.

The cubes of one dyadic level tile the grid, so a level is one reshape of the
cell array into blocks (``cube_blocks``): every sum, mean or extreme over the
level's cubes is one reduction over the last axis, free of the cancellation
that prefix-sum differences suffer on data of wide dynamic range.

Cell values are understood as the function's value on the whole cell
(midpoint semantics for synthetic smooth generators).  Triples ``3Q`` stick
out of the root at its boundary; zero extension makes their clipped *sum*
correct (``triple_sums``), but averages of strictly positive weights over
clipped boxes would silently mix in artificial zeros.  Weight
characteristics never meet such a box: they scan dyadic subcubes of the
grid's root, and those never clip.
"""

from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass

import numpy as np

from .util import ParameterError

_FLAGS = ("none", "nonneg", "pos")


def check_levels(dim: int, level: int, depth: int) -> None:
    """Refuse a grid with cell volume 2**(n (level - depth)) below 2**-1022, the
    smallest normal float, or root volume 2**(n level) above 2**1023."""
    if dim * (level - depth) < -1022 or dim * level > 1023:
        raise ParameterError(
            f"grid of root level {level} and depth {depth} leaves the float range: "
            f"its {dim}D cell volume 2**{dim * (level - depth)} and root volume "
            f"2**{dim * level} must lie in 2**-1022..2**1023")


@dataclass(frozen=True)
class DyadicCube:
    """Dyadic cube 2**level * (coords + [0,1)**n)."""

    level: int
    coords: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(int(c) for c in self.coords))

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def side(self) -> float:
        return 2.0 ** self.level

    @property
    def volume(self) -> float:
        return self.side ** self.dim

    def lower(self) -> tuple[float, ...]:
        return tuple(c * self.side for c in self.coords)

    def contains(self, other: "DyadicCube") -> bool:
        """Nested-or-disjoint containment test (self contains other)."""
        if other.level > self.level:
            return False
        shift = self.level - other.level
        return all((oc >> shift) == sc for oc, sc in zip(other.coords, self.coords))


@dataclass(frozen=True)
class AlignedBox:
    """Axis-aligned half-open cell-index box ``[lo, hi)`` within one grid."""

    lo: tuple[int, ...]
    hi: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "lo", tuple(int(v) for v in self.lo))
        object.__setattr__(self, "hi", tuple(int(v) for v in self.hi))
        if any(h <= l for l, h in zip(self.lo, self.hi)):
            raise ParameterError(f"empty box {self.lo}..{self.hi}")

    def slices(self) -> tuple[slice, ...]:
        return tuple(slice(l, h) for l, h in zip(self.lo, self.hi))


@dataclass
class GridFunction:
    """Piecewise-constant real data on the cells of a dyadic root cube.

    The grid is the root cube plus the array: ``values`` has shape
    ``(2**depth,) * dim`` with ``dim`` the root's dimension, and ``dim`` and
    ``depth`` are read from that shape.  Axis ``a`` indexes coordinate
    ``a``; flattening is row-major (last axis fastest).
    """

    root: DyadicCube
    values: np.ndarray
    flags: str = "none"

    def __post_init__(self):
        n = self.root.dim
        if n not in (1, 2):
            raise ParameterError(f"dim must be 1 or 2, got {n}")
        self.values = np.asarray(self.values, dtype=float)
        side = self.values.shape[0] if self.values.ndim else 0
        if side < 1 or side & (side - 1) or self.values.shape != (side,) * n:
            raise ParameterError(f"values shape {self.values.shape} is not (2**L,) * {n}")
        check_levels(n, self.root.level, self.depth)
        if not np.isfinite(self.values).all():
            raise ParameterError("grid values must be finite (no nan or inf)")
        if self.flags not in _FLAGS:
            raise ParameterError(f"flags must be one of {_FLAGS}")
        if self.flags == "nonneg" and self.values.min() < 0:
            raise ParameterError("nonneg grid function has negative cells")
        if self.flags == "pos" and self.values.min() <= 0:
            raise ParameterError("pos grid function has nonpositive cells")

    @property
    def dim(self) -> int:
        return self.values.ndim

    @property
    def depth(self) -> int:
        return self.values.shape[0].bit_length() - 1

    @property
    def cells_per_axis(self) -> int:
        return self.values.shape[0]

    @property
    def cell_level(self) -> int:
        return self.root.level - self.depth

    @property
    def cell_side(self) -> float:
        return 2.0 ** self.cell_level

    @property
    def cell_volume(self) -> float:
        return self.cell_side ** self.dim

    def same_grid(self, other: "GridFunction") -> bool:
        """Whether ``other`` lives on this grid: the same root and array shape."""
        return self.root == other.root and self.values.shape == other.values.shape

    def with_values(self, values, flags: str | None = None) -> "GridFunction":
        return GridFunction(self.root, values, flags if flags is not None else "none")

    def refine(self, extra: int) -> "GridFunction":
        """Exact resampling of the step function to a grid ``extra`` levels finer."""
        if extra < 0:
            raise ParameterError("refine expects extra >= 0")
        return GridFunction(self.root, spread(self.values, extra), self.flags)


def cube_box(grid: GridFunction, cube: DyadicCube) -> AlignedBox:
    """Cell-index box of a dyadic cube that lies inside the grid's root."""
    if cube.dim != grid.dim:
        raise ParameterError(f"cube of dimension {cube.dim} does not fit a {grid.dim}D grid")
    if cube.level < grid.cell_level:
        raise ParameterError("cube is finer than the grid cells")
    if not grid.root.contains(cube):
        raise ParameterError("cube lies outside the grid root")
    shift = cube.level - grid.cell_level
    lo = [(c << shift) - (r << grid.depth) for c, r in zip(cube.coords, grid.root.coords)]
    return AlignedBox(lo, tuple(l + (1 << shift) for l in lo))


def enumerate_subcubes(root: DyadicCube, min_level: int) -> list[DyadicCube]:
    """All dyadic subcubes of ``root`` with level in [min_level, root.level].

    Enumeration is coarsest-first, coordinates row-major; the root is first.
    """
    if min_level > root.level:
        raise ParameterError("min_level exceeds the root level")
    out = []
    for level in range(root.level, min_level - 1, -1):
        shift = root.level - level
        per_axis = 1 << shift
        base = tuple(c << shift for c in root.coords)
        for off in itertools.product(range(per_axis), repeat=root.dim):
            out.append(DyadicCube(level, tuple(b + o for b, o in zip(base, off))))
    return out


def cube_blocks(values: np.ndarray, shift: int, dim: int | None = None) -> np.ndarray:
    """The cells of every cube ``2**shift`` cells wide, one cube per row.

    The trailing ``dim`` axes (all of them by default) are the grid, and
    any axes before them are a stack of grids, kept in front.
    Returns shape ``stack + (cubes per axis,) * dim + (cells per cube,)``:
    cubes keep their grid layout (row-major when flattened) and each row
    lists the cube's cells row-major, so reductions over the last axis give
    per-cube values laid out like the level's cubes.
    """
    n = values.ndim if dim is None else dim
    k = values.ndim - n
    count = values.shape[-1] >> shift
    v = values.reshape(values.shape[:k] + (count, 1 << shift) * n)
    for a in range(1, n):  # the cube axis of grid axis a moves in front of the in-cube axes
        v = np.moveaxis(v, k + 2 * a, k + a)
    return v.reshape(values.shape[:k] + (count,) * n + (1 << n * shift,))


def spread(values: np.ndarray, shift: int, dim: int | None = None) -> np.ndarray:
    """Per-cube values repeated onto the ``2**shift`` cells per axis of each
    cube, along the trailing ``dim`` axes (all of them by default)."""
    for axis in range(-(values.ndim if dim is None else dim), 0):
        values = np.repeat(values, 1 << shift, axis=axis)
    return values


def triple_sums(sums: np.ndarray) -> np.ndarray:
    """Sums over the triples 3Q of one level's cubes, from its block sums.

    Along each axis a block adds its left and then its right neighbour, in
    place over shifted slices; outside the grid the neighbours are zero,
    which is exact under zero extension.
    """
    for axis in range(sums.ndim):
        out = sums + 0.0  # the extension's zero: a block sum of -0.0 becomes 0.0
        head = (slice(None),) * axis
        out[head + (slice(1, None),)] += sums[head + (slice(None, -1),)]
        out[head + (slice(None, -1),)] += sums[head + (slice(1, None),)]
        sums = out
    return sums


# --- MGF/1 file format -----------------------------------------------------
#
# Line 1:  MGF 1 dim=<n> rootlevel=<k> rootcoords=<m1,...,mn> depth=<L>
#          flags=<nonneg|pos|none>
# then 2**(n*L) decimal values, one per line, row-major (last axis fastest).
# Writers emit 17 significant digits.

_WRITE_CHUNK = 1 << 16  # values formatted per write


def write_mgf(path, f: GridFunction) -> None:
    """Write ``f`` as MGF/1, with ``\\n`` line ends on every platform.

    The values are formatted ``_WRITE_CHUNK`` at a time, one bytes string
    per chunk, so memory stays bounded on large grids; the bytes are exactly
    those of one ``f"{v:.17g}\\n"`` per value.
    """
    coords = ",".join(str(c) for c in f.root.coords)
    header = (f"MGF 1 dim={f.dim} rootlevel={f.root.level} "
              f"rootcoords={coords} depth={f.depth} flags={f.flags}\n")
    flat = f.values.ravel(order="C")
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        for start in range(0, flat.size, _WRITE_CHUNK):
            chunk = flat[start:start + _WRITE_CHUNK].tolist()
            fh.write((b"%.17g\n" * len(chunk)) % tuple(chunk))


def read_mgf(path) -> GridFunction:
    with open(path) as fh:  # text mode: "\r\n" and "\r" read as "\n"
        header, *lines = fh.read().removesuffix("\n").split("\n")
    header = header.strip()
    parts = header.split()
    if len(parts) != 7 or parts[0] != "MGF" or parts[1] != "1":
        raise ParameterError(f"not an MGF/1 header: {header!r}")
    kv = {}
    for tok in parts[2:]:
        key, _, val = tok.partition("=")
        kv[key] = val
    try:
        dim = int(kv["dim"])
        rootlevel = int(kv["rootlevel"])
        rootcoords = tuple(int(c) for c in kv["rootcoords"].split(","))
        depth = int(kv["depth"])
        flags = kv["flags"]
        if depth < 0 or dim != len(rootcoords):
            raise ValueError(header)
    except (KeyError, ValueError) as exc:
        raise ParameterError(f"malformed MGF/1 header: {header!r}") from exc
    check_levels(dim, rootlevel, depth)
    count = (2 ** depth) ** dim
    vals = array("d")  # grows with the values read, not with the header's claim
    try:
        vals.extend(map(float, lines[:count]))
    except ValueError as exc:  # extend keeps the values before the bad line
        bad = lines[len(vals)].strip()
        raise ParameterError(f"MGF/1 value {len(vals)} is not a number: {bad!r}") from exc
    if len(vals) < count:
        raise ParameterError(f"MGF/1 file truncated at value {len(vals)}")
    if any(map(str.strip, lines[count:])):
        raise ParameterError(f"MGF/1 file has content after its {count} values")
    values = np.array(vals).reshape((2 ** depth,) * dim, order="C")
    return GridFunction(DyadicCube(rootlevel, rootcoords), values, flags)


def unit_root(dim: int) -> DyadicCube:
    """The cube [0,1)**dim."""
    return DyadicCube(0, (0,) * dim)
