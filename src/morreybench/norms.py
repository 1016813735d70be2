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

Ties in the max-reduction keep the first cube in canonical order, so results
are reproducible bit for bit: for dyadic subcubes the coarsest level first,
for aligned cubes the smallest side first; then the row-major start.

The aligned sweep evaluates only the side lengths it must.  For a side s let
W(s) be the largest window sum of |f|**q over s-cubes.  W does not decrease
with s (every s-cube lies inside an (s+1)-cube of the grid), and the factor
(s*h)**(n/p) * s**(-n/q) does not increase (q <= p), so on a range of sides
[lo, hi] every value is at most the factor at lo times (W(hi) + slack)**(1/q),
enlarged by the rounding of the value itself.  The slack bounds, twice, the
rounding of a computed window sum: sequential prefix sums are off by about
n*m*u*total at each of the 2**n corners.  Ranges are bisected best first; a
range is skipped when its bound is below the best value, or equal to it with
every side larger than the best's side, so the result is the first strict
maximum of the full loop over the sides.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .grid import (AlignedBox, DyadicCube, GridFunction, cube_blocks,
                   cube_box, spread)
from .util import INF, ParameterError, finite

DYADIC = "dyadic-subcubes"
ALIGNED = "all-aligned-cubes"
ALIGNED_BUDGET = 2_000_000  # the most cubes an aligned family holds before its sizes thin
_EPS = float(np.finfo(float).eps)  # twice the unit roundoff
_TINY, _HUGE = 2.0 ** -900, 2.0 ** 900  # the range where ``_range_bound`` is certified


@dataclass(frozen=True)
class CubeFamily:
    """A finite cube family, never materialized.

    ``dyadic-subcubes`` holds every dyadic subcube of ``root`` with level in
    ``[min_level, root.level]``.  ``all-aligned-cubes`` holds every
    grid-cornered cube of the grid with root ``root`` and cell level
    ``min_level``, one side length per entry of ``aligned_sizes`` (in cells)
    and positions over every valid start.  ``aligned_sizes`` is non-empty,
    strictly increasing and within ``1..2**depth``; the aligned sweep's
    bound depends on that order, so any other aligned family is refused here.
    """

    tag: str
    root: DyadicCube
    min_level: int
    aligned_sizes: tuple[int, ...] = ()

    def __post_init__(self):
        if self.tag == ALIGNED:
            sizes = np.asarray(self.aligned_sizes, dtype=np.int64)
            m = 2 ** (self.root.level - self.min_level)
            if not (sizes.size and sizes[0] >= 1 and sizes[-1] <= m
                    and np.all(np.diff(sizes) > 0)):
                raise ParameterError("aligned sizes must be strictly increasing within 1..m")

    def __len__(self):
        m = 2 ** (self.root.level - self.min_level)
        n = self.root.dim
        if self.tag == ALIGNED:  # int64 is exact while the count stays below 2**63
            return int(((m + 1 - np.asarray(self.aligned_sizes, dtype=np.int64)) ** n).sum())
        return (m ** n * 2 ** n - 1) // (2 ** n - 1)

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

    def cube_at(self, i) -> DyadicCube:
        """The cube at flat position ``i``: coarsest level first, then row-major."""
        for level in self.levels():
            shape = (2 ** (self.root.level - level),) * self.root.dim
            if i < math.prod(shape) or level == self.min_level:  # unravel refuses i past the end
                return self.cube(level, np.unravel_index(i, shape))
            i -= math.prod(shape)


def dyadic_family(root: DyadicCube, min_level: int) -> CubeFamily:
    if min_level > root.level:
        raise ParameterError("min_level exceeds the root level")
    return CubeFamily(DYADIC, root, min_level)


def aligned_family(grid: GridFunction) -> CubeFamily:
    """Every grid-cornered cube; sizes are thinned to dyadic ones over
    ``ALIGNED_BUDGET``."""
    family = CubeFamily(ALIGNED, grid.root, grid.cell_level,
                        tuple(range(1, grid.cells_per_axis + 1)))
    if len(family) > ALIGNED_BUDGET:
        family = CubeFamily(ALIGNED, grid.root, grid.cell_level,
                            tuple(1 << j for j in range(grid.depth + 1)))
        if len(family) > ALIGNED_BUDGET:
            raise ParameterError(
                f"aligned family needs {len(family)} cubes, budget is {ALIGNED_BUDGET}")
    return family


@dataclass(frozen=True)
class NormReport:
    value: float
    attaining: DyadicCube | AlignedBox


# --- scans of a dyadic family: one array op per level -------------------------
#
# ``value(shift, volume)`` returns the per-cube values of one level over the
# whole grid, laid out as ``cube_blocks`` lays out the cubes 2**shift cells
# wide, with any stack axes in front: shape ``stack + (cubes per axis,) * n``;
# ``lq_means`` builds the paper's L^q-mean value.  The scans crop the values to
# the family root and reduce each stack item on its own, ``family_max`` to its
# maximum and that maximum's first position, ``cell_sup`` by one ``ancestor_max``
# pass.  Only the reports place a cube at a position.

def lq_means(e: float, *factors, dim: int | None = None):
    """The value |Q|**e * prod (avg_Q powered)**root over ``(powered, root)``
    factors, multiplied left to right; ``dim`` as in ``cube_blocks``."""
    def value(shift, volume):
        out = volume ** e
        for powered, root in factors:
            out = out * cube_blocks(powered, shift, dim).mean(axis=-1) ** root
        return out
    return value


def dyadic_levels(grid: GridFunction, family: CubeFamily):
    """(cell shift, cube volume, root window) per family level, coarsest first;
    the volume is a numpy float, so its powers overflow to inf, never raise."""
    levels = family.levels()
    if family.min_level < grid.cell_level:
        raise ParameterError("cube family is finer than the grid cells")
    box = cube_box(grid, family.root)
    for level in levels:
        shift = level - grid.cell_level
        yield shift, np.float64(2.0 ** level) ** grid.dim, tuple(
            slice(lo >> shift, hi >> shift) for lo, hi in zip(box.lo, box.hi))


def family_max(grid: GridFunction, family: CubeFamily, value):
    """Per stack item, of any stack shape or none, the maximum over the
    family and the flat position of its first maximum in canonical order;
    ``CubeFamily.cube_at`` turns a position into its cube.

    Canonical order: coarsest level first, then row-major; the levels are
    laid end to end in that order, so one ``argmax`` finds the position.  A
    non-finite value anywhere in the family is refused with a NumericalError.
    """
    parts = []
    for shift, volume, window in dyadic_levels(grid, family):
        vals = value(shift, volume)[(Ellipsis,) + window]
        stack = vals.shape[:vals.ndim - grid.dim]
        parts.append(vals.reshape(stack + (math.prod(vals.shape[len(stack):]),)))
    vals = finite(np.concatenate(parts, axis=-1), "supremum")
    return vals.max(axis=-1), vals.argmax(axis=-1)


def ancestor_max(levels, dim: int):
    """Per level of a dyadic pyramid, coarsest first with stack axes in front:
    the max over each cube's strict ancestors (zero at the top), and the
    finest level's peak, the max over each cube and its ancestors."""
    above = [np.zeros_like(levels[0])]
    for level in levels[:-1]:
        above.append(spread(np.maximum(above[-1], level), 1, dim))
    return above, np.maximum(above[-1], levels[-1])


def cell_sup(grid: GridFunction, family: CubeFamily, value) -> np.ndarray:
    """Per cell, the max of ``value`` over the family's cubes containing it
    (zero outside the family root), per stack item: an operator output."""
    peak = ancestor_max([value(shift, volume)[(Ellipsis,) + window]
                         for shift, volume, window in dyadic_levels(grid, family)],
                        grid.dim)[1]
    out = np.zeros(peak.shape[:peak.ndim - grid.dim] + grid.values.shape)
    out[(Ellipsis,) + cube_box(grid, family.root).slices()] = spread(
        peak, family.min_level - grid.cell_level, grid.dim)
    return finite(out, "operator output")


def lebesgue_norm(f: GridFunction, t: float) -> float:
    """(sum over the grid of |f|**t * cell_volume)**(1/t)."""
    if not 0 < t < INF:
        raise ParameterError(f"Lebesgue exponent needs 0 < t < inf, got {t}")
    s = np.sum(np.abs(f.values) ** t) * f.cell_volume
    return float(finite(s ** (1.0 / t), "norm"))


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
    return float(finite(cand.max(), "norm"))


def morrey_norm(f: GridFunction, p: float, q: float, family: CubeFamily) -> NormReport:
    """max over the family of |Q|**(1/p) * (avg_Q |f|**q)**(1/q)."""
    if not (0 < q <= p < np.inf):
        raise ParameterError(f"Morrey exponents need 0 < q <= p < inf, got q={q} p={p}")
    if family.tag == ALIGNED:
        return _morrey_aligned(f, p, q, family)
    value, at = _morrey_sup(f, family, p, (f.values, q))
    return NormReport(float(value), family.cube_at(at))


def _morrey_sup(grid: GridFunction, family: CubeFamily, p: float, *stacks):
    """``family_max`` of |Q|**(1/p) prod_i (avg_Q |x_i|**q_i)**(1/q_i) over
    ``(x_i, q_i)`` on ``grid``'s lattice: the Morrey and pair values per
    stack item, and their first positions."""
    return family_max(grid, family, lq_means(
        1.0 / p, *((np.abs(values) ** q, 1.0 / q) for values, q in stacks), dim=grid.dim))


def _prefix_table(powered: np.ndarray) -> np.ndarray:
    """Zero-bordered prefix sums: one sequential ``cumsum`` per axis, in axis order."""
    acc = powered
    for axis in range(powered.ndim):
        acc = acc.cumsum(axis=axis)
    table = np.zeros(tuple(k + 1 for k in powered.shape))
    table[(slice(1, None),) * powered.ndim] = acc
    return table


def _windows(table: np.ndarray, s: int) -> np.ndarray:
    """The sum over every s-cube from the prefix ``table``.

    Corner k takes the low end on axis j when bit j of k is set; the 2**n
    corners are added in order of k with sign (-1)**popcount(k).
    """
    n = table.ndim
    corners = [table[tuple(slice(None, -s) if k >> j & 1 else slice(s, None)
                           for j in range(n))] for k in range(2 ** n)]
    win = corners[0] - corners[1]
    for k in range(2, 2 ** n):
        if bin(k).count("1") % 2:
            win -= corners[k]
        else:
            win += corners[k]
    return win


def _window_slack(table: np.ndarray) -> float:
    """Twice the rounding error any computed window sum can carry.

    A sequential prefix sum of nonnegative terms is off by at most about
    n*m*u*total, and each of the 2**n corner additions adds at most
    2**n*u*total; the factor 4 covers the second-order terms and the
    rounding of the computed total.
    """
    n, m = table.ndim, table.shape[0] - 1
    return 2 ** (n + 2) * (n * m + 2 ** n + 2) * _EPS * float(table[(-1,) * n])


def _range_bound(lo: int, top: int, x, h: float, n: int, p: float, q: float) -> float:
    """An upper bound on the computed Morrey value of every side in [lo, top].

    ``x`` must bound every computed window sum of those sides, which holds
    for the largest window at ``top`` plus the prefix slack.  The exact
    value is non-increasing in the side for a fixed window sum, also with
    the rounded exponents, since fl(1/p) <= fl(1/q); the last factor covers
    the rounding of the few operations in each value.  Outside the range
    where that analysis holds (subnormal, huge or non-finite parts) the
    bound is +inf.
    """
    ep, eq = 1.0 / p, 1.0 / q
    a_lo, a_top = ((lo * h) ** n) ** ep, ((top * h) ** n) ** ep
    if x == 0.0:  # an all-zero table: every window is exactly zero
        return 0.0 if a_top <= _HUGE else INF
    quot = x / lo ** n * (1.0 + 4 * _EPS)
    b = quot ** eq
    bound = a_lo * b * (1.0 + 4 * (n * ep + 2 * ep + eq + 8) * _EPS)
    if (_TINY <= min((lo * h) ** n, a_lo, quot) and max(a_top, b) <= _HUGE
            and _TINY * max(1.0, a_top) <= bound <= _HUGE):
        return float(bound)
    return INF


def _morrey_aligned(f: GridFunction, p: float, q: float, family: CubeFamily) -> NormReport:
    """Exact branch and bound over the family's side lengths.

    A side's value comes from its largest window sum W(s), one argmax over
    ``_windows``.  A range of sides is bounded at its smallest side with W
    of its largest side plus ``_window_slack``; the bound holds because W
    does not decrease with s and (s*h)**(n/p) * s**(-n/q) does not increase.
    Ranges are bisected best first and dropped when their bound is below the
    best value, or equal to it with every side larger than the best's side,
    so the result is the loop's first strict maximum, value and box bit for
    bit.  In 1D the computed W does not decrease either: the sequential
    prefix sums of nonnegative terms never decrease, fl(a - b) never
    decreases in a nor increases in b, and an s-window starting past m - s'
    sums to at most P[m] - P[m - s'].  So a range whose two ends have the
    same W has it at every side between, and its sides are evaluated in
    order without a scan; the best side's box is then scanned once.  (2D
    inclusion-exclusion has no such order.)  Only W and its argmax are kept
    per side visited.  A non-finite value of a visited side is refused with
    a NumericalError.
    """
    if f.cell_level != family.min_level or f.root != family.root:
        raise ParameterError("aligned family was built for a different grid")
    sizes = family.aligned_sizes
    table = _prefix_table(np.abs(f.values) ** q)
    n, h, m = f.dim, np.float64(f.cell_side), f.cells_per_axis  # numpy: overflow gives inf
    slack = _window_slack(table)
    seen = {}  # size index -> (largest window sum, its flat argmax or None)
    best_val, best = -1.0, -1

    def visit(k, w=None):  # a side of known W is evaluated without a scan
        nonlocal best_val, best
        s, at = sizes[k], None
        if w is None:
            win = _windows(table, s)
            at = int(np.argmax(win))
            w = win.flat[at]
        val = finite(((s * h) ** n) ** (1.0 / p) * (w / s ** n) ** (1.0 / q), "supremum")
        seen[k] = (w, at)
        if val > best_val or (val == best_val and k < best):
            best_val, best = val, k

    heap = []

    def push(i, j):  # the sides strictly between visited indices i and j
        if j - i > 1:
            bound = _range_bound(sizes[i + 1], sizes[j], seen[j][0] + slack, h, n, p, q)
            heapq.heappush(heap, (-bound, i, j))

    last = len(sizes) - 1
    visit(0)
    if last:
        visit(last)
        push(0, last)
    while heap:
        neg, i, j = heapq.heappop(heap)
        if -neg < best_val or (-neg == best_val and i + 1 > best):
            continue
        if n == 1 and seen[i][0] == seen[j][0]:  # W is flat in between
            for k in range(i + 1, j):
                visit(k, seen[j][0])
            continue
        k = (i + j) // 2
        visit(k)
        push(i, k)
        push(k, j)
    s, at = sizes[best], seen[best][1]
    if at is None:
        at = int(np.argmax(_windows(table, s)))
    lo = np.unravel_index(at, (m - s + 1,) * n)
    return NormReport(best_val, AlignedBox(lo, tuple(i + s for i in lo)))


def pair_morrey_sup(f: GridFunction, g: GridFunction, p: float,
                    q1: float, q2: float, family: CubeFamily) -> NormReport:
    """max over cubes of |Q|**(1/p) (avg |f|**q1)**(1/q1) (avg |g|**q2)**(1/q2).

    This is the normalization functional on the right-hand side of the
    weighted bounds; f and g must share a grid.
    """
    if not f.same_grid(g):
        raise ParameterError("pair supremum needs a common grid")
    if q1 <= 0 or q2 <= 0 or p <= 0:
        raise ParameterError("pair supremum exponents must be positive")
    value, at = _morrey_sup(f, family, p, (f.values, q1), (g.values, q2))
    return NormReport(float(value), family.cube_at(at))
