"""Quadrature and supremum forms of the fractional-integral operators.

All operators act on step functions sharing one dyadic grid and are sampled
at cell midpoints of the same grid.  Since targets and sources share the
lattice, the arguments x-y and x+y always land on cell midpoints, so no
interpolation is ever needed and every check stays exact for step data.

Kernel integration: in 1D the antiderivative of |y|**(a-1) is elementary, so
the per-cell kernel mass is exact for every cell including the singular one.
In 2D non-singular cells use the midpoint rule; the singular cell (the kernel
pole sits at its center) is split into four corner squares, each refined
dyadically toward the pole with three midpoint children per level.  The
kernel is homogeneous, so that refinement sums in closed form to every
depth, which bounds the only quadrature bias at the singularity.

I_alpha is one FFT convolution in every dimension.  Every bilinear form is
one pass of a scale tower: the products f(x-y)g(x+y) against a table of
per-offset-cell weights with one column per scale, taken one row offset at a
time.  The truncated form weighs the ball |y|_inf <= d by per-axis
fractional cell overlaps, hence exactly for any d > 0.  The dyadic model
sums the truncated forms over the tower of dyadic cubes containing x and the
bilinear maximal takes their max; scales below the cell side are dropped
and their geometric-tail bound is reported.
B_alpha of steps refined r = 2**k times is taken on their coarse cells,
exactly, with block sums of the fine kernel masses as tables (``_b_values``):
O(M**2 r**n) work for M coarse cells per axis, in place of O((M r)**2).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .grid import DyadicCube, GridFunction, cube_blocks, cube_box, spread, triple_sums
from .norms import CubeFamily, cell_sup, lq_means
from .util import INF, ParameterError, finite, v_factor


@dataclass(frozen=True)
class OperatorField:
    """Operator output at cell midpoints, plus a bound on any omitted tail."""

    fn: GridFunction
    tail_bound: float = 0.0


def _field(template: GridFunction, values: np.ndarray, tail: float = 0.0) -> OperatorField:
    """Wrap ``values`` that ``finite`` has already passed."""
    flags = "nonneg" if values.min() >= 0 else "none"
    return OperatorField(template.with_values(values, flags), tail)


def _require_common_grid(f: GridFunction, g: GridFunction) -> None:
    if not f.same_grid(g):
        raise ParameterError("operands must live on a common grid")


def _corner_square_integral(side: float, alpha: float) -> float:
    """integral of |u|**(alpha-2) over [0,side]**2, singularity at the corner.

    Dyadic refinement toward the corner: per level the three off-corner
    children are covered by 8x8 uniform midpoint cells, the corner child
    recurses.  The kernel is homogeneous, so level l carries exactly
    ``(side * 2**-l)**alpha`` times the level-0 sum of the unit square, and
    the whole tower closes to ``side**alpha * unit / (1 - 2**-alpha)``.
    """
    mid = (np.arange(16) + 0.5) / 16  # level-0 midpoints of the unit square
    cells = np.add.outer(mid * mid, mid * mid) ** (0.5 * (alpha - 2.0))
    unit = (float(cells[8:].sum()) + float(cells[:8, 8:].sum())) / 256
    return side ** alpha * unit / (1.0 - 2.0 ** -alpha)


def _check_kernel(alpha: float, dim: int) -> None:
    """Refuse a kernel |y|**(alpha - n) outside 0 < alpha < n."""
    if not (0.0 < alpha < dim):
        raise ParameterError(
            f"kernel exponent must satisfy 0 < alpha < n, got alpha={alpha} n={dim}")


def kernel_cell_table(alpha: float, grid: GridFunction) -> np.ndarray:
    """Exact/midpoint kernel masses over the offset cells m*h + [-h/2, h/2)**n."""
    _check_kernel(alpha, grid.dim)
    m, h = grid.cells_per_axis, grid.cell_side
    offsets = np.arange(-(m - 1), m)
    if grid.dim == 1:  # the antiderivative at the cell edges, differenced
        edges = (np.arange(-(m - 1), m + 1) - 0.5) * h
        return np.diff(np.sign(edges) * np.abs(edges) ** alpha / alpha)
    squares = (offsets * h) ** 2
    with np.errstate(divide="ignore"):
        table = h * h * np.add.outer(squares, squares) ** (0.5 * (alpha - 2.0))
    center = m - 1
    table[center, center] = 4.0 * _corner_square_integral(0.5 * h, alpha)
    return table


def _truncation_table(grid: GridFunction, radii) -> np.ndarray:
    """Per-offset-cell overlap volumes with the balls |y|_inf <= d (exact),
    one trailing column per radius d."""
    d = np.asarray(radii, dtype=float)
    if np.any(d <= 0):
        raise ParameterError(f"truncation radius must be positive, got {d.min()}")
    m = grid.cells_per_axis
    h = grid.cell_side
    offsets = np.arange(-(m - 1), m)[:, None]
    lo = np.maximum(offsets * h - 0.5 * h, -d)
    hi = np.minimum(offsets * h + 0.5 * h, d)
    table = w = np.clip(hi - lo, 0.0, None)
    for _ in range(grid.dim - 1):  # the product of the per-axis overlaps
        table = table[..., None, :] * w
    return table


def _dyadic_table(grid: GridFunction, alpha: float, min_level: int, top: int) -> np.ndarray:
    """The dyadic model's table: the levels ``min_level..top`` weighted by |Q|**(alpha/n - 1)."""
    levels = np.arange(min_level, top + 1)
    return _truncation_table(grid, 2.0 ** levels) @ 2.0 ** (levels * (alpha - grid.dim))


_BLOCK = 1 << 16  # elements of one column block of the product, about 512 KB


def _correlate(fv: np.ndarray, gv: np.ndarray, tables: np.ndarray) -> np.ndarray:
    """out[..., i, s] = sum_j f[..., i-j] g[..., i+j] tables[j, s], j limited to
    in-range indices.

    The grid has ``tables.ndim - 1`` axes; any axes of ``fv`` and ``gv``
    before them are a stack of pairs on that grid.  One pass over the row
    offsets j0 with |j0| <= (m0-1)//2; a 1D grid is one row.  Windowed views
    F[k, r, i, j] = f[k, r, i-j] and G[k, r, i, j] = g[k, r, i+j] of copies
    zero-padded along the last axis (f reversed, its windows in reverse
    order) give, over the rows r with r-j0 and r+j0 in range, each block of
    columns as one product (F[:, r-j0] * G[:, r+j0]) @ tables[j0], sliced to
    the offsets in range for its columns and capped at ``_BLOCK`` elements
    over the whole stack.
    The j0 = 0 pass covers every row and writes; the others add.
    """
    n = tables.ndim - 1
    m = fv.shape[-1]
    m0, c = m ** (n - 1), m - 1
    fr, gr = fv.reshape(-1, m0, m), gv.reshape(-1, m0, m)
    k = fr.shape[0]
    tables = tables.reshape((-1,) + tables.shape[-2:])
    padded = np.zeros((2, k, m0, m + 2 * c))
    padded[0, ..., c:c + m], padded[1, ..., c:c + m] = fr[..., ::-1], gr  # j runs forward in both
    windows = np.ndarray(padded.shape[:-1] + (m, 2 * m - 1), float, padded,  # never written
                         strides=padded.strides + padded.strides[-1:])
    big_f, big_g = windows[0, :, :, ::-1], windows[1]
    out = np.empty((k, m0, m, tables.shape[-1]))
    for j0 in sorted(range(-((m0 - 1) // 2), (m0 - 1) // 2 + 1), key=abs):
        lo, hi = abs(j0), m0 - abs(j0)  # the rows r with r-j0 and r+j0 in range
        f_rows, g_rows = big_f[:, lo - j0:hi - j0], big_g[:, lo + j0:hi + j0]
        cols = max(1, _BLOCK // max(1, k * (hi - lo) * (2 * m - 1)))
        for i0 in range(0, m, cols):
            reach = min(i0 + cols - 1, c - i0)  # no column of the block has |j| beyond it
            block = (slice(None), slice(None), slice(i0, i0 + cols),
                     slice(c - reach, c + reach + 1))
            # one expression: a named product would stay alive into the next
            # block's allocation, and the heap then returns and refaults its pages
            part = ((f_rows[block] * g_rows[block]).reshape(-1, 2 * reach + 1)
                    @ tables[m0 - 1 + j0, block[3]]).reshape(
                        k, hi - lo, min(cols, m - i0), tables.shape[-1])
            if j0:
                out[:, lo:hi, block[2]] += part
            else:
                out[:, lo:hi, block[2]] = part
    return out.reshape(fv.shape + tables.shape[-1:])


def i_alpha(f: GridFunction, alpha: float) -> OperatorField:
    """Fractional integral: at midpoint x, sum of f(cell) * kernel cell mass.

    The FFT length 2m >= 2m-1 per axis leaves the crop unaliased.  For f >= 0
    the relative error per cell is <~ eps * log2(2m) * max K / min K over the
    kernel cell masses K, a ratio that grows like m**(n - alpha) in n dims.
    """
    return _field(f, _i_values(f, f.values, alpha))


def _i_values(grid: GridFunction, fv: np.ndarray, alpha: float) -> np.ndarray:
    """``i_alpha`` values for a stack of functions on ``grid``'s lattice."""
    table = kernel_cell_table(alpha, grid)
    m, axes = grid.cells_per_axis, tuple(range(-grid.dim, 0))
    size = (2 * m,) * grid.dim
    spectrum = np.fft.rfftn(fv, size, axes) * np.fft.rfftn(table, size, axes)
    vals = np.fft.irfftn(spectrum, size, axes)[(...,) + (slice(m - 1, 2 * m - 1),) * grid.dim]
    return finite(vals, "operator output")


@functools.cache  # r <= the coarse cells per axis: at most twice the fine table
def _class_sums(r: int) -> np.ndarray:
    """Per kind: the b of row J - s that add to column a; class (s, s), or mixed at s = 0."""
    kind, s, b, a = np.ogrid[:2, :2, :r, :r]
    u, v = b > a, a + b >= r  # f one coarse cell left, g one right
    return np.where(kind, (s == 0) & (u != v), (u == s) & (v == s)).reshape(2, 2 * r, r) * 1.0


def _b_values(grid: GridFunction, fv: np.ndarray, gv: np.ndarray,
              alpha: float) -> np.ndarray:
    """B(f, g) on ``grid``'s lattice for steps given r = 2**k times coarser
    on its root; any axes before the grid's are a stack of pairs.

    Per axis, x = X*r + a and the offset J*r + b meet f and g in the coarse
    cells X-J-u and X+J+v, (u, v) = ([b > a], [a + b >= r]): one
    ``_correlate`` per choice of kind per axis, r**n columns, the integer
    kind (0, 0), (1, 1), the half kind (1, 0), (0, 1) with f one cell on,
    read at X + [a >= r/2].  The steps are spread while r = 2, where those
    2**n calls cost no less than the fine one, or r exceeds their cells per
    axis, where the class sums would outgrow the fine kernel table.  A
    non-finite value is refused.
    """
    n = grid.dim
    while (r := grid.cells_per_axis // fv.shape[-1]) == 2 or r > fv.shape[-1]:
        fv, gv = spread(fv, 1, n), spread(gv, 1, n)
    mc, lead, x, p = fv.shape[-1], fv.shape[:-n], fv.ndim - n, int(r > 1)
    m = mc + p  # p: the half kind, and one cell of padding per axis
    fine = np.zeros((2 * m, r) * n)  # the fine masses at J*r + b for J = -m..m-1
    fine.reshape((2 * m * r,) * n)[(slice(p * r + 1, (m + mc) * r),) * n] = kernel_cell_table(
        alpha, grid)
    zf, zg = fv, gv
    if p:  # a zero cell on both sides of every axis
        zf, zg = np.zeros((2,) + lead + (mc + 2,) * n)
        zf[(...,) + (slice(1, -1),) * n], zg[(...,) + (slice(1, -1),) * n] = fv, gv
    g, out, sums = zg[(...,) + (slice(p, p + m),) * n], 0.0, _class_sums(r)
    for kind in itertools.product(range(1 + p), repeat=n):
        tab = fine
        for h in reversed(kind):  # per axis, last first: into (J, a) for J = 1-m..m-1
            tab = np.concatenate([tab[..., 1:, :], tab[..., :-1, :]], -1) @ sums[h]
            tab = tab.transpose(-2, -1, *range(tab.ndim - 2))
        tab = tab.transpose(*range(0, 2 * n, 2), *range(1, 2 * n, 2))
        f = zf[(...,) + tuple(slice(p - h, p - h + m) for h in kind)]  # the half kind: f one on
        vals = _correlate(f, g, tab.reshape(tab.shape[:n] + (-1,))).reshape(f.shape + (r,) * n)
        for i in np.flatnonzero(kind):  # a half axis reads a >= r/2 at X + 1
            half = vals.swapaxes(0, x + i).swapaxes(1, x + n + i)[:, r // 2:]
            half[:mc] = half[1:]
        out = out + vals[(...,) + (slice(0, mc),) * n + (slice(None),) * n]
    out = out.transpose(*range(x), *(x + k for i in range(n) for k in (i, n + i)))
    return finite(out.reshape(lead + (mc * r,) * n), "operator output")


def b_alpha(f: GridFunction, g: GridFunction, alpha: float) -> OperatorField:
    """Bilinear fractional integral with per-cell kernel masses."""
    _require_common_grid(f, g)
    return _field(f, _b_values(f, f.values, g.values, alpha))


def b_truncated(f: GridFunction, g: GridFunction, d: float) -> OperatorField:
    """Kernel-free truncation: integral of f(x-y)g(x+y) over |y|_inf <= d."""
    _require_common_grid(f, g)
    vals = _correlate(f.values, g.values, _truncation_table(f, [d]))[..., 0]
    return _field(f, finite(vals, "operator output"))


def b_alpha_dyadic(f: GridFunction, g: GridFunction, alpha: float,
                   q0: DyadicCube, min_level: int | None = None) -> OperatorField:
    """Dyadic model: for x in Q0, sum over the tower x in Q within Q0 of
    |Q|**(alpha/n - 1) * B_{l(Q)}(f,g)(x), with 0 < alpha < n.

    The weighted sum over the scales is taken on their tables, one column.
    Scales below ``min_level`` (default: the cell level; the CLI's
    ``--min-level``) are omitted; the omitted part is geometrically small
    and its bound is reported.
    """
    _require_common_grid(f, g)
    _check_kernel(alpha, f.dim)
    n = f.dim
    if min_level is None:
        min_level = f.cell_level
    if min_level < f.cell_level or min_level > q0.level:
        raise ParameterError("min_level must lie between the cell level and Q0")
    inner = cube_box(f, q0).slices()  # also validates Q0 against the grid
    table = _dyadic_table(f, alpha, min_level, q0.level)
    vals = np.zeros_like(f.values)
    vals[inner] = _correlate(f.values, g.values, table[..., None])[..., 0][inner]
    # omitted scales below min_level: B_d <= (2d)^n fmax gmax, summed geometrically
    fmax = float(np.abs(f.values).max())
    gmax = float(np.abs(g.values).max())
    tail = fmax * gmax * 2.0 ** n * 2.0 ** ((min_level - 1) * alpha) / (1.0 - 2.0 ** (-alpha))
    return _field(f, finite(vals, "operator output"), tail)


def m_alpha_bilinear(f: GridFunction, g: GridFunction, alpha: float,
                     family: CubeFamily) -> OperatorField:
    """sup over dyadic radii d of (2d)**(alpha-n) * B_d(|f|, |g|)(x)."""
    _require_common_grid(f, g)
    if not (0.0 <= alpha < f.dim):
        raise ParameterError(f"maximal exponent must satisfy 0 <= alpha < n, got {alpha}")
    return _field(f, _bilinear_maximal(f, f.values, g.values, alpha, family))


def _bilinear_maximal(grid: GridFunction, fv: np.ndarray, gv: np.ndarray, alpha: float,
                      family: CubeFamily) -> np.ndarray:
    """``m_alpha_bilinear`` values for a stack of pairs on ``grid``'s lattice."""
    levels = np.array(family.levels())
    tables = (2.0 ** (levels + 1)) ** (alpha - grid.dim) * _truncation_table(grid, 2.0 ** levels)
    return finite(_correlate(np.abs(fv), np.abs(gv), tables).max(axis=-1), "operator output")


def m_alpha_vector(f: GridFunction, g: GridFunction, alpha: float,
                   r1: float, r2: float, family: CubeFamily) -> OperatorField:
    """sup over cubes containing x of |Q|**(alpha/n) (avg|f|**r1)**(1/r1)(avg|g|**r2)**(1/r2)."""
    _require_common_grid(f, g)
    if not (0 < r1 < INF and 0 < r2 < INF):
        raise ParameterError("vector maximal exponents need 0 < r1, r2 < inf")
    return _field(f, _vector_maximal(f, f.values, g.values, alpha, r1, r2, family))


def _vector_maximal(grid: GridFunction, fv: np.ndarray, gv: np.ndarray, alpha: float,
                    r1: float, r2: float, family: CubeFamily) -> np.ndarray:
    """``m_alpha_vector`` values for a stack of pairs on ``grid``'s lattice."""
    return cell_sup(grid, family, lq_means(alpha / grid.dim, (np.abs(fv) ** r1, 1.0 / r1),
                                           (np.abs(gv) ** r2, 1.0 / r2), dim=grid.dim))


def m_tilde(f: GridFunction, g: GridFunction, v: GridFunction, alpha: float,
            t: float, family: CubeFamily) -> OperatorField:
    """Weighted bilinear maximal: averages of |f|,|g| times the v power-mean.

    The weight factor is (avg_Q v**(t/(1-t)))**((1-t)/t), i.e. the power mean
    of v over Q with exponent t/(1-t); at t=1 it is the exact max of v on Q.
    """
    _require_common_grid(f, g)
    _require_common_grid(f, v)
    if not (0.0 < t <= 1.0):
        raise ParameterError(f"weight exponent t must lie in (0, 1], got {t}")
    if v.values.min() <= 0:
        raise ParameterError("weight must be strictly positive")
    means = lq_means(alpha / f.dim, (np.abs(f.values), 1.0), (np.abs(g.values), 1.0))
    return _field(f, cell_sup(f, family, lambda shift, volume: means(shift, volume)
                              * v_factor(cube_blocks(v.values, shift), t)))


def triple_means(f: GridFunction, shift: int) -> np.ndarray:
    """Zero-extended averages over the triples 3Q of every cube ``2**shift``
    cells wide, laid out as ``cube_blocks`` lays out the cubes.

    The average divides by the full |3Q| = 3**n |Q| even when 3Q is clipped,
    matching the compact-support convention: outside the root the data is
    identically zero, so the clipped sum is the true integral over 3Q.
    """
    sums = triple_sums(cube_blocks(f.values, shift).sum(axis=-1)) * f.cell_volume
    return sums / (3.0 ** f.dim * (2.0 ** (f.cell_level + shift)) ** f.dim)


def m_triple_dyadic(f: GridFunction, g: GridFunction, family: CubeFamily) -> OperatorField:
    """sup over dyadic cubes containing x of avg_{3Q} f * avg_{3Q} g."""
    _require_common_grid(f, g)
    if f.values.min() < 0 or g.values.min() < 0:
        raise ParameterError("triple maximal expects nonnegative inputs")
    return _field(f, cell_sup(
        f, family, lambda shift, volume: triple_means(f, shift) * triple_means(g, shift)))
