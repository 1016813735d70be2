"""Weight systems and the characteristic constants of the two-weight theory.

A characteristic is a supremum over single cubes or nested cube pairs
Q inside Q' of a product of weighted averages.  All suprema here run over
explicit finite dyadic families and are monotone lower bounds of their
classical counterparts; growing the family can only increase the value, so
truncation is sound for lower-bound reporting.

Conventions shared by every characteristic:

* ``(avg_Q v**(t/(1-t)))**((1-t)/t)`` degenerates to the exact max of v over
  Q at t = 1; intermediate powers go through a shifted power mean so that
  exponents near t = 1 cannot overflow.  A product that still overflows to
  a non-finite value is refused with a NumericalError, never reported.
* ``r = inf`` drops the |Q'|**(1/r) factor.
* Weights must be strictly positive on the grid; zero cells are rejected
  rather than regularized, since negative dual powers would be undefined.
* Families must consist of (never clipped) dyadic cubes: averaging a
  positive weight against the artificial zeros of a clipped box would
  corrupt the constants.

Every weight scan runs on a stack of systems on one grid, a single system
being a one-item stack: per-cube factors are computed one dyadic level at a
time over the whole grid, and each system keeps its first maximum and its
position.  Only a single system's report places the cube or pair there;
``pair_value`` reads the same factor arrays as the nested-pair scan, so the
attaining pair's value reproduces bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import relations
from .grid import DyadicCube, GridFunction, check_levels, cube_blocks, cube_box, spread
from .norms import CubeFamily, cell_sup, dyadic_levels, family_max
from .util import (INF, NumericalError, ParameterError, conjugate, finite, power_mean,
                   recip, refuse, v_factor)


# --- weight systems ---------------------------------------------------------

@dataclass
class WeightSystem:
    v: GridFunction
    w1: GridFunction
    w2: GridFunction

    def __post_init__(self):
        for name, w in (("v", self.v), ("w1", self.w1), ("w2", self.w2)):
            if w.values.min() <= 0:
                raise ParameterError(f"weight {name} must be strictly positive")
        if not (self.v.same_grid(self.w1) and self.v.same_grid(self.w2)):
            raise ParameterError("weights must share one grid")


def power_weight(beta: float, center, root: DyadicCube, depth: int) -> GridFunction:
    """|x - center|**beta on a grid: exact 1D cell averages, 2D midpoint values.

    1D uses the antiderivative of |u|**beta (logarithm at beta = -1), so cell
    values are exact averages even for cells straddling the center as long as
    the power stays integrable there (beta > -1).  Cells beyond the float range are refused.
    """
    dim = root.dim
    center = tuple(float(c) for c in (center if np.iterable(center) else (center,)))
    if len(center) != dim:
        raise ParameterError("center dimension mismatch")
    if depth < 0:
        raise ParameterError(f"depth must be >= 0, got {depth}")
    check_levels(dim, root.level, depth)
    m = 2 ** depth
    h = 2.0 ** (root.level - depth)
    origin = root.lower()
    if dim == 1:
        edges = origin[0] + h * np.arange(m + 1) - center[0]
        a, b = edges[:-1], edges[1:]
        touching = (a <= 0.0) & (0.0 <= b)
        if beta <= -1.0 and touching.any():
            i = int(np.argmax(touching))
            raise ParameterError(
                f"cell [{a[i] + center[0]}, {b[i] + center[0]}) touches the center: "
                f"|x|**({beta}) is not integrable there")
        if beta == -1.0:
            integral = np.abs(np.log(np.abs(b / a)))
        else:
            integral = np.diff(np.copysign(np.abs(edges) ** (beta + 1.0), edges)) / (beta + 1.0)
        vals = integral / (b - a)
    else:
        r = np.hypot(*np.meshgrid(*(origin[d] + h * (np.arange(m) + 0.5) - center[d]
                                    for d in range(2)), indexing="ij"))
        if beta != 0 and np.any(r == 0.0):  # the value there is 0 or infinite
            raise ParameterError("a cell midpoint coincides with the center")
        if beta <= -dim:
            # non-integrable singularity: no cell may contain the center
            inside = np.all([(origin[d] <= center[d] < origin[d] + m * h)
                             for d in range(dim)])
            if inside:
                raise ParameterError(
                    f"|x|**({beta}) is not integrable at the center inside the grid")
        vals = r ** beta
    if not np.all((vals > 0.0) & (vals < INF)):  # nan fails both
        raise NumericalError(f"|x|**({beta}) leaves the float range on this grid")
    return GridFunction(root, vals, "pos")


def power_system(beta: float, gamma1: float, gamma2: float, center,
                 root: DyadicCube, depth: int) -> WeightSystem:
    """Stein-Weiss style system: v = |x|**(-beta), w_i = |x|**(gamma_i)."""
    v = power_weight(-beta, center, root, depth)
    w1 = power_weight(gamma1, center, root, depth)
    w2 = power_weight(gamma2, center, root, depth)
    return WeightSystem(v, w1, w2)


# --- parameters --------------------------------------------------------------

@dataclass(frozen=True)
class CharParams:
    """Exponent tuple of the weighted characteristics; s < 1 or s >= 1 picks
    the form, and so the relations, of the two-weight and one-weight ones."""

    alpha: float
    n: int
    q1: float
    q2: float
    p: float
    s: float
    t: float
    r: float
    a: float

    def check(self, kind: str) -> None:
        """Refuse the tuple unless the relations of characteristic ``kind``
        hold: ``two-weight`` and ``one-weight`` take their s < 1 or s >= 1
        rows from s, ``remark`` and ``testing`` have rows of their own."""
        split = "s<1" if self.s < 1.0 else "s>=1"
        key = {"two-weight": split, "one-weight": "one-weight-" + split}.get(kind, kind)
        refuse("invalid parameters", relations.violations(self, key))


# --- characteristic scans -----------------------------------------------------

@dataclass(frozen=True)
class CharacteristicReport:
    value: float
    attaining: tuple[DyadicCube, DyadicCube]
    pairs_scanned: int


def _weight_stack(ws, cp: CharParams, kind: str):
    """The grid and v, w1, w2 arrays of a weight system, or of a list of them on
    one grid, with the systems stacked in front; refused unless ``cp`` fits
    them and ``kind`` (a one-weight system also unless v = w1*w2)."""
    systems = [ws] if isinstance(ws, WeightSystem) else ws
    if not (systems and all(systems[0].v.same_grid(s.v) for s in systems)):
        raise ParameterError("weight systems must share one grid" if systems
                             else "a stack needs at least one weight system")
    grid = systems[0].v
    v, w1, w2 = np.stack([[s.v.values, s.w1.values, s.w2.values] for s in systems], 1)
    relations.require_dim(cp, grid.dim)
    cp.check(kind)
    if kind == "one-weight" and not np.allclose(v, w1 * w2, rtol=1e-12, atol=0.0):
        raise ParameterError("one-weight system requires v = w1*w2 pointwise")
    return grid, v, w1, w2


def _w_factors(w1, w2, shift: int, d1: float, d2: float, dim: int):
    """(avg_Q w_i**-d_i)**(1/d_i) per cube for i = 1, 2, as 1 / power_mean(w_i, -d_i);
    products take the v factor first, then these one at a time, since their
    own product can leave the float range where the whole product does not."""
    return (1.0 / power_mean(cube_blocks(w1, shift, dim), -d1),
            1.0 / power_mean(cube_blocks(w2, shift, dim), -d2))


def _pair_exponent(cp: CharParams) -> float:
    """E of the nested-pair scans: (1-s)/(as) for s < 1, (1-as)/(as) for s >= 1."""
    return ((1.0 - cp.s) if cp.s < 1.0 else (1.0 - cp.a * cp.s)) / (cp.a * cp.s)


def _pair_scale(volume: float, outer: float, exponent: float, r_inv: float) -> float:
    """(|Q|/|Q'|)**E |Q'|**(1/r): the part of a pair value fixed by the two levels."""
    return (volume / outer) ** exponent * outer ** r_inv


def _pair_scan(ws, cp: CharParams, kind: str, family: CubeFamily, a: float, r_inv: float):
    """Per system, the first strict max over nested pairs Q in Q' of the
    family with the duals (q_i/a)', for the relations of ``kind``; a single
    system's report places its pair.

    Canonical order: Q in the family's order, then Q' from Q itself up to
    the root.  One array op per (level of Q, level of Q'): the Q' factors
    are spread onto the cubes of Q's level.
    """
    grid, v, w1, w2 = _weight_stack(ws, cp, kind)
    d1, d2, exponent = conjugate(cp.q1 / a), conjugate(cp.q2 / a), _pair_exponent(cp)
    scans = list(dyadic_levels(grid, family))
    wfac = [np.array(_w_factors(w1, w2, shift, d1, d2, grid.dim))[(Ellipsis,) + window]
            for shift, _, window in scans]
    best, level, at, pairs = -INF, 0, 0, 0
    for i, (shift, volume, window) in enumerate(scans):
        vfac = v_factor(cube_blocks(v, shift, grid.dim), cp.t)[(Ellipsis,) + window]
        vals = finite(np.stack([_pair_scale(volume, scans[j][1], exponent, r_inv) * vfac
                                * (w := spread(wfac[j], scans[j][0] - shift, grid.dim))[0] * w[1]
                                for j in range(i, -1, -1)], -1), "supremum").reshape(len(v), -1)
        pairs += vals.shape[1]
        k = vals.argmax(axis=-1)
        new = (top := vals[np.arange(len(v)), k]) > best  # per system its first strict max
        best, level, at = np.where(new, top, best), np.where(new, i, level), np.where(new, k, at)
    if not isinstance(ws, WeightSystem):
        return best
    i, k = int(level[0]), int(at[0])
    *index, up = map(int, np.unravel_index(k, (2 ** i,) * grid.dim + (i + 1,)))
    q = family.cube(family.root.level - i, index)
    outer = DyadicCube(q.level + up, tuple(c >> up for c in q.coords))
    return CharacteristicReport(float(best[0]), (q, outer), pairs)


def char_two_weight(ws, cp: CharParams, family: CubeFamily):
    """Nested-pair characteristic of the two-weight bound.

    sup over Q in Q' of (|Q|/|Q'|)**E |Q'|**(1/r)
    (avg_Q v**(t/(1-t)))**((1-t)/t) prod_i (avg_Q' w_i**(-(q_i/a)'))**(1/(q_i/a)')
    with E = (1-s)/(as) for s < 1 and (1-as)/(as) for s >= 1.
    """
    return _pair_scan(ws, cp, "two-weight", family, cp.a, recip(cp.r))


def _cube_scan(ws, cp: CharParams, kind: str, family: CubeFamily, a: float, v_of):
    """sup over single cubes Q of |Q|**(1/r) v_of(v on Q) prod_i (avg_Q
    w_i**(-(q_i/a)'))**(1/(q_i/a)'), for the relations of ``kind``."""
    grid, v, w1, w2 = _weight_stack(ws, cp, kind)
    d1, d2 = conjugate(cp.q1 / a), conjugate(cp.q2 / a)

    def value(shift, volume):
        f1, f2 = _w_factors(w1, w2, shift, d1, d2, grid.dim)
        return volume ** recip(cp.r) * v_of(cube_blocks(v, shift, grid.dim)) * f1 * f2
    best, at = family_max(grid, family, value)
    if isinstance(ws, WeightSystem):  # a one-item stack: its report places the cube
        return CharacteristicReport(float(best[0]), (family.cube_at(at[0]),) * 2, len(family))
    return best


def char_remark(ws, cp: CharParams, family: CubeFamily):
    """Single-cube majorant of the s < 1 two-weight characteristic.

    sup over Q of |Q|**(1/r) (avg_Q v**(as/(1-s)))**((1-s)/(as))
    prod_i (avg_Q w_i**(-(q_i/a)'))**(1/(q_i/a)').
    """
    return _cube_scan(ws, cp, "remark", family, cp.a,
                      lambda rows: power_mean(rows, cp.a * cp.s / (1.0 - cp.s)))


def char_one_weight(ws, cp: CharParams, family: CubeFamily):
    """One-weight characteristic: r = inf, v = w1 w2, full dual exponents q_i'."""
    return _pair_scan(ws, cp, "one-weight", family, 1.0, 0.0)


def char_testing(ws, cp: CharParams, family: CubeFamily):
    """Necessary-condition constant: sup_Q |Q|**(1/r) (inf_Q v) prod dual averages."""
    return _cube_scan(ws, cp, "testing", family, 1.0, lambda rows: rows.min(axis=-1))


def ap_characteristic(w: GridFunction, p: float, family: CubeFamily) -> CharacteristicReport:
    """Muckenhoupt constant sup_Q (avg_Q w) (avg_Q w**(1-p'))**(p-1)."""
    if not 1.0 < p < INF or conjugate(p) == 1.0:  # p' rounds to 1 for p past about 2**53
        raise ParameterError(f"A_p requires 1 < p < inf and p' = p/(p-1) > 1, got p = {p}")
    if w.values.min() <= 0:
        raise ParameterError("A_p weight must be strictly positive")
    e = 1.0 - conjugate(p)  # = -1/(p-1)

    def value(shift, volume):
        rows = cube_blocks(w.values, shift)
        return rows.mean(axis=-1) / power_mean(rows, e)
    best, at = family_max(w, family, value)
    return CharacteristicReport(float(best), (family.cube_at(at),) * 2, len(family))


def fs_majorant(w: GridFunction, r_i: float, s_i: float,
                family: CubeFamily) -> GridFunction:
    """Pointwise majorant W(x) = sup over cubes containing x of
    |Q|**(1/r_i) (avg_Q w**(s_i/(1-s_i)))**((1-s_i)/s_i)."""
    if not (0.0 < s_i < 1.0):
        raise ParameterError(f"majorant exponent must lie in (0,1), got {s_i}")
    if w.values.min() <= 0:
        raise ParameterError("majorant weight must be strictly positive")
    r_inv = recip(r_i)
    e = s_i / (1.0 - s_i)
    out = cell_sup(w, family, lambda shift, volume: volume ** r_inv
                   * power_mean(cube_blocks(w.values, shift), e))
    flags = "pos" if out.min() > 0 else "nonneg"
    return w.with_values(out, flags)


def pair_value(ws: WeightSystem, cp: CharParams, q: DyadicCube, qp: DyadicCube) -> float:
    """One nested-pair value of ``char_two_weight``, read from the scan's own
    per-level factor arrays."""
    d1, d2 = conjugate(cp.q1 / cp.a), conjugate(cp.q2 / cp.a)
    grid = ws.v

    def place(cube):  # the cell shift of the cube's level and its index there
        shift = cube.level - grid.cell_level
        return shift, tuple(lo >> shift for lo in cube_box(grid, cube).lo)
    (shift, i), (up, j) = place(q), place(qp)
    w1, w2 = _w_factors(ws.w1.values, ws.w2.values, up, d1, d2, grid.dim)
    return (_pair_scale(q.volume, qp.volume, _pair_exponent(cp), recip(cp.r))
            * v_factor(cube_blocks(grid.values, shift), cp.t)[i] * w1[j] * w2[j])
