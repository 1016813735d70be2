"""Theorem-level empirical verification harnesses.

The boundedness statements assert the existence of a constant C.  A finite
grid cannot exhibit C, but it can falsify boundedness: the harnesses compute
left/right norm ratios over seeded function families at increasing grid
refinement and assert that the worst ratio does not grow beyond five percent
per level.  The sharpness construction provides the positive control: on the
parameter branch where no constant exists, the measured Morrey norm blows up
along a predicted power law in the cluster spacing delta, while on the
boundary branch the fitted slope is flat.

Function families span the extremes the estimates are sensitive to: flat
random steps with log-uniform cells, indicators of random dyadic cubes,
sampled smooth bumps, and the lattice-of-clusters sharpness pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import relations
from .grid import DyadicCube, GridFunction, cube_box, enumerate_subcubes, spread, unit_root
from .norms import (CubeFamily, _morrey_sup, aligned_family, dyadic_family, family_max,
                    lq_means, morrey_norm)
from .operators import _b_values, _bilinear_maximal, _i_values, _vector_maximal, b_alpha
from .util import (INF, NumericalError, ParameterError, close, conjugate,
                   finite, make_rng, recip, refuse)
from .weights import (CharParams, WeightSystem, _weight_stack, char_one_weight, char_testing,
                      char_two_weight, fs_majorant, power_system, power_weight)

# theorem id -> the ExponentProfile fields its hypotheses and sides read; the
# weighted ids take a CharParams instead and read all of it
THEOREMS = {
    "bilinear-ratio": ("alpha", "p1", "q1", "p2", "q2", "s", "t"),
    "bilinear-sum": ("alpha", "p1", "q1", "p2", "q2", "s", "t"),
    "bilinear-critical": ("alpha", "p1", "q1", "p2", "q2"),
    "linear-adams": ("alpha", "p1", "q1", "s", "t"),
    "product-embedding": ("alpha", "p1", "q1", "p2", "q2", "s", "t"),
    "two-weight": (), "one-weight": (), "olsen": (),
}
GROWTH_LIMIT = 1.05         # a stable harness's worst ratio grows at most this much per level
SHARPNESS_FLOOR_TOL = 0.95  # the share of the floor delta**(-n/s) that min B must reach
DEPTH_EXTRA = 3             # sharpness grids resolve delta by 2**-3, so 1.5 delta is on the grid


# --- exponent profiles --------------------------------------------------------

@dataclass(frozen=True)
class ExponentProfile:
    """The exponent tuple of the unweighted harnesses; unused slots stay None."""

    alpha: float
    n: int
    p1: float | None = None
    q1: float | None = None
    p2: float | None = None
    q2: float | None = None
    s: float | None = None
    t: float | None = None


# --- function zoo --------------------------------------------------------------

def log_uniform(rng, root: DyadicCube, depth: int, flags: str) -> GridFunction:
    """Log-uniform i.i.d. cells in [e^-2, e^2], drawn from ``rng`` row-major."""
    vals = np.exp(rng.uniform(-2.0, 2.0, size=(2 ** depth,) * root.dim))
    return GridFunction(root, vals, flags)


def random_weights(rng, root: DyadicCube, depth: int) -> WeightSystem:
    """Three log-uniform weights v, w1, w2, drawn in that order."""
    return WeightSystem(*(log_uniform(rng, root, depth, "pos") for _ in range(3)))


def random_step(seed: int, depth: int, root: DyadicCube) -> GridFunction:
    return log_uniform(make_rng(seed, 101), root, depth, "pos")


def indicator_step(seed: int, depth: int, root: DyadicCube) -> GridFunction:
    rng = make_rng(seed, 103)
    level = int(rng.integers(root.level - depth + 1, root.level + 1))
    shift = root.level - level
    coords = tuple(int(rng.integers(0, 1 << shift)) + (c << shift)
                   for c in root.coords)
    vals = np.zeros((2 ** depth,) * root.dim)
    vals[cube_box(GridFunction(root, vals), DyadicCube(level, coords)).slices()] = 1.0
    return GridFunction(root, vals, "nonneg")


def bump_step(seed: int, depth: int, root: DyadicCube) -> GridFunction:
    rng = make_rng(seed, 107)
    side = root.side
    center = rng.uniform(0.3, 0.7, size=root.dim) * side
    width = rng.uniform(0.08, 0.2) * side
    m = 2 ** depth
    h = side / m
    offsets = [lo + (np.arange(m) + 0.5) * h - c for lo, c in zip(root.lower(), center)]
    r2 = sum(x ** 2 for x in np.ix_(*offsets))  # summed over an open mesh
    return GridFunction(root, np.exp(-r2 / width ** 2), "pos")


_KINDS = {"step": random_step, "indicator": indicator_step, "bump": bump_step}


def make_pairs(kind: str, count: int, seed: int, depth: int, dim: int = 1,
               root: DyadicCube | None = None):
    """Seeded (name, f, g) pairs of one zoo kind at a base depth."""
    if kind not in _KINDS:
        raise ParameterError(f"unknown pair kind {kind!r}")
    if depth < 1:
        raise ParameterError(f"pair depth must be >= 1, got {depth}")
    gen = _KINDS[kind]
    root = root if root is not None else unit_root(dim)
    out = []
    for i in range(count):
        f = gen(seed + 2 * i, depth, root)
        g = gen(seed + 2 * i + 1, depth, root)
        out.append((f"{kind}-{i}", f, g))
    return out


# --- ratio harness --------------------------------------------------------------

@dataclass(frozen=True)
class RatioRecord:
    theorem: str
    pair_id: str
    level: int
    lhs: float
    rhs: float

    @property
    def ratio(self) -> float:
        if self.rhs == 0.0:
            return 0.0
        return self.lhs / self.rhs

    def row(self) -> dict:
        """The CSV/JSON row of the record: its fields plus the ratio."""
        return {**vars(self), "ratio": self.ratio}


@dataclass
class HarnessResult:
    theorem: str
    records: list
    max_ratio_by_level: dict

    @property
    def stable(self) -> bool:
        levels = sorted(self.max_ratio_by_level)
        pairs = zip(levels, levels[1:])
        return all(self.max_ratio_by_level[b]
                   <= GROWTH_LIMIT * self.max_ratio_by_level[a]
                   for a, b in pairs)


def _pair_stacks(pairs, level: int):
    """The pairs refined onto the grid of ``level``: (grid, f stack, g stack, own).

    The stacks have shape ``(k, *cells)``, one item per pair, and ``own`` the
    unrefined ones; ``grid`` is a grid function of the level that carries
    the first f.  Pairs that do not share one grid are refused.
    """
    base = pairs[0][1]
    if not all(base.same_grid(h) for _, f, g in pairs for h in (f, g)):
        raise ParameterError("harness pairs must share one grid")
    if level < base.depth:
        raise ParameterError("refinement level below the pair's base depth")
    own = tuple(np.stack([pair[i].values for pair in pairs]) for i in (1, 2))
    fv, gv = (spread(v, level - base.depth, base.dim) for v in own)
    return GridFunction(base.root, fv[0]), fv, gv, own


def _ratio_core(theorem: str, levels, pairs_at, hook) -> HarnessResult:
    """The one loop behind every ratio harness: worst LHS/RHS per level.

    ``pairs_at(level)`` gives the level's (name, f, g) pairs on one grid;
    they are refined here onto the level's grid as stacks, and ``hook(grid,
    family, fv, gv, own)`` returns the level's (lhs, rhs) arrays, one item per
    pair, with ``family`` the level's dyadic family and ``own`` the unrefined
    stacks that ``_b_values`` reads.  A non-finite
    side or ratio, or a zero right side with nonzero left side, aborts naming
    the first such pair; the latter cannot occur for positive weights.
    """
    records = []
    for level in levels:
        pairs = pairs_at(level)
        grid, fv, gv, own = _pair_stacks(pairs, level)
        lhs, rhs = hook(grid, dyadic_family(grid.root, grid.cell_level), fv, gv, own)
        for (name, _, _), left, right in zip(pairs, lhs.tolist(), rhs.tolist()):
            if right == 0.0 and left > 0.0:
                raise NumericalError(
                    f"zero right side with nonzero left side for pair {name}")
            rec = RatioRecord(theorem, name, level, left, right)
            finite([left, right, rec.ratio], f"ratio or its sides for pair {name}")
            records.append(rec)
    by_level = {}
    for rec in records:
        by_level[rec.level] = max(by_level.get(rec.level, 0.0), rec.ratio)
    return HarnessResult(theorem, records, by_level)


def ratio_harness(theorem: str, profile: ExponentProfile | CharParams, pairs, levels,
                  ws: WeightSystem | None = None) -> HarnessResult:
    """LHS/RHS ratios for one theorem over pairs and refinement levels.

    ``pairs`` holds (name, f, g) on one grid at a base depth; each level
    re-samples the same step functions on the finer grid (exactly), so
    growth in the worst ratio would witness unboundedness.  two-weight,
    one-weight and olsen take a ``CharParams`` profile and need ``ws``.

    The unweighted right sides are Morrey norms of f and g, computed once per
    pair on the base-depth family.  A refined step function is constant on
    every cube finer than its base cells, and such a cube's value
    |Q|**(1/p) |c| is below its parent's, so the norm over any level's
    family equals the norm over the base family.  The weighted right sides
    are computed once too, on the grid of the deeper of pairs and weights;
    the characteristic also when E = ``pr.pair_exponent`` >= 0, as a pair
    finer than the weight cells has no larger value, else (s >= 1) per
    level.  The weights must sit on the pairs' root, no finer than any level.
    """
    if theorem in ("two-weight", "one-weight"):
        profile.check(theorem)
    else:
        refuse(f"hypotheses of {theorem} violated", relations.violations(profile, theorem)
               if theorem in THEOREMS else [f"unknown theorem id {theorem!r}"])
    if ws is None and theorem in ("two-weight", "one-weight", "olsen"):
        raise ParameterError(f"{theorem} harness needs a weight system")
    if not pairs:
        raise ParameterError("ratio harness needs at least one pair")
    pr = profile
    base, f0, g0, _ = _pair_stacks(pairs, pairs[0][1].depth)
    relations.require_dim(pr, base.dim)

    def base_norms(values, p, q):
        return _morrey_sup(base, dyadic_family(base.root, base.cell_level), p, (values, q))[0]

    if theorem in ("bilinear-ratio", "bilinear-sum", "bilinear-critical"):
        s, t = (pr.p2, pr.q2) if theorem == "bilinear-critical" else (pr.s, pr.t)
        rhs = base_norms(f0, pr.p1, pr.q1) * base_norms(g0, pr.p2, pr.q2)

        def hook(grid, fam, fv, gv, own):
            return _morrey_sup(grid, fam, s, (_b_values(grid, *own, pr.alpha), t))[0], rhs
    elif theorem in ("linear-adams", "product-embedding"):
        rhs = base_norms(f0, pr.p1, pr.q1)
        if theorem == "product-embedding":
            rhs = base_norms(g0, pr.p2, pr.q2) * rhs

        def hook(grid, fam, fv, gv, _):
            lhs = _i_values(grid, fv, pr.alpha)
            if theorem == "product-embedding":
                lhs = gv * lhs
            return _morrey_sup(grid, fam, pr.s, (lhs, pr.t))[0], rhs
    else:
        if ws.v.root != base.root or any(level < ws.v.depth for level in levels):
            raise ParameterError(f"weights on root {ws.v.root} at depth {ws.v.depth} do not fit "
                                 f"pairs on root {base.root} at levels {levels}: weights must "
                                 f"sit on the pairs' root, no finer than the first level")

        def system(depth):
            return WeightSystem(*(x.refine(depth - x.depth) for x in (ws.v, ws.w1, ws.w2)))
        grid, fv, gv, _ = _pair_stacks(pairs, max(base.depth, ws.v.depth))
        fam, w = dyadic_family(grid.root, grid.cell_level), system(grid.depth)
        char = {"two-weight": char_two_weight, "one-weight": char_one_weight}.get(theorem)
        if char is None:  # olsen
            scale = _morrey_sup(grid, fam, pr.r, (w.v.values, pr.t / (1.0 - pr.t)))[0]
        else:  # a one-item stack: its value, no attaining pair
            fv, gv = fv * w.w1.values, gv * w.w2.values
            scale = char([w], pr, fam) if pr.pair_exponent >= 0.0 else None
        rhs = _morrey_sup(grid, fam, pr.p, (fv, pr.q1), (gv, pr.q2))[0]

        def hook(grid, fam, fv, gv, own):
            lhs = _b_values(grid, *own, pr.alpha) * spread(ws.v.values, grid.depth - ws.v.depth)
            return (_morrey_sup(grid, fam, pr.s, (lhs, pr.t))[0],
                    (char([system(grid.depth)], pr, fam) if scale is None else scale) * rhs)
    return _ratio_core(theorem, levels, lambda level: pairs, hook)


# --- sharpness ------------------------------------------------------------------

@dataclass(frozen=True)
class SharpnessConfig:
    """Lattice-of-clusters construction on the unit cube.

    delta runs over 2**-m for m in delta_exps; the cluster count per axis is
    N = floor(delta**(q1/p1 - 1)); grids use depth m + ``DEPTH_EXTRA`` so
    that the cluster triples are grid-aligned.  The target norm uses
    exponents (s, t) with 1/s = 1/p1 + 1/p2 - alpha/n.
    """

    n: int
    alpha: float
    p1: float
    q1: float
    p2: float
    q2: float
    t: float
    delta_exps: tuple[int, ...] = (4, 5, 6, 7, 8)

    @property
    def s(self) -> float:
        return recip(1.0 / self.p1 + 1.0 / self.p2 - self.alpha / self.n)


@dataclass(frozen=True)
class SharpnessPairMeta:
    delta: float
    inner_boxes: tuple   # cell boxes of the inner cubes Q_j


def build_sharpness_pair(cfg: SharpnessConfig, m: int):
    """Step pair supported on the union of cluster triples at delta = 2**-m.

    Cluster centers sit on the open-unit-cube lattice (1/N) Z^n and are
    snapped to the evaluation grid (a shift of at most half a cell) so every
    triple is grid-aligned even when N is not a power of two.
    """
    refuse("invalid sharpness configuration", relations.violations(cfg, "sharpness"))
    delta = 2.0 ** (-m)
    depth = m + DEPTH_EXTRA
    big_n = int(math.floor(delta ** (cfg.q1 / cfg.p1 - 1.0) + 1e-12))
    if big_n < 2:
        raise NumericalError(f"cluster count N = {big_n} leaves no interior lattice")
    root = unit_root(cfg.n)
    grid_m = 2 ** depth
    h = 1.0 / grid_m
    half_triple = int(round(1.5 * delta / h))
    half_inner = int(round(0.5 * delta / h))
    support = np.zeros((grid_m,) * cfg.n, dtype=bool)
    inner_boxes = []
    for j in range(1, big_n):
        center_cells = int(round(j / big_n * grid_m))
        lo, hi = center_cells - half_triple, center_cells + half_triple
        if lo < 0 or hi > grid_m:
            raise NumericalError("cluster triple leaves the unit root")
        support[lo:hi] = True
        inner_boxes.append((center_cells - half_inner, center_cells + half_inner))
    f, g = (GridFunction(root, np.where(support, delta ** (-cfg.n / p), 0.0), "nonneg")
            for p in (cfg.p1, cfg.p2))
    return f, g, SharpnessPairMeta(delta, tuple(inner_boxes))


@dataclass
class SharpnessRow:
    m: int
    delta: float
    min_pointwise: float
    floor: float            # delta**(-n/s)
    floor_ok: bool
    norm_f: float
    bound_f: float          # 3**(n/p1)
    norm_g: float
    bound_g: float
    norm_b: float


@dataclass
class SharpnessResult:
    config: SharpnessConfig
    rows: list
    slope: float
    slope_bound: float      # n (q1/p1 - t/s)/t; blow-up branch requires <=
    boundary: bool          # t/s == q1/p1: slope should vanish instead

    def norm_bounds_hold(self) -> bool:
        return all(r.norm_f <= r.bound_f * (1 + 1e-12)
                   and r.norm_g <= r.bound_g * (1 + 1e-12) for r in self.rows)

    def floors_hold(self) -> bool:
        return all(r.floor_ok for r in self.rows)

    def table(self) -> list[dict]:
        """One CSV/JSON row per delta, with the slope fitted to the rows so far."""
        return [{**vars(r), "norm": r.norm_b,
                 "slope_so_far": _loglog_slope(self.rows[:i + 1]) if i else 0.0}
                for i, r in enumerate(self.rows)]


def _loglog_slope(rows) -> float:
    """Least-squares slope of log norm_b against log delta."""
    return float(np.polyfit(np.log([r.delta for r in rows]),
                            np.log([r.norm_b for r in rows]), 1)[0])


def run_sharpness(cfg: SharpnessConfig, shared: dict | None = None) -> SharpnessResult:
    """One row per delta; ``shared`` caches per delta all that does not read t."""
    refuse("invalid sharpness configuration", relations.violations(cfg, "sharpness"))
    shared = {} if shared is None else shared

    def run_one(m):
        key = replace(cfg, t=0.0, delta_exps=(m,))
        if key not in shared:
            f, g, meta = build_sharpness_pair(cfg, m)
            B = b_alpha(f, g, cfg.alpha).fn
            min_pt = min(float(B.values[lo:hi].min()) for lo, hi in meta.inner_boxes)
            floor = meta.delta ** (-cfg.n / cfg.s)
            fam = aligned_family(f)
            norm_f = morrey_norm(f, cfg.p1, cfg.q1, fam).value
            norm_g = (norm_f if (cfg.p2, cfg.q2) == (cfg.p1, cfg.q1)  # then g is f
                      else morrey_norm(g, cfg.p2, cfg.q2, fam).value)
            shared[key] = B, fam, (
                m, meta.delta, min_pt, floor, min_pt >= SHARPNESS_FLOOR_TOL * floor,
                norm_f, 3.0 ** (cfg.n / cfg.p1), norm_g, 3.0 ** (cfg.n / cfg.p2))
        B, fam, t_free = shared[key]
        return SharpnessRow(*t_free, morrey_norm(B, cfg.s, cfg.t, fam).value)

    rows = [run_one(m) for m in cfg.delta_exps]
    bound = cfg.n * (cfg.q1 / cfg.p1 - cfg.t / cfg.s) / cfg.t
    boundary = close(cfg.t / cfg.s, cfg.q1 / cfg.p1)
    return SharpnessResult(cfg, rows, _loglog_slope(rows), bound, boundary)


# --- Stein-Weiss dichotomy ------------------------------------------------------

@dataclass(frozen=True)
class SteinWeissParams:
    """Power-weight setting for the kernel |y|**-alpha (order n - alpha)."""

    n: int
    alpha: float
    q1: float
    q2: float
    p1: float
    p2: float
    r: float
    a: float
    beta: float
    gamma1: float
    gamma2: float

    @property
    def p(self) -> float:
        return recip(1.0 / self.p1 + 1.0 / self.p2)

    @property
    def q(self) -> float:
        return recip(1.0 / self.q1 + 1.0 / self.q2)

    @property
    def s(self) -> float:
        return recip(1.0 / self.p + recip(self.r) - (self.n - self.alpha) / self.n)

    @property
    def t(self) -> float:
        return recip(1.0 / self.q + recip(self.r) - (self.n - self.alpha) / self.n)

    @property
    def sigma(self) -> float:
        return self.beta + self.gamma1 + self.gamma2


@dataclass
class SteinWeissVerdict:
    verdict: str                 # FINITE | DIVERGENT | INCONCLUSIVE
    char_by_level: dict
    growth: list


def _power_char(sw: SteinWeissParams, root: DyadicCube, depth: int) -> float:
    """Single-cube sup of the power-weight characteristic of the proof, on
    exact cell averages of the powered weights (not ``char_remark``)."""
    e_v = sw.a * sw.s / (1.0 - sw.s)
    d1, d2 = conjugate(sw.q1 / sw.a), conjugate(sw.q2 / sw.a)
    pv = power_weight(-sw.beta * e_v, (0.0,) * sw.n, root, depth)
    p1 = power_weight(-sw.gamma1 * d1, (0.0,) * sw.n, root, depth)
    p2 = power_weight(-sw.gamma2 * d2, (0.0,) * sw.n, root, depth)
    value = lq_means(recip(sw.r), (pv.values, 1.0 / e_v), (p1.values, 1.0 / d1),
                     (p2.values, 1.0 / d2))
    return float(family_max(pv, dyadic_family(root, root.level - depth), value)[0])


def stein_weiss_check(sw: SteinWeissParams, k_levels=(0, 1, 2, 3, 4)) -> SteinWeissVerdict:
    """Dichotomy probe: the proof characteristic over growing nested roots.

    The root of level k has depth 5 + k.  FINITE when the value varies by
    less than ten percent across the root levels, DIVERGENT when it grows by
    more than ten percent at every step.  The structural hypotheses must
    hold; the weight conditions themselves (balance and nonnegative exponent
    sum) are exactly what is being probed.
    """
    refuse("hypotheses violated", relations.violations(sw, "stein-weiss"))
    if len(set(k_levels)) < 2:
        raise ParameterError("a dichotomy needs at least two distinct root levels")
    chars = {}
    for k in k_levels:
        root = DyadicCube(k, (0,) * sw.n)
        chars[k] = _power_char(sw, root, 5 + k)
    levels = sorted(chars)
    growth = [chars[b] / chars[a] for a, b in zip(levels, levels[1:])]
    spread = max(chars.values()) / min(chars.values())
    if spread < 1.10:
        verdict = "FINITE"
    elif all(gr > 1.10 for gr in growth):
        verdict = "DIVERGENT"
    else:
        verdict = "INCONCLUSIVE"
    return SteinWeissVerdict(verdict, chars, growth)


def stein_weiss_harness(sw: SteinWeissParams, seed: int = 11) -> HarnessResult:
    """Weighted ratio run for the kernel of order n - alpha on four seeded
    indicator pairs at levels 4..6; the structural hypotheses must hold."""
    refuse("hypotheses violated", relations.violations(sw, "stein-weiss"))

    def hook(grid, fam, fv, gv, own):
        w = power_system(sw.beta, sw.gamma1, sw.gamma2, (0.0,) * sw.n, fam.root, grid.depth)
        weighted = _b_values(grid, *own, sw.n - sw.alpha) * w.v.values
        fw, gw = fv * w.w1.values, gv * w.w2.values
        return (_morrey_sup(grid, fam, sw.s, (weighted, sw.t))[0],
                _morrey_sup(grid, fam, sw.p1, (fw, sw.q1))[0]
                * _morrey_sup(grid, fam, sw.p2, (gw, sw.q2))[0])
    return _ratio_core("stein-weiss", (4, 5, 6),
                       lambda level: make_pairs("indicator", 4, seed, level, sw.n), hook)


# --- necessity ------------------------------------------------------------------

@dataclass
class NecessityReport:
    char_value: float
    op_constant: float
    ratio: float              # char / operator constant
    exact_floor_ok: bool      # unweighted indicator floor holds exactly

    def row(self, system: int) -> dict:
        """The CSV/JSON row of the report for weight system number ``system``."""
        return dict(zip(NECESSITY_COLUMNS, (system, self.char_value, self.op_constant,
                                            self.ratio, int(self.exact_floor_ok))))


NECESSITY_COLUMNS = ("system", "char", "op_constant", "ratio", "exact_floor")


def necessity_check(systems, cp: CharParams, family: CubeFamily, seed: int = 5,
                    pairs=None) -> list:
    """Testing-condition probe for the truncated bilinear maximal operator,
    one report per weight system.  The systems share one grid; system k
    takes the pairs of ``make_pairs("step", 4, seed + k)`` unless ``pairs`` is given.

    (1) On the inputs f = g = chi_Q with v = 1, the cube-sup maximal variant
        gives (avg_Q M(f,g)**t)**(1/t) >= |Q|**(alpha/n) with constant one;
        this floor is checked exactly on every probe cube Q.
    (2) The single-cube testing constant is divided by the empirical
        operator constant: the worst ratio of ||M(f,g) v||_{s,t} to the
        (p, q1, q2) pair supremum of (|f| w1, |g| w2) over the pairs and the
        extremal probe pairs f = chi_Q w1**-q1', g = chi_Q w2**-q2'.
    The weight-free probes and floor are computed once; all pairs and probes are one stack.
    """
    grid, *vw = _weight_stack(systems, cp, "testing")
    chars = char_testing(systems, cp, family).tolist()
    n = grid.dim
    lowest = max(family.min_level, grid.cell_level + 1)
    probes = (enumerate_subcubes(family.root, lowest)[:24]
              if lowest <= family.root.level else [])
    inside = np.zeros((len(probes),) + grid.values.shape, dtype=bool)  # one item per probe cube
    for k, cube in enumerate(probes):
        inside[(k,) + cube_box(grid, cube).slices()] = True
    # exact unweighted floor: (avg_Q m**t)**(1/t) on each probe's own cube
    axes = tuple(range(1, n + 1))
    chi = inside.astype(float)
    m_ind = _vector_maximal(grid, chi, chi, cp.alpha, 1.0, 1.0, family)
    local = (((np.where(inside, m_ind, 0.0) ** cp.t).sum(axis=axes) / inside.sum(axis=axes))
             ** (1.0 / cp.t))
    scale = np.array([cube.volume for cube in probes]) ** (cp.alpha / n)
    exact_ok = bool(np.all(local >= scale * (1.0 - 1e-12)))

    # the operator constants over the given pairs and the extremal probe pairs
    if pairs is None:  # each step once: system k's pairs are steps k .. k + 7
        steps = [random_step(seed + j, grid.depth, unit_root(n)) for j in range(len(systems) + 7)]
        given = [[(None, *steps[k + 2 * i:k + 2 * i + 2]) for i in range(4)]
                 for k in range(len(systems))]
    else:
        given = [list(pairs)] * len(systems)
    if not all(grid.same_grid(h) for items in given for _, f, g in items for h in (f, g)):
        raise ParameterError("necessity pairs must live on the weight grid")
    v, w1, w2 = (x[:, None] for x in vw)
    # per system its pairs, then its probe inputs chi_Q w1**-q1' and chi_Q w2**-q2'
    fv, gv = (np.concatenate([np.reshape([[pair[i].values for pair in items] for items in given],
                                         w.shape[:1] + (-1,) + grid.values.shape),
                              np.where(inside, w ** -conjugate(q), 0.0)], axis=1)
              for i, w, q in ((1, w1, cp.q1), (2, w2, cp.q2)))
    mb = _bilinear_maximal(grid, fv, gv, cp.alpha, family)
    lhs = _morrey_sup(grid, family, cp.s, (mb * v, cp.t))[0]
    rhs = _morrey_sup(grid, family, cp.p, (np.abs(fv) * w1, cp.q1), (np.abs(gv) * w2, cp.q2))[0]
    ratios = np.divide(lhs, rhs, out=np.zeros_like(lhs), where=rhs > 0)
    return [NecessityReport(char, op, char / op if op > 0 else INF, exact_ok)
            for char, op in zip(chars, np.fmax.reduce(ratios, axis=-1, initial=0.0).tolist())]


# --- Fefferman-Stein dual ---------------------------------------------------------

@dataclass(frozen=True)
class FsDualParams:
    cp: CharParams           # the s < 1 two-weight parameter set
    r1: float
    r2: float
    s1: float
    s2: float


@dataclass
class FsDualReport:
    split_ok: bool            # per-cube product split holds
    worst_split_excess: float
    harness: HarnessResult


def fs_dual_check(w1: GridFunction, w2: GridFunction, params: FsDualParams,
                  levels=(4, 5), seed: int = 7) -> FsDualReport:
    """Majorant-weight route: split check plus a stability harness.

    Per cube, |Q|**(1/r) (avg (w1 w2)**(as/(1-s)))**((1-s)/(as)) must not
    exceed the product of the two majorant factors; then, on four seeded step
    pairs, B(f,g) w1 w2 is normalized by the pair supremum built from the
    majorants W_i, on weights of one grid no finer than the first level; it is
    taken once, on the weights' grid, as no finer cube has a larger value.
    """
    relations.require_dim(params.cp, w1.dim)
    refuse("relations violated",
           relations.violations(params.cp, "s<1") + relations.violations(params, "fs-dual"))
    if not w1.same_grid(w2) or any(level < w1.depth for level in levels):
        raise ParameterError(f"weights w1 on root {w1.root} at depth {w1.depth} and w2 on root "
                             f"{w2.root} at depth {w2.depth} do not fit levels {tuple(levels)}: "
                             f"weights must share one grid, no finer than the first level")
    cp = params.cp
    e = cp.a * cp.s / (1.0 - cp.s)
    e1, e2 = (s / (1.0 - s) for s in (params.s1, params.s2))
    weights = w1.values * w2.values
    lhs = lq_means(recip(cp.r), (weights ** e, 1.0 / e))
    f1 = lq_means(recip(params.r1), (w1.values ** e1, 1.0 / e1))
    f2 = lq_means(recip(params.r2), (w2.values ** e2, 1.0 / e2))
    fam = dyadic_family(w1.root, w1.cell_level)
    worst = float(family_max(w1, fam, lambda shift, volume: (
        lhs(shift, volume) / (f1(shift, volume) * f2(shift, volume))))[0])

    pairs = make_pairs("step", 4, seed, w1.depth, w1.dim, w1.root)
    _, f0, g0, _ = _pair_stacks(pairs, w1.depth)
    maj1, maj2 = (fs_majorant(w, r, s, fam).values
                  for w, r, s in ((w1, params.r1, params.s1), (w2, params.r2, params.s2)))
    rhs = _morrey_sup(w1, fam, cp.p, (f0 * maj1, cp.q1), (g0 * maj2, cp.q2))[0]

    def hook(grid, fam, fv, gv, own):
        weighted = _b_values(grid, *own, cp.alpha) * spread(weights, grid.depth - w1.depth)
        return _morrey_sup(grid, fam, cp.s, (weighted, cp.t))[0], rhs
    harness = _ratio_core("fs-dual", levels, lambda level: pairs, hook)
    return FsDualReport(worst <= 1.0 + 1e-12, worst, harness)
