"""Command-line entry point wiring grids, operators, weights, decompositions,
and experiments to files and reports.

Subcommands: norm, op, char, cz, experiment, selftest.  ``COMMANDS`` names
the flags each run reads, and any other flag given exits 2.  Exponents may be
written as decimals or exact rationals ("3/4", "inf"), so relations such as
t/s = q/p validate exactly.  Exit codes: 0 success, 2 invalid parameters
(the violated relation is named), 3 numerical failure (a computed value
that is not finite, an unresolvable delta).

Every CSV row can be mirrored as a JSON-lines stream with --json.  All
randomness flows from one 64-bit seed through a counter-based generator, so
identical configurations produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from .decomposition import CZ_COLUMNS, choose_a, cz_decompose, verify_halving
from .experiments import (NECESSITY_COLUMNS, THEOREMS, ExponentProfile,
                          FsDualParams, SharpnessConfig, SteinWeissParams,
                          fs_dual_check, make_pairs, necessity_check,
                          random_weights, ratio_harness, run_sharpness,
                          stein_weiss_check)
from .grid import DyadicCube, GridFunction, read_mgf, unit_root, write_mgf
from .norms import (aligned_family, dyadic_family, lebesgue_norm, morrey_norm,
                    weak_quasinorm)
from .operators import (b_alpha, b_alpha_dyadic, b_truncated, i_alpha,
                        m_alpha_bilinear, m_alpha_vector, m_tilde, m_triple_dyadic)
from .util import (INF, NumericalError, ParameterError, by_level, csv_text, fmt,
                   make_rng)
from .weights import (CharParams, WeightSystem, ap_characteristic,
                      char_one_weight, char_remark, char_testing,
                      char_two_weight, fs_majorant, power_system,
                      power_weight)


def parse_number(text: str) -> float:
    """Decimal or exact rational ('3/4'); 'inf' for unbounded exponents."""
    text = text.strip()
    if text.lower() in ("inf", "infinity"):
        return INF
    try:
        value = float(Fraction(text)) if "/" in text else float(text)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ParameterError(f"cannot parse number {text!r}") from exc
    if not value > -INF:  # nan or -inf
        raise ParameterError(f"cannot parse number {text!r}")
    return value


def parse_positive(text: str) -> float:
    """parse_number of an exponent that must be positive ('inf' included)."""
    value = parse_number(text)
    if not value > 0:
        raise ParameterError(f"exponent {text!r} is not positive")
    return value


def parse_range(text: str) -> tuple[int, ...]:
    """'4..8' or '4,5,7' into a nonempty integer tuple."""
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = text.split("..")
            out = tuple(range(int(lo), int(hi) + 1))
        else:
            out = tuple(int(tok) for tok in text.split(",") if tok)
    except ValueError as exc:
        raise ParameterError(f"cannot parse range {text!r}") from exc
    if not out:
        raise ParameterError(f"empty range {text!r}")
    return out


def parse_pairs(text: str) -> list[tuple[str, int]]:
    """'step:6,indicator:2' into (kind, count) tuples; a bare kind counts once."""
    specs = [tok.partition(":")[::2] for tok in text.split(",")]
    if not all(cnt == "" or cnt.isdecimal() and int(cnt) > 0 for _, cnt in specs):
        raise ParameterError(f"pair counts must be positive integers in {text!r}")
    return [(kind, int(cnt or 1)) for kind, cnt in specs]


# flag groups that a handler requires and its leaf in COMMANDS reads
CHAR = "alpha q1 q2 p s t r a"
WEIGHTS = "v w1 w2 beta gamma1 gamma2 center rootlevel rootcoords depth"
SHARPNESS = "alpha p1 q1 p2 q2 t"
STEIN_WEISS = "alpha q1 q2 p1 p2 r a beta gamma1 gamma2"
FS_DUAL = "r1 r2 s1 s2"


def _require(ns, *names) -> dict:
    """The values of flags ``names``; refuses a command that misses any
    (an empty path counts as missing)."""
    missing = [f"--{name}" for name in names if getattr(ns, name) in (None, "")]
    if missing:
        raise ParameterError("missing " + " ".join(missing))
    return {name: getattr(ns, name) for name in names}


def write_csv(path, header, rows, mirror_json=False):
    """Rows as shortest-round-trip decimals; optional JSON-lines mirror."""
    with open(path, "w") as fh:
        fh.write(csv_text(header, rows))
    if mirror_json:
        for row in rows:
            print(json.dumps({k: row[k] for k in header}))


def _coords(ns, name: str, parse, dim: int) -> tuple:
    """The comma-separated coordinates of flag ``name``, by default the origin
    of ``dim`` axes (--dim's, or an input file's); refuses malformed ones."""
    text = ",".join("0" * dim) if getattr(ns, name) is None else str(getattr(ns, name))
    try:
        return tuple(parse(c) for c in text.split(","))
    except ValueError as exc:  # ParameterError included
        raise ParameterError(f"--{name}: cannot parse coordinates {text!r}") from exc


def _root_from(ns, grid=None) -> DyadicCube:
    """The --rootlevel/--rootcoords cube, or ``grid``'s root without either."""
    if ns.rootlevel is None and ns.rootcoords is not None:
        raise ParameterError("--rootcoords needs --rootlevel")
    if ns.rootlevel is None:
        return grid.root
    return DyadicCube(ns.rootlevel, _coords(ns, "rootcoords", int, (grid or ns).dim))


def _min_level(grid: GridFunction, ns) -> int:
    """--min-level (default: the grid's cells); refused off the grid's levels."""
    if ns.min_level is None:
        return grid.cell_level
    if not grid.cell_level <= ns.min_level <= grid.root.level:
        raise ParameterError(f"--min-level {ns.min_level} must lie between the grid's "
                             f"cell level {grid.cell_level} and root level {grid.root.level}")
    return ns.min_level


def _dyadic_for(grid: GridFunction, ns):
    """Dyadic subcubes of the grid's root down to --min-level (default: cells)."""
    return dyadic_family(grid.root, _min_level(grid, ns))


def _describe_cube(entry) -> str:
    if isinstance(entry, DyadicCube):
        lo = ",".join(fmt(x) for x in entry.lower())
        return f"dyadic level={entry.level} coords={entry.coords} corner=[{lo}] side={fmt(entry.side)}"
    return f"box cells {entry.lo}..{entry.hi}"


def _show(ns, line: str, payload: dict) -> None:
    """Print a report line, and its JSON payload under --json."""
    print(line)
    if ns.json:
        print(json.dumps(payload))


# --- leaf handlers ----------------------------------------------------------------

def _norm_morrey(ns) -> None:
    f = read_mgf(ns.infile)
    _require(ns, "p", "q")
    fam = aligned_family(f) if ns.family == "all" else _dyadic_for(f, ns)
    rep = morrey_norm(f, ns.p, ns.q, fam)
    where = _describe_cube(rep.attaining)
    _show(ns, f"morrey p={fmt(ns.p)} q={fmt(ns.q)} family={ns.family} "
              f"value={fmt(rep.value)} attained at {where}",
          {"kind": "morrey", "p": ns.p, "q": ns.q, "value": rep.value, "attaining": where})


def _norm_of(norm, exponent: str):
    """The leaf of ``norm --kind lebesgue`` or ``weak``: one exponent, one value."""
    def run(ns) -> None:
        f = read_mgf(ns.infile)
        x = _require(ns, exponent)[exponent]
        val = norm(f, x)
        _show(ns, f"{ns.kind} {exponent}={fmt(x)} value={fmt(val)}",
              {"kind": ns.kind, exponent: x, "value": val})
    return run


def _op(ns, needs, run) -> None:
    """Apply ``run(ns, f, g)`` to --f (and --g when ``needs`` it); write --out."""
    f = read_mgf(ns.f)
    _require(ns, *needs)
    g = read_mgf(ns.g) if "g" in needs else None
    out = run(ns, f, g)
    write_mgf(ns.out, out.fn)
    print(f"{ns.operator} -> {ns.out} (max={fmt(float(out.fn.values.max()))}, "
          f"tail_bound={fmt(out.tail_bound)})")


def _load_system(ns) -> WeightSystem:
    if ns.v or ns.w1 or ns.w2:  # a partial file set is refused, not dropped
        return WeightSystem(*map(read_mgf, _require(ns, "v", "w1", "w2").values()))
    if ns.beta is not None:
        _require(ns, "gamma1", "gamma2")
        return power_system(ns.beta, ns.gamma1, ns.gamma2,
                            _coords(ns, "center", parse_number, ns.dim), _root_from(ns), ns.depth)
    raise ParameterError("weights needed: --v/--w1/--w2 files or synthetic --beta/--gamma1/--gamma2")


def _char_params(ns) -> CharParams:
    """Parameters of a char kind or weighted theorem."""
    return CharParams(n=ns.dim, **_require(ns, *CHAR.split()))


def _char_pairs(kind, ns) -> None:
    """A characteristic ``kind`` scanned over pairs of cubes of a weight system."""
    cp = _char_params(ns)
    ws = _load_system(ns)
    rep = kind(ws, cp, _dyadic_for(ws.v, ns))
    inner, outer = (_describe_cube(c) for c in rep.attaining)
    _show(ns, f"{ns.kind} value={fmt(rep.value)} pairs={rep.pairs_scanned} "
              f"inner: {inner} outer: {outer}",
          {"kind": ns.kind, "value": rep.value, "pairs": rep.pairs_scanned,
           "inner": inner, "outer": outer})


def _char_ap(ns) -> None:
    w = read_mgf(_require(ns, "v", "p")["v"])
    rep = ap_characteristic(w, ns.p, _dyadic_for(w, ns))
    _show(ns, f"ap p={fmt(ns.p)} value={fmt(rep.value)} at {_describe_cube(rep.attaining[0])}",
          {"kind": "ap", "p": ns.p, "value": rep.value})


def _char_fs_majorant(ns) -> None:
    w = read_mgf(_require(ns, "w1", "r", "s", "out")["w1"])
    out = fs_majorant(w, ns.r, ns.s, _dyadic_for(w, ns))
    write_mgf(ns.out, out)
    print(f"fs-majorant -> {ns.out} (max={fmt(float(out.values.max()))})")


def _cmd_cz(ns) -> None:
    f = read_mgf(ns.f)
    g = read_mgf(ns.g)
    q0 = _root_from(ns, f)
    sf = cz_decompose(f, g, q0, ns.a) if ns.a is not None else choose_a(f, g, q0)
    halving = verify_halving(sf)
    write_csv(ns.out, CZ_COLUMNS, sf.rows(f.cell_volume), ns.json)
    status = "certified" if halving.ok else f"violated (worst {fmt(halving.worst_ratio)})"
    print(f"cz a={fmt(sf.a)} generations={sf.kmax} cubes={sum(len(g) for g in sf.generations)} "
          f"halving {status} -> {ns.out}")


def _exp_sharpness(ns) -> None:
    cfg = SharpnessConfig(n=ns.dim, delta_exps=ns.deltas, **_require(ns, *SHARPNESS.split()))
    res = run_sharpness(cfg)
    write_csv(ns.out, ["delta", "min_pointwise", "floor", "norm", "slope_so_far",
                       "norm_f", "norm_g"], res.table(), ns.json)
    branch = "boundary" if res.boundary else "blow-up"
    print(f"sharpness ({branch}) slope={fmt(res.slope)} bound={fmt(res.slope_bound)} "
          f"floors={'ok' if res.floors_hold() else 'FAIL'} -> {ns.out}")


def _exp_ratio(ns) -> None:
    weighted = ns.theorem in ("two-weight", "one-weight", "olsen")
    profile = (_char_params(ns) if weighted else
               ExponentProfile(n=ns.dim, **_require(ns, *THEOREMS.get(ns.theorem, ("alpha",)))))
    ws = _load_system(ns) if weighted else None
    pairs = [pair for kind, count in ns.pairs
             for pair in make_pairs(kind, count, ns.seed, ns.base_depth, ns.dim)]
    res = ratio_harness(ns.theorem, profile, pairs, ns.levels, ws=ws)
    write_csv(ns.out, ["theorem", "params_id", "pair_id", "level", "lhs", "rhs", "ratio"],
              [{**r.row(), "params_id": ns.theorem} for r in res.records], ns.json)
    print(f"ratio {ns.theorem} max_by_level={by_level(res.max_ratio_by_level)} "
          f"stable={'yes' if res.stable else 'NO'} -> {ns.out}")


def _exp_stein_weiss(ns) -> None:
    sw = SteinWeissParams(n=ns.dim, **_require(ns, *STEIN_WEISS.split()))
    verdict = stein_weiss_check(sw, k_levels=ns.k_range)
    lines = [f"{'PASS' if verdict.verdict != 'INCONCLUSIVE' else 'FAIL'} "
             f"verdict={verdict.verdict}"]
    lines += [f"INFO level={k} characteristic={fmt(v)}"
              for k, v in sorted(verdict.char_by_level.items())]
    with open(ns.out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"stein-weiss verdict={verdict.verdict} -> {ns.out}")


def _exp_fs_dual(ns) -> None:
    params = FsDualParams(_char_params(ns), **_require(ns, *FS_DUAL.split()))
    if ns.w1 or ns.w2:
        w1, w2 = map(read_mgf, _require(ns, "w1", "w2").values())
    else:
        root, center = _root_from(ns), _coords(ns, "center", parse_number, ns.dim)
        w1 = power_weight(ns.gamma1 or 0.0, center, root, ns.depth)
        w2 = power_weight(ns.gamma2 or 0.0, center, root, ns.depth)
    rep = fs_dual_check(w1, w2, params, levels=ns.levels, seed=ns.seed)
    lines = [f"{'PASS' if rep.split_ok else 'FAIL'} split worst={fmt(rep.worst_split_excess)}",
             f"{'PASS' if rep.harness.stable else 'FAIL'} harness "
             f"max_by_level={by_level(rep.harness.max_ratio_by_level)}"]
    with open(ns.out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    ok = rep.split_ok and rep.harness.stable
    print(f"fs-dual {'PASS' if ok else 'FAIL'} -> {ns.out}")


def _exp_necessity(ns) -> None:
    cp = _char_params(ns)
    if ns.systems < 1:
        raise ParameterError("--systems must be at least 1")
    rng = make_rng(ns.seed, 701)
    root = unit_root(ns.dim)
    fam = dyadic_family(root, -ns.base_depth)
    reports = necessity_check([random_weights(rng, root, ns.base_depth)
                               for _ in range(ns.systems)], cp, fam, seed=ns.seed)
    write_csv(ns.out, NECESSITY_COLUMNS,
              [r.row(i) for i, r in enumerate(reports)], ns.json)
    ok = all(r.exact_floor_ok and np.isfinite(r.ratio) for r in reports)
    print(f"necessity C_emp={fmt(max(r.ratio for r in reports))} "
          f"{'PASS' if ok else 'FAIL'} -> {ns.out}")


def _cmd_selftest(ns) -> int:
    from .acceptance import CRITERIA, run_selftest  # only selftest needs the criteria
    unknown = [k for k in ns.criteria or () if not 1 <= k <= len(CRITERIA)]
    if unknown:
        raise ParameterError(f"--criteria: no criterion {unknown} "
                             f"(criteria are 1..{len(CRITERIA)})")
    results = run_selftest(seed=ns.seed, outdir=ns.out, criteria=ns.criteria)
    return 0 if all(r.passed for r in results) else 1


# --- the leaf table and the parser --------------------------------------------------

class Leaf(NamedTuple):
    """A handler, the flags it reads, and ``by = (flag, {value: flags})``: the
    further flags it reads for each value of ``flag``; flags space-separated."""

    run: Callable
    reads: str
    by: tuple | None = None


def _operator(needs: str, run, reads="min_level") -> Leaf:
    """An ``op`` leaf: ``run(ns, f, g)`` with the required flags ``needs``."""
    return Leaf(functools.partial(_op, needs=needs.split(), run=run), f"f out {needs} {reads}")


# command -> (help, selector, flags argparse requires, {selector value: leaf});
# a command without a selector keys its one leaf None
COMMANDS = {
    "norm": ("Lebesgue / weak / Morrey norms of an MGF file", "kind", "infile", {
        "morrey": Leaf(_norm_morrey, "infile p q family json",
                       ("family", {"dyadic": "min_level", "all": ""})),
        "lebesgue": Leaf(_norm_of(lebesgue_norm, "t"), "infile t json"),
        "weak": Leaf(_norm_of(weak_quasinorm, "p"), "infile p json"),
    }),
    "op": ("apply an operator to MGF inputs", "operator", "f out", {
        "i-alpha": _operator("alpha", lambda ns, f, g: i_alpha(f, ns.alpha), ""),
        "b-alpha": _operator("g alpha", lambda ns, f, g: b_alpha(f, g, ns.alpha), ""),
        "b-truncated": _operator("g d", lambda ns, f, g: b_truncated(f, g, ns.d), ""),
        "b-dyadic": _operator("g alpha", lambda ns, f, g: b_alpha_dyadic(
            f, g, ns.alpha, _root_from(ns, f), _min_level(f, ns)),
            "rootlevel rootcoords min_level"),
        "m-bilinear": _operator("g alpha", lambda ns, f, g: m_alpha_bilinear(
            f, g, ns.alpha, _dyadic_for(f, ns))),
        "m-vector": _operator("g alpha r1 r2", lambda ns, f, g: m_alpha_vector(
            f, g, ns.alpha, ns.r1, ns.r2, _dyadic_for(f, ns))),
        "m-tilde": _operator("g v alpha t", lambda ns, f, g: m_tilde(
            f, g, read_mgf(ns.v), ns.alpha, ns.t, _dyadic_for(f, ns))),
        "m-triple": _operator("g", lambda ns, f, g: m_triple_dyadic(f, g, _dyadic_for(f, ns))),
    }),
    "char": ("weight characteristic constants", "kind", "", {
        **{kind: Leaf(functools.partial(_char_pairs, fn), f"{CHAR} {WEIGHTS} dim min_level json")
           for kind, fn in (("two-weight", char_two_weight), ("remark", char_remark),
                            ("one-weight", char_one_weight), ("testing", char_testing))},
        "ap": Leaf(_char_ap, "v p min_level json"),
        "fs-majorant": Leaf(_char_fs_majorant, "w1 r s min_level out"),
    }),
    "cz": ("stopping-time decomposition dump", None, "f g out", {
        None: Leaf(_cmd_cz, "f g out rootlevel rootcoords a json"),
    }),
    "experiment": ("theorem-level harnesses", "what", "out", {
        "sharpness": Leaf(_exp_sharpness, f"{SHARPNESS} dim deltas out json"),
        "ratio": Leaf(_exp_ratio, "theorem dim pairs seed base_depth levels out json",
                      ("theorem", {theorem: " ".join(reads) or f"{CHAR} {WEIGHTS}"
                                   for theorem, reads in THEOREMS.items()})),
        # --seed is accepted but not yet read: stein_weiss_check draws nothing
        "stein-weiss": Leaf(_exp_stein_weiss, f"{STEIN_WEISS} dim k_range out seed"),
        "necessity": Leaf(_exp_necessity, f"{CHAR} dim systems seed base_depth out json"),
        "fs-dual": Leaf(_exp_fs_dual, f"{CHAR} {FS_DUAL} dim w1 w2 gamma1 gamma2 center "
                                      "rootlevel rootcoords depth levels seed out"),
    }),
    "selftest": ("run the acceptance suite", None, "", {
        None: Leaf(_cmd_selftest, "seed out criteria"),
    }),
}

# flag -> argparse keywords and its default; a default that differs by
# command maps each command to its value
FLAGS = {
    **dict.fromkeys("infile f g v w1 w2 out".split(), {}),
    **dict.fromkeys("alpha beta gamma1 gamma2".split(), {"type": parse_number}),
    **dict.fromkeys("p q t d r1 r2 p1 q1 p2 q2 s r a s1 s2".split(), {"type": parse_positive}),
    "json": {"action": "store_true", "default": False},
    "family": {"choices": ("dyadic", "all"), "default": "dyadic"},
    "min_level": {"type": int},
    "rootlevel": {"type": int, "default": {"op": None, "cz": None, "char": 0, "experiment": 0}},
    "rootcoords": {},  # the origin, of --dim or of the file's grid (see _coords)
    "center": {},  # the origin of --dim
    "dim": {"type": int, "choices": (1, 2), "default": 1},
    "depth": {"type": int, "default": {"char": 6, "experiment": 5}},
    "theorem": {"default": "bilinear-ratio"},
    "deltas": {"type": parse_range, "default": "4..8"},
    "levels": {"type": parse_range, "default": "4..6"},
    "k_range": {"type": parse_range, "default": "0..4"},
    "pairs": {"type": parse_pairs, "default": "step:6"},
    "base_depth": {"type": int, "default": 4},
    "systems": {"type": int, "default": 10},
    "seed": {"type": int, "default": 20240801},
    "criteria": {"type": parse_range, "help": "subset such as '1..3' or '1,7,12' (default: all)"},
}


def _option(name: str) -> str:
    return "--in" if name == "infile" else "--" + name.replace("_", "-")


@functools.cache
def _flags(command: str) -> tuple:
    """The flags of ``command``: every flag that one of its leaves may read."""
    return tuple(dict.fromkeys(" ".join(
        " ".join((leaf.reads, *(leaf.by[1].values() if leaf.by else ())))
        for leaf in COMMANDS[command][3].values()).split()))


def _default(command: str, name: str):
    """A flag's default, parsed as argparse parses a string default."""
    spec = FLAGS[name]
    value = spec.get("default")
    value = value[command] if isinstance(value, dict) else value
    return spec["type"](value) if isinstance(value, str) and "type" in spec else value


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse's refusals begin like every other exit 2
        self.print_usage(sys.stderr)
        self.exit(2, f"parameter error: {message}\n")


@functools.cache  # built on the first call, not at import; parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    """One subparser per command: its selector and the flags of its leaves,
    with no defaults, so the namespace holds only the flags given."""
    ap = _Parser(prog="morreybench", allow_abbrev=False,
                 description="dyadic-grid workbench for bilinear fractional integrals")
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (help_, selector, required, leaves) in COMMANDS.items():
        p = sub.add_parser(command, allow_abbrev=False, help=help_,
                           argument_default=argparse.SUPPRESS)
        if selector == "what":
            p.add_argument("what", choices=tuple(leaves))
        elif selector:
            p.add_argument("--" + selector, required=True, choices=tuple(leaves))
        for name in _flags(command):
            p.add_argument(_option(name), dest=name, required=name in required.split(),
                           **{k: v for k, v in FLAGS[name].items() if k != "default"})
    return ap


def _dispatch(ns) -> int:
    """Refuse every flag given on the command line that the chosen leaf does
    not read, fill in the defaults of the others, and run the leaf."""
    _, selector, _, leaves = COMMANDS[ns.command]
    value = getattr(ns, selector) if selector else None
    leaf, label = leaves[value], " ".join(filter(None, [
        ns.command, selector not in (None, "what") and "--" + selector, value]))
    given = [name for name in vars(ns) if name not in ("command", selector)]
    for name in _flags(ns.command):
        if name not in given:
            setattr(ns, name, _default(ns.command, name))
    reads = leaf.reads.split()
    if leaf.by:
        flag, further = leaf.by
        label += f" {_option(flag)} {getattr(ns, flag)}"
        # an unknown value reads all it is given: the leaf itself refuses it
        reads += further.get(getattr(ns, flag), " ".join(given)).split()
    unread = [name for name in given if name not in reads]
    if unread:
        raise ParameterError(f"{label} does not read {' '.join(map(_option, unread))} "
                             f"(it reads {' '.join(map(_option, reads))})")
    return leaf.run(ns) or 0  # a handler returns only an exit code other than 0


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        with np.errstate(all="ignore"):  # overflow is reported by exit 3, not by warnings
            return _dispatch(ns)
    except (ParameterError, OSError) as exc:  # OSError: an unreadable or unwritable path
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
