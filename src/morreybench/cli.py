"""Command-line entry point wiring grids, operators, weights, decompositions,
and experiments to files and reports.

Subcommands: norm, op, char, cz, experiment, selftest.  Exponents may be
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


def _coords(ns, name: str, parse) -> tuple:
    """The comma-separated coordinates of flag ``name``; refuses malformed ones."""
    text = str(getattr(ns, name))
    try:
        return tuple(parse(c) for c in text.split(","))
    except ValueError as exc:  # ParameterError included
        raise ParameterError(f"--{name}: cannot parse coordinates {text!r}") from exc


def _root_from(ns) -> DyadicCube:
    return DyadicCube(ns.rootlevel, _coords(ns, "rootcoords", int))


def _dyadic_for(grid: GridFunction, ns):
    """Dyadic subcubes of the grid's root down to --min-level (default: cells)."""
    if ns.min_level is None:
        return dyadic_family(grid.root, grid.cell_level)
    if not grid.cell_level <= ns.min_level <= grid.root.level:
        raise ParameterError(f"--min-level {ns.min_level} must lie between the grid's "
                             f"cell level {grid.cell_level} and root level {grid.root.level}")
    return dyadic_family(grid.root, ns.min_level)


def _describe_cube(entry) -> str:
    if isinstance(entry, DyadicCube):
        lo = ",".join(fmt(x) for x in entry.lower())
        return f"dyadic level={entry.level} coords={entry.coords} corner=[{lo}] side={fmt(entry.side)}"
    return f"box cells {entry.lo}..{entry.hi}"


# --- subcommand handlers ---------------------------------------------------------

def _cmd_norm(ns) -> int:
    f = read_mgf(ns.infile)
    if ns.kind == "morrey":
        _require(ns, "p", "q")
        fam = aligned_family(f) if ns.family == "all" else _dyadic_for(f, ns)
        rep = morrey_norm(f, ns.p, ns.q, fam)
        val, where = rep.value, _describe_cube(rep.attaining)
        line = (f"morrey p={fmt(ns.p)} q={fmt(ns.q)} family={ns.family} "
                f"value={fmt(val)} attained at {where}")
        payload = {"kind": "morrey", "p": ns.p, "q": ns.q, "value": val,
                   "attaining": where}
    elif ns.kind == "lebesgue":
        _require(ns, "t")
        val = lebesgue_norm(f, ns.t)
        line = f"lebesgue t={fmt(ns.t)} value={fmt(val)}"
        payload = {"kind": "lebesgue", "t": ns.t, "value": val}
    else:
        _require(ns, "p")
        val = weak_quasinorm(f, ns.p)
        line = f"weak p={fmt(ns.p)} value={fmt(val)}"
        payload = {"kind": "weak", "p": ns.p, "value": val}
    print(line)
    if ns.json:
        print(json.dumps(payload))
    return 0


def _cmd_op(ns) -> int:
    f = read_mgf(ns.f)
    fam = _dyadic_for(f, ns)
    q0 = _root_from(ns) if ns.rootlevel is not None else f.root
    # operator -> (the flags it reads besides --f, its run)
    flags, run = {
        "i-alpha": (("alpha",), lambda: i_alpha(f, ns.alpha)),
        "b-alpha": (("g", "alpha"), lambda: b_alpha(f, g, ns.alpha)),
        "b-truncated": (("g", "d"), lambda: b_truncated(f, g, ns.d)),
        "b-dyadic": (("g", "alpha"),
                     lambda: b_alpha_dyadic(f, g, ns.alpha, q0, ns.min_level)),
        "m-bilinear": (("g", "alpha"), lambda: m_alpha_bilinear(f, g, ns.alpha, fam)),
        "m-vector": (("g", "alpha", "r1", "r2"),
                     lambda: m_alpha_vector(f, g, ns.alpha, ns.r1, ns.r2, fam)),
        "m-tilde": (("g", "v", "alpha", "t"),
                    lambda: m_tilde(f, g, read_mgf(ns.v), ns.alpha, ns.t, fam)),
        "m-triple": (("g",), lambda: m_triple_dyadic(f, g, fam)),
    }[ns.operator]
    _require(ns, *flags)
    g = read_mgf(ns.g) if "g" in flags else None
    out = run()
    write_mgf(ns.out, out.fn)
    print(f"{ns.operator} -> {ns.out} (max={fmt(float(out.fn.values.max()))}, "
          f"tail_bound={fmt(out.tail_bound)})")
    return 0


def _load_system(ns) -> WeightSystem:
    if ns.v or ns.w1 or ns.w2:  # a partial file set is refused, not dropped
        return WeightSystem(*map(read_mgf, _require(ns, "v", "w1", "w2").values()))
    if ns.beta is not None:
        _require(ns, "gamma1", "gamma2")
        return power_system(ns.beta, ns.gamma1, ns.gamma2, _coords(ns, "center", parse_number),
                            _root_from(ns), ns.depth)
    raise ParameterError("weights needed: --v/--w1/--w2 files or synthetic --beta/--gamma1/--gamma2")


def _char_params(ns) -> CharParams:
    """Parameters of a char kind or weighted theorem."""
    return CharParams(n=ns.dim, **_require(ns, "alpha", "q1", "q2", "p", "s", "t", "r", "a"))


def _cmd_char(ns) -> int:
    if ns.kind in ("ap", "fs-majorant"):
        source = ns.v if ns.kind == "ap" else ns.w1
        w = read_mgf(source) if source else _load_system(ns).w1
        fam = _dyadic_for(w, ns)
        if ns.kind == "ap":
            _require(ns, "p")
            rep = ap_characteristic(w, ns.p, fam)
            print(f"ap p={fmt(ns.p)} value={fmt(rep.value)} "
                  f"at {_describe_cube(rep.attaining[0])}")
            if ns.json:
                print(json.dumps({"kind": "ap", "p": ns.p, "value": rep.value}))
            return 0
        _require(ns, "r", "s", "out")
        out = fs_majorant(w, ns.r, ns.s, fam)
        write_mgf(ns.out, out)
        print(f"fs-majorant -> {ns.out} (max={fmt(float(out.values.max()))})")
        return 0
    cp = _char_params(ns)
    ws = _load_system(ns)
    kind = {"two-weight": char_two_weight, "remark": char_remark,
            "one-weight": char_one_weight, "testing": char_testing}[ns.kind]
    rep = kind(ws, cp, _dyadic_for(ws.v, ns))
    inner, outer = (_describe_cube(c) for c in rep.attaining)
    print(f"{ns.kind} value={fmt(rep.value)} pairs={rep.pairs_scanned} "
          f"inner: {inner} outer: {outer}")
    if ns.json:
        print(json.dumps({"kind": ns.kind, "value": rep.value,
                          "pairs": rep.pairs_scanned, "inner": inner, "outer": outer}))
    return 0


def _cmd_cz(ns) -> int:
    f = read_mgf(ns.f)
    g = read_mgf(ns.g)
    q0 = _root_from(ns) if ns.rootlevel is not None else f.root
    sf = cz_decompose(f, g, q0, ns.a) if ns.a is not None else choose_a(f, g, q0)
    halving = verify_halving(sf)
    write_csv(ns.out, CZ_COLUMNS, sf.rows(f.cell_volume), ns.json)
    status = "certified" if halving.ok else f"violated (worst {fmt(halving.worst_ratio)})"
    print(f"cz a={fmt(sf.a)} generations={sf.kmax} cubes={sum(len(g) for g in sf.generations)} "
          f"halving {status} -> {ns.out}")
    return 0


def _exp_sharpness(ns) -> int:
    cfg = SharpnessConfig(n=ns.dim, delta_exps=ns.deltas,
                          **_require(ns, "alpha", "p1", "q1", "p2", "q2", "t"))
    res = run_sharpness(cfg)
    write_csv(ns.out, ["delta", "min_pointwise", "floor", "norm", "slope_so_far",
                       "norm_f", "norm_g"], res.table(), ns.json)
    branch = "boundary" if res.boundary else "blow-up"
    print(f"sharpness ({branch}) slope={fmt(res.slope)} bound={fmt(res.slope_bound)} "
          f"floors={'ok' if res.floors_hold() else 'FAIL'} -> {ns.out}")
    return 0


def _exp_ratio(ns) -> int:
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
    return 0


def _exp_stein_weiss(ns) -> int:
    sw = SteinWeissParams(n=ns.dim, **_require(ns, "alpha", "q1", "q2", "p1", "p2", "r",
                                               "a", "beta", "gamma1", "gamma2"))
    verdict = stein_weiss_check(sw, k_levels=ns.k_range)
    lines = [f"{'PASS' if verdict.verdict != 'INCONCLUSIVE' else 'FAIL'} "
             f"verdict={verdict.verdict}"]
    lines += [f"INFO level={k} characteristic={fmt(v)}"
              for k, v in sorted(verdict.char_by_level.items())]
    with open(ns.out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"stein-weiss verdict={verdict.verdict} -> {ns.out}")
    return 0


def _exp_fs_dual(ns) -> int:
    params = FsDualParams(_char_params(ns), **_require(ns, "r1", "r2", "s1", "s2"))
    if ns.w1 or ns.w2:
        w1, w2 = map(read_mgf, _require(ns, "w1", "w2").values())
    else:
        root, center = _root_from(ns), _coords(ns, "center", parse_number)
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
    return 0


def _exp_necessity(ns) -> int:
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
    return 0


_EXPERIMENTS = {"sharpness": _exp_sharpness, "ratio": _exp_ratio,
                "stein-weiss": _exp_stein_weiss, "necessity": _exp_necessity,
                "fs-dual": _exp_fs_dual}


def _cmd_selftest(ns) -> int:
    from .acceptance import CRITERIA, run_selftest  # only selftest needs the criteria
    unknown = [k for k in ns.criteria or () if not 1 <= k <= len(CRITERIA)]
    if unknown:
        raise ParameterError(f"--criteria: no criterion {unknown} "
                             f"(criteria are 1..{len(CRITERIA)})")
    results = run_selftest(seed=ns.seed, outdir=ns.out, criteria=ns.criteria)
    return 0 if all(r.passed for r in results) else 1


# --- parser ------------------------------------------------------------------------

def _finish(p, func, exponents) -> None:
    """Exponent flags (alpha, beta and gamma_i signed, all others positive),
    --json, and the handler."""
    for name in exponents:
        signed = name in ("alpha", "beta", "gamma1", "gamma2")
        p.add_argument("--" + name, default=None,
                       type=parse_number if signed else parse_positive)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=func)


def _add_weight_flags(p) -> None:
    """Weight files, or the root and center of synthetic power weights."""
    for name in ("--v", "--w1", "--w2"):
        p.add_argument(name, default=None)
    p.add_argument("--rootlevel", type=int, default=0)
    p.add_argument("--rootcoords", default="0")
    p.add_argument("--center", default="0")


@functools.cache  # built on the first call, not at import; parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="morreybench", allow_abbrev=False,
        description="dyadic-grid workbench for bilinear fractional integrals")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("norm", allow_abbrev=False,
                       help="Lebesgue / weak / Morrey norms of an MGF file")
    p.add_argument("--kind", required=True, choices=("morrey", "lebesgue", "weak"))
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--family", default="dyadic", choices=("dyadic", "all"))
    p.add_argument("--min-level", type=int, default=None)
    _finish(p, _cmd_norm, ("p", "q", "t"))

    p = sub.add_parser("op", allow_abbrev=False, help="apply an operator to MGF inputs")
    p.add_argument("--operator", required=True,
                   choices=("i-alpha", "b-alpha", "b-truncated", "b-dyadic",
                            "m-bilinear", "m-vector", "m-tilde", "m-triple"))
    p.add_argument("--f", required=True)
    p.add_argument("--g", default=None)
    p.add_argument("--v", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--min-level", type=int, default=None)
    p.add_argument("--rootlevel", type=int, default=None)
    p.add_argument("--rootcoords", default="0")
    _finish(p, _cmd_op, ("alpha", "d", "r1", "r2", "t"))

    p = sub.add_parser("char", allow_abbrev=False, help="weight characteristic constants")
    p.add_argument("--kind", required=True,
                   choices=("two-weight", "remark", "one-weight", "testing",
                            "ap", "fs-majorant"))
    _add_weight_flags(p)
    p.add_argument("--out", default=None)
    p.add_argument("--dim", type=int, default=1, choices=(1, 2))
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--min-level", type=int, default=None)
    _finish(p, _cmd_char, ("alpha", "q1", "q2", "p", "s", "t", "r", "a",
                           "beta", "gamma1", "gamma2"))

    p = sub.add_parser("cz", allow_abbrev=False, help="stopping-time decomposition dump")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--rootlevel", type=int, default=None)
    p.add_argument("--rootcoords", default="0")
    p.add_argument("--out", required=True)
    _finish(p, _cmd_cz, ("a",))

    p = sub.add_parser("experiment", allow_abbrev=False, help="theorem-level harnesses")
    p.add_argument("what", choices=tuple(_EXPERIMENTS))
    p.add_argument("--theorem", default="bilinear-ratio")
    p.add_argument("--dim", type=int, default=1, choices=(1, 2))
    p.add_argument("--deltas", type=parse_range, default="4..8")
    p.add_argument("--levels", type=parse_range, default="4..6")
    p.add_argument("--k-range", type=parse_range, default="0..4")
    p.add_argument("--pairs", type=parse_pairs, default="step:6")
    p.add_argument("--base-depth", type=int, default=4)
    p.add_argument("--systems", type=int, default=10)
    p.add_argument("--seed", type=int, default=20240801)
    p.add_argument("--out", required=True)
    _add_weight_flags(p)
    p.add_argument("--depth", type=int, default=5)
    _finish(p, lambda ns: _EXPERIMENTS[ns.what](ns),
            ("alpha", "p1", "q1", "p2", "q2", "p", "s", "t", "r", "a",
             "beta", "gamma1", "gamma2", "r1", "r2", "s1", "s2"))

    p = sub.add_parser("selftest", allow_abbrev=False, help="run the acceptance suite")
    p.add_argument("--seed", type=int, default=20240801)
    p.add_argument("--out", default=None)
    p.add_argument("--criteria", type=parse_range, default=None,
                   help="subset such as '1..3' or '1,7,12' (default: all)")
    p.set_defaults(func=_cmd_selftest)
    return ap


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        with np.errstate(all="ignore"):  # overflow is reported by exit 3, not by warnings
            return ns.func(ns)
    except (ParameterError, OSError) as exc:  # OSError: an unreadable or unwritable path
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
