"""Spans around the program's public functions, recorded from outside it.

``Tracer.install`` replaces each listed function with a timing wrapper in
every ``morreybench`` module that holds it: ``from .grid import read_mgf``
binds the name separately in each importer, and patching the defining
module also catches calls from inside that module (``b_alpha_dyadic``
calling ``b_truncated``).  Tuples of functions, such as the acceptance
``CRITERIA`` table, are rebuilt with the wrappers.  Per-cube helpers such as
``cube_box`` are deliberately not wrapped: they run about 10^5 times per op.

A span is kept in memory as {name, start, end, parent, op} plus the counts
read from the call's arguments and return value, and the whole list is
written as JSON lines when the benchmark ends.  A layer's self time is its
span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import json
import statistics
import time

import numpy as np


def _grid_of(args):
    """(cells, dim) of the first grid-like argument, else (None, None)."""
    for a in args:
        values = getattr(a, "values", None)
        if isinstance(values, np.ndarray):
            return int(values.size), values.ndim
        v = getattr(a, "v", None)  # a weight system
        if v is not None and isinstance(getattr(v, "values", None), np.ndarray):
            return int(v.values.size), v.values.ndim
    return None, None


def _dim_suffix(dim):
    return f".{dim}d" if dim else ""


def _default(name):
    def describe(args, kwargs, result):
        cells, dim = _grid_of(args)
        return name, {"cells": cells, "dim": dim}
    return describe


def _split_by_dim(name):
    def describe(args, kwargs, result):
        cells, dim = _grid_of(args)
        return name + _dim_suffix(dim), {"cells": cells, "dim": dim}
    return describe


def _morrey_norm(args, kwargs, result):
    cells, dim = _grid_of(args)
    family = args[3] if len(args) > 3 else kwargs.get("family")
    kind = "aligned" if getattr(family, "tag", "") == "all-aligned-cubes" else "dyadic"
    return f"norms.morrey_norm.{kind}", {"cells": cells, "dim": dim,
                                          "cubes": len(family)}


def _b_alpha(args, kwargs, result):
    cells, dim = _grid_of(args)
    m = int(round(cells ** (1.0 / dim)))
    i = np.arange(m)
    per_axis = int(np.sum(2 * np.minimum(i, m - 1 - i) + 1))
    return "operators.b_alpha" + _dim_suffix(dim), {
        "cells": cells, "dim": dim, "madds": per_axis ** dim}


def _subcube_family(name):
    def describe(args, kwargs, result):
        root, min_level = args[0], args[1]
        return name, {"cells": 2 ** (root.dim * (root.level - min_level)),
                      "dim": root.dim, "cubes": len(result)}
    return describe


def _aligned_family(args, kwargs, result):
    cells, dim = _grid_of(args)
    m = int(round(cells ** (1.0 / dim)))
    full = sum((m - s + 1) ** dim for s in range(1, m + 1))
    return "norms.aligned_family", {"cells": cells, "dim": dim,
                                    "cubes": len(result), "full": full}


def _grid_result(name):
    def describe(args, kwargs, result):
        return name, {"cells": int(result.values.size), "dim": result.values.ndim}
    return describe


def _write_mgf(args, kwargs, result):
    values = args[1].values
    return "grid.write_mgf", {"cells": int(values.size), "dim": values.ndim}


def _char_two_weight(args, kwargs, result):
    cells, dim = _grid_of(args)
    return "weights.char_two_weight", {"cells": cells, "dim": dim,
                                       "pairs": result.pairs_scanned}


def _cz_decompose(args, kwargs, result):
    cells, dim = _grid_of(args)
    return "decomposition.cz_decompose", {
        "cells": cells, "dim": dim,
        "selected": sum(len(g) for g in result.generations)}


# (module, attribute, describe); a "Class.method" attribute patches the class
LAYERS = [
    ("cli", "main", _default("cli.main")),
    ("norms", "morrey_norm", _morrey_norm),
    ("norms", "pair_morrey_sup", _default("norms.pair_morrey_sup")),
    ("norms", "dyadic_family", _subcube_family("norms.dyadic_family")),
    ("norms", "aligned_family", _aligned_family),
    ("operators", "kernel_cell_table", _default("operators.kernel_cell_table")),
    ("operators", "i_alpha", _split_by_dim("operators.i_alpha")),
    ("operators", "b_alpha", _b_alpha),
    ("operators", "b_truncated", _default("operators.b_truncated")),
    ("operators", "b_alpha_dyadic", _default("operators.b_alpha_dyadic")),
    ("operators", "m_alpha_bilinear", _default("operators.m_alpha_bilinear")),
    ("operators", "m_alpha_vector", _default("operators.m_alpha_vector")),
    ("operators", "m_triple_dyadic", _default("operators.m_triple_dyadic")),
    ("weights", "power_weight", _grid_result("weights.power_weight")),
    ("weights", "char_two_weight", _char_two_weight),
    ("weights", "char_remark", _default("weights.char_remark")),
    ("weights", "char_testing", _default("weights.char_testing")),
    ("weights", "ap_characteristic", _default("weights.ap_characteristic")),
    ("weights", "fs_majorant", _default("weights.fs_majorant")),
    ("decomposition", "choose_a", _default("decomposition.choose_a")),
    ("decomposition", "cz_decompose", _cz_decompose),
    ("decomposition", "verify_halving", _default("decomposition.verify_halving")),
    ("decomposition", "packing_sum", _default("decomposition.packing_sum")),
    ("grid", "read_mgf", _grid_result("grid.read_mgf")),
    ("grid", "write_mgf", _write_mgf),
    ("grid", "enumerate_subcubes", _subcube_family("grid.enumerate_subcubes")),
    ("grid", "GridFunction.refine", _grid_result("grid.refine")),
    ("experiments", "ratio_harness", _default("experiments.ratio_harness")),
    ("experiments", "run_sharpness", _default("experiments.run_sharpness")),
    ("experiments", "stein_weiss_check", _default("experiments.stein_weiss_check")),
    ("experiments", "necessity_check", _default("experiments.necessity_check")),
    ("experiments", "make_pairs", _default("experiments.make_pairs")),
] + [("acceptance", f"criterion_{k:02d}", _default(f"acceptance.criterion_{k:02d}"))
     for k in range(1, 13)]

MODULES = ("util", "grid", "norms", "operators", "weights", "decomposition",
           "experiments", "acceptance", "cli")


class Tracer:
    """In-memory span recorder; ``op`` tags spans with the running op."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent, op, attrs]
        self._stack = []
        self.op = -1
        self._undo = []

    def _wrap(self, fn, describe):
        spans, stack = self.spans, self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [fn.__qualname__, 0.0, 0.0, stack[-1] if stack else -1,
                   tracer.op, {}]
            stack.append(len(spans))
            spans.append(rec)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            rec[1], rec[2] = start, end
            try:
                rec[0], rec[5] = describe(args, kwargs, result)
            except (AttributeError, IndexError, TypeError, ValueError):
                pass  # the span keeps its plain name and no counts
            return result
        return wrapper

    def install(self, package) -> list[str]:
        """Wrap every listed function that exists; return the missing ones."""
        import importlib
        modules = [importlib.import_module(package)]
        modules += [importlib.import_module(f"{package}.{m}") for m in MODULES]
        missing = []
        for mod_name, attr, describe in LAYERS:
            owner = importlib.import_module(f"{package}.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name, None)
                orig = getattr(cls, meth, None)
                if orig is None:
                    missing.append(f"{mod_name}.{attr}")
                    continue
                setattr(cls, meth, self._wrap(orig, describe))
                self._undo.append((cls, meth, orig))
                continue
            orig = getattr(owner, attr, None)
            if orig is None:
                missing.append(f"{mod_name}.{attr}")
                continue
            wrapped = self._wrap(orig, describe)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, name, wrapped)
                        self._undo.append((mod, name, orig))
                    elif isinstance(value, tuple) and any(v is orig for v in value):
                        setattr(mod, name, tuple(wrapped if v is orig else v
                                                 for v in value))
                        self._undo.append((mod, name, value))
        return missing

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)
        self._undo.clear()

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op, attrs in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, **attrs}) + "\n")


def self_times(spans) -> list[float]:
    """Duration minus the durations of direct children, per span."""
    child = [0.0] * len(spans)
    for name, start, end, parent, op, attrs in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, *_rest) in enumerate(spans)]


def fit_exponent(points) -> float | None:
    """Slope of log(median self time) against log(cells); needs 3 cell counts."""
    by_cells = {}
    for cells, seconds in points:
        if cells and seconds > 0:
            by_cells.setdefault(cells, []).append(seconds)
    if len(by_cells) < 3:
        return None
    xs = sorted(by_cells)
    ys = [float(np.median(by_cells[c])) for c in xs]
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


SELF_S = [
    "norms.morrey_norm.dyadic", "norms.morrey_norm.aligned", "norms.pair_morrey_sup",
    "norms.dyadic_family", "operators.i_alpha.1d", "operators.i_alpha.2d",
    "operators.b_alpha.1d", "operators.b_alpha.2d", "operators.b_alpha_dyadic",
    "operators.m_alpha_bilinear", "operators.m_alpha_vector",
    "operators.m_triple_dyadic", "operators.kernel_cell_table",
    "weights.char_two_weight", "weights.char_testing", "weights.ap_characteristic",
    "weights.fs_majorant", "weights.power_weight", "decomposition.choose_a",
    "decomposition.cz_decompose", "decomposition.verify_halving", "grid.read_mgf",
    "grid.write_mgf", "grid.enumerate_subcubes", "grid.refine",
    "experiments.ratio_harness", "experiments.run_sharpness",
    "experiments.stein_weiss_check", "experiments.necessity_check", "cli.main",
]

# the unused eager family build: operators that never read the family
FAMILY_FREE_OPERATORS = ("i-alpha", "b-alpha", "b-truncated", "b-dyadic")

# ROADMAP baseline rows: (label, layer, cells, dim), inclusive time per call
BASELINE_ROWS = [
    ("morrey_norm dyadic 1D depth 10", "norms.morrey_norm.dyadic", 1 << 10, 1),
    ("morrey_norm dyadic 2D depth 6", "norms.morrey_norm.dyadic", 1 << 12, 2),
    ("b_alpha 1D depth 12", "operators.b_alpha.1d", 1 << 12, 1),
    ("b_alpha 2D depth 6", "operators.b_alpha.2d", 1 << 12, 2),
    ("b_alpha 2D depth 7", "operators.b_alpha.2d", 1 << 14, 2),
    ("i_alpha 2D depth 6", "operators.i_alpha.2d", 1 << 12, 2),
    ("i_alpha 2D depth 7", "operators.i_alpha.2d", 1 << 14, 2),
    ("b_alpha_dyadic 1D depth 10", "operators.b_alpha_dyadic", 1 << 10, 1),
    ("m_alpha_bilinear 1D depth 10", "operators.m_alpha_bilinear", 1 << 10, 1),
    ("char_two_weight 1D depth 10", "weights.char_two_weight", 1 << 10, 1),
    ("choose_a 1D depth 10", "decomposition.choose_a", 1 << 10, 1),
    ("cz_decompose 1D depth 10", "decomposition.cz_decompose", 1 << 10, 1),
]


def layer_metrics(spans, op_table, op_walls, cycles, workload_names):
    """Per-layer metrics {name: (value, unit)} and a summary, per cycle.

    ``op_table[i]`` describes op i (workload, op id, command, operator) and
    ``op_walls[i]`` is its wall time as the benchmark measured it.
    """
    selfs = self_times(spans)
    by_name = {}
    for i, (name, start, end, parent, op, attrs) in enumerate(spans):
        by_name.setdefault(name, []).append((i, end - start, selfs[i], attrs))

    def total_self(name):
        return sum(s for _, _, s, _ in by_name.get(name, []))

    def total_attr(name, key):
        return sum(a.get(key) or 0 for _, _, _, a in by_name.get(name, []))

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    m = {}
    for name in SELF_S:
        m[f"{name}.self_s"] = (total_self(name) / cycles, "s")

    dyadic = "norms.morrey_norm.dyadic"
    m[f"{dyadic}.cubes_per_s"] = (rate(total_attr(dyadic, "cubes"), total_self(dyadic)), "1/s")
    exponents = {}
    for name, calls in sorted(by_name.items()):
        for dim in (1, 2):
            pts = [(a.get("cells"), s) for _, _, s, a in calls if a.get("dim") == dim]
            slope = fit_exponent(pts)
            if slope is not None:
                exponents[f"{name}@{dim}d"] = slope
    m[f"{dyadic}.exp_1d"] = (exponents.get(f"{dyadic}@1d", 0.0), "slope")
    m[f"{dyadic}.exp_2d"] = (exponents.get(f"{dyadic}@2d", 0.0), "slope")
    m["operators.i_alpha.2d.exp"] = (exponents.get("operators.i_alpha.2d@2d", 0.0), "slope")
    m["operators.b_alpha.2d.exp"] = (exponents.get("operators.b_alpha.2d@2d", 0.0), "slope")

    family_ops = {i for i, o in enumerate(op_table)
                  if o["command"] == "op" and o["operator"] in FAMILY_FREE_OPERATORS}
    unused = sum(s for i, _, s, _ in by_name.get("norms.dyadic_family", [])
                 if spans[i][4] in family_ops)
    m["norms.dyadic_family.unused_s"] = (unused / cycles, "s")
    m["norms.aligned_family.thinned_ratio"] = (
        rate(total_attr("norms.aligned_family", "cubes"),
             total_attr("norms.aligned_family", "full")), "ratio")

    b_self = total_self("operators.b_alpha.1d") + total_self("operators.b_alpha.2d")
    b_madds = (total_attr("operators.b_alpha.1d", "madds")
               + total_attr("operators.b_alpha.2d", "madds"))
    m["operators.b_alpha.madds_per_s"] = (rate(b_madds, b_self), "1/s")
    m["operators.b_truncated.calls"] = (len(by_name.get("operators.b_truncated", [])) / cycles,
                                        "count")
    tw = "weights.char_two_weight"
    m[f"{tw}.pairs"] = (total_attr(tw, "pairs") / cycles, "count")
    m[f"{tw}.pairs_per_s"] = (rate(total_attr(tw, "pairs"), total_self(tw)), "1/s")

    cz_calls = by_name.get("decomposition.cz_decompose", [])
    choose_calls = by_name.get("decomposition.choose_a", [])
    choose_ids = {i for i, *_ in choose_calls}
    attempts = sum(1 for i, *_ in cz_calls if spans[i][3] in choose_ids)
    m["decomposition.cz_decompose.calls"] = (len(cz_calls) / cycles, "count")
    m["decomposition.choose_a.accept_ratio"] = (rate(len(choose_calls), attempts), "ratio")
    m["decomposition.selected_cubes"] = (
        total_attr("decomposition.cz_decompose", "selected") / cycles, "count")

    mgf_values = total_attr("grid.read_mgf", "cells") + total_attr("grid.write_mgf", "cells")
    mgf_s = total_self("grid.read_mgf") + total_self("grid.write_mgf")
    m["grid.mgf.values_per_s"] = (rate(mgf_values, mgf_s), "1/s")
    m["grid.enumerate_subcubes.cubes"] = (
        total_attr("grid.enumerate_subcubes", "cubes") / cycles, "count")
    for k in range(1, 13):
        name = f"acceptance.criterion_{k:02d}"
        m[f"{name}.s"] = (sum(d for _, d, _, _ in by_name.get(name, [])) / cycles, "s")

    # coverage: time inside spans directly under cli.main over op wall time
    main_ids = {i for i, *_ in by_name.get("cli.main", [])}
    covered = {}
    for name, start, end, parent, op, attrs in spans:
        if parent in main_ids:
            covered[op] = covered.get(op, 0.0) + end - start
    coverage = {}
    for w in workload_names:
        ids = [i for i, o in enumerate(op_table) if o["workload"] == w]
        wall = sum(op_walls[i] for i in ids)
        coverage[w] = rate(sum(covered.get(i, 0.0) for i in ids), wall)
        m[f"trace.coverage.{w}"] = (coverage[w], "ratio")
    m["trace.coverage"] = (min(coverage.values()), "ratio")

    baseline = {}
    for label, name, cells, dim in BASELINE_ROWS:
        durs = [d for _, d, _, a in by_name.get(name, [])
                if a.get("cells") == cells and a.get("dim") == dim]
        baseline[label] = ({"median_s": statistics.median(durs), "calls": len(durs)}
                           if durs else "not run by any workload")
    cz_ops = {}  # the cz command's choose_a plus its final decomposition
    for name in ("decomposition.choose_a", "decomposition.cz_decompose"):
        for i, d, _, a in by_name.get(name, []):
            op = spans[i][4]
            if spans[i][3] in main_ids and op_table[op]["command"] == "cz":
                cz_ops[op] = cz_ops.get(op, 0.0) + d
    ratio_ops = [op_walls[i] for i, o in enumerate(op_table)
                 if o["workload"] == "harness" and o["op"] == "ratio-1d"]
    for label, durs in (("choose_a + cz_decompose 1D depth 10 (cz command)", list(cz_ops.values())),
                        ("experiment ratio 1D levels 4..10, 8 pairs", ratio_ops)):
        baseline[label] = {"median_s": statistics.median(durs), "calls": len(durs)}
    summary = {"exponents": exponents, "baseline": baseline, "coverage": coverage}
    return m, summary
