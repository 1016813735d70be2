"""Output capture and comparison against the recorded references.

Every op's observable outputs are reduced to a record: its exit code, its
stdout and stderr, and every file it wrote.  Text is split into literal
segments and numeric tokens.  Literal segments and integer tokens must match
exactly; float tokens must agree to the relative tolerance 1e-9 that the
program's own ``_close`` uses.  Elapsed-time fields (``0.12s``) and the
working-directory prefix are masked before the split.

MGF outputs are too large to record whole for every input variant, so a
written MGF file is reduced to its header (exact), its value count (exact)
and a fingerprint of floats checked at the same tolerance: the minimum, the
maximum, 16 values at fixed evenly spaced indices and the sums of 16
equal blocks.
"""

from __future__ import annotations

import math
import os
import re

import numpy as np

REL_TOL = 1e-9
FINGERPRINT_POINTS = 16

_NUMBER = re.compile(r"(-?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?|-?\binf\b|\bnan\b)")
_ELAPSED = re.compile(r"\d+\.\d+s\b")


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def _is_float_token(tok: str) -> bool:
    return any(c in tok for c in ".eEin")


def split_text(text: str, workdir: str) -> dict:
    """{'text': literal template, 'nums': numeric tokens} of masked text."""
    text = text.replace(workdir, "<work>")
    text = _ELAPSED.sub("<elapsed>", text)
    parts = _NUMBER.split(text)
    return {"text": "\x00".join(parts[0::2]), "nums": parts[1::2]}


def fingerprint_mgf(path: str) -> dict:
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        values = np.array(fh.read().split(), dtype=float)
    n = values.size
    idx = np.linspace(0, n - 1, FINGERPRINT_POINTS).round().astype(int) if n else []
    blocks = np.array_split(values, FINGERPRINT_POINTS) if n else []
    floats = ([float(values.min()), float(values.max())] if n else [])
    floats += [float(values[i]) for i in idx]
    floats += [float(b.sum()) for b in blocks]
    return {"header": header, "count": n, "floats": floats}


def capture(rc, stdout: str, stderr: str, out_paths, workdir: str) -> dict:
    """The record of one op: exit code, masked text, and written files."""
    files = {}
    for path in out_paths:
        if os.path.isdir(path):
            entries = [os.path.join(path, n) for n in sorted(os.listdir(path))]
        elif os.path.exists(path):
            entries = [path]
        else:
            entries = []
            files[os.path.basename(path)] = None
        for entry in entries:
            key = os.path.relpath(entry, workdir)
            if entry.endswith(".mgf"):
                files[key] = fingerprint_mgf(entry)
            else:
                with open(entry) as fh:
                    files[key] = split_text(fh.read(), workdir)
    return {"rc": rc, "stdout": split_text(stdout, workdir),
            "stderr": split_text(stderr, workdir), "files": files}


def _diff_split(where: str, got: dict, want: dict) -> str | None:
    if got["text"] != want["text"]:
        return f"{where}: text differs"
    if len(got["nums"]) != len(want["nums"]):
        return f"{where}: {len(got['nums'])} numbers, expected {len(want['nums'])}"
    for i, (g, w) in enumerate(zip(got["nums"], want["nums"])):
        if _is_float_token(g) or _is_float_token(w):
            if not (_is_float_token(g) and _is_float_token(w)) or not _close(float(g), float(w)):
                return f"{where}: number {i} is {g}, expected {w}"
        elif g != w:
            return f"{where}: number {i} is {g}, expected {w}"
    return None


def compare(got: dict, want: dict) -> str | None:
    """None when ``got`` matches the reference ``want``, else the first difference."""
    if got["rc"] != want["rc"]:
        return f"exit code {got['rc']}, expected {want['rc']}"
    for stream in ("stdout", "stderr"):
        msg = _diff_split(stream, got[stream], want[stream])
        if msg:
            return msg
    if sorted(got["files"]) != sorted(want["files"]):
        return f"files {sorted(got['files'])}, expected {sorted(want['files'])}"
    for name, ref in want["files"].items():
        out = got["files"][name]
        if ref is None or out is None:
            if ref is not out:
                return f"{name}: presence differs"
        elif "header" in ref:
            if out.get("header") != ref["header"] or out.get("count") != ref["count"]:
                return f"{name}: MGF header or size differs"
            if len(out["floats"]) != len(ref["floats"]):
                return f"{name}: fingerprint length differs"
            for i, (g, w) in enumerate(zip(out["floats"], ref["floats"])):
                if not _close(g, w):
                    return f"{name}: fingerprint value {i} is {g!r}, expected {w!r}"
        else:
            msg = _diff_split(name, out, ref)
            if msg:
                return msg
    return None
