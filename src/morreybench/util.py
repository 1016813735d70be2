"""Shared plumbing: errors, exponent helpers, power means, RNG, CSV text."""

from __future__ import annotations

import math
from argparse import ArgumentTypeError

import numpy as np

INF = float("inf")


class ParameterError(ValueError, ArgumentTypeError):
    """A precondition or exponent relation is violated (CLI exit code 2);
    raised by a flag's parser, its text is the refusal argparse prints."""


class NumericalError(RuntimeError):
    """A computation cannot be completed at finite precision (CLI exit code 3)."""


def finite(values, what: str):
    """``values``, refused with a NumericalError naming ``what`` if any is
    nan or infinite: the one check of a computed value."""
    if not (math.isfinite(values) if isinstance(values, float) else np.isfinite(values).all()):
        raise NumericalError(f"{what} overflowed to a non-finite value")
    return values


def refuse(what: str, violations) -> None:
    """Raise a ParameterError naming every violated relation, if there is one."""
    if violations:
        raise ParameterError(f"{what}: " + "; ".join(violations))


def close(a: float, b: float) -> bool:
    """Exponent relations hold to 1e-9 relative (absolute below 1)."""
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def conjugate(x: float) -> float:
    """The conjugate exponent x' = x/(x-1) of x > 1."""
    return x / (x - 1.0)


def recip(x: float) -> float:
    """1/x with 1/inf = 0 (the ``r = inf`` convention) and 1/0 = inf."""
    if x == INF:
        return 0.0
    return INF if x == 0 else 1.0 / x


def power_mean(rows: np.ndarray, e: float):
    """Return ``(mean(rows**e))**(1/e)`` over the last axis, without overflow
    for large ``|e|``.

    Intermediates are shifted by the extreme value so they stay within [0, 1];
    as ``e`` grows the result tends smoothly to ``max(rows)`` (resp. ``min``
    for ``e < 0``), which is the essential-sup convention used by the weight
    characteristics.  The rows are ``cube_blocks`` rows of weights that their
    entry point has refused unless positive, so no anchor is zero, and every
    caller's relations keep ``e`` nonzero.
    """
    anchor = rows.max(axis=-1) if e > 0 else rows.min(axis=-1)
    return anchor * ((rows / anchor[..., None]) ** e).mean(axis=-1) ** (1.0 / e)


def v_factor(rows, t: float):
    """``(mean(rows**(t/(1-t))))**((1-t)/t)`` over the last axis; the max at t = 1."""
    return rows.max(axis=-1) if t == 1.0 else power_mean(rows, t / (1.0 - t))


def make_rng(seed: int, *stream: int) -> np.random.Generator:
    """Counter-based generator: (seed, stream ids) fully determine the draws."""
    if seed < 0:
        raise ParameterError(f"seeds are nonnegative integers, got {seed}")
    ss = np.random.SeedSequence([int(seed), *(int(s) for s in stream)])
    return np.random.Generator(np.random.Philox(ss))


def fmt(x: float) -> str:
    """Shortest round-trip decimal form, used for all CSV/report output."""
    return repr(float(x))


def by_level(values: dict) -> str:
    """``level:value`` tokens in level order, as reports print them."""
    return " ".join(f"{k}:{fmt(v)}" for k, v in sorted(values.items()))


def _cell(value) -> str:
    if isinstance(value, float):
        return fmt(value)
    return str(value)


def csv_text(header, rows) -> str:
    """The ``header`` columns of dict ``rows`` as CSV text, floats via ``fmt``."""
    lines = [",".join(header)]
    lines += [",".join(_cell(row[k]) for k in header) for row in rows]
    return "\n".join(lines) + "\n"
