"""The exponent relations of every theorem and parameter set, as one table.

``RULES[key]`` is the ordered tuple of ``(label, holds)`` rows of one theorem
id, characteristic form or parameter set; ``holds(x)`` reads the exponents
as attributes of ``x``.  A relation shared between sets is one row, and the
sets are concatenations of rows.  A caller refuses ``x`` with
``util.refuse(what, violations(x, key))``; refusals print the labels.
"""

from __future__ import annotations

from .util import INF, ParameterError, close, recip


def _below(s: float, r: float) -> bool:
    """s/(1-s) < r, which r = inf always meets."""
    return r == INF or s / (1.0 - s) < r


ALPHA = ("0 < alpha < n", lambda x: 0.0 < x.alpha < x.n)
Q1_P1 = ("1 < q1 <= p1", lambda x: 1.0 < x.q1 <= x.p1)
Q2_P2 = ("1 < q2 <= p2", lambda x: 1.0 < x.q2 <= x.p2)
Q12 = ("1 < q1, q2 < inf", lambda x: 1.0 < x.q1 < INF and 1.0 < x.q2 < INF)
T_S = ("1 < t <= s", lambda x: 1.0 < x.t <= x.s)
T_S_BELOW_1 = ("0 < t <= s < 1", lambda x: 0.0 < x.t <= x.s < 1.0)
S_SUM = ("1/s = 1/p1 + 1/p2 - alpha/n",
         lambda x: close(1.0 / x.s, 1.0 / x.p1 + 1.0 / x.p2 - x.alpha / x.n))
TS_Q1_P1 = ("t/s = q/p", lambda x: close(x.t / x.s, x.q1 / x.p1))
ALPHA_R = ("alpha/n > 1/r", lambda x: x.alpha / x.n > recip(x.r))
S_REL = ("1/s = 1/p + 1/r - alpha/n",
         lambda x: close(1.0 / x.s, 1.0 / x.p + recip(x.r) - x.alpha / x.n))
TS_Q_P = ("t/s = q/p", lambda x: close(x.t / x.s, recip(1.0 / x.q1 + 1.0 / x.q2) / x.p))
A_ABOVE_1 = ("a > 1", lambda x: x.a > 1.0)
A_WINDOW = ("1 < a < min(q1, q2)", lambda x: 1.0 < x.a < min(x.q1, x.q2))
S_BELOW_1 = ("s < 1", lambda x: x.s < 1.0)
S_FROM_1 = ("s >= 1", lambda x: x.s >= 1.0)

_BILINEAR = (ALPHA, Q1_P1, Q2_P2, ("1/q1 + 1/q2 < 1", lambda x: 1.0 / x.q1 + 1.0 / x.q2 < 1.0))
_CHAR = (Q12, ("0 < q <= p", lambda x: 0.0 < recip(1.0 / x.q1 + 1.0 / x.q2) <= x.p), TS_Q_P)
_WEIGHTED = (ALPHA, ("0 < t <= 1", lambda x: 0.0 < x.t <= 1.0),
             ("t <= s", lambda x: x.t <= x.s)) + _CHAR
_TWO_WEIGHT = _WEIGHTED + (("0 < r <= inf", lambda x: x.r > 0.0), ALPHA_R, S_REL)
_ONE_WEIGHT = _WEIGHTED + (
    ("r = inf (one-weight)", lambda x: x.r == INF),
    ("1/s = 1/p - alpha/n", lambda x: close(1.0 / x.s, 1.0 / x.p - x.alpha / x.n)), A_ABOVE_1)
_STEIN_WEISS = (
    ALPHA, Q1_P1, Q2_P2, ("n/(n-alpha) < r", lambda x: x.r == INF or x.n / (x.n - x.alpha) < x.r),
    T_S_BELOW_1, A_WINDOW, ("beta < n (1/s - 1)", lambda x: x.beta < x.n * (1.0 / x.s - 1.0)),
    ("gamma1 < n/q1'", lambda x: x.gamma1 < x.n * (1.0 - 1.0 / x.q1)),
    ("gamma2 < n/q2'", lambda x: x.gamma2 < x.n * (1.0 - 1.0 / x.q2)))

RULES = {
    # ratio-harness theorem ids; two-weight and one-weight: CharParams.check, below
    "bilinear-ratio": _BILINEAR + (T_S, S_SUM, (
        "t/s = q1/p1 = q2/p2", lambda x: TS_Q1_P1[1](x) and close(x.t / x.s, x.q2 / x.p2))),
    "bilinear-sum": _BILINEAR + (T_S, S_SUM, (
        "1/t = 1/q1 + 1/q2 - alpha/n",
        lambda x: close(1.0 / x.t, 1.0 / x.q1 + 1.0 / x.q2 - x.alpha / x.n))),
    "bilinear-critical": _BILINEAR + (
        ("p1 = n/alpha", lambda x: close(x.p1, x.n / x.alpha)),
        ("p2 < q2 n/alpha", lambda x: x.p2 < x.q2 * x.n / x.alpha)),
    "linear-adams": (
        ALPHA, ("1 < q <= p", Q1_P1[1]), T_S,
        ("1/s = 1/p - alpha/n", lambda x: close(1.0 / x.s, 1.0 / x.p1 - x.alpha / x.n)), TS_Q1_P1),
    "product-embedding": (
        ALPHA, ("1 < p <= p0", Q1_P1[1]), ("1 < q <= q0", Q2_P2[1]), ("1 < r <= r0", T_S[1]),
        ("q > r", lambda x: x.q2 > x.t), ("1/p0 > alpha/n", lambda x: 1.0 / x.p1 > x.alpha / x.n),
        ("1/q0 <= alpha/n", lambda x: 1.0 / x.p2 <= x.alpha / x.n),
        ("1/r0 = 1/p0 + 1/q0 - alpha/n", S_SUM[1]), ("r/r0 = p/p0", TS_Q1_P1[1])),
    "olsen": (ALPHA, Q12, T_S_BELOW_1,
              ("s/(1-s) < r", lambda x: not T_S_BELOW_1[1](x) or _below(x.s, x.r)),
              ALPHA_R, S_REL, TS_Q_P, A_ABOVE_1, ("r < inf", lambda x: x.r < INF)),
    # CharParams, per characteristic; s picks the two-weight and one-weight rows
    "s<1": _TWO_WEIGHT + (
        S_BELOW_1, ("s/(1-s) < r", lambda x: not x.s < 1.0 or _below(x.s, x.r)),
        ("1 < a < min(r(1-s)/s, q1, q2)",
         lambda x: 1.0 < x.a < min(x.q1, x.q2, x.r * (1.0 - x.s) / x.s if x.r != INF else INF))),
    "s>=1": _TWO_WEIGHT + (S_FROM_1, A_WINDOW),
    "remark": _TWO_WEIGHT + (S_BELOW_1, A_WINDOW),
    "one-weight-s<1": _ONE_WEIGHT + (S_BELOW_1,),
    "one-weight-s>=1": _ONE_WEIGHT + (S_FROM_1,),
    "testing": (("0 <= alpha < n", lambda x: 0.0 <= x.alpha < x.n),
                ("1 <= t <= s", lambda x: 1.0 <= x.t <= x.s),
                ("alpha/n >= 1/r >= 0", lambda x: x.alpha / x.n >= recip(x.r) >= 0.0))
               + _CHAR + (S_REL,),
    # SteinWeissParams: the structural hypotheses, then also the weight conditions
    "stein-weiss": _STEIN_WEISS,
    "stein-weiss-weights": _STEIN_WEISS + (
        ("alpha + beta + gamma1 + gamma2 = n + n/t - n/q1 - n/q2",
         lambda x: close(x.alpha + x.sigma, x.n + x.n / x.t - x.n / x.q1 - x.n / x.q2)),
        ("beta + gamma1 + gamma2 >= 0", lambda x: x.sigma >= 0.0)),
    # FsDualParams, after the rows of its s<1 CharParams
    "fs-dual": (
        ("0 < s1 < 1", lambda x: 0.0 < x.s1 < 1.0),
        ("s1/(1-s1) < r1", lambda x: not 0.0 < x.s1 < 1.0 or _below(x.s1, x.r1)),
        ("0 < s2 < 1", lambda x: 0.0 < x.s2 < 1.0),
        ("s2/(1-s2) < r2", lambda x: not 0.0 < x.s2 < 1.0 or _below(x.s2, x.r2)),
        ("(1-s)/(as) = (1-s1)/s1 + (1-s2)/s2", lambda x: close(
            (1.0 - x.cp.s) / (x.cp.a * x.cp.s), (1.0 - x.s1) / x.s1 + (1.0 - x.s2) / x.s2)),
        ("1/r = 1/r1 + 1/r2", lambda x: close(recip(x.cp.r), recip(x.r1) + recip(x.r2)))),
    "sharpness": (
        ("sharpness harness is one-dimensional", lambda x: x.n == 1), ALPHA,
        ("0 < q_i <= p_i", lambda x: 0.0 < x.q1 <= x.p1 and 0.0 < x.q2 <= x.p2),
        ("1/s = 1/p1 + 1/p2 - alpha/n must be positive", lambda x: 0.0 < x.s < INF),
        ("0 < t <= s", lambda x: 0.0 < x.t <= x.s),
        ("a slope needs at least two distinct deltas", lambda x: len(set(x.delta_exps)) >= 2)),
}


def require_dim(x, dim: int) -> None:
    """Refuse exponents ``x`` stated for ``x.n`` on data of dimension ``dim``."""
    if x.n != dim:
        raise ParameterError(f"parameters for n={x.n} do not fit {dim}D data")


def violations(x, key: str) -> list[str]:
    """Labels of the rows of ``RULES[key]`` that fail for ``x``, in table order.

    A failing ``0 < alpha < n`` row, first in all sets but sharpness, ends the
    list: the rows after it divide by alpha.  A row that divides by zero fails.
    """
    failed = []
    for row in RULES[key]:
        try:
            holds = row[1](x)
        except ZeroDivisionError:
            holds = False
        if not holds:
            failed.append(row[0])
            if row is ALPHA:
                break
    return failed
