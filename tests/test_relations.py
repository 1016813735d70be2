"""The table of exponent relations: a valid tuple for every set, no dead row,
and a failing ``0 < alpha < n`` row reported alone."""

import dataclasses
import itertools

import numpy as np
import pytest

from morreybench import GridFunction, ParameterError, unit_root
from morreybench.experiments import (ExponentProfile, FsDualParams, SharpnessConfig,
                                     SteinWeissParams, build_sharpness_pair, fs_dual_check,
                                     make_pairs, necessity_check, ratio_harness)
from morreybench.norms import dyadic_family
from morreybench.relations import ALPHA, RULES, violations
from morreybench.weights import (INF, CharParams, WeightSystem, char_one_weight, char_remark,
                                 char_testing, char_two_weight)

TWO_WEIGHT = dict(alpha=0.5, n=1, q1=9 / 8, q2=9 / 8, p=16 / 27, s=0.8,
                  t=0.8 * (9 / 16) / (16 / 27), r=16.0, a=17 / 16)
STEIN_WEISS = SteinWeissParams(n=1, alpha=0.5, q1=9 / 8, q2=9 / 8, p1=32 / 27, p2=32 / 27,
                               r=16.0, a=17 / 16, beta=0.0225, gamma1=0.02, gamma2=0.02)

# one valid tuple per key of RULES, of the type that key is evaluated on; a
# CharParams meets the rows of the key its characteristic and s select
VALID = {
    "bilinear-ratio": ExponentProfile(alpha=0.3, n=1, p1=4, q1=2.5, p2=4, q2=2.5, s=5.0, t=3.125),
    "bilinear-sum": ExponentProfile(alpha=0.3, n=1, p1=4, q1=2.5, p2=4, q2=2.5, s=5.0, t=2.0),
    "bilinear-critical": ExponentProfile(alpha=0.3, n=1, p1=1 / 0.3, q1=2.5, p2=4, q2=2.5),
    "linear-adams": ExponentProfile(alpha=0.3, n=1, p1=2.0, q1=1.6, s=5.0, t=4.0),
    "product-embedding": ExponentProfile(alpha=0.3, n=1, p1=2.0, q1=1.5, p2=4.0, q2=3.0,
                                         s=1 / 0.45, t=0.75 / 0.45),
    "olsen": CharParams(**TWO_WEIGHT),
    "s<1": CharParams(**TWO_WEIGHT),
    "s>=1": CharParams(alpha=0.5, n=1, q1=9 / 8, q2=9 / 8, p=1.0, s=16 / 9, t=1.0,
                       r=1.0 / (9 / 16 - 0.5), a=17 / 16),
    "remark": CharParams(**TWO_WEIGHT),
    "one-weight-s<1": CharParams(alpha=0.5, n=1, q1=9 / 8, q2=9 / 8, p=0.6, s=6 / 7,
                                 t=6 / 7 * (9 / 16) / 0.6, r=INF, a=17 / 16),
    "one-weight-s>=1": CharParams(alpha=0.25, n=1, q1=1.2, q2=1.2, p=1.0, s=4 / 3, t=0.8,
                                  r=INF, a=1.1),
    "testing": CharParams(alpha=0.5, n=1, q1=4.0, q2=4.0, p=2.5, s=20 / 3, t=16 / 3, r=4.0,
                          a=2.0),
    "stein-weiss": STEIN_WEISS,
    "stein-weiss-weights": STEIN_WEISS,
    "fs-dual": FsDualParams(CharParams(**TWO_WEIGHT), r1=32.0, r2=32.0, s1=17 / 19, s2=17 / 19),
    "sharpness": SharpnessConfig(n=1, alpha=0.3, p1=4, q1=2, p2=4, q2=2, t=5.0),
}

POOL = (-0.54, 0.0, 0.5, 0.9, 1.0, 1.5, 2.0, 4.0, 16.0, INF)


def _exponents(x):
    """The settable fields of ``x``: its numbers and tuples, and the numbers of its CharParams."""
    names = []
    for field in dataclasses.fields(x):
        value = getattr(x, field.name)
        if isinstance(value, CharParams):
            names += ["cp." + name for name in _exponents(value)]
        elif isinstance(value, (int, float, tuple)):
            names.append(field.name)
    return names


def _with(x, changes):
    inner = {k[3:]: v for k, v in changes.items() if k.startswith("cp.")}
    outer = {k: v for k, v in changes.items() if not k.startswith("cp.")}
    if inner:
        outer["cp"] = dataclasses.replace(x.cp, **inner)
    return dataclasses.replace(x, **outer)


def _perturbations(x, count):
    """``x`` with ``count`` exponents replaced: pool values and 1% moves; a
    tuple is cut to its first entry."""
    for names in itertools.combinations(_exponents(x), count):
        choices = [(value[:1],) if isinstance(value, tuple) else POOL + (value * 1.01,)
                   for value in (_with_value(x, name) for name in names)]
        for values in itertools.product(*choices):
            yield _with(x, dict(zip(names, values)))


def _with_value(x, name):
    return getattr(x.cp, name[3:]) if name.startswith("cp.") else getattr(x, name)


def test_every_key_has_a_valid_tuple():
    assert set(VALID) == set(RULES)
    for key, x in VALID.items():
        assert violations(x, key) == [], key


@pytest.mark.parametrize("key", sorted(RULES))
def test_every_row_fails_for_some_perturbed_tuple(key):
    # one or two exponents of the valid tuple moved; some rows cannot fail
    # alone, e.g. s/(1-s) < r, which the a window shadows
    labels = {label for label, _ in RULES[key]}
    seen = set()
    for count in (1, 2):
        for x in _perturbations(VALID[key], count):
            seen.update(violations(x, key))
            if labels <= seen:
                return
    assert labels - seen == set()


@pytest.mark.parametrize("key", sorted(k for k, rows in RULES.items() if ALPHA in rows))
@pytest.mark.parametrize("alpha", [-0.54, 0.0, 1.0, 4.0])
def test_failing_alpha_row_is_reported_alone(key, alpha):
    # also when a later row fails: the rows after it divide by alpha
    x = VALID[key]
    broken = next(p for p in _perturbations(x, 1)
                  if p.n == x.n and set(violations(p, key)) - {ALPHA[0]})
    for base in (x, broken):
        assert violations(_with(base, {"alpha": alpha}), key) == [ALPHA[0]]


def test_rows_before_a_failing_alpha_row_are_still_named():
    bad = dataclasses.replace(VALID["sharpness"], n=2, alpha=3.0)
    assert violations(bad, "sharpness") == ["sharpness harness is one-dimensional", ALPHA[0]]


def test_unknown_ids_keep_their_messages():
    with pytest.raises(ParameterError) as info:
        ratio_harness("nope", VALID["olsen"], make_pairs("step", 1, 1, 4), (4,))
    assert str(info.value) == "hypotheses of nope violated: unknown theorem id 'nope'"


# the s >= 1 form at s = 1 itself
AT_S_1 = CharParams(alpha=0.5, n=1, q1=9 / 8, q2=9 / 8, p=0.8, s=1.0, t=0.703125, r=4.0, a=17 / 16)


@pytest.mark.parametrize("kind,key,x", [
    ("two-weight", "s<1", VALID["s<1"]), ("two-weight", "s>=1", VALID["s>=1"]),
    ("two-weight", "s>=1", AT_S_1), ("remark", "remark", VALID["remark"]),
    ("one-weight", "one-weight-s<1", VALID["one-weight-s<1"]),
    ("one-weight", "one-weight-s>=1", VALID["one-weight-s>=1"]),
    ("testing", "testing", VALID["testing"])])
def test_char_params_checks_are_table_lookups(kind, key, x):
    # a characteristic refuses exactly the rows of its key; s picks the
    # two-weight and one-weight keys
    x.check(kind)
    bad = dataclasses.replace(x, t=0.7 * x.t)
    with pytest.raises(ParameterError) as info:
        bad.check(kind)
    assert str(info.value) == "invalid parameters: " + "; ".join(violations(bad, key))


def test_validators_are_table_lookups():
    # fs_dual_check reports the s < 1 rows of its CharParams, then the fs-dual split
    ones = GridFunction(unit_root(1), np.ones(16), "pos")
    cp = dataclasses.replace(VALID["s<1"], t=0.7)
    fs = dataclasses.replace(VALID["fs-dual"], cp=cp, r2=16.0)
    for fs, failed in ((fs, ["t/s = q/p", "1/r = 1/r1 + 1/r2"]),
                       (dataclasses.replace(fs, cp=dataclasses.replace(cp, alpha=0.0)),
                        ["0 < alpha < n", "1/r = 1/r1 + 1/r2"])):
        assert violations(fs.cp, "s<1") + violations(fs, "fs-dual") == failed
        with pytest.raises(ParameterError) as info:
            fs_dual_check(ones, ones, fs)
        assert str(info.value) == "relations violated: " + "; ".join(failed)
    sw = dataclasses.replace(STEIN_WEISS, beta=-0.54)
    assert violations(sw, "stein-weiss") == []
    assert violations(sw, "stein-weiss-weights") == [
        "alpha + beta + gamma1 + gamma2 = n + n/t - n/q1 - n/q2", "beta + gamma1 + gamma2 >= 0"]


def test_sharpness_refusal_names_every_failed_relation():
    bad = dataclasses.replace(VALID["sharpness"], n=2)
    with pytest.raises(ParameterError) as info:
        build_sharpness_pair(bad, 4)
    assert str(info.value) == ("invalid sharpness configuration: sharpness harness is "
                               "one-dimensional; 0 < t <= s")


@pytest.mark.parametrize("deltas,failed", [((4,), True), ((4, 4), True), ((), True),
                                            ((4, 5), False)])
def test_sharpness_slope_needs_two_distinct_deltas(deltas, failed):
    x = dataclasses.replace(VALID["sharpness"], delta_exps=deltas)
    assert violations(x, "sharpness") == ["a slope needs at least two distinct deltas"] * failed


@pytest.mark.parametrize("p1,p2", [(0.0, 4.0), (4.0, 0.0), (0.0, 0.0)])
def test_relations_that_divide_by_zero_fail(p1, p2):
    # s = 1/(1/p1 + 1/p2 - alpha/n) cannot be formed, so both rows reading it fail
    bad = dataclasses.replace(VALID["sharpness"], p1=p1, p2=p2)
    assert violations(bad, "sharpness") == [
        "0 < q_i <= p_i", "1/s = 1/p1 + 1/p2 - alpha/n must be positive", "0 < t <= s"]


@pytest.mark.parametrize("site", ["two-weight", "remark", "one-weight", "testing", "necessity",
                                  "bilinear-ratio", "olsen", "ratio-two-weight", "fs-dual"])
@pytest.mark.parametrize("dim,n", [(2, 1), (1, 2)])
def test_parameters_meet_data_of_their_dimension(site, dim, n):
    # exponents are checked for their own n, so computing on data of another
    # dimension would use relations that do not hold there: once exit 0.  The
    # tuples hold for n, since their relations read alpha only as alpha/n.
    def at_n(key):
        x = VALID[key]
        if isinstance(x, FsDualParams):
            return dataclasses.replace(x, cp=dataclasses.replace(x.cp, n=n, alpha=n * x.cp.alpha))
        return dataclasses.replace(x, n=n, alpha=n * x.alpha)
    ones = GridFunction(unit_root(dim), np.ones((8,) * dim), "pos")
    ws, fam = WeightSystem(ones, ones, ones), dyadic_family(unit_root(dim), -3)
    pairs = make_pairs("step", 1, 1, 3, dim)
    key, run = {  # site -> (the RULES key of its tuple, the call)
        "two-weight": ("s<1", lambda x: char_two_weight(ws, x, fam)),
        "remark": ("remark", lambda x: char_remark(ws, x, fam)),
        "one-weight": ("one-weight-s<1", lambda x: char_one_weight(ws, x, fam)),
        "testing": ("testing", lambda x: char_testing(ws, x, fam)),
        "necessity": ("testing", lambda x: necessity_check([ws], x, fam)),
        "bilinear-ratio": ("bilinear-ratio",
                           lambda x: ratio_harness("bilinear-ratio", x, pairs, (3,))),
        "olsen": ("olsen", lambda x: ratio_harness("olsen", x, pairs, (3,), ws=ws)),
        "ratio-two-weight": ("s<1", lambda x: ratio_harness("two-weight", x, pairs, (3,), ws=ws)),
        "fs-dual": ("fs-dual", lambda x: fs_dual_check(ones, ones, x, levels=(3, 4))),
    }[site]
    x = at_n(key)
    assert violations(x, key) == [] and (key != "fs-dual" or violations(x.cp, "s<1") == [])
    with pytest.raises(ParameterError) as info:
        run(x)
    assert str(info.value) == f"parameters for n={n} do not fit {dim}D data"
