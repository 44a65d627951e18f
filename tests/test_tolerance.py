"""Float verdicts against exact verdicts and against tiny perturbations.

Float mode decides every comparison through ``scalars.Cmp``: a difference
within the tolerance counts as satisfied, one inside the buffer above it
gives ``Unknown``.  So on rational data the float verdict is the exact one
or ``Unknown``, and a relative perturbation of 1e-13 or less never turns a
``Yes`` into a ``No`` or back.
"""

import cmath
import json
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from diagonalis.cli import run
from diagonalis.deciders import (
    decide_horn_unitary,
    decide_jlw_unitary,
    decide_schur_horn,
    decide_thompson,
    decide_williams_3x3,
)
from diagonalis.majorization import majorize_finite
from diagonalis.scalars import INF, QC
from diagonalis.seqspec import ConstantRepeat, FiniteList, SequenceSpec

SETTINGS = settings(max_examples=150, deadline=None)


def rationals(lo, hi, den=12):
    return st.builds(lambda p, q: F(p, q) if lo <= F(p, q) <= hi else F(lo),
                     st.integers(int(lo * den), int(hi * den)),
                     st.integers(1, den))


def agrees(exact, flt):
    assert exact.mode == "exact" and flt.mode == "float"
    assert flt.verdict in (exact.verdict, "Unknown"), (exact.as_json(), flt.as_json())


def floats(xs):
    return [complex(x) if isinstance(x, QC) else float(x) for x in xs]


def no_flip(a, b):
    assert {a.verdict, b.verdict} != {"Yes", "No"}, (a.as_json(), b.as_json())


# ---------------------------------------------------------------------------
# (a) float verdict = exact verdict or Unknown on rational instances


@SETTINGS
@given(st.lists(rationals(0, 3), min_size=1, max_size=4),
       st.lists(rationals(-3, 3), min_size=4, max_size=4))
def test_thompson_float_agrees_with_exact(s, d):
    s = sorted(s, reverse=True)
    d = d[:len(s)]
    agrees(decide_thompson(s, d), decide_thompson(floats(s), floats(d)))


@SETTINGS
@given(st.lists(rationals(F(-6, 5), F(6, 5)), min_size=1, max_size=5),
       st.sampled_from(["unitary", "orthogonal", "rotation"]))
def test_horn_float_agrees_with_exact(d, variant):
    agrees(decide_horn_unitary(d, variant), decide_horn_unitary(floats(d), variant))


@SETTINGS
@given(st.lists(rationals(F(-6, 5), F(6, 5)), min_size=1, max_size=4),
       st.one_of(st.none(), rationals(F(1, 2), 1)))
def test_jlw_float_agrees_with_exact(head, limit):
    def spec(conv, exact):
        streams = [FiniteList([conv(v) for v in head])]
        if limit is not None:
            streams.append(ConstantRepeat(conv(limit), INF))
        return SequenceSpec(tuple(streams), "real", exact)
    agrees(decide_jlw_unitary(spec(F, True)), decide_jlw_unitary(spec(float, False)))


gaussian = st.builds(QC, rationals(-2, 2, 6), rationals(-2, 2, 6))


@SETTINGS
@given(st.lists(gaussian, min_size=3, max_size=3), st.lists(gaussian, min_size=2, max_size=2),
       st.booleans())
def test_williams_float_agrees_with_exact(lam, d, from_lam):
    if from_lam:  # vertex, edge and collinear cases need d built from lam
        d = [lam[1], (lam[0] + lam[2]) / 2 + d[0] / 8]
    d = d + [lam[0] + lam[1] + lam[2] - d[0] - d[1]]
    agrees(decide_williams_3x3(lam, d), decide_williams_3x3(floats(lam), floats(d)))


# the same rational instances scaled far below and far above unit size:
# the Thompson, Williams, Schur-Horn and majorization conditions do not
# change with the scale

scales = st.sampled_from([F(1, 10**12), F(10**12)])


@SETTINGS
@given(st.lists(rationals(0, 3), min_size=1, max_size=4),
       st.lists(rationals(-3, 3), min_size=4, max_size=4), scales)
def test_thompson_scaled_float_agrees_with_exact(s, d, c):
    s = [c * x for x in sorted(s, reverse=True)]
    d = [c * x for x in d[:len(s)]]
    agrees(decide_thompson(s, d), decide_thompson(floats(s), floats(d)))


@SETTINGS
@given(st.lists(gaussian, min_size=3, max_size=3), st.lists(gaussian, min_size=2, max_size=2),
       st.booleans(), scales)
def test_williams_scaled_float_agrees_with_exact(lam, d, from_lam, c):
    if from_lam:
        d = [lam[1], (lam[0] + lam[2]) / 2 + d[0] / 8]
    d = d + [lam[0] + lam[1] + lam[2] - d[0] - d[1]]
    lam, d = [v * c for v in lam], [v * c for v in d]
    agrees(decide_williams_3x3(lam, d), decide_williams_3x3(floats(lam), floats(d)))


@st.composite
def finite_pairs(draw):
    """(d, lam) of one length; half of them with d an average of lam's permutations."""
    lam = draw(st.lists(rationals(-3, 3), min_size=1, max_size=5))
    if draw(st.booleans()):
        perm = draw(st.permutations(range(len(lam))))
        t = draw(rationals(0, 1))
        d = [t * x + (1 - t) * lam[i] for x, i in zip(lam, perm)]
    else:
        d = draw(st.lists(rationals(-3, 3), min_size=len(lam), max_size=len(lam)))
    return d, lam


@SETTINGS
@given(finite_pairs(), scales)
def test_schur_horn_scaled_float_agrees_with_exact(pair, c):
    d, lam = ([c * x for x in xs] for xs in pair)
    agrees(decide_schur_horn(lam, d), decide_schur_horn(floats(lam), floats(d)))


@SETTINGS
@given(finite_pairs(), scales)
def test_majorize_finite_scaled_float_agrees_with_exact(pair, c):
    d, lam = ([c * x for x in xs] for xs in pair)
    agrees(majorize_finite(d, lam), majorize_finite(floats(d), floats(lam)))


def test_small_thompson_instance_is_no():
    # the second partial sum of |d| is 2e-11 against 1e-11
    assert decide_thompson([1e-11, 0.0], [1e-11, 1e-11]).verdict == "No"


def test_small_schur_horn_instance_is_no():
    # the first partial sum of d is 2e-11 against 1e-11
    assert decide_schur_horn([1e-11, 0.0], [2e-11, -1e-11]).verdict == "No"


def test_small_triangle_is_decided():
    lam = [0.0, 1e-4, 1e-4j]
    inside = [3e-5 + 3e-5j, 3e-5 + 3e-5j, 4e-5 + 4e-5j]
    assert decide_williams_3x3(lam, inside).verdict == "Yes"
    outside = [2e-4 + 2e-4j, 0.0, -1e-4 - 1e-4j]
    assert decide_williams_3x3(lam, outside).verdict == "No"


# ---------------------------------------------------------------------------
# (b) boundary instances perturbed by a relative 1e-13 or less never flip


tiny = st.floats(-1e-13, 1e-13)


@SETTINGS
@given(st.lists(st.floats(0, 10), min_size=1, max_size=5),
       st.lists(tiny, min_size=5, max_size=5), st.permutations(range(5)))
def test_thompson_boundary_does_not_flip(s, eps, perm):
    s = sorted(s, reverse=True)
    d = [s[i] for i in perm if i < len(s)]  # d = s up to order: on the boundary
    bumped = [x * (1 + e) for x, e in zip(d, eps)]
    no_flip(decide_thompson(s, d), decide_thompson(s, bumped))


@SETTINGS
@given(st.lists(st.floats(0, 10), min_size=1, max_size=5),
       st.lists(tiny, min_size=5, max_size=5), st.permutations(range(5)),
       st.sampled_from([1e-12, 1e12]))
def test_scaled_thompson_boundary_does_not_flip(s, eps, perm, c):
    s = sorted((c * x for x in s), reverse=True)
    d = [s[i] for i in perm if i < len(s)]
    bumped = [x * (1 + e) for x, e in zip(d, eps)]
    no_flip(decide_thompson(s, d), decide_thompson(s, bumped))


@SETTINGS
@given(st.floats(0, 1), st.booleans(), st.lists(tiny, min_size=4, max_size=4),
       st.sampled_from(["unitary", "orthogonal", "rotation"]))
def test_horn_pair_boundary_does_not_flip(m, flip, eps, variant):
    d = [m, -m if flip else m]  # (m, +-m): lhs = rhs
    bumped = [x * (1 + e) for x, e in zip(d, eps)]
    no_flip(decide_horn_unitary(d, variant), decide_horn_unitary(bumped, variant))


@SETTINGS
@given(st.lists(st.floats(0, 6.3), min_size=1, max_size=4),
       st.lists(tiny, min_size=4, max_size=4))
def test_horn_unit_modulus_does_not_flip(phases, eps):
    d = [cmath.exp(1j * t) for t in phases]
    bumped = [x * (1 + e) for x, e in zip(d, eps)]
    no_flip(decide_horn_unitary(d), decide_horn_unitary(bumped))
    signs = [1.0 if x.real >= 0 else -1.0 for x in d]
    bumped = [x * (1 + e) for x, e in zip(signs, eps)]
    for variant in ("orthogonal", "rotation"):
        no_flip(decide_horn_unitary(signs, variant), decide_horn_unitary(bumped, variant))


# ---------------------------------------------------------------------------
# the CLI requests that flipped inside the tolerance


def verdict_of(capsys, *argv):
    run(list(argv))
    return json.loads(capsys.readouterr().out)["verdict"]


def test_thompson_request_near_equality(capsys):
    base = verdict_of(capsys, "decide", "thompson", "--s", "[1,1]", "--d", "[1,1]")
    near = verdict_of(capsys, "decide", "thompson", "--s", "[1,1]", "--d", "[1,0.9999999999999]")
    assert base == "Yes" and near in ("Yes", "Unknown")


def test_horn_requests_near_unit_modulus(capsys):
    base = verdict_of(capsys, "decide", "horn-unitary", "--d", "[1,1]")
    assert base == "Yes"
    for d in ("[1.00000000000001,1]", "[0.99999999999999,1]"):
        assert verdict_of(capsys, "decide", "horn-unitary", "--d", d) in ("Yes", "Unknown")


def test_small_finite_majorization_request_fails(capsys):
    assert verdict_of(capsys, "decide", "majorization", "--kind", "finite",
                      "--lambda", "[1e-11,0]", "--d", "[2e-11,-1e-11]") == "Fails"
