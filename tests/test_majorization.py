import math
import time
from collections import Counter
from fractions import Fraction as F
from itertools import accumulate, count, repeat
from operator import mul
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagonalis.deciders import decide_schur_horn
from diagonalis.oracle import rational_majorization_oracle
from diagonalis.scalars import INF, Cmp, PreconditionError
from diagonalis import majorization
from diagonalis.majorization import (
    MergedDesc,
    _tails_dominate_eventually,
    _tails_dominate_forall,
    approx_p_majorize,
    majorize_finite,
    majorize_l1,
    majorize_spec,
    p_majorize,
    weak_majorize,
)
from diagonalis.seqspec import (
    ConstantRepeat,
    FiniteList,
    Geometric,
    TelescopingHarmonic,
    materialize_prefix,
    seq,
)


def geo(f, r):
    return Geometric(F(f), F(r))


def brute_weak_ok(d, lam, depth=200):
    """Independent oracle: compare all partial sums of sorted prefixes.

    The prefixes come from the round-robin ``materialize_prefix``, not from
    the descending enumeration the deciders scan.  Every infinite stream
    here enumerates nonincreasingly, so the first ``depth`` terms per stream
    hold the ``depth`` largest entries.
    """
    def top(spec):
        return sorted(materialize_prefix(spec, depth * len(spec.streams)), reverse=True)[:depth]

    ds = top(d)
    ls = top(lam)
    ds += [F(0)] * (depth - len(ds))
    ls += [F(0)] * (depth - len(ls))
    sd = sl = F(0)
    for x, y in zip(ds, ls):
        sd += x
        sl += y
        if sd > sl:
            return False
    return True


@pytest.mark.usefixtures("no_exact_float")
class TestMajorizeFinite:
    def test_holds(self):
        v = majorize_finite([F(2), F(1), F(1)], [F(3), F(1), F(0)])
        assert v.verdict == "Holds" and v.mode == "exact"

    def test_reflexive(self):
        assert majorize_finite([F(5), F(2)], [F(5), F(2)]).holds

    def test_fails_with_witness(self):
        v = majorize_finite([F(3), F(1)], [F(2), F(2)])
        assert v.verdict == "Fails"
        assert v.witness[0] == 1
        assert v.witness[1] == F(3) and v.witness[2] == F(2)

    def test_length_mismatch(self):
        with pytest.raises(PreconditionError):
            majorize_finite([1], [1, 2])

    def test_unequal_totals_fail(self):
        assert majorize_finite([F(1)], [F(2)]).verdict == "Fails"

    # Witnesses as the Fraction scan reports them: both running sums start
    # from ``0 * (largest d)`` and add the sorted entries, so an int prefix
    # stays an int and a Fraction anywhere before it makes a Fraction.
    PINNED = [
        (([3, 1], [2, 2]), (1, 3, 2), (int, int), {"lhs": 3, "rhs": 2}, ""),
        (([3, 1], [F(2), 2]), (1, 3, F(2)), (int, F), {"lhs": 3, "rhs": "2"}, ""),
        (([3, 1], [2, F(2)]), (1, 3, 2), (int, int), {"lhs": 3, "rhs": 2}, ""),
        (([F(3), 1], [2, 2]), (1, F(3), F(2)), (F, F), {"lhs": "3", "rhs": "2"}, ""),
        (([3, F(3)], [2, 2]), (1, 3, 2), (int, int), {"lhs": 3, "rhs": 2}, ""),
        (([F(3), 3], [2, 2]), (1, F(3), F(2)), (F, F), {"lhs": "3", "rhs": "2"}, ""),
        (([1, F(5, 2)], [2, 2]), (1, F(5, 2), F(2)), (F, F),
         {"lhs": "5/2", "rhs": "2"}, ""),
        (([3, F(1, 2)], [3, F(1, 4)]), (2, F(7, 2), F(13, 4)), (F, F),
         {"lhs": "7/2", "rhs": "13/4"}, ""),
        (([1, 1], [1, 2]), (2, 2, 3), (int, int), {"lhs": 2, "rhs": 3},
         "total sums differ"),
        (([F(1, 3), F(1, 3), 0], [F(1, 2), F(1, 2), 0]), (3, F(2, 3), F(1)), (F, F),
         {"lhs": "2/3", "rhs": "1"}, "total sums differ"),
        (([-1, -2], [F(-3, 2), F(1, 2)]), (2, -3, F(-1)), (int, F),
         {"lhs": -3, "rhs": "-1"}, "total sums differ"),
        (([1, -2], [F(1, 2), F(-3, 2)]), (1, 1, F(1, 2)), (int, F),
         {"lhs": 1, "rhs": "1/2"}, ""),
    ]

    @pytest.mark.parametrize("args, witness, types, js, detail", PINNED)
    def test_pinned_witness(self, args, witness, types, js, detail):
        v = majorize_finite(*args)
        assert (v.verdict, v.mode, v.detail) == ("Fails", "exact", detail)
        assert v.witness == witness
        assert tuple(type(x) for x in v.witness[1:]) == types
        assert type(v.witness[0]) is int
        assert v.as_json() == {"verdict": "Fails", "mode": "exact", **(
            {"detail": detail} if detail else {}),
            "witness": {"index": witness[0], **js}}

    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    def test_numpy_ints_decide_exactly(self, dtype):
        v = majorize_finite([dtype(3), dtype(1)], [2, 2])
        assert (v.verdict, v.mode, v.witness) == ("Fails", "exact", (1, 3, 2))
        assert majorize_finite(list(np.array([2, 2], dtype)), [3, 1]).holds
        v = majorize_finite(list(np.array([1, 1], dtype)), list(np.array([1, 2], dtype)))
        assert v.verdict == "Fails" and v.detail == "total sums differ"

    def test_numpy_sums_past_int64(self):
        # as int64 the second partial sum of d wraps to -2**63 and d's total
        # equals lam's, so a wrapping scan would answer Holds
        b = 2**62
        d = list(np.array([b, b, 0], np.int64))
        lam = list(np.array([b, b - 1, 1], np.int64))
        v = majorize_finite(d, lam)
        assert v.verdict == "Fails" and v.witness == (2, 2 * b, 2 * b - 1)
        assert [type(x) for x in v.witness[1:]] == [int, int]
        assert majorize_finite(lam, d).holds
        # a scaled key past int64 as well: the lcm is 3, and b * 3 > 2**63
        v = majorize_finite([np.int64(b), F(1, 3)], [np.int64(b), F(1, 3)])
        assert v.holds
        v = majorize_finite([np.int64(b), F(2, 3)], [np.int64(b), F(1, 3)])
        assert v.verdict == "Fails" and v.witness == (2, b + F(2, 3), b + F(1, 3))

    def test_pinned_float_witness(self):
        v = majorize_finite([3.0, 1], [2, 2])
        assert v.mode == "float" and v.witness == (1, 3.0, 2.0)
        assert [type(x) for x in v.witness[1:]] == [float, float]
        v = majorize_finite([3, 1], [2.0, 2])
        assert v.mode == "float" and v.witness == (1, 3.0, 2.0)
        assert [type(x) for x in v.witness[1:]] == [float, float]


@pytest.mark.usefixtures("no_exact_float")
class TestWeakMajorize:
    def test_shifted_geometric_holds(self):
        d = seq(geo(F(1, 4), F(1, 2)))
        lam = seq(geo(F(1, 2), F(1, 2)))
        v = weak_majorize(d, lam)
        assert v.holds
        assert brute_weak_ok(d, lam)

    def test_reflexive(self):
        d = seq(geo(F(1, 2), F(1, 2)))
        assert weak_majorize(d, d).holds

    def test_int_parameter_gives_exact_witness(self):
        d = seq(FiniteList([F(1, 2)]), TelescopingHarmonic(1))
        v = weak_majorize(d, seq(FiniteList([F(1)])))
        assert v.mode == "exact" and v.verdict == "Fails"
        assert v.witness[1] == F(7, 6) and type(v.witness[1]) is F

    def test_head_violation(self):
        d = seq(FiniteList([F(3, 4)]), ConstantRepeat(F(0), INF))
        lam = seq(geo(F(1, 2), F(1, 2)))
        v = weak_majorize(d, lam)
        assert v.verdict == "Fails" and v.witness[0] == 1
        assert not brute_weak_ok(d, lam)

    def test_large_finite_repeat_is_not_expanded(self):
        # two million equal entries stay one (value, count) run
        d = seq(ConstantRepeat(F(1, 10**7), 2 * 10**6))
        v = weak_majorize(d, seq(FiniteList([F(1)])))
        assert v.verdict == "Holds" and v.detail == "prefix domination"

    def test_equal_total_tail_rule_fails(self):
        # same total 1, but d's tail decays slower at every index shift
        d = seq(geo(F(1, 2), F(1, 2)))
        lam = seq(FiniteList([F(1)]))
        assert weak_majorize(d, lam).holds
        v = weak_majorize(lam, d)
        assert v.verdict == "Fails"

    def test_violation_past_cap_is_unknown_without_stepping(self):
        # ratios 1/2 and 1/2 + 1e-9: the first violation lies near m = 5e7
        r = F(1, 2) + F(1, 10**9)
        d = seq(FiniteList([F(9, 10)]), geo(F(1, 2), F(1, 2)))
        lam = seq(FiniteList([F(1)]), Geometric(F(9, 10) * (1 - r), r))
        t0 = time.perf_counter()
        v = weak_majorize(d, lam)
        forall = _tails_dominate_forall(("geo", F(2), F(1, 2)), ("geo", F(1), r), Cmp(True))
        assert time.perf_counter() - t0 < 1.0
        assert v.verdict == "Unknown" and v.detail == "tail comparison unresolved"
        assert forall is None

    def test_negative_rejected(self):
        with pytest.raises(PreconditionError):
            weak_majorize(seq(FiniteList([F(-1)])), seq(FiniteList([F(1)])))

    def test_telescoping_vs_geometric(self):
        # 1/(n+1) >= 2^-n for every n, so the telescoping tail stays dominated
        d = seq(TelescopingHarmonic(F(1)))
        lam = seq(geo(F(1, 2), F(1, 2)))
        assert weak_majorize(d, lam).holds
        assert brute_weak_ok(d, lam)
        # and the geometric sequence falls behind the telescoping one at n=2
        v = weak_majorize(lam, d)
        assert v.verdict == "Fails" and v.witness[0] == 2
        assert not brute_weak_ok(lam, d)


@pytest.mark.usefixtures("no_exact_float")
class TestL1Majorize:
    def test_zero_majorized_by_balanced_pair(self):
        d = seq(ConstantRepeat(F(0), INF))
        lam = seq(geo(F(1), F(1, 2)), geo(F(-1), F(1, 2)))
        assert majorize_l1(d, lam).holds

    def test_reflexive(self):
        lam = seq(geo(F(1), F(1, 2)), FiniteList([F(-2)]))
        assert majorize_l1(lam, lam).holds

    def test_positive_part_violation(self):
        d = seq(FiniteList([F(1)]))
        lam = seq(FiniteList([F(1, 2), F(1, 2)]))
        v = majorize_l1(d, lam)
        assert v.verdict == "Fails" and v.witness[0] == 1

    def test_non_summable_rejected(self):
        with pytest.raises(PreconditionError):
            majorize_l1(seq(ConstantRepeat(F(1, 10), INF)), seq(FiniteList([F(1)])))


@pytest.mark.usefixtures("no_exact_float")
class TestPMajorize:
    def test_telescoping_under_geometric_all_p(self):
        d = seq(TelescopingHarmonic(F(1)))
        lam = seq(geo(F(1, 2), F(1, 2)))
        for p in (0, 1, 5, INF):
            assert p_majorize(d, lam, p).holds, p

    def test_p0_equals_plain(self):
        d = seq(geo(F(1, 4), F(1, 2)), FiniteList([F(1, 2)]))
        lam = seq(geo(F(1, 2), F(1, 2)))
        assert p_majorize(d, lam, 0).verdict == majorize_spec(d, lam).verdict

    def test_self_fails_at_p1(self):
        g = seq(geo(F(1, 2), F(1, 2)))
        v = p_majorize(g, g, 1)
        assert v.verdict == "Fails"

    def test_long_finite_run_is_taken_whole(self):
        # two million equal entries settle and align as one (value, count) run
        d = seq(ConstantRepeat(F(1, 10**7), 2 * 10**6))
        t0 = time.perf_counter()
        v = p_majorize(d, seq(FiniteList([F(1, 5)])), 1)
        assert time.perf_counter() - t0 < 0.1
        assert v.verdict == "Holds"

    @pytest.mark.parametrize("tail", [geo(F(1, 3), F(1, 2)), TelescopingHarmonic(F(2))])
    def test_closed_form_alignment_matches_stepping(self, tail):
        stepped, aligned = (MergedDesc(seq(FiniteList([F(1, 2)]), tail)) for _ in range(2))
        for _ in range(2):
            stepped.advance()
            aligned.advance_run()
        for _ in range(7):
            stepped.advance()
        aligned.advance_to(9)
        assert (aligned.n, aligned.partial, aligned.tail_descr()) == (
            stepped.n, stepped.partial, stepped.tail_descr())

    def test_finite_support_self_all_p(self):
        d = seq(FiniteList([F(2), F(1)]), ConstantRepeat(F(0), INF))
        assert p_majorize(d, d, INF).holds

    def test_tie_broken_past_the_cap_names_no_p(self):
        # equal ratios: some finite p fails, but the first one is 406, past a
        # cap of 100, so the answer is Fails without an unconfirmed p = 101
        r = F(999, 1000)
        d = seq(FiniteList([F(1, 2)]), geo(F(3, 2000), r))
        lam = seq(FiniteList([F(1)]), geo(F(1, 1000), r))
        with mock.patch.object(majorization, "_SCAN_CAP", 100):
            v = p_majorize(d, lam, INF)
            assert v.verdict == "Fails" and v.witness is None
            assert "101" not in v.detail and "past 100" in v.detail
            assert p_majorize(d, lam, 101).holds
        assert p_majorize(d, lam, INF).detail.endswith("already at p=406")


@pytest.mark.usefixtures("no_exact_float")
class TestApproxP:
    def test_implied_by_p(self):
        d = seq(TelescopingHarmonic(F(1)))
        lam = seq(geo(F(1, 2), F(1, 2)))
        for p in (0, 2, INF):
            if p_majorize(d, lam, p).holds:
                assert approx_p_majorize(d, lam, p).holds

    def test_infinity_agreement(self):
        pairs = [
            (seq(TelescopingHarmonic(F(1))), seq(geo(F(1, 2), F(1, 2)))),
            (seq(geo(F(1, 2), F(1, 2))), seq(geo(F(1, 2), F(1, 2)))),
            (seq(geo(F(1, 3), F(1, 3))), seq(geo(F(2, 3), F(1, 2)))),
        ]
        for d, lam in pairs:
            assert (p_majorize(d, lam, INF).verdict
                    == approx_p_majorize(d, lam, INF).verdict)

    def test_self_fails_at_p1(self):
        g = seq(geo(F(1, 2), F(1, 2)))
        assert approx_p_majorize(g, g, 1).verdict == "Fails"


ratios = st.fractions(min_value=F(1, 8), max_value=F(7, 8), max_denominator=8)
firsts = st.fractions(min_value=F(1, 8), max_value=3, max_denominator=8)
heads = st.lists(st.fractions(min_value=0, max_value=2, max_denominator=6),
                 min_size=0, max_size=3)


class TestTailRules:
    """The closed-form tail rules on every kind pair, with the values and
    first-violation indices the per-pair loops they replaced returned."""

    Z = ("zero",)

    @staticmethod
    def g(a, r):
        return ("geo", F(a), F(r))

    @staticmethod
    def t(s, b):
        return ("tel", F(s), b)

    # (rule, tail_d, tail_l, p, result), the same in exact and float mode
    CASES = [
        ("forall", Z, g(1, "1/2"), None, (False, 0)),
        ("forall", g(1, "1/2"), Z, None, True),
        ("eventually", Z, t(1, 1), 3, (False, 0, 3)),
        ("eventually", Z, t(1, 1), INF, (False, 0, 0)),
        ("eventually", t(1, 1), Z, 3, True),
        # geo/geo: r_d >= r_l settles at m = 0; r_d < r_l is scanned
        ("forall", g(1, "1/2"), g("1/2", "1/2"), None, True),
        ("forall", g("1/2", "3/4"), g(1, "1/2"), None, (False, 0)),
        ("forall", g(4, "1/4"), g(1, "1/2"), None, (False, 3)),
        ("eventually", g(4, "1/4"), g(1, "1/2"), 1, (False, 1, 1)),
        ("eventually", g(1, "3/4"), g(1, "1/2"), INF, True),
        ("eventually", g(1, "1/2"), g("1/4", "1/2"), 2, True),
        ("eventually", g(1, "1/2"), g("1/4", "1/2"), 3, (False, 0, 3)),
        ("eventually", g(1, "1/2"), g("1/4", "1/2"), INF, (False, 0, 3)),
        # geo/tel: the telescoping tail always wins eventually
        ("forall", g(2, "1/2"), t(1, 1), None, (False, 4)),
        ("eventually", g(2, "1/2"), t(1, 1), 2, (False, 0, 2)),
        ("eventually", g(2, "1/2"), t(1, 1), INF, (False, 4, 0)),
        # tel/geo: m1 = 3; a violation before it, domination once there
        ("forall", t(1, 1), g("9/10", "3/4"), None, (False, 1)),
        ("forall", t(1, 1), g("1/2", "3/4"), None, True),
        ("eventually", t(1, 1), g(5, "3/4"), 3, True),
        # tel/tel: s_l <= s_d, s_l > s_d, equal scales
        ("forall", t(2, 1), t(1, 2), None, True),
        ("forall", t(1, 3), t(1, 2), None, (False, 0)),
        ("forall", t(1, 1), t(2, 3), None, (False, 2)),
        ("forall", t(1, 1), t(2, 4), None, (False, 3)),
        ("eventually", t(2, 1), t(1, 5), 3, True),
        ("eventually", t(2, 1), t(1, 5), INF, True),
        ("eventually", t(1, 1), t(2, 4), 3, (False, 0, 3)),
        ("eventually", t(1, 1), t(2, 4), INF, (False, 3, 0)),
        ("eventually", t(1, 2), t(1, 5), 3, True),
        ("eventually", t(1, 2), t(1, 5), 4, (False, 0, 4)),
        ("eventually", t(1, 2), t(1, 5), INF, (False, 0, 4)),
    ]

    # float pairs whose deciding comparison lies inside the Cmp buffer
    BUFFER = [
        ("forall", ("geo", 1.0, 0.5), ("geo", 1.0 + 1e-9, 0.5), None),
        ("forall", ("geo", 1.0, 0.5), ("geo", 1.0 + 1e-9, 0.6), None),
        ("forall", ("geo", 1.0, 0.5), ("tel", 1.0 + 1e-9, 1), None),
        ("forall", ("tel", 1.0, 1), ("tel", 1.0 + 1e-9, 1), None),
        ("forall", ("tel", 1.0, 1), ("geo", 1.0 + 1e-9, 0.5), None),
        ("eventually", ("tel", 1.0, 1), ("tel", 1.0 + 1e-9, 3), 2),
        ("eventually", ("geo", 1.0, 0.5), ("geo", 0.25 + 1e-9, 0.5), 2),
    ]

    @staticmethod
    def decide(rule, td, tl, p, exact):
        if rule == "forall":
            return _tails_dominate_forall(td, tl, Cmp(exact))
        return _tails_dominate_eventually(td, tl, p, Cmp(exact))

    @staticmethod
    def as_float(descr):
        if descr[0] == "geo":
            return ("geo", float(descr[1]), float(descr[2]))
        if descr[0] == "tel":
            return ("tel", float(descr[1]), descr[2])
        return descr

    @pytest.mark.parametrize("exact", [True, False])
    @pytest.mark.parametrize("rule,td,tl,p,expected", CASES)
    def test_table(self, rule, td, tl, p, expected, exact):
        if not exact:
            td, tl = self.as_float(td), self.as_float(tl)
        got = self.decide(rule, td, tl, p, exact)
        assert got == expected and type(got) is type(expected)

    @pytest.mark.parametrize("rule,td,tl,p", BUFFER)
    def test_float_buffer_is_uncertain(self, rule, td, tl, p):
        assert self.decide(rule, td, tl, p, False) is None


# ---------------------------------------------------------------------------
# reference: the tail rules stepping m = 0, 1, 2, ... one comparison at a time


def _ref_terms(descr, shift):
    if descr[0] == "geo":
        _, a, r = descr
        return accumulate(repeat(r), mul, initial=a * r**shift if shift else a)
    _, s, b = descr
    b = b + shift
    return (s / (b + m) for m in count())


def _ref_scan(td, tl, shift, cmp, cap):
    ms = range(cap + 1)
    if td[0] == tl[0] == "tel":
        _, s1, b1 = td
        _, s2, b2 = tl
        b1 = b1 + shift
        return (cmp.le(s2 * (b1 + m), s1 * (b2 + m)) for m in ms)
    return (cmp.le(y, x) for _, y, x in zip(ms, _ref_terms(tl, 0), _ref_terms(td, shift)))


def _ref_first_violation(td, tl, shift, cmp, cap):
    return next((m for m, c in enumerate(_ref_scan(td, tl, shift, cmp, cap)) if c is False),
                None)


def ref_forall(td, tl, cmp, cap):
    if tl[0] == "zero":
        return True
    if td[0] == "zero":
        return (False, 0)
    kinds = (td[0], tl[0])
    stop = None
    if kinds == ("geo", "geo"):
        if td[2] >= tl[2]:
            stop = 0
    elif kinds == ("tel", "tel"):
        c = cmp.le(tl[1], td[1])
        if c is None:
            return None
        if c:
            stop = 0
    elif kinds == ("tel", "geo"):
        b, r = td[2], tl[2]
        m1_num = r * (b + 1) - b
        stop = int(m1_num / (1 - r)) + 1 if m1_num > 0 else 0
    for m, c in enumerate(_ref_scan(td, tl, 0, cmp, cap)):
        if c is not True:
            return None if c is None else (False, m)
        if m == stop:
            return True
    return None


def ref_eventually(td, tl, p, cmp, cap):
    if tl[0] == "zero":
        return True
    pp = 0 if p == INF else p
    if td[0] == "zero":
        return (False, 0, pp)
    kinds = (td[0], tl[0])
    if kinds == ("geo", "geo"):
        order = (td[2] > tl[2]) - (td[2] < tl[2])
    elif kinds == ("tel", "tel"):
        gt = cmp.lt(tl[1], td[1])
        eq = False if gt else cmp.eq(td[1], tl[1])
        if gt is None or eq is None:
            return None
        order = 1 if gt else 0 if eq else -1
    else:
        order = 1 if td[0] == "tel" else -1
    if order > 0:
        return True
    if order < 0:
        return (False, _ref_first_violation(td, tl, pp, cmp, cap), pp)
    if kinds == ("geo", "geo"):
        if p == INF:
            p_used = _ref_first_violation(td, ("geo", tl[1], 1), 0, cmp, cap)
            return (False, None if p_used is None else 0, p_used)
        c = next(_ref_scan(td, tl, p, cmp, cap))
        return c if c is not False else (False, 0, p)
    b1, b2 = td[2], tl[2]
    if p == INF:
        return (False, 0, max(b2 - b1 + 1, 0))
    if b1 + p <= b2:
        return True
    return (False, 0, p)


REF_CAP = 5000
tail_ratios = st.fractions(min_value=F(1, 1000), max_value=F(999, 1000), max_denominator=1000)
# scales down to 1e-12 put whole runs of comparisons inside the float floor
tail_scales = st.builds(lambda f, e: f / 10**e,
                        st.fractions(min_value=F(1, 1000), max_value=4, max_denominator=1000),
                        st.sampled_from([0, 0, 0, 3, 6, 9, 10, 11, 12]))


@st.composite
def tail_descrs(draw):
    kind = draw(st.sampled_from(["geo", "tel", "zero"]))
    if kind == "geo":
        return ("geo", draw(tail_scales), draw(tail_ratios))
    if kind == "tel":
        return ("tel", draw(tail_scales), draw(st.integers(min_value=1, max_value=60)))
    return ("zero",)


@st.composite
def crossing_pairs(draw):
    """(tail_d, tail_l) whose comparison turns exactly at a drawn index M up
    to past the cap, then nudged by one part in 10**9 either way or not.
    Ratios keep small denominators, so that stepping to M stays cheap."""
    nudge = 1 + F(draw(st.integers(min_value=-1, max_value=1)), 10**9)
    kind = draw(st.sampled_from(["geo/geo", "tel/tel", "geo/tel", "tel/geo"]))
    a = draw(tail_scales)
    small = st.fractions(min_value=F(1, 8), max_value=F(7, 8), max_denominator=8)
    if kind == "geo/geo":
        # tail_l(M) = tail_d(M) with r_l > r_d; a_d stays a finite float
        r_d, r_l = sorted(draw(st.lists(small, min_size=2, max_size=2, unique=True)))
        top = min(REF_CAP + 100, int(300 / math.log10(r_l / r_d)))
        M = draw(st.integers(min_value=0, max_value=top))
        return ("geo", a * (r_l / r_d) ** M * nudge, r_d), ("geo", a, r_l)
    M = draw(st.integers(min_value=0, max_value=REF_CAP + 100))
    if kind == "tel/tel":
        # s_l (b_d + M) = s_d (b_l + M) with s_l = (1 + 1/k) s_d
        k = draw(st.integers(min_value=1, max_value=1000))
        b_d = k * (M // k + 1) - M
        return ("tel", a, b_d), ("tel", a * (1 + F(1, k)) * nudge, b_d + (b_d + M) // k)
    # a r^M (b + M) = s for a geometric against a telescoping tail
    r = draw(small)
    b = draw(st.integers(min_value=1, max_value=60))
    geo, tel = ("geo", a, r), ("tel", a * r**M * (b + M) * nudge, b)
    return (geo, tel) if kind == "geo/tel" else (tel, geo)


class TestTailRulesAgainstStepping:
    """The bracketed rules give what stepping every m up to the cap gives."""

    @staticmethod
    def check(td, tl, p):
        as_float = TestTailRules.as_float
        for exact in (True, False):
            d, l = (td, tl) if exact else (as_float(td), as_float(tl))
            cmp = Cmp(exact)
            with mock.patch.object(majorization, "_SCAN_CAP", REF_CAP):
                if p is None:
                    got, ref = _tails_dominate_forall(d, l, cmp), ref_forall(d, l, cmp, REF_CAP)
                else:
                    got = _tails_dominate_eventually(d, l, p, cmp)
                    ref = ref_eventually(d, l, p, cmp, REF_CAP)
            assert got == ref and type(got) is type(ref), (td, tl, p, exact)

    # float pairs whose first definite violation starts a run of indices in
    # the middle of the scan: tail_l - tail_d rises past the Cmp buffer and
    # falls back below it, so the search must split where it turns
    MIDDLE_RUNS = [
        (("geo", 3.193522094458298, 0.44329411984169215),
         ("geo", 7.816349981511953e-07, 0.934621134920433), 5),
        (("geo", 2.3709146132788924e-06, 0.7396797069473168),
         ("geo", 1.3362919586286386e-07, 0.9895301199982608), INF),
        (("geo", 1.8526906910677643, 0.238656287893407),
         ("tel", 1.8618023305292286e-06, 5), 5),
        (("geo", 0.0034936276361403925, 0.6012930015753296),
         ("tel", 3.123772277560402e-06, 1), INF),
    ]

    def test_geometric_tie_at_every_shift_stays_exact(self):
        # ratios 1 - 1e-11 and firsts 1e-9 apart: the shift that breaks the tie
        # is 101, decided on exact values against the constant tail a_l
        r = 1 - F(1, 10**11)
        td, tl = ("geo", F(684 * 10**24, 89), r), ("geo", F(683999999316 * 10**15, 89), r)
        self.check(td, tl, INF)
        assert _tails_dominate_eventually(td, tl, INF, Cmp(True)) == (False, 0, 101)

    @pytest.mark.parametrize("td,tl,p", MIDDLE_RUNS)
    def test_float_middle_runs(self, td, tl, p):
        cmp = Cmp(False)
        with mock.patch.object(majorization, "_SCAN_CAP", REF_CAP):
            got = _tails_dominate_eventually(td, tl, p, cmp)
            ref = ref_eventually(td, tl, p, cmp, REF_CAP)
        assert got == ref

    @settings(max_examples=300, deadline=None)
    @given(tail_descrs(), tail_descrs(),
           st.one_of(st.none(), st.integers(min_value=0, max_value=5), st.just(INF)))
    def test_random_pairs(self, td, tl, p):
        self.check(td, tl, p)

    @settings(max_examples=50, deadline=None)
    @given(crossing_pairs(),
           st.one_of(st.none(), st.integers(min_value=0, max_value=5), st.just(INF)))
    def test_crossings(self, pair, p):
        self.check(*pair, p)


@st.composite
def c0_specs(draw):
    streams = [FiniteList(draw(heads))]
    kind = draw(st.sampled_from(["geo", "tel", "none"]))
    if kind == "geo":
        streams.append(Geometric(draw(firsts), draw(ratios)))
    elif kind == "tel":
        streams.append(TelescopingHarmonic(draw(firsts)))
    return seq(*streams)


@settings(max_examples=60, deadline=None)
@given(c0_specs(), c0_specs())
def test_weak_agrees_with_brute_force(d, lam):
    v = weak_majorize(d, lam)
    brute = brute_weak_ok(d, lam, depth=300)
    if v.verdict == "Holds":
        assert brute
    elif v.verdict == "Fails" and v.witness[0] <= 300:
        assert not brute


class TestMultiTail:
    """Several tails per side, decided by threshold sums once no finite entry is left."""

    @staticmethod
    def two_geo(a1, r1, a2, r2):
        return seq(geo(a1, r1), geo(a2, r2))

    def test_equal_specs_hold(self):
        both = seq(geo(F(1, 3), F(1, 2)), TelescopingHarmonic(F(1, 4)), FiniteList([F(1, 5)]))
        v = weak_majorize(both, both)
        assert v.holds and v.detail == "threshold sums"

    def test_same_ratio_regrouped_holds(self):
        d = self.two_geo(F(3, 4), F(1, 2), F(1, 2), F(1, 2))
        lam = self.two_geo(F(1), F(1, 2), F(1, 4), F(1, 2))
        v = weak_majorize(d, lam)
        assert v.holds and v.detail == "threshold sums"
        assert brute_weak_ok(d, lam, depth=400)
        assert majorize_spec(d, lam).holds
        # lambda keeps more streams than d: D turns negative near 0
        assert weak_majorize(lam, d).verdict == "Fails"

    def test_fails_with_the_scan_witness(self):
        d = self.two_geo(F(25, 24), F(1, 4), F(11, 9), F(1, 3))
        lam = self.two_geo(F(5, 3), F(1, 4), F(2, 3), F(1, 3))
        v = weak_majorize(d, lam, horizon=300)
        assert v.verdict == "Fails" and v.witness == (7, F(98845, 31104), F(5489, 1728))
        assert not brute_weak_ok(d, lam)

    def test_tied_ratios_stay_unknown(self):
        # one ratio-1/4 and one ratio-1/3 stream per side, firsts regrouped
        d = self.two_geo(F(2), F(1, 4), F(50, 9), F(1, 3))
        lam = self.two_geo(F(6), F(1, 4), F(2), F(1, 3))
        v = weak_majorize(d, lam, horizon=300)
        assert v.verdict == "Unknown" and v.horizon == 300

    def test_p_majorization_keeps_the_one_tail_table(self):
        both = self.two_geo(F(1, 3), F(1, 2), F(1, 4), F(1, 5))
        assert p_majorize(both, both, 0).holds
        v = p_majorize(both, both, 1)
        assert v.verdict == "Unknown" and "supported comparison table" in v.detail


@st.composite
def multi_tail_pairs(draw):
    """(d, lambda) with finite heads and up to three geometric or telescoping
    tails per side: one spec twice, a total regrouped into geometric streams
    of one ratio, or two independent draws."""
    r = draw(ratios)

    def tails(common):
        out = []
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            kind = "geo" if common else draw(st.sampled_from(["geo", "same-ratio", "tel"]))
            if kind == "tel":
                out.append(TelescopingHarmonic(draw(firsts)))
            else:
                out.append(Geometric(draw(firsts), draw(ratios) if kind == "geo" else r))
        return out

    head = FiniteList(draw(heads))
    mode = draw(st.sampled_from(["same", "regroup", "independent"]))
    lam = [head] + tails(False)
    if mode == "same":
        d = [head] + draw(st.permutations(lam[1:]))
    elif mode == "regroup":
        kept = [s for s in lam if not (isinstance(s, Geometric) and s.ratio == r)]
        total = sum(s.first for s in lam if s not in kept)
        weights = draw(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=3))
        d = kept + [Geometric(total * w / sum(weights), r) for w in weights] if total else lam
    else:
        d = [FiniteList(draw(heads))] + tails(draw(st.booleans()))
    pair = (seq(*d), seq(*lam))
    return pair[::-1] if draw(st.booleans()) else pair


@settings(max_examples=80, deadline=None)
@given(multi_tail_pairs())
def test_multi_tail_agrees_with_brute_force(pair):
    d, lam = pair
    v = weak_majorize(d, lam, horizon=400)
    brute = brute_weak_ok(d, lam, depth=300)
    if v.verdict == "Holds":
        assert brute
    elif v.verdict == "Fails" and v.witness[0] <= 300:
        assert not brute


def _median_seconds(fn, runs=5):
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return sorted(times)[runs // 2], out


def test_slow_ratio_scan_is_bracketed():
    # 999/1000 against 1/(n(n+1)): the first violation is at index 9114
    r = F(999, 1000)
    secs, v = _median_seconds(lambda: weak_majorize(seq(geo(1 - r, r)),
                                                    seq(TelescopingHarmonic(F(1)))))
    assert v.verdict == "Fails" and v.witness == (9114, 1 - r**9114, 1 - F(1, 9115))
    assert secs < 0.05


@settings(max_examples=40, deadline=None)
@given(c0_specs(), c0_specs(), st.integers(min_value=0, max_value=3))
def test_p_ladder(d, lam, p):
    upper = p_majorize(d, lam, p + 1)
    if upper.holds:
        assert p_majorize(d, lam, p).holds
    if p_majorize(d, lam, p).holds:
        assert approx_p_majorize(d, lam, p).holds


@settings(max_examples=40, deadline=None)
@given(st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=6),
                min_size=1, max_size=6), st.permutations(range(6)))
def test_finite_antisymmetry_and_rearrangement(values, perm):
    lam = values
    d = [values[p % len(values)] for p in perm[: len(values)]]
    # permutation-invariance of verdicts
    v1 = majorize_finite(values, lam)
    assert v1.holds  # reflexivity after rearrangement-insensitive sorting
    both = majorize_finite(d, lam).holds and majorize_finite(lam, d).holds
    if both:
        assert sorted(d, reverse=True) == sorted(lam, reverse=True)


# ---------------------------------------------------------------------------
# exact finite majorization on integer keys, against the Fraction scan


def fraction_scan(d, lam):
    """Reference for exact ``majorize_finite``: the plain scan on the values,
    as (verdict, witness, detail), both running sums started from
    ``0 * (largest d)``, which fixes the witness's values and types."""
    ds = sorted(d, reverse=True)
    ls = sorted(lam, reverse=True)
    sd = sl = ds[0] * 0
    for m, (x, y) in enumerate(zip(ds, ls), start=1):
        sd += x
        sl += y
        if sd > sl:
            return "Fails", (m, sd, sl), ""
    if sd == sl:
        return "Holds", None, ""
    return "Fails", (m, sd, sl), "total sums differ"


def corpus_pair(seed):
    """One seeded exact pair: n in 1..60, denominators up to 10**18, ties,
    equal totals and int entries mixed with Fractions."""
    g = np.random.default_rng([seed, 15])
    n = int(g.integers(1, 61))
    top = (1, 8, 10**3, 10**9, 10**18)[int(g.integers(5))]

    def entries(k):
        den = g.integers(1, top + 1, size=k)
        num = g.integers(-8 * den, 8 * den + 1)
        return [int(x) if x.denominator == 1 and coin else x for x, coin in
                zip(map(F, num.tolist(), den.tolist()), g.integers(2, size=k))]

    kind = seed % 4
    if kind == 1:  # ties: few distinct values, 3 and F(3) side by side
        pool = entries(3)
        pool += [F(x) for x in pool]
        return ([pool[i] for i in g.integers(len(pool), size=n).tolist()],
                [pool[i] for i in g.integers(len(pool), size=n).tolist()])
    lam = entries(n)
    if kind == 0:
        return entries(n), lam
    # equal totals: an average of two permutations of lam is majorized by it
    d = [F(x + lam[i], 2) for x, i in zip(lam, g.permutation(n).tolist())]
    d = [int(x) if x.denominator == 1 and coin else x for x, coin in zip(d, g.integers(2, size=n))]
    if kind == 3 and n > 1:  # moving mass between two entries keeps the total
        i, j = g.choice(n, 2, replace=False).tolist()
        eps = F(int(g.integers(1, 4)), int(g.integers(1, top + 1)))
        d[i] += eps
        d[j] -= eps
    return d, lam


@pytest.mark.usefixtures("no_exact_float")
class TestFiniteIntegerScale:
    def test_corpus_matches_oracle_and_fraction_scan(self):
        verdicts = Counter()
        for seed in range(5000):
            d, lam = corpus_pair(seed)
            v = majorize_finite(d, lam)
            verdict, witness, detail = fraction_scan(d, lam)
            assert v.verdict == verdict == rational_majorization_oracle(d, lam), seed
            assert (v.mode, v.witness, v.detail) == ("exact", witness, detail), seed
            if witness is not None:
                assert [type(x) for x in v.witness] == [type(x) for x in witness], seed
            verdicts[verdict, detail] += 1
        assert min(verdicts.values()) > 300, verdicts

    @staticmethod
    def prime_pair(fails):
        """n = 1000 entries over the first 1000 primes as denominators: the
        lcm has about 3500 digits."""
        primes = [p for p in range(2, 7920) if all(p % q for q in range(2, math.isqrt(p) + 1))]
        assert len(primes) == 1000
        g = np.random.default_rng(1009)
        lam = [F(int(g.integers(-10 * p, 10 * p)), p) for p in primes]
        perm = g.permutation(1000)
        d = [(lam[i] + lam[int(perm[i])]) / 2 for i in range(1000)]
        if fails:
            d[0] += F(1, 7919)
        return lam, d

    @pytest.mark.parametrize("fails", [False, True])
    def test_prime_denominators_are_not_slower(self, fails):
        lam, d = self.prime_pair(fails)
        t0 = time.perf_counter()
        dec = decide_schur_horn(lam, d)
        v = majorize_finite(d, lam)
        secs = time.perf_counter() - t0
        assert dec.verdict == ("No" if fails else "Yes")
        assert (v.verdict, v.witness, v.detail) == fraction_scan(d, lam)
        assert secs < 1.0
