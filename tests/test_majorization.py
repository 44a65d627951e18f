from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagonalis.scalars import INF, Cmp, PreconditionError
from diagonalis.majorization import (
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

    def test_finite_support_self_all_p(self):
        d = seq(FiniteList([F(2), F(1)]), ConstantRepeat(F(0), INF))
        assert p_majorize(d, d, INF).holds


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
