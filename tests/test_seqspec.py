import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagonalis.scalars import INF, QC, UnsupportedError, XSum
from diagonalis.seqspec import (
    ConstantRepeat,
    FiniteList,
    Geometric,
    OrderedSequenceSpec,
    TelescopingHarmonic,
    abs_values,
    affine_image,
    count_value,
    interval_blaschke_sum,
    materialize_prefix,
    ordered_entries,
    seq,
    sorted_prefix_desc,
    spec_bounds,
    split_parts,
    split_sums,
    tail_sum_after_top,
    total_sum,
    zero_count,
)


def geo(f, r, off=0):
    return Geometric(F(f), F(r), F(off))


def tel(s, off=0):
    return TelescopingHarmonic(F(s), F(off))


class TestMaterializePrefix:
    def test_geometric_closed_form(self):
        s = seq(geo(F(1, 2), F(1, 2)))
        assert materialize_prefix(s, 3) == [F(1, 2), F(1, 4), F(1, 8)]

    def test_finite_list_short_result(self):
        s = seq(FiniteList([F(3), F(1), F(0)]))
        out = materialize_prefix(s, 5)
        assert out == [F(3), F(1), F(0)]
        assert len(out) < 5  # exhaustion flag

    def test_telescoping(self):
        s = seq(tel(1))
        assert materialize_prefix(s, 2) == [F(1, 2), F(1, 6)]

    def test_repeat_count_past_sys_maxsize(self):
        s = seq(ConstantRepeat(F(1, 2), 10 ** 400), FiniteList([F(1)]))
        assert materialize_prefix(s, 3) == [F(1, 2), F(1), F(1, 2)]

    def test_prefix_stability(self):
        s = seq(FiniteList([F(3), F(7)]), geo(1, F(1, 3)), ConstantRepeat(F(5), INF))
        a = materialize_prefix(s, 6)
        b = materialize_prefix(s, 11)
        assert b[:6] == a


class TestTotalSum:
    def test_geometric(self):
        assert total_sum(seq(geo(F(1, 2), F(1, 2)))) == XSum.fin(F(1))

    def test_telescoping(self):
        assert total_sum(seq(tel(1))) == XSum.fin(F(1))

    def test_constant_infinite(self):
        assert total_sum(seq(ConstantRepeat(F(1), INF))).kind == "pinf"

    def test_divergent_oscillating(self):
        t = total_sum(seq(ConstantRepeat(F(1), INF), ConstantRepeat(F(-1), INF)))
        assert t.kind == "div"


class TestSortedPrefix:
    def test_merge_against_enumeration_oracle(self):
        s = seq(FiniteList([F(0), F(1, 2)]), geo(F(1, 4), F(1, 2)))
        got = sorted_prefix_desc(s, 3)
        # oracle: enumerate far past the requested prefix and sort
        brute = sorted(materialize_prefix(s, 50), reverse=True)[:3]
        assert got == brute == [F(1, 2), F(1, 4), F(1, 8)]

    def test_finite_sort(self):
        assert sorted_prefix_desc(seq(FiniteList([F(1), F(3), F(2)])), 3) == [F(3), F(2), F(1)]

    def test_single_geometric(self):
        assert sorted_prefix_desc(seq(geo(F(1, 2), F(1, 2))), 1) == [F(1, 2)]

    def test_stream_permutation_invariance(self):
        a = seq(FiniteList([F(1), F(4)]), geo(F(3), F(1, 2)), ConstantRepeat(F(2), 3))
        b = seq(ConstantRepeat(F(2), 3), FiniteList([F(1), F(4)]), geo(F(3), F(1, 2)))
        assert sorted_prefix_desc(a, 12) == sorted_prefix_desc(b, 12)

    def test_ascending_stream_rejected(self):
        with pytest.raises(UnsupportedError):
            sorted_prefix_desc(seq(geo(-1, F(1, 2))), 2)


class TestTailSum:
    def test_geometric(self):
        assert tail_sum_after_top(seq(geo(F(1, 2), F(1, 2))), 2) == XSum.fin(F(1, 4))

    @pytest.mark.parametrize("m", [1, 2, 5, 9])
    def test_telescoping(self, m):
        assert tail_sum_after_top(seq(tel(1)), m) == XSum.fin(F(1, m + 1))

    def test_constant_infinite(self):
        assert tail_sum_after_top(seq(ConstantRepeat(F(1), INF)), 5).kind == "pinf"

    def test_prefix_plus_tail_is_total(self):
        s = seq(FiniteList([F(2), F(1, 3)]), geo(F(1), F(2, 3)), tel(F(1, 5)))
        for n in (0, 1, 3, 8):
            head = sum(sorted_prefix_desc(s, n), F(0))
            assert XSum.fin(head) + tail_sum_after_top(s, n) == total_sum(s)


class TestIntParametersInExactSpecs:
    """int parameters count as exact, so the entries and sums built from
    them must be Fractions, not the floats of true int division."""

    def test_sorted_prefix(self):
        got = sorted_prefix_desc(seq(TelescopingHarmonic(1)), 2)
        assert got == [F(1, 2), F(1, 6)]
        assert all(type(v) is F for v in got)

    def test_tail_sum(self):
        got = tail_sum_after_top(seq(TelescopingHarmonic(1)), 2)
        assert got == XSum.fin(F(1, 3))
        assert type(got.value) is F

    def test_ordered_spec(self):
        o = OrderedSequenceSpec((1,), ((TelescopingHarmonic(1), 1),), "real", True)
        assert list(itertools.islice(ordered_entries(o), 3)) == [F(1), F(1, 2), F(1, 6)]
        got = total_sum(o)
        assert got == XSum.fin(F(2)) and type(got.value) is F


class TestSplitParts:
    def test_finite_mixed(self):
        pos, neg = split_parts(seq(FiniteList([F(1), F(-1), F(1, 2), F(-1, 2)])))
        pz = [v for v in materialize_prefix(pos, 20) if v != 0]
        nz = [v for v in materialize_prefix(neg, 20) if v != 0]
        assert sorted(pz) == [F(1, 2), F(1)]
        assert sorted(nz) == [F(1, 2), F(1)]

    def test_nonnegative_spec_is_its_own_positive_part(self):
        s = seq(geo(F(1, 2), F(1, 2)))
        pos, neg = split_parts(s)
        assert materialize_prefix(pos, 5) == materialize_prefix(s, 5)
        assert all(v == 0 for v in materialize_prefix(neg, 5))

    def test_all_negative(self):
        pos, neg = split_parts(seq(FiniteList([F(-3)])))
        assert [v for v in materialize_prefix(pos, 5) if v != 0] == []
        assert materialize_prefix(neg, 5) == [F(3)]

    def test_reconstruction_multiset(self):
        s = seq(FiniteList([F(2), F(-5), F(0)]), geo(F(-1), F(1, 2)))
        pos, neg = split_parts(s)
        cutoff = F(1, 1024)
        orig = sorted(v for v in materialize_prefix(s, 60) if abs(v) >= cutoff)
        rec = sorted(itertools.chain(
            (v for v in materialize_prefix(pos, 80) if abs(v) >= cutoff),
            (-v for v in materialize_prefix(neg, 80) if abs(v) >= cutoff)))
        assert rec == orig


class TestHeadPeelFarFromUnitScale:
    # squaring deviations here would underflow (1e-200) or overflow (1e200)
    @pytest.mark.parametrize("lim", [1e-200, -1e-200, 1e200, -1e200])
    def test_float_geometric_peels_against_its_limit(self, lim):
        s = Geometric(lim * 1e3, 0.9, lim)
        head, tail = abs_values(seq(s, exact=False)).streams
        assert len(head.values) > 0
        assert all(v - abs(lim) >= abs(lim) for v in head.values)
        assert abs(tail.first) < abs(lim) and tail.offset == abs(lim)
        pos, neg = split_parts(seq(s, exact=False))
        assert len(pos.streams + neg.streams) > 0


class TestAffineImage:
    def test_finite(self):
        out = affine_image(seq(FiniteList([F(0), F(1)])), F(2), F(1))
        assert materialize_prefix(out, 2) == [F(1), F(3)]

    def test_identity(self):
        s = seq(geo(F(1, 2), F(1, 2)), tel(1))
        out = affine_image(s, F(1), F(0))
        assert materialize_prefix(out, 8) == materialize_prefix(s, 8)

    def test_negation_of_geometric(self):
        out = affine_image(seq(geo(F(1, 2), F(1, 2))), F(-1), F(0))
        assert out.streams[0] == Geometric(F(-1, 2), F(1, 2), F(0))

    def test_offset_total_sum_diverges(self):
        out = affine_image(seq(geo(F(1, 2), F(1, 2))), F(1), F(1))
        assert total_sum(out).kind == "pinf"
        assert materialize_prefix(out, 3) == [F(3, 2), F(5, 4), F(9, 8)]

    def test_round_trip(self):
        s = seq(geo(F(1, 3), F(1, 2)), FiniteList([F(1)]))
        fwd = affine_image(s, F(3), F(-2))
        back = affine_image(fwd, F(1, 3), F(2, 3))
        assert materialize_prefix(back, 10) == materialize_prefix(s, 10)


class TestAbsValues:
    def test_real_finite(self):
        out = abs_values(seq(FiniteList([F(-1), F(2)])))
        assert sorted(materialize_prefix(out, 2)) == [F(1), F(2)]

    def test_complex_modulus(self):
        out = abs_values(seq(FiniteList([QC(F(3), F(4))]), field="complex"))
        assert materialize_prefix(out, 1) == [F(5)]

    def test_alternating_geometric_collapses(self):
        out = abs_values(seq(geo(F(-1, 2), F(-1, 2))))
        # oracle: enumerate 50 terms of each and compare as multisets
        brute = sorted(abs(v) for v in materialize_prefix(seq(geo(F(-1, 2), F(-1, 2))), 50))
        got = sorted(materialize_prefix(out, 50))[:50]
        assert sorted(got)[-len(brute):] == brute or sorted(
            materialize_prefix(seq(geo(F(1, 2), F(1, 2))), 50)) == brute


class TestCountsAndBounds:
    def test_zero_count(self):
        s = seq(FiniteList([F(0), F(2), F(0)]), ConstantRepeat(F(0), INF))
        assert zero_count(s) == INF
        assert zero_count(seq(FiniteList([F(0), F(2)]))) == 1
        assert zero_count(seq(geo(F(1, 2), F(1, 2)))) == 0

    def test_count_value_geometric(self):
        assert count_value(seq(geo(F(1), F(1, 2))), F(1, 8)) == 1
        assert count_value(seq(geo(F(1), F(1, 2))), F(1, 3)) == 0

    def test_bounds(self):
        lo, lo_att, hi, hi_att = spec_bounds(seq(geo(F(1, 2), F(1, 2))))
        assert (lo, lo_att, hi, hi_att) == (F(0), False, F(1, 2), True)
        lo, lo_att, hi, hi_att = spec_bounds(
            seq(FiniteList([F(1)]), ConstantRepeat(F(0), INF)))
        assert (lo, lo_att, hi, hi_att) == (F(0), True, F(1), True)


class TestSplitSums:
    def test_kadison_style_sums(self):
        # {1/2, 1/2} plus infinitely many 0s and 1s
        s = seq(FiniteList([F(1, 2), F(1, 2)]),
                ConstantRepeat(F(0), INF), ConstantRepeat(F(1), INF))
        a, b = split_sums(s, F(1, 2))
        assert a == XSum.fin(F(0))
        assert b == XSum.fin(F(1))

    def test_geometric_below_threshold(self):
        a, b = split_sums(seq(geo(F(1), F(1, 2))), F(1, 3))
        # entries 1, 1/2 lie at or above 1/3; the tail 1/4 + 1/8 + ... = 1/2 below
        assert a == XSum.fin(F(1, 2))
        assert b == XSum.fin(F(1, 2))  # (1-1) + (1-1/2)

    def test_blaschke_interval_sum(self):
        s = seq(ConstantRepeat(F(1, 2), INF))
        assert interval_blaschke_sum(s, F(0), F(1)).kind == "pinf"
        g = seq(geo(F(1, 4), F(1, 2)))
        assert interval_blaschke_sum(g, F(0), F(1)) == XSum.fin(F(1, 2))
        t = seq(tel(1))
        assert interval_blaschke_sum(t, F(0), F(1)) == XSum.fin(F(1))


small_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=12)
pos_fracs = st.fractions(min_value=0, max_value=3, max_denominator=12)
ratios = st.fractions(min_value=F(1, 10), max_value=F(9, 10), max_denominator=10)


@st.composite
def nonneg_specs(draw):
    streams = [FiniteList(draw(st.lists(pos_fracs, min_size=0, max_size=4)))]
    if draw(st.booleans()):
        streams.append(Geometric(draw(pos_fracs) + F(1, 7), draw(ratios), F(0)))
    if draw(st.booleans()):
        streams.append(TelescopingHarmonic(draw(pos_fracs) + F(1, 5), F(0)))
    if draw(st.booleans()):
        streams.append(ConstantRepeat(draw(pos_fracs), draw(st.integers(1, 5))))
    if draw(st.booleans()):
        streams.append(ConstantRepeat(F(0), INF))
    return seq(*streams)


@settings(max_examples=60, deadline=None)
@given(nonneg_specs(), st.integers(min_value=0, max_value=12))
def test_sorted_prefix_matches_brute_force(spec, n):
    got = sorted_prefix_desc(spec, n)
    brute = sorted((v for v in materialize_prefix(spec, 400) if v > 0), reverse=True)
    brute = brute[:n]
    got_pos = [v for v in got if v > 0]
    assert got_pos == brute[: len(got_pos)]
    assert all(x >= y for x, y in zip(got, got[1:]))


@settings(max_examples=60, deadline=None)
@given(nonneg_specs(), st.integers(min_value=0, max_value=10))
def test_head_plus_tail_is_total(spec, n):
    head = sum(sorted_prefix_desc(spec, n), F(0))
    assert XSum.fin(head) + tail_sum_after_top(spec, n) == total_sum(spec)


nonzero_fracs = small_fracs.filter(lambda x: x != 0)
signed_ratios = st.fractions(min_value=F(-9, 10), max_value=F(9, 10),
                             max_denominator=10).filter(lambda r: r != 0)


@st.composite
def offset_specs(draw):
    """Exact specs of all four kinds, with offsets; telescoping streams may
    start past index 1, as a peeled tail does."""
    kinds = st.sampled_from(["finite", "const", "geo", "tel"])
    streams = []
    for kind in draw(st.lists(kinds, min_size=1, max_size=4)):
        if kind == "finite":
            streams.append(FiniteList(draw(st.lists(small_fracs, min_size=1, max_size=4))))
        elif kind == "const":
            count = draw(st.one_of(st.integers(1, 4), st.just(INF)))
            streams.append(ConstantRepeat(draw(small_fracs), count))
        elif kind == "geo":
            streams.append(Geometric(draw(nonzero_fracs), draw(signed_ratios), draw(small_fracs)))
        else:
            streams.append(TelescopingHarmonic(draw(nonzero_fracs), draw(small_fracs),
                                               draw(st.integers(1, 6))))
    return seq(*streams)


def entries_by_hand(s, n):
    """The first n entries of one stream, from its defining formula."""
    if isinstance(s, FiniteList):
        return list(s.values[:n])
    if isinstance(s, ConstantRepeat):
        return [s.value] * (n if s.count == INF else min(n, s.count))
    if isinstance(s, Geometric):
        return [s.offset + s.first * s.ratio ** k for k in range(n)]
    return [s.offset + s.scale / (m * (m + 1)) for m in range(s.n0, s.n0 + n)]


def entries_outside(s, gap):
    """How many leading entries of an infinite stream deviate from its limit
    by at least |gap|; every later entry lies within the gap."""
    k = 0
    if isinstance(s, Geometric):
        while abs(s.first * s.ratio ** k) >= abs(gap):
            k += 1
    elif isinstance(s, TelescopingHarmonic):
        while abs(s.scale) / ((s.n0 + k) * (s.n0 + k + 1)) >= abs(gap):
            k += 1
    return k


@settings(max_examples=150, deadline=None)
@given(offset_specs(), st.data())
def test_counts_bounds_and_prefix_match_brute_force(spec, data):
    v = data.draw(st.one_of(st.sampled_from(materialize_prefix(spec, 12)), small_fracs))
    infinite = [s for s in spec.streams if isinstance(s, (Geometric, TelescopingHarmonic))]
    # rounds enough for every finite stream, the first two entries of every
    # infinite one, and each infinite stream's entries outside the gap to v
    rounds = max([5] + [entries_outside(s, v - s.offset) + 1
                        for s in infinite if v != s.offset])
    lists = [entries_by_hand(s, rounds) for s in spec.streams]
    scan = [lst[i] for i in range(rounds) for lst in lists if i < len(lst)]
    assert materialize_prefix(spec, len(scan)) == scan

    repeated_forever = any(isinstance(s, ConstantRepeat) and s.count == INF and s.value == v
                           for s in spec.streams)
    assert count_value(spec, v) == (INF if repeated_forever else scan.count(v))

    limits = [s.offset for s in infinite]
    lo, hi = min(scan + limits), max(scan + limits)
    assert spec_bounds(spec) == (lo, lo in scan, hi, hi in scan)
