import math
import operator
from fractions import Fraction as F
from functools import reduce

import numpy as np
import pytest

from diagonalis.scalars import INF, PreconditionError, XSum
from diagonalis.deciders import (
    Decision,
    check_blaschke,
    check_fan_criterion,
    check_mt_p_summable,
    decide_bownik_jasper,
    decide_gohberg_markus,
    decide_horn_unitary,
    decide_jlw_unitary,
    decide_kadison,
    decide_kw,
    decide_neumann_closure,
    decide_schur_horn,
    decide_thompson,
    decide_thompson_compact,
    decide_three_point,
    kadison_invariants,
)
from diagonalis.seqspec import (
    ConstantRepeat,
    FiniteList,
    Geometric,
    OrderedSequenceSpec,
    TelescopingHarmonic,
    affine_image,
    seq,
)
from diagonalis.spectra import DiagonalizableSpec, FiniteSpectrumSpec, operator_affine_image


def geo(f, r):
    return Geometric(F(f), F(r))


zeros = ConstantRepeat(F(0), INF)
ones = ConstantRepeat(F(1), INF)


@pytest.mark.usefixtures("no_exact_float")
class TestSchurHorn:
    def test_yes(self):
        assert decide_schur_horn([F(3), F(1), F(0)], [F(2), F(1), F(1)]).verdict == "Yes"

    def test_permutation(self):
        assert decide_schur_horn([F(5), F(-1), F(2)], [F(2), F(5), F(-1)]).verdict == "Yes"

    def test_no(self):
        d = decide_schur_horn([1.0, 0.0], [1.1, -0.1])
        assert d.verdict == "No"
        assert d.certificate["witness"]["index"] == 1

    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    def test_numpy_ints(self, dtype):
        dec = decide_schur_horn(list(np.array([2, 2], dtype)), list(np.array([3, 1], dtype)))
        assert dec.verdict == "No" and dec.mode == "exact"
        assert dec.certificate["witness"] == {"index": 1, "lhs": 3, "rhs": 2}
        assert decide_schur_horn(list(np.array([3, 1], dtype)), [2, 2]).verdict == "Yes"

    @pytest.mark.parametrize("seed", range(4))
    def test_exact_decisions_at_1e30(self, seed):
        r = np.random.default_rng([seed, 60])
        lam = [F(int(a), int(q)) for a, q in zip(r.integers(-10**6, 10**6, 60),
                                                 r.integers(1, 10**6, 60))]
        perm = [int(i) for i in r.permutation(60)]
        eps = F(1, 10**30)
        d = [(lam[i] + lam[perm[i]]) / 2 for i in range(60)]
        assert decide_schur_horn(lam, d).verdict == "Yes"
        d[0] += eps
        assert decide_schur_horn(lam, d).verdict == "No"
        # a permutation of lam is extreme: spreading it by eps leaves the hull
        d = [lam[i] for i in perm]
        assert decide_schur_horn(lam, d).verdict == "Yes"
        d[max(range(60), key=d.__getitem__)] += eps
        d[min(range(60), key=d.__getitem__)] -= eps
        assert decide_schur_horn(lam, d).verdict == "No"


def slice_sums(xs):
    """The certificate's definition: the k-th entry folds the top k+1 values
    left to right from 0 (what ``sum`` does on floats before Python 3.12)."""
    xs = sorted(xs, reverse=True)
    return [reduce(operator.add, xs[: k + 1], 0) for k in range(len(xs))]


@pytest.mark.usefixtures("no_exact_float")
class TestSchurHornCertificate:
    _rng = np.random.default_rng(77)
    CASES = [
        ([F(3), F(1), F(0)], [F(2), F(1), F(1)]),
        ([F(5)], [F(5)]),
        ([F(2), F(2), F(-1), F(-1)], [F(1), F(1), F(1), F(0)]),
        ([7], [7]),
        ([4, 0, 2, 2], [2, 2, 2, 2]),
        ([0.75], [0.75]),
        ([-0.0, -0.0], [-0.0, -0.0]),
        ([-0.0, -1.5], [-0.5, -1.0]),
        ([1.0, 1.0, 0.1, 0.1], [0.7, 0.7, 0.4, 0.3]),
        (list(_rng.standard_normal(40)), list(_rng.standard_normal(40))),
        ([F(int(a), 7) for a in _rng.integers(-50, 50, 60)],
         [F(int(a), 9) for a in _rng.integers(-50, 50, 60)]),
        # mixed int/Fraction: an int prefix stays an int, [3, 1/2] -> [3, 7/2]
        ([3, F(1, 2)], [F(2), F(3, 2)]),
        ([F(1, 2), 3, 0], [1, 1, F(3, 2)]),
        ([3, F(3), 1, F(-1, 3)], [F(3), 3, F(1, 3), 0]),
        ([2, F(-1, 2), F(1, 2)], [0, 1, 1]),
    ]

    def test_mixed_prefix_types(self):
        cert = decide_schur_horn([3, F(1, 2)], [F(2), F(3, 2)]).certificate
        assert cert["partial_sums_lambda"] == [3, F(7, 2)]
        assert [type(v) for v in cert["partial_sums_lambda"]] == [int, F]
        assert [type(v) for v in cert["partial_sums_d"]] == [F, F]

    @pytest.mark.parametrize("lam, d, witness", [
        ([2, 2], [3, 1], (1, 3, 2)),
        ([F(2), 2], [3, 1], (1, 3, F(2))),
        ([1, 2], [1, 1], (2, 2, 3)),
    ])
    def test_witness_types(self, lam, d, witness):
        dec = decide_schur_horn(lam, d)
        w = dec.certificate["witness"]
        assert dec.verdict == "No"
        assert (w["index"], w["lhs"], w["rhs"]) == witness
        assert (type(w["lhs"]), type(w["rhs"])) == tuple(map(type, witness[1:]))

    @pytest.mark.parametrize("lam, d", CASES)
    def test_partial_sums_match_slice_sums(self, lam, d):
        cert = decide_schur_horn(lam, d).certificate
        for key, xs in (("partial_sums_d", d), ("partial_sums_lambda", lam)):
            want = slice_sums(xs)
            got = cert[key]
            assert got == want
            assert [type(v) for v in got] == [type(v) for v in want]
            # a -0.0 head folds to +0.0, as it does in sum()
            signs = [math.copysign(1, v) if isinstance(v, float) else v for v in want]
            assert [math.copysign(1, v) if isinstance(v, float) else v for v in got] == signs


class TestGohbergMarkus:
    def test_zero_sequence(self):
        lam = seq(geo(1, F(1, 2)), geo(-1, F(1, 2)))
        d = seq(zeros)
        assert decide_gohberg_markus(lam, d).verdict == "YesModuloKernel"

    def test_reflexive(self):
        lam = seq(geo(1, F(1, 2)), FiniteList([F(-3)]))
        assert decide_gohberg_markus(lam, lam).verdict == "YesModuloKernel"

    def test_not_summable(self):
        lam = seq(geo(1, F(1, 2)))
        d = seq(ConstantRepeat(F(1, 10), INF))
        assert decide_gohberg_markus(lam, d).verdict == "No"


class TestKW:
    def test_infinite_kernel_telescoping(self):
        s = seq(geo(F(1, 2), F(1, 2)))
        d = seq(TelescopingHarmonic(F(1)))
        out = decide_kw(s, INF, d)
        assert out.verdict == "Yes"
        assert out.certificate["branch"] == "finitely many zeros"

    def test_trivial_kernel_reflexive(self):
        s = seq(geo(F(1, 2), F(1, 2)))
        assert decide_kw(s, 0, s).verdict == "Yes"

    def test_trivial_kernel_partial_sum_violation(self):
        s = seq(geo(F(1, 2), F(1, 2)))
        d = seq(FiniteList([F(3, 4)]), geo(F(1, 8), F(1, 2)))
        assert decide_kw(s, 0, d).verdict == "No"

    def test_trivial_kernel_rejects_zeros(self):
        s = seq(geo(F(1, 2), F(1, 2)))
        d = seq(FiniteList([F(0)]), geo(F(1, 2), F(1, 2)))
        assert decide_kw(s, 0, d).verdict == "No"

    def test_infinite_kernel_infinitely_many_zeros(self):
        s = seq(geo(F(1, 2), F(1, 2)))
        d = seq(geo(F(1, 2), F(1, 2)), zeros)
        assert decide_kw(s, INF, d).verdict == "Yes"

    def test_finite_kernel_gap_and_directions(self):
        s = seq(geo(F(1, 2), F(1, 2)))
        # two zeros against kernel 2, d otherwise equal to s: p0 = 0
        d = seq(geo(F(1, 2), F(1, 2)), ConstantRepeat(F(0), 2))
        out = decide_kw(s, 2, d)
        assert out.verdict == "SufficientConditionHolds"
        # more zeros than kernel dimensions is impossible
        d_bad = seq(geo(F(1, 2), F(1, 2)), ConstantRepeat(F(0), 3))
        assert decide_kw(s, 2, d_bad).verdict == "NecessaryConditionFails"
        # p-shifted failure: d = s with kernel deficit 1 needs p=1 majorization
        out2 = decide_kw(s, 1, s)
        assert out2.verdict == "NecessaryConditionFails"

    @pytest.mark.parametrize("kernel_dim", [-1, F(3, 2), 1.5])
    def test_kernel_dim_is_a_nonnegative_integer(self, kernel_dim):
        s = seq(geo(F(1, 2), F(1, 2)))
        with pytest.raises(PreconditionError):
            decide_kw(s, kernel_dim, s)


class TestKadison:
    def test_half_half(self):
        d = seq(FiniteList([F(1, 2), F(1, 2)]), zeros)
        out = decide_kadison(d)
        assert out.verdict == "Yes"
        assert out.certificate["a_minus_b"] == F(-1)

    def test_third(self):
        d = seq(FiniteList([F(1, 3)]), zeros)
        out = decide_kadison(d)
        assert out.verdict == "No"
        inv = kadison_invariants(d)
        assert inv.a == XSum.fin(F(1, 3)) and inv.b == XSum.fin(F(0))

    def test_constant_half(self):
        out = decide_kadison(seq(ConstantRepeat(F(1, 2), INF)))
        assert out.verdict == "Yes"
        assert out.certificate["branch"] == "a+b infinite"

    def test_zero_one_specs(self):
        out = decide_kadison(seq(zeros, ones))
        assert out.verdict == "Yes"
        assert out.certificate["a_minus_b"] == 0

    def test_range_checked(self):
        with pytest.raises(PreconditionError):
            decide_kadison(seq(FiniteList([F(3, 2)])))

    def test_affine_equivariance(self):
        # rescale a projection problem into [l, h] and normalize back
        d = seq(FiniteList([F(1, 2), F(1, 2)]), zeros, ones)
        low, high = F(-1), F(3)
        scaled = affine_image(d, high - low, low)
        recovered = affine_image(scaled, 1 / (high - low), -low / (high - low))
        assert decide_kadison(recovered).verdict == decide_kadison(d).verdict


class TestBownikJasper:
    points = [F(0), F(1, 3), F(1)]

    def test_worked_instance(self):
        d = seq(FiniteList([F(1, 3)]), zeros, ones)
        out = decide_bownik_jasper(self.points, d)
        assert out.verdict == "Yes"
        assert out.certificate["N"] == [1]
        assert out.certificate["k"] == 0

    def test_quarter_variant(self):
        d = seq(FiniteList([F(1, 4)]), zeros, ones)
        assert decide_bownik_jasper(self.points, d).verdict == "No"

    def test_infinite_branch(self):
        d = seq(ConstantRepeat(F(1, 2), INF))
        out = decide_bownik_jasper(self.points, d)
        assert out.verdict == "Yes"
        assert out.certificate["branch"] == "C+D infinite"

    def test_hypothesis_checked(self):
        with pytest.raises(PreconditionError):
            decide_bownik_jasper(self.points, seq(FiniteList([F(1, 3)]), zeros))

    def test_no_interior_matches_kadison(self):
        d = seq(FiniteList([F(1, 2), F(1, 2)]), zeros, ones)
        out = decide_bownik_jasper([F(0), F(1)], d)
        assert out.verdict == decide_kadison(d).verdict == "Yes"

    def test_search_bound_past_float_range(self):
        # B/2 repeated 10**400 times: the bound on N_1 is 10**400, which no
        # float holds; it is floored exactly and capped
        d = seq(zeros, ones, ConstantRepeat(F(1, 2), 10 ** 400))
        out = decide_bownik_jasper([F(0), F(1, 2), F(1)], d)
        assert out.verdict == "Unknown"
        assert out.certificate["reason"] == "search bound exceeds candidate cap"
        assert out.certificate["bounds"] == [10 ** 400]

    def test_pure_projection_diagonal_needs_interior_mass(self):
        # all-0/1 diagonal forces eigenvectors at the extremes, so an
        # operator with a genuine interior eigenvalue cannot produce it
        d = seq(zeros, ones)
        out = decide_bownik_jasper([F(0), F(1, 2), F(1)], d)
        assert out.verdict == "No"


def neumann_spec():
    return FiniteSpectrumSpec(((F(0), INF), (F(1), INF), (F(2), 1)))


class TestNeumann:
    def test_yes(self):
        d = seq(FiniteList([F(3, 2)]), ConstantRepeat(F(1, 2), INF))
        assert decide_neumann_closure(neumann_spec(), d).verdict == "Yes"

    def test_no(self):
        d = seq(FiniteList([F(3, 2), F(8, 5)]), ConstantRepeat(F(1, 2), INF))
        assert decide_neumann_closure(neumann_spec(), d).verdict == "No"

    def test_inside_band(self):
        d = seq(ConstantRepeat(F(1, 3), INF), FiniteList([F(0), F(1)]))
        assert decide_neumann_closure(neumann_spec(), d).verdict == "Yes"


def two_point_spec():
    return FiniteSpectrumSpec(((F(0), INF), (F(1), INF)))


class TestBlaschke:
    def test_constant_diverges(self):
        out = check_blaschke(two_point_spec(), seq(ConstantRepeat(F(1, 2), INF)))
        assert out.verdict == "SufficientConditionHolds"

    def test_geometric_converges(self):
        out = check_blaschke(two_point_spec(), seq(geo(F(1, 4), F(1, 2))))
        assert out.verdict == "ConditionFails"
        assert out.certificate["blaschke_sum"] == XSum.fin(F(1, 2))

    def test_telescoping_converges(self):
        out = check_blaschke(two_point_spec(), seq(TelescopingHarmonic(F(1))))
        assert out.verdict == "ConditionFails"
        assert out.certificate["blaschke_sum"] == XSum.fin(F(1))

    def test_boundary_touch_rejected(self):
        with pytest.raises(PreconditionError):
            check_blaschke(two_point_spec(), seq(FiniteList([F(0)]),
                                                 ConstantRepeat(F(1, 2), INF)))

    def test_finite_modification_invariance(self):
        base = seq(ConstantRepeat(F(1, 2), INF))
        tweaked = seq(FiniteList([F(1, 5), F(9, 10)]), ConstantRepeat(F(1, 2), INF))
        a = check_blaschke(two_point_spec(), base).verdict
        b = check_blaschke(two_point_spec(), tweaked).verdict
        assert a == b


class TestBlaschkeGeneral:
    def spec(self):
        return FiniteSpectrumSpec(((0j, INF), (1 + 0j, INF), (1j, INF)))

    def test_interior_constant_diverges(self):
        d = seq(ConstantRepeat(0.25 + 0.25j, INF), field="complex", exact=False)
        out = check_blaschke(self.spec(), d, mode="general")
        assert out.verdict == "SufficientConditionHolds"

    def test_boundary_limit_converges(self):
        # entries decay toward the vertex 0 along a fixed interior direction
        d = seq(Geometric(0.1 + 0.05j, 0.5), field="complex", exact=False)
        out = check_blaschke(self.spec(), d, mode="general")
        assert out.verdict == "ConditionFails"

    def test_flat_hull_rejected(self):
        flat = FiniteSpectrumSpec(((F(0), INF), (F(1), INF)))
        d = seq(ConstantRepeat(0.5 + 0j, INF), field="complex", exact=False)
        with pytest.raises(PreconditionError):
            check_blaschke(flat, d, mode="general")

    def test_mt_p_summable_complex(self):
        inside = seq(ConstantRepeat(0.25 + 0.25j, INF), field="complex", exact=False)
        assert check_mt_p_summable(self.spec(), inside, 2).verdict == "ConditionFails"
        decaying = seq(Geometric(0.1 + 0.05j, 0.5j), field="complex", exact=False)
        assert check_mt_p_summable(self.spec(), decaying, 2).verdict == "SufficientConditionHolds"


def three_point_spec():
    return FiniteSpectrumSpec(((F(0), INF), (F(1, 2), INF), (F(1), INF)))


class TestThreePoint:
    def test_constant_yes(self):
        assert decide_three_point(three_point_spec(),
                                  seq(ConstantRepeat(F(1, 2), INF))).verdict == "Yes"

    def test_all_zero_no(self):
        out = decide_three_point(three_point_spec(), seq(zeros))
        assert out.verdict == "No"
        assert out.certificate["clause"] == "boundary-distance sum converges"

    def test_endpoint_budget(self):
        d = seq(ConstantRepeat(F(0), 5), ConstantRepeat(F(1, 2), INF))
        assert decide_three_point(three_point_spec(), d).verdict == "Yes"

    def test_too_few_points(self):
        with pytest.raises(PreconditionError):
            decide_three_point(two_point_spec(), seq(ConstantRepeat(F(1, 2), INF)))

    def test_affine_invariance(self):
        a, b = F(3), F(-2)
        spec2 = operator_affine_image(three_point_spec(), a, b)
        for d in (seq(ConstantRepeat(F(1, 2), INF)), seq(zeros),
                  seq(ConstantRepeat(F(0), 5), ConstantRepeat(F(1, 2), INF))):
            d2 = affine_image(d, a, b)
            assert (decide_three_point(three_point_spec(), d).verdict
                    == decide_three_point(spec2, d2).verdict)

    def test_endpoint_not_eigenvalue(self):
        spec = DiagonalizableSpec(
            seq(geo(F(1, 2), F(1, 2)), ConstantRepeat(F(1, 4), INF),
                ConstantRepeat(F(1, 2), INF)), kernel_dim=INF)
        # endpoints 0 and 1/2; 1/2 attained infinitely, 0 only as kernel
        d = seq(FiniteList([F(0)]), ConstantRepeat(F(1, 4), INF))
        assert decide_three_point(spec, d).verdict == "Yes"

    def test_finite_modification_invariance(self):
        base = seq(ConstantRepeat(F(1, 4), INF))
        tweaked = seq(FiniteList([F(1, 8), F(3, 8)]), ConstantRepeat(F(1, 4), INF))
        assert (decide_three_point(three_point_spec(), base).verdict
                == decide_three_point(three_point_spec(), tweaked).verdict)


class TestHornUnitary:
    def test_examples(self):
        assert decide_horn_unitary([F(1), F(0), F(0)]).verdict == "Yes"
        assert decide_horn_unitary([F(1), F(1), F(1, 2)]).verdict == "No"
        assert decide_horn_unitary([F(1)] * 4).verdict == "Yes"

    def test_rotation_reduction(self):
        assert decide_horn_unitary([F(9, 10)] * 3, "rotation").verdict == "Yes"
        assert decide_horn_unitary([F(-9, 10), F(9, 10), F(9, 10)], "rotation").verdict == "No"
        assert decide_horn_unitary([F(-9, 10), F(-9, 10), F(9, 10)], "rotation").verdict == "Yes"
        with pytest.raises(PreconditionError):
            decide_horn_unitary([1j, 0, 0], "rotation")


class TestJLW:
    def test_boundary_pair(self):
        no = seq(FiniteList([F(1, 2)]), ones)
        yes = seq(FiniteList([F(1, 2), F(1, 2)]), ones)
        assert decide_jlw_unitary(no).verdict == "No"
        assert decide_jlw_unitary(yes).verdict == "Yes"

    def test_constant(self):
        assert decide_jlw_unitary(seq(ConstantRepeat(F(1, 2), INF))).verdict == "Yes"


class TestThompson:
    def test_yes(self):
        assert decide_thompson([F(2), F(1)], [F(3, 2), F(7, 5)]).verdict == "Yes"

    def test_no(self):
        assert decide_thompson([F(2), F(1)], [F(2), F(0)]).verdict == "No"

    def test_diagonal_case(self):
        assert decide_thompson([F(2), F(1)], [F(-1), F(2)]).verdict == "Yes"

    def test_agrees_with_horn_on_unit_singular_values(self):
        import itertools
        vals = [F(0), F(1, 2), F(1)]
        for d in itertools.product(vals, repeat=3):
            t = decide_thompson([F(1)] * 3, list(d)).verdict
            h = decide_horn_unitary(list(d)).verdict
            assert t == h, d


class TestThompsonCompact:
    def test_reflexive(self):
        s = seq(geo(F(1, 2), F(1, 2)))
        assert decide_thompson_compact(s, s).verdict == "Yes"

    def test_shifted(self):
        assert decide_thompson_compact(seq(geo(F(1, 2), F(1, 2))),
                                       seq(geo(F(1, 4), F(1, 2)))).verdict == "Yes"

    def test_head_violation(self):
        d = seq(FiniteList([F(3, 4)]), zeros)
        assert decide_thompson_compact(seq(geo(F(1, 2), F(1, 2))), d).verdict == "No"


class TestThompsonCompactFiniteAgreement:
    def test_padded_finite_lists(self):
        import itertools
        vals = [F(0), F(1, 2), F(1), F(2)]
        zeros = ConstantRepeat(F(0), INF)
        for s_raw in itertools.product(vals, repeat=3):
            s_list = sorted(s_raw, reverse=True)
            for d_raw in itertools.islice(itertools.product(vals, repeat=3), 64):
                compact = decide_thompson_compact(
                    seq(FiniteList(s_list), zeros), seq(FiniteList(list(d_raw)), zeros))
                finite = decide_thompson(s_list, list(d_raw))
                run_d = run_s = F(0)
                first_ok = True
                for x, y in zip(sorted(d_raw, reverse=True), s_list):
                    run_d += x
                    run_s += y
                    if run_d > run_s:
                        first_ok = False
                # compact drops the trailing inequality entirely
                assert (compact.verdict == "Yes") == first_ok
                moduli = sorted(d_raw, reverse=True)
                slack = 2 * (s_list[-1] - moduli[-1]) < run_s - run_d
                if first_ok and slack:
                    assert finite.verdict == compact.verdict == "Yes"


class TestMTPSummable:
    def test_geometric_summable(self):
        out = check_mt_p_summable(two_point_spec(), seq(geo(F(1, 4), F(1, 2))), 2)
        assert out.verdict == "SufficientConditionHolds"

    def test_constant_interior_fails(self):
        out = check_mt_p_summable(two_point_spec(), seq(ConstantRepeat(F(1, 2), INF)), 4)
        assert out.verdict == "ConditionFails"

    def test_boundary_values(self):
        out = check_mt_p_summable(two_point_spec(), seq(ones), 2)
        assert out.verdict == "SufficientConditionHolds"

    def test_p_validated(self):
        with pytest.raises(PreconditionError):
            check_mt_p_summable(two_point_spec(), seq(ones), 1)


class TestFan:
    def test_finite_zero_total(self):
        d = OrderedSequenceSpec((F(1), F(-1)), ())
        assert check_fan_criterion(d).verdict == "Yes"

    def test_finite_nonzero_total(self):
        d = OrderedSequenceSpec((F(1), F(-1), F(3)), ())
        assert check_fan_criterion(d).verdict == "No"

    def test_alternation(self):
        d = OrderedSequenceSpec((), ((ones, 1), (ConstantRepeat(F(-1), INF), 1)))
        assert check_fan_criterion(d).verdict == "Yes"

    def test_drift(self):
        d = OrderedSequenceSpec((), ((ones, 1),))
        assert check_fan_criterion(d).verdict == "No"

    def test_balanced_but_missing_zero(self):
        d = OrderedSequenceSpec((F(1, 3),),
                                ((ones, 1), (ConstantRepeat(F(-1), INF), 1)))
        assert check_fan_criterion(d).verdict == "No"

    def test_summable_tail(self):
        d = OrderedSequenceSpec((F(-1),), ((geo(F(1, 2), F(1, 2)), 1),))
        assert check_fan_criterion(d).verdict == "Yes"
