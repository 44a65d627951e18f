import itertools
import math
import operator
import random
from fractions import Fraction as F
from functools import reduce

import numpy as np
import pytest

from diagonalis.scalars import INF, QC, PreconditionError, XSum, python_scalars
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
    decide_williams_3x3,
    kadison_invariants,
)
from diagonalis.seqspec import (
    ConstantRepeat,
    DiagonalizableSpec,
    FiniteList,
    FiniteSpectrumSpec,
    Geometric,
    OrderedSequenceSpec,
    TelescopingHarmonic,
    affine_image,
    operator_affine_image,
    seq,
    split_sums,
)


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

    def test_numpy_int64_certificates_near_two_to_the_62(self):
        # summed as int64 these certificates wrapped to -2**63
        b = 2 ** 62
        big = [np.int64(b), np.int64(b - 1), np.int64(1)]
        even = [np.int64(b), np.int64(b), np.int64(0)]
        no = decide_schur_horn(big, even)
        assert no.verdict == "No" and no.mode == "exact"
        assert no.certificate["partial_sums_d"] == [b, 2 * b, 2 * b]
        assert no.certificate["witness"] == {"index": 2, "lhs": 2 * b, "rhs": 2 * b - 1}
        yes = decide_schur_horn(even, big)
        assert yes.verdict == "Yes"
        assert yes.certificate["partial_sums_lambda"] == [b, 2 * b, 2 * b]
        assert yes.certificate["partial_sums_d"] == [b, 2 * b - 1, 2 * b]
        for dec in (no, yes):
            for key in ("partial_sums_d", "partial_sums_lambda"):
                assert all(type(v) is int for v in dec.certificate[key])

    def test_numpy_floats_give_python_float_certificates(self):
        dec = decide_schur_horn(list(np.array([3.0, 1.0, 0.0])), list(np.array([2.0, 1.0, 1.0])))
        assert dec.verdict == "Yes"
        assert dec.certificate["partial_sums_d"] == [2.0, 3.0, 4.0]
        assert all(type(v) is float for key in ("partial_sums_d", "partial_sums_lambda")
                   for v in dec.certificate[key])

    def test_python_input_passes_unchanged(self):
        lam = [F(3), 1, 0.0]
        assert python_scalars(lam) == lam
        assert [type(v) for v in python_scalars(lam)] == [F, int, float]
        assert python_scalars([np.int32(3), np.float32(0.5), np.complex64(1j), np.bool_(True)]) \
            == [3, 0.5, 1j, True]

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


@pytest.mark.parametrize("decide, args", [
    (decide_schur_horn, ([3, 1, 0], [2, 1, 1])),
    (decide_thompson, ([3, 2, 1], [2, 2, 2])),
    (decide_thompson, ([3.0, 2.0, 1.0], [2.5, -1.5, 0.5])),
    (decide_horn_unitary, ([0.5, 0.5, 0.0],)),
    (decide_williams_3x3, ([0j, 1 + 0j, 1j], [0.3 + 0.3j, 0.4 + 0.3j, 0.3 + 0.4j])),
])
def test_numpy_input_decides_as_python_input(decide, args):
    # the same decision, certificate types included (a numpy scalar's repr differs)
    assert repr(decide(*[list(np.array(a)) for a in args])) == repr(decide(*args))


def slice_sums(xs):
    """The certificate's definition: the k-th entry folds the top k+1 values
    left to right from 0 (what ``sum`` does on floats before Python 3.12).
    A numpy entry counts as the Python scalar it holds."""
    xs = sorted((x.item() if isinstance(x, np.generic) else x for x in xs), reverse=True)
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
        # B/2 repeated 10**400 times: the inequality bound on N_1 is 10**400,
        # which no float holds; N_1 / 2 mod 1 repeats with period 2 in N_1,
        # so the search stops at 2
        d = seq(zeros, ones, ConstantRepeat(F(1, 2), 10 ** 400))
        out = decide_bownik_jasper([F(0), F(1, 2), F(1)], d)
        assert out.verdict == "Yes"
        assert out.certificate["N"] == [2]
        assert out.certificate["k"] == -(5 * 10 ** 399 + 1)
        assert _bj_holds([F(1, 2)], F(1), d, [2]) == out.certificate["k"]

    @pytest.mark.usefixtures("no_exact_float")
    def test_period_bound_agrees_with_full_enumeration(self):
        g = random.Random(16)
        compared = newly_decided = 0
        for _ in range(400):
            points, d = _bj_instance(g)
            out = decide_bownik_jasper(points, d)
            if out.verdict == "Yes" and "N" in out.certificate:
                assert _bj_holds(points[1:-1], points[-1], d, out.certificate["N"]) == \
                    out.certificate["k"]
            full = _bj_enumerate(points, d)
            if full is None:
                newly_decided += out.verdict != "Unknown"
                continue
            compared += 1
            assert out.verdict == full, (points, d, out.as_json())
        assert compared >= 200 and newly_decided >= 20, (compared, newly_decided)

    def test_pure_projection_diagonal_needs_interior_mass(self):
        # all-0/1 diagonal forces eigenvectors at the extremes, so an
        # operator with a genuine interior eigenvalue cannot produce it
        d = seq(zeros, ones)
        out = decide_bownik_jasper([F(0), F(1, 2), F(1)], d)
        assert out.verdict == "No"


def _bj_instance(g):
    """Points 0 < small-denominator interior points < B, and d: 0 and B
    repeated forever, a short head, and interior values repeated often."""
    ceiling = g.choice([F(1), F(2), F(3, 2)])
    grid = sorted({ceiling * F(g.randint(1, 11), 12) for _ in range(g.randint(1, 3))})
    head = [ceiling * F(g.randint(0, 12), 12) for _ in range(g.randint(0, 4))]
    repeats = [ConstantRepeat(g.choice(grid + head + [ceiling / 3]),
                              g.choice([g.randint(1, 40), g.randint(10 ** 3, 10 ** 9)]))
               for _ in range(g.randint(0, 2))]
    d = seq(ConstantRepeat(F(0), INF), ConstantRepeat(ceiling, INF), FiniteList(head), *repeats)
    return [F(0), *grid, ceiling], d


def _bj_holds(interior, ceiling, d, ns):
    """k when (N, k) meets the Bownik-Jasper equality and inequalities, else None."""
    c_half, d_half = split_sums(d, ceiling / 2, ceiling=ceiling)
    q = (c_half.value - d_half.value - sum(x * n for x, n in zip(interior, ns))) / ceiling
    if q.denominator != 1 or min(ns) < 1:
        return None
    for r, lr in enumerate(interior):
        c_r, d_r = split_sums(d, lr, ceiling=ceiling)
        rhs = ((ceiling - lr) * sum(x * n for x, n in zip(interior[:r + 1], ns))
               + lr * sum((ceiling - x) * n for x, n in zip(interior[r + 1:], ns[r + 1:])))
        if rhs > (ceiling - lr) * c_r.value + lr * d_r.value:
            return None
    return int(q)


def _bj_enumerate(points, d, cap=20_000):
    """The verdict of a search through every N the inequalities allow, or
    None when there are more than ``cap`` candidates."""
    interior, ceiling = points[1:-1], points[-1]
    bounds = []
    for j, lj in enumerate(interior):
        caps = []
        for r, lr in enumerate(interior):
            c_r, d_r = split_sums(d, lr, ceiling=ceiling)
            coef = (ceiling - lr) * lj if j <= r else lr * (ceiling - lj)
            caps.append(((ceiling - lr) * c_r.value + lr * d_r.value) // coef)
        bounds.append(int(min(caps)))
    if min(bounds) < 1:
        return "No"
    if math.prod(bounds) > cap:
        return None
    boxes = itertools.product(*(range(1, b + 1) for b in bounds))
    found = any(_bj_holds(interior, ceiling, d, ns) is not None for ns in boxes)
    return "Yes" if found else "No"


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


@pytest.mark.usefixtures("no_exact_float")
class TestBlaschkeGeneralExact:
    """The hull of 0, 1, i on QC points: each edge is decided by the sign of
    an exact cross product."""

    def spec(self):
        return FiniteSpectrumSpec(tuple((QC(F(x), F(y)), INF) for x, y in ((0, 0), (1, 0), (0, 1))))

    def test_interior_constant_diverges(self):
        d = seq(ConstantRepeat(QC(F(1, 4), F(1, 4)), INF), field="complex")
        out = check_blaschke(self.spec(), d, mode="general")
        assert (out.verdict, out.mode) == ("SufficientConditionHolds", "exact")
        assert out.as_json()["certificate"]["hull"] == [["0", "0"], ["1", "0"], ["0", "1"]]

    @pytest.mark.parametrize("entry", [QC(F(1, 3), F(2, 3)), QC(F(1, 10), F(9, 10))])
    def test_entry_on_an_edge_is_rejected(self, entry):
        d = seq(FiniteList([entry]), ConstantRepeat(QC(F(1, 4), F(1, 4)), INF), field="complex")
        with pytest.raises(PreconditionError):
            check_blaschke(self.spec(), d, mode="general")

    def test_mt_p_limit_just_inside_fails(self):
        inside = seq(ConstantRepeat(QC(F(1, 2), F(1, 2) - F(1, 10 ** 14)), INF), field="complex")
        out = check_mt_p_summable(self.spec(), inside, 2)
        assert (out.verdict, out.mode) == ("ConditionFails", "exact")
        on_edge = seq(ConstantRepeat(QC(F(1, 2), F(1, 2)), INF), field="complex")
        assert check_mt_p_summable(self.spec(), on_edge, 2).verdict == "SufficientConditionHolds"


class TestModeFromPointsAndD:
    """The mode is exact only when the essential points and d all are: float
    points with exact d are decided, and reported, in float mode."""

    FLOAT_TRIANGLE = FiniteSpectrumSpec(((0j, INF), (1 + 0j, INF), (1j, INF)))
    EXACT_TRIANGLE = FiniteSpectrumSpec(tuple((QC(F(x), F(y)), INF)
                                              for x, y in ((0, 0), (1, 0), (0, 1))))

    def test_entry_on_an_edge_with_float_points(self):
        d = seq(FiniteList([QC(F(1, 3), F(2, 3))]), ConstantRepeat(QC(F(1, 4), F(1, 4)), INF),
                field="complex")
        out = check_blaschke(self.FLOAT_TRIANGLE, d, mode="general")
        assert (out.verdict, out.mode) == ("SufficientConditionHolds", "float")
        with pytest.raises(PreconditionError, match="on or outside the boundary"):
            check_blaschke(self.EXACT_TRIANGLE, d, mode="general")

    def test_mt_p_limit_just_inside_with_float_points(self):
        d = seq(ConstantRepeat(QC(F(1, 2), F(1, 2) - F(1, 10 ** 14)), INF), field="complex")
        out = check_mt_p_summable(self.FLOAT_TRIANGLE, d, 2)
        assert (out.verdict, out.mode) == ("SufficientConditionHolds", "float")
        out = check_mt_p_summable(self.EXACT_TRIANGLE, d, 2)
        assert (out.verdict, out.mode) == ("ConditionFails", "exact")

    def test_selfadjoint_with_float_points(self):
        spec = FiniteSpectrumSpec(((0.0, INF), (1.0, INF)))
        out = check_blaschke(spec, seq(ConstantRepeat(F(1, 2), INF)))
        assert (out.verdict, out.mode) == ("SufficientConditionHolds", "float")
        out = check_blaschke(two_point_spec(), seq(ConstantRepeat(F(1, 2), INF)))
        assert (out.verdict, out.mode) == ("SufficientConditionHolds", "exact")

    @pytest.mark.parametrize("d,general,mt_p", [
        (seq(ConstantRepeat(QC(F(1, 4), F(1, 4)), INF), field="complex"),
         "SufficientConditionHolds", "ConditionFails"),
        (seq(FiniteList([QC(F(1, 4), F(1, 4)), QC(F(1, 10), F(1, 5))]), field="complex"),
         "ConditionFails", "SufficientConditionHolds"),
    ])
    def test_all_exact_input_keeps_its_answers(self, d, general, mt_p):
        out = check_blaschke(self.EXACT_TRIANGLE, d, mode="general")
        assert (out.verdict, out.mode) == (general, "exact")
        out = check_mt_p_summable(self.EXACT_TRIANGLE, d, 2)
        assert (out.verdict, out.mode) == (mt_p, "exact")


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


class TestFloatEndpoints:
    """Float d against exact endpoints: the range check and the endpoint
    counts use the float endpoints that the clamp moves entries onto, so an
    exact 1/10 and a float 0.1 answer alike."""

    @pytest.mark.parametrize("points", [[F(0), F(1, 20), F(1, 10)], [0.0, 0.05, 0.1]])
    def test_bownik_jasper(self, points):
        d = seq(FiniteList([0.05]), ConstantRepeat(0.0, INF), ConstantRepeat(0.1, INF))
        out = decide_bownik_jasper(points, d)
        assert (out.verdict, out.mode) == ("Yes", "float")
        assert (out.certificate["N"], out.certificate["k"]) == ([1], -1)

    @pytest.mark.parametrize("values", [(F(0), F(1, 10), F(1, 5)), (0.0, 0.1, 0.2)])
    def test_three_point(self, values):
        spec = FiniteSpectrumSpec(tuple((v, INF) for v in values))
        out = decide_three_point(spec, seq(FiniteList([0.2]), ConstantRepeat(0.1, INF)))
        assert (out.verdict, out.mode) == ("Yes", "float")
        assert (out.certificate["count_a"], out.certificate["count_b"]) == (0, 1)


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
