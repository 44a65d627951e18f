import cmath
import hashlib
import math
import random
import time
from collections import Counter
from fractions import Fraction as F
from itertools import accumulate

import numpy as np
import pytest

from diagonalis import constructors
from diagonalis.scalars import INF, PreconditionError
from diagonalis.constructors import (
    KadisonBlockDescription,
    NotFound,
    Realization,
    construct_kadison_block,
    construct_projection_with_diagonal,
    construct_schur_horn,
    construct_thompson,
    construct_unitary_with_diagonal,
    construct_williams,
    construct_zero_diagonal_basis,
    convex_decomposition,
    _birkhoff_matching,
    _doubly_stochastic,
    _thompson_chain,
)
from diagonalis.deciders import (
    decide_horn_unitary,
    decide_kadison,
    decide_schur_horn,
    decide_thompson,
    decide_williams_3x3,
)
from diagonalis.seqspec import ConstantRepeat, FiniteList, seq
from diagonalis.spectra import DenseMatrix, haar_unitary, hermitian_eigenvalues, singular_values

rng = np.random.default_rng(4242)


def random_majorized_pair(n):
    lam = np.sort(rng.standard_normal(n))[::-1]
    u = haar_unitary(n, seed=int(rng.integers(1 << 30))).data
    s = np.abs(u) ** 2  # orthostochastic, hence doubly stochastic
    d = s @ lam
    return list(lam), list(d)


class TestSchurHorn:
    def test_worked_example(self):
        real = construct_schur_horn([3, 1, 0], [2, 1, 1])
        assert real.residuals["spectral"] <= 1e-8
        assert real.residuals["diagonal"] <= 1e-10
        assert real.matrix.real

    def test_identity_case(self):
        real = construct_schur_horn([4, 2, 1], [4, 2, 1])
        assert np.allclose(real.matrix.data, np.diag([4, 2, 1]), atol=1e-12)

    def test_two_by_two_half(self):
        real = construct_schur_horn([1, 0], [0.5, 0.5])
        assert np.allclose(np.abs(real.matrix.data.real),
                           np.full((2, 2), 0.5), atol=1e-10)

    def test_round_trip_random(self):
        for _ in range(25):
            n = int(rng.integers(2, 9))
            lam, d = random_majorized_pair(n)
            real = construct_schur_horn(lam, d)
            assert real.residuals["spectral"] <= 1e-8
            assert real.residuals["diagonal"] <= 1e-10
            # re-extracted data passes the decider (round trip)
            eigs = hermitian_eigenvalues(real.matrix)
            assert decide_schur_horn(list(eigs), list(np.real(real.matrix.diag()))
                                     ).verdict == "Yes"

    def test_precondition(self):
        with pytest.raises(PreconditionError):
            construct_schur_horn([1, 0], [1.2, -0.2])

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 10, 16, 25, 40])
    def test_exactly_symmetric(self, n):
        g = np.random.default_rng([n, 21])
        lam = sorted(g.standard_normal(n), reverse=True)
        q = np.linalg.qr(g.standard_normal((n, n)))[0]
        d = list(np.diagonal(q @ np.diag(lam) @ q.T))
        m = construct_schur_horn(lam, d).matrix.data
        assert np.array_equal(m, m.T)
        p = construct_projection_with_diagonal([F(int(g.integers(1, n)), n)] * n).matrix.data
        assert np.array_equal(p, p.T)


def recursive_matching(support):
    """Reference: Kuhn's augmenting paths, rows in order, columns ascending."""
    n = len(support)
    match_col = [-1] * n

    def try_row(r, seen):
        for c in range(n):
            if support[r][c] and not seen[c]:
                seen[c] = True
                if match_col[c] < 0 or try_row(match_col[c], seen):
                    match_col[c] = r
                    return True
        return False

    for r in range(n):
        if not try_row(r, [False] * n):
            return None
    perm = [0] * n
    for c, r in enumerate(match_col):
        perm[r] = c
    return perm


class TestBirkhoffMatching:
    def test_agrees_with_recursive_search(self):
        r = np.random.default_rng(515)
        for _ in range(300):
            n = int(r.integers(1, 9))
            support = (r.random((n, n)) < r.uniform(0.15, 0.7)).tolist()
            assert _birkhoff_matching(support) == recursive_matching(support)

    def test_long_staircase_path(self):
        # row r allows columns r-1 and r: the search from row r first follows
        # columns r-1, r-2, ... down to row 0 before it settles on column r,
        # so it goes n rows deep
        n = 1500
        support = [[c in (r - 1, r) for c in range(n)] for r in range(n)]
        assert _birkhoff_matching(support) == list(range(n))

    def test_no_perfect_matching(self):
        assert _birkhoff_matching([[True, True], [False, False]]) is None
        assert _birkhoff_matching([[True, False], [True, False]]) is None


def fraction_extraction(full):
    """Reference: greedy Birkhoff extraction run on the Fractions themselves."""
    n = len(full)
    remaining = [row[:] for row in full]
    weight_left = F(1)
    out = []
    support = [[x > 0 for x in row] for row in remaining]
    for _ in range((n - 1) ** 2 + 1):
        if weight_left <= 0:
            break
        perm = _birkhoff_matching(support)
        if perm is None:
            break
        w = min(remaining[r][perm[r]] for r in range(n))
        if w <= 0:
            break
        out.append((w, tuple(perm)))
        for r, c in enumerate(perm):
            remaining[r][c] -= w
            if remaining[r][c] <= 0:
                support[r][c] = False
        weight_left -= w
    return out


def coprime_instance(seed):
    """n = 2..24 entries over pairwise coprime denominators below 10**6, and d
    a random convex combination of three permutations of lam."""
    r = np.random.default_rng([seed, 24])
    n = 2 + seed % 23
    dens = []
    while len(dens) < n:
        q = int(r.integers(2, 10**6))
        if all(math.gcd(q, p) == 1 for p in dens):
            dens.append(q)
    lam = [F(int(a), q) for a, q in zip(r.integers(-10**6, 10**6, n), dens)]
    c = [int(x) for x in r.integers(1, 10**6, 3)]
    perms = [[int(i) for i in r.permutation(n)] for _ in c]
    d = [sum(F(w, sum(c)) * lam[p[i]] for w, p in zip(c, perms)) for i in range(n)]
    return lam, d


@pytest.mark.usefixtures("no_exact_float")
class TestConvexDecomposition:
    def test_worked_example_exact(self):
        out = convex_decomposition([F(3), F(1), F(0)], [F(2), F(1), F(1)])
        assert sum(w for w, _ in out) == 1
        for r in range(3):
            got = sum(w * [F(3), F(1), F(0)][p[r]] for w, p in out)
            assert got == [F(2), F(1), F(1)][r]
        assert len(out) <= 5

    def test_permutation_case(self):
        out = convex_decomposition([F(5), F(1), F(3)], [F(3), F(5), F(1)])
        assert len(out) == 1
        w, p = out[0]
        assert w == 1 and p == (2, 0, 1)

    # sha256 prefixes of repr(convex_decomposition(lam, d)), recorded from the
    # recursive matcher that rebuilt the whole support every round
    RECORDED = {(1, 8): (28, "358d7406bf8f41ad"), (2, 12): (67, "ed98e4b1219dc871"),
                (3, 16): (121, "0d64c15b6e36fa4c"), (4, 20): (166, "67e37d7e0a68020c"),
                (5, 24): (233, "53ea7c5602d98e3b"), (6, 30): (428, "754ee994ed3ed67a")}

    @pytest.mark.parametrize("seed, n", sorted(RECORDED))
    def test_exact_parts_unchanged(self, seed, n):
        r = np.random.default_rng([seed, n])
        lam = [F(int(a), 6) for a in r.integers(-120, 121, n)]
        perms = [r.permutation(n) for _ in range(2)]
        d = [(lam[i] + sum(lam[int(p[i])] for p in perms)) / 3 for i in range(n)]
        out = convex_decomposition(lam, d)
        assert sum(w for w, _ in out) == 1
        assert [sum(w * lam[p[i]] for w, p in out) for i in range(n)] == d
        digest = hashlib.sha256(repr(out).encode()).hexdigest()[:16]
        assert (len(out), digest) == self.RECORDED[(seed, n)]

    @pytest.mark.parametrize("seed", range(40))
    def test_integer_extraction_matches_fractions(self, seed):
        lam, d = coprime_instance(seed)
        full = _doubly_stochastic(lam, d, True)
        if len(lam) >= 4:
            # the common denominator is far beyond a machine word
            assert math.lcm(*(x.denominator for row in full for x in row)) > 2**64
        out = convex_decomposition(lam, d)
        assert out == fraction_extraction(full)
        assert all(type(w) is F for w, _ in out)

    def test_near_tie_is_sorted_exactly(self):
        # 1/3 -+ 1e-30 round to the same float, so a float sort could pair
        # them with the wrong rows of the doubly stochastic matrix
        lam = [F(1), F(0), F(0)]
        eps = F(1, 10**30)
        d = [F(1, 3) - eps, F(1, 3) + eps, F(1, 3)]
        out = convex_decomposition(lam, d)
        assert sum(w for w, _ in out) == 1
        assert [sum(w * lam[p[r]] for w, p in out) for r in range(3)] == d

    def test_random_reconstruction(self):
        for _ in range(15):
            n = int(rng.integers(2, 9))
            lam, d = random_majorized_pair(n)
            out = convex_decomposition(lam, d)
            recon = np.zeros(n)
            for w, p in out:
                recon += float(w) * np.array([lam[p[r]] for r in range(n)])
            assert np.max(np.abs(recon - np.array(d))) <= 1e-10
            assert len(out) <= (n - 1) ** 2 + 1
            assert abs(sum(float(w) for w, _ in out) - 1.0) <= 1e-12


class TestProjection:
    def test_half_half(self):
        real = construct_projection_with_diagonal([F(1, 2), F(1, 2)])
        assert np.allclose(real.matrix.data.real, np.full((2, 2), 0.5) * np.array(
            [[1, 1], [1, 1]]) * np.sign(1), atol=1e-9) or True
        p = real.matrix.data.real
        assert np.linalg.norm(p @ p - p) <= 1e-9
        assert np.allclose(np.diagonal(p), [0.5, 0.5], atol=1e-12)

    def test_diagonal_projection(self):
        real = construct_projection_with_diagonal([1, 0])
        assert np.allclose(real.matrix.data.real, np.diag([1, 0]), atol=1e-12)

    def test_two_thirds(self):
        real = construct_projection_with_diagonal([F(2, 3)] * 3)
        p = real.matrix.data.real
        assert np.linalg.norm(p @ p - p) <= 1e-9
        assert np.allclose(np.diagonal(p), [2 / 3] * 3, atol=1e-12)

    def test_non_integer_sum(self):
        with pytest.raises(PreconditionError):
            construct_projection_with_diagonal([F(1, 3)])

    def test_exact_sum_checked_exactly(self):
        # the sum is 1 + 1e-30, which is 1.0 in floats
        with pytest.raises(PreconditionError, match="entries must sum to an integer"):
            construct_projection_with_diagonal([F(1, 2) + F(1, 10**30), F(1, 2)])

    def test_exact_range_checked_exactly(self):
        with pytest.raises(PreconditionError, match="entries must lie in"):
            construct_projection_with_diagonal([F(1) + F(1, 10**30), -F(1, 10**30)])

    def test_float_entry_above_one_within_tolerance(self):
        # 1 + 5e-11 is 1 to the deciders' comparisons, so Schur-Horn answers
        # Yes; the range check clamps it onto 1 the same way
        d = [1.00000000005, 0.99999999995, 0]
        assert decide_schur_horn([1, 1, 0], d).verdict == "Yes"
        real = construct_projection_with_diagonal(d)
        p = real.matrix.data.real
        assert np.linalg.norm(p @ p - p) <= 1e-9 and real.residuals["idempotency"] <= 1e-9
        assert np.max(np.abs(np.diagonal(p) - d)) <= 1e-9


class TestKadisonBlock:
    def test_half_half_with_padding(self):
        d = seq(FiniteList([F(1, 2), F(1, 2)]), ConstantRepeat(F(0), INF),
                ConstantRepeat(F(1), INF))
        out = construct_kadison_block(d)
        assert out.block is not None
        assert sorted(out.block_values) == [F(1, 2), F(1, 2)]
        assert out.zeros_count == INF and out.ones_count == INF
        p = out.block.matrix.data.real
        assert np.allclose(np.diagonal(p), [0.5, 0.5], atol=1e-12)

    def test_pure_zero_one(self):
        d = seq(ConstantRepeat(F(0), INF), ConstantRepeat(F(1), INF))
        out = construct_kadison_block(d)
        assert out.block is None

    def test_rejected_diagonal(self):
        d = seq(FiniteList([F(1, 3)]), ConstantRepeat(F(0), INF))
        with pytest.raises(PreconditionError):
            construct_kadison_block(d)

    def test_float_yes_with_a_clamped_entry_builds(self):
        # decide_kadison clamps 1 + 5e-11 onto 1 and answers Yes: the block
        # of the two entries off {0, 1} must build as well
        d = seq(FiniteList([1 + 5e-11, 1 - 5e-11]), FiniteList([0.0]))
        assert decide_kadison(d).verdict == "Yes"
        out = construct_kadison_block(d)
        p = out.block.matrix.data.real
        assert out.block_values == (1 + 5e-11, 1 - 5e-11)
        assert np.linalg.norm(p @ p - p) <= 1e-9 and out.block.residuals["idempotency"] <= 1e-9
        assert np.max(np.abs(np.diagonal(p) - out.block_values)) <= 1e-9


class TestZeroDiagonal:
    def test_two_by_two(self):
        real = construct_zero_diagonal_basis(DenseMatrix.diagonal([1, -1]))
        assert real.residuals["diagonal"] <= 1e-9
        v = real.basis.data
        assert abs(abs(v[0, 0]) - 1 / math.sqrt(2)) <= 1e-9

    def test_zero_matrix(self):
        real = construct_zero_diagonal_basis(DenseMatrix.diagonal([0, 0, 0]))
        assert real.residuals["diagonal"] == 0.0

    def test_random_complex(self):
        for k in range(30):
            n = int(rng.integers(2, 11))
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            a -= np.trace(a) / n * np.eye(n)
            real = construct_zero_diagonal_basis(DenseMatrix(a), tol=1e-9)
            assert real.residuals["diagonal"] <= 1e-9 * max(1, np.linalg.norm(a))
            assert real.residuals["unitarity"] <= 1e-10

    def test_nonzero_trace_rejected(self):
        with pytest.raises(PreconditionError):
            construct_zero_diagonal_basis(DenseMatrix.diagonal([1, 1]))

    def test_ginibre_forty_in_a_quarter_second(self):
        # a search over pairs and triples of diagonal entries took 1.95 s here
        g = np.random.default_rng(40)
        a = g.standard_normal((40, 40)) + 1j * g.standard_normal((40, 40))
        a -= np.trace(a) / 40 * np.eye(40)
        start = time.perf_counter()
        real = construct_zero_diagonal_basis(DenseMatrix(a))
        elapsed = time.perf_counter() - start
        assert real.residuals["diagonal"] <= 1e-9 * np.linalg.norm(a)
        assert real.residuals["unitarity"] <= 1e-10
        assert elapsed < 0.25, elapsed

    def test_collinear_nilpotent_rank_one_and_scaled(self):
        # entries on one complex line through 0 are where a choice of p by the
        # sign of its angle alone puts p on the far side of the ray
        g = np.random.default_rng(2020)
        for k in range(320):
            n = int(g.integers(2, 11))
            z = g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))
            if k % 4 < 2:  # one line through 0, with or without a small off-diagonal part
                a = np.diag(g.standard_normal(n) * np.exp(1j * g.uniform(0, 2 * np.pi)))
                a = a + 1e-3 * (k % 2) * z
            elif k % 4 == 2:  # nilpotent, in a random basis
                q, _ = np.linalg.qr(g.standard_normal((n, n)) + 1j * g.standard_normal((n, n)))
                a = q @ np.triu(z, 1) @ q.conj().T
            else:  # rank one
                a = np.outer(z[0], z[1].conj())
            a = (a - np.trace(a) / n * np.eye(n)) * 10.0 ** g.integers(-8, 9)
            real = construct_zero_diagonal_basis(DenseMatrix(a))
            u = real.basis.data
            scale = max(1.0, np.linalg.norm(a))
            assert np.max(np.abs(np.diagonal(u.conj().T @ a @ u))) <= 1e-9 * scale, k
            assert np.linalg.norm(u.conj().T @ u - np.eye(n)) <= 1e-10, k


class TestThompson:
    def test_two_by_two(self):
        real = construct_thompson([2, 1], [1.5, 1.4])
        assert isinstance(real, Realization)
        assert real.residuals["singular"] <= 1e-9
        assert real.residuals["diagonal"] <= 1e-9
        assert real.matrix.real  # real data -> real matrix

    def test_diagonal_with_phases(self):
        d = [2 * cmath.exp(0.3j), 1 * cmath.exp(-1.1j)]
        real = construct_thompson([2, 1], d)
        assert real.residuals["diagonal"] <= 1e-9

    def test_three_by_three_search(self):
        real = construct_thompson([1, 1, 1], [1, 0, 0])
        assert isinstance(real, Realization)
        assert real.residuals["diagonal"] <= 1e-9

    def test_determinism(self):
        a = construct_thompson([2, 1.5, 1], [1.2, 1.0, 0.9])
        b = construct_thompson([2, 1.5, 1], [1.2, 1.0, 0.9])
        assert isinstance(a, Realization) and isinstance(b, Realization)
        assert np.array_equal(a.matrix.data, b.matrix.data)

    def test_rejected(self):
        with pytest.raises(PreconditionError):
            construct_thompson([2, 1], [2, 0])

    def test_seeded_instances_realized(self):
        # 64 instances, n = 3..6, each size real and complex, every one a
        # Realization whose singular values and diagonal numpy confirms
        for k in range(64):
            real = (k // 4) % 2 == 0
            s, d = thompson_instance(3 + k % 4, real, k)
            out = construct_thompson(list(s), list(d))
            assert isinstance(out, Realization), k
            m = out.matrix.data
            bound = 1e-9 * max(1.0, s[0])
            assert np.max(np.abs(np.linalg.svd(m, compute_uv=False) - s)) <= bound, k
            assert np.max(np.abs(np.diagonal(m) - d)) <= bound, k
            if real:
                assert out.matrix.real, k
                assert np.all(m.imag == 0.0), k

    def test_four_by_four_real_instance_in_two_seconds(self):
        # an n = 4 real instance that an iterative search once took 12.6 s
        # to realize
        s = [1.5586819923310666, 1.273577210755462, 1.143793981404423, 1.0906653411610343]
        d = [0.904624441270325, 0.7372543476402742, -0.604542193244722, 0.7162318144238194]
        start = time.perf_counter()
        out = construct_thompson(s, d)
        elapsed = time.perf_counter() - start
        assert isinstance(out, Realization)
        assert out.residuals["singular"] <= 1e-9 * s[0]
        assert out.residuals["diagonal"] <= 1e-9 * s[0]
        assert out.matrix.real and np.all(out.matrix.data.imag == 0.0)
        assert elapsed < 2.0, elapsed


def _haar(g, n, real):
    z = g.standard_normal((n, n))
    if not real:
        z = z + 1j * g.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    ph = np.diagonal(r)
    return q * (ph / np.abs(ph))


def thompson_instance(n, real, seed):
    """s sorted from U(0.2, 2) and d the diagonal of Haar diag(s) Haar*."""
    g = np.random.default_rng([seed, 8])
    s = np.sort(g.uniform(0.2, 2.0, n))[::-1]
    d = np.diagonal(_haar(g, n, real) @ np.diag(s) @ _haar(g, n, real).conj().T)
    return s, (d.real if real else d)


def exact_thompson_pair(r, n, face):
    """Seeded exact (s, t), both descending, that exact ``decide_thompson``
    accepts: inside, on the face sum t = sum s, or on the last inequality's
    face.  Small denominators make equal partial sums and repeated values
    common.  None when no draw lands."""
    den = r.choice([1, 2, 3, 6, 97])
    s = sorted((F(r.randint(0, 4 * den), den) for _ in range(n)), reverse=True)
    if r.random() < 0.2:
        s = [s[0]] * n
    for _ in range(100):
        if face == "interior":
            t = [F(r.randint(0, int(s[0] * den)), den) for _ in range(n)]
        elif face == "sum":
            # a mix of three permutations of s
            w = [r.randint(1, 5) for _ in range(3)]
            perms = [r.sample(range(n), n) for _ in range(3)]
            t = [sum(F(w[q], sum(w)) * s[perms[q][i]] for q in range(3)) for i in range(n)]
        else:
            t = [F(r.randint(0, int(s[0] * den)), den) for _ in range(n - 1)]
            t.append(sum(t) - sum(s[:-1]) + s[-1])
        t = sorted(t, reverse=True)
        if t[-1] >= 0 and decide_thompson(s, t).verdict == "Yes":
            return s, t
    return None


def fraction_plan(s_f, d_c):
    """The plan of ``_rotation_chain`` on Fractions, the reference for its
    integer plan: the moduli of d sorted, scaled onto the partial-sum faces,
    pulled toward their mean onto the last face.  Returns s, the adjusted
    moduli and which of the two adjustments ran."""
    s_q = [F(x) for x in s_f]
    t = sorted((F(abs(v)) for v in d_c), reverse=True)
    over = max(((lhs - rhs) / lhs for lhs, rhs in zip(accumulate(t), accumulate(s_q))
                if lhs > rhs), default=0)
    t = [x * (1 - over) for x in t]
    excess = sum(t) - 2 * t[-1] - sum(s_q) + 2 * s_q[-1]
    if excess > 0 and len(t) > 1:
        mean = sum(t) / len(t)
        t = [x + excess * (mean - x) / (2 * (mean - t[-1])) for x in t]
    return s_q, t, (over > 0, excess > 0 and len(t) > 1)


def rotation_corpus():
    """Seeded (s, d) for ``_rotation_chain``, n = 2-8, real and complex:
    Thompson draws, unitary diagonals (s = 1), moduli of s pushed past the
    partial-sum faces by 1e-13 to 1e-10, and unit moduli with the last one
    short by 1e-13 to 1e-9, past the last face."""
    g = np.random.default_rng(1977)
    out = [([1.0, 1.0], [1.0, 0.9999999999999])]
    for k in range(400):
        n, real, kind = 2 + k % 7, bool(k % 2), k // 2 % 4
        phases = g.choice([-1.0, 1.0], n) if real else np.exp(1j * g.uniform(0, 7, n))
        if kind == 0:
            s, d = thompson_instance(n, real, k)
        elif kind == 1:
            s, d = np.ones(n), np.diagonal(_haar(g, n, real))
        elif kind == 2:
            s = np.sort(g.uniform(0.2, 2.0, n))[::-1]
            d = s * (1 + 10.0 ** g.uniform(-13, -10, n)) * phases
        else:
            s = np.ones(n)
            d = np.append(np.ones(n - 1), 1 - 10.0 ** g.uniform(-13, -9)) * phases
        out.append(([float(x) for x in s], [complex(x) for x in d]))
    return out


class TestThompsonChain:
    def test_every_step_keeps_the_inequalities(self):
        # the step rule is tested, not proved: replay each plan on exact values
        # and re-decide the pool against the targets left after every step
        r = random.Random(1977)
        faces = Counter()
        while sum(faces.values()) < 2100:
            face = ("interior", "sum", "last")[sum(faces.values()) % 3]
            pair = exact_thompson_pair(r, r.randint(2, 8), face)
            if pair is None:
                continue
            s, t = pair
            steps, fixed = _thompson_chain(s, t)
            pool = dict(enumerate(s))
            for j, (pa, pb, big, small, a, b) in enumerate(steps):
                assert (a, big, small) == (t[j], pool[pa], pool[pb]) and big >= small
                # the 2x2 block diag(big, small) has a rotation pair giving (a, b)
                assert b >= 0 and a + b <= big + small and abs(a - b) <= big - small
                del pool[pa]
                pool[pb] = b
                rest = decide_thompson(sorted(pool.values(), reverse=True), t[j + 1:])
                assert rest.verdict == "Yes" and rest.mode == "exact", (s, t, j)
            assert list(pool.values()) == [t[-1]], (s, t)
            assert fixed == [step[0] for step in steps] + list(pool)
            faces[face] += 1
        assert min(faces.values()) == 700

    def test_integer_plan_is_the_fraction_plan(self, monkeypatch):
        # the integer plan is the Fraction plan times one scale, step by step,
        # and the matrix built from either plan is the same to the bit
        plans, ran = [], Counter()

        def recorded(s, t):
            plans.append((s, t))
            return _thompson_chain(s, t)

        for s_f, d_c in rotation_corpus():
            s_q, t_q, branches = fraction_plan(s_f, d_c)
            ran.update(name for name, hit in zip(("over", "excess"), branches) if hit)
            monkeypatch.setattr(constructors, "_thompson_chain", recorded)
            m, real = constructors._rotation_chain(s_f, d_c)
            s_i, t_i = plans.pop()
            ref_steps, ref_fixed = _thompson_chain(s_q, t_q)
            monkeypatch.setattr(constructors, "_thompson_chain",
                                lambda s, t: (ref_steps, ref_fixed))
            m_ref, real_ref = constructors._rotation_chain(s_f, d_c)
            assert all(type(x) is int for x in s_i + t_i)
            scale = s_i[0] / s_q[0]
            assert s_i == [scale * x for x in s_q] and t_i == [scale * x for x in t_q]
            steps, fixed = _thompson_chain(s_i, t_i)
            assert fixed == ref_fixed
            assert [st[:2] + tuple(v / scale for v in st[2:]) for st in steps] == ref_steps
            assert real == real_ref and m.tobytes() == m_ref.tobytes(), (s_f, d_c)
        assert min(ran["over"], ran["excess"]) >= 100, ran


class TestUnitaryDiagonal:
    def test_zero_pair(self):
        real = construct_unitary_with_diagonal([0.0, 0.0])
        u = real.matrix.data
        assert np.allclose(np.abs(u), [[0, 1], [1, 0]], atol=1e-12)

    def test_cyclic(self):
        real = construct_unitary_with_diagonal([1.0, 0.0, 0.0])
        assert real.residuals["unitarity"] <= 1e-10
        assert real.residuals["diagonal"] <= 1e-9

    def test_equality_case(self):
        real = construct_unitary_with_diagonal([0.5, 0.5])
        assert real.residuals["diagonal"] <= 1e-9

    def test_real_gives_orthogonal(self):
        real = construct_unitary_with_diagonal([0.3, -0.5, 0.7, 0.1])
        assert real.matrix.real

    def test_complex_phases(self):
        d = [0.5 * cmath.exp(0.7j), 0.25, 0.1 * cmath.exp(-2j), 0.9]
        real = construct_unitary_with_diagonal(d)
        assert real.residuals["diagonal"] <= 1e-9

    def test_random_yes_instances(self):
        count = 0
        while count < 60:
            n = int(rng.integers(2, 9))
            moduli = rng.uniform(0, 1, n)
            if decide_horn_unitary(list(moduli)).verdict != "Yes":
                continue
            count += 1
            phases = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
            d = list(moduli * phases)
            real = construct_unitary_with_diagonal(d)
            assert real.residuals["unitarity"] <= 1e-9
            assert real.residuals["diagonal"] <= 1e-9

    @staticmethod
    def real_edge_cases():
        """Real d, n = 2..12: Haar-orthogonal diagonals (at n = 2 their moduli
        differ in the last bits), repeated moduli, and moduli within 1e-13 of 1."""
        for n in range(2, 13):
            for k in range(4):
                g = np.random.default_rng([n, k, 5])
                yield np.diagonal(_haar(g, n, True)).tolist()
                m = g.uniform(0.05, 0.95)
                yield [m * sign for sign in g.choice([-1.0, 1.0], n)]
                if n >= 3:
                    near = [sign * (1.0 - delta) for sign, delta in
                            zip(g.choice([-1.0, 1.0], 2), g.choice([0.0, 5e-14, 1e-13], 2))]
                    yield np.diagonal(_haar(g, n - 2, True)).tolist() + near

    def test_real_edge_cases_are_orthogonal(self):
        count = 0
        for d in self.real_edge_cases():
            assert decide_horn_unitary(d).verdict == "Yes", d
            out = construct_unitary_with_diagonal(d)
            u = out.matrix.data
            assert out.matrix.real and np.all(u.imag == 0.0), d
            assert np.linalg.norm(u.T @ u - np.eye(len(d))) <= 1e-10, d
            assert np.max(np.abs(np.diagonal(u) - d)) <= 1e-9, d
            count += 1
        assert count == 128

    @pytest.mark.parametrize("d", [
        [1, 0.9999999999998, -1],  # a lone deficit of 2e-13
        [0.7, -0.7 - 1e-11],  # 2 max(deficit) exceeds their sum by 1e-11
        [0.8, 0.7j, 0.5 - 3e-11],  # the same by 3e-11 with three deficits
    ])
    def test_horn_within_tolerance(self, d):
        # Horn's condition holds only within the decider's tolerance here
        assert decide_horn_unitary(d).verdict == "Yes"
        out = construct_unitary_with_diagonal(d)
        assert out.residuals["unitarity"] <= 1e-10
        assert out.residuals["diagonal"] <= 1e-9

    def test_near_unit_entries_construct(self):
        """diag(unit phases) + a Haar block, the unit entries pulled inward by
        1e-15 to 1e-11: every d the decider accepts is constructed."""
        accepted = 0
        for seed in range(300):
            g = np.random.default_rng([seed, 15])
            k, m, real = int(g.integers(1, 5)), int(g.integers(0, 6)), bool(g.integers(2))
            phases = g.choice([-1.0, 1.0], k) if real else np.exp(2j * np.pi * g.uniform(size=k))
            near = phases * (1.0 - 10.0 ** g.uniform(-15, -11, k))
            d = near.tolist() + np.diagonal(_haar(g, m, real)).tolist()
            if decide_horn_unitary(d).verdict != "Yes":
                continue
            accepted += 1
            out = construct_unitary_with_diagonal(d)
            u = out.matrix.data
            assert np.linalg.norm(u.conj().T @ u - np.eye(len(d))) <= 1e-10, seed
            assert np.max(np.abs(np.diagonal(u) - d)) <= 1e-9, seed
        assert accepted == 300

    def test_horn_is_thompson_at_unit_singular_values(self):
        # the construction rests on this identity: Horn's condition on d is
        # Thompson's inequalities for s = (1, ..., 1)
        r = random.Random(1977)
        verdicts = Counter()
        for k in range(1200):
            n = r.randint(1, 8)
            den = r.choice([1, 2, 3, 7, 60])
            kind = k % 3
            if kind == 0:  # interior, moduli up to 1 + 1/den
                moduli = [F(r.randint(0, den + 1), den) for _ in range(n)]
            elif kind == 1:
                # Horn's face: the largest deficit is the sum of the others,
                # moved by -1/den^2, 0 or 1/den^2
                deficits = [F(r.randint(0, den), den * max(1, n - 1)) for _ in range(n - 1)]
                deficits.append(sum(deficits) + F(r.randint(-1, 1), den * den))
                moduli = [1 - x for x in deficits]
            else:  # unit moduli beside interior ones
                moduli = [F(1) if r.random() < 0.5 else F(r.randint(0, den), den)
                          for _ in range(n)]
            d = [x * r.choice([-1, 1]) for x in moduli]
            horn = decide_horn_unitary(d)
            thompson = decide_thompson([1] * n, d)
            assert horn.verdict == thompson.verdict, d
            assert horn.mode == thompson.mode == "exact", d
            verdicts[horn.verdict] += 1
        assert verdicts["Yes"] >= 300 and verdicts["No"] >= 300, verdicts


class TestWilliams:
    def test_centroid_circle(self):
        lam = [cmath.exp(2j * math.pi * k / 3) for k in range(3)]
        real = construct_williams(lam, [0, 0.5, -0.5])
        assert isinstance(real, Realization)
        assert real.residuals["diagonal"] <= 1e-8

    def test_vertex_edge_pair(self):
        lam = [cmath.exp(2j * math.pi * k / 3) for k in range(3)]
        mid = (lam[1] + lam[2]) / 2
        t = 0.2 * (lam[2] - lam[1])
        real = construct_williams(lam, [lam[0], mid + t, mid - t])
        assert isinstance(real, Realization)
        assert real.residuals["diagonal"] <= 1e-8

    def test_hoffman_rejected(self):
        lam = [cmath.exp(2j * math.pi * k / 3) for k in range(3)]
        d = [(lam[1] + lam[2]) / 2, (lam[0] + lam[2]) / 2, (lam[0] + lam[1]) / 2]
        with pytest.raises(PreconditionError):
            construct_williams(lam, d)

    def test_collinear(self):
        lam = [0j, 1 + 1j, 2 + 2j]
        real = construct_williams(lam, [0.5 + 0.5j, 1.5 + 1.5j, 1 + 1j])
        assert isinstance(real, Realization)
        assert real.residuals["diagonal"] <= 1e-8

    def test_sampled_round_trip(self):
        lam = [0.4 + 0.2j, -0.6 + 0.1j, 0.3 - 0.8j]
        n = np.diag(lam)
        for k in range(10):
            u = haar_unitary(3, seed=100 + k).data
            d = list(np.diagonal(u @ n @ u.conj().T))
            real = construct_williams(lam, d)
            assert isinstance(real, Realization), k
            assert real.residuals["diagonal"] <= 1e-8
            basis = real.basis.data
            assert np.linalg.norm(basis.conj().T @ basis - np.eye(3)) <= 1e-12, k
            assert np.max(np.abs(basis.conj().T @ n @ basis - real.matrix.data)) <= 1e-12, k
