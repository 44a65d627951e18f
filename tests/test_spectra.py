import hashlib
import math
from fractions import Fraction as F

import numpy as np
import pytest

from diagonalis.deciders import _hull_edges, _interior_distance
from diagonalis.scalars import INF, PreconditionError
from diagonalis.seqspec import (
    ConstantRepeat,
    DiagonalizableSpec,
    FiniteDimensionalError,
    FiniteList,
    FiniteSpectrumSpec,
    Geometric,
    MatrixSpec,
    essential_summary,
    operator_affine_image,
    seq,
)
from diagonalis.spectra import (
    DenseMatrix,
    _attain_2x2,
    attain_numerical_range_vector,
    haar_unitary,
    hermitian_eigensystem,
    hermitian_eigenvalues,
    numerical_range_hull,
    numerical_range_support,
    singular_values,
)

rng = np.random.default_rng(20240811)


def rand_hermitian(n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return DenseMatrix((a + a.conj().T) / 2)


class TestJacobi:
    def test_diagonal(self):
        vals = hermitian_eigenvalues(DenseMatrix.diagonal([3, 1, 0]))
        assert np.allclose(vals, [3, 1, 0], atol=1e-12)

    def test_swap(self):
        vals = hermitian_eigenvalues(DenseMatrix.from_rows([[0, 1], [1, 0]]))
        assert np.allclose(vals, [1, -1], atol=1e-12)

    @pytest.mark.parametrize("n", [2, 5, 8, 12])
    def test_construct_then_recover(self, n):
        lam = np.sort(rng.standard_normal(n))[::-1]
        q = haar_unitary(n, seed=n).data
        m = DenseMatrix(q @ np.diag(lam) @ q.conj().T)
        vals = hermitian_eigenvalues(m)
        assert np.max(np.abs(vals - lam)) <= 1e-8

    def test_trace_identity_and_conjugation_invariance(self):
        m = rand_hermitian(7)
        vals = hermitian_eigenvalues(m)
        assert abs(vals.sum() - np.trace(m.data).real) <= 1e-9 * max(1, m.norm())
        u = haar_unitary(7, seed=3).data
        vals2 = hermitian_eigenvalues(DenseMatrix(u @ m.data @ u.conj().T))
        assert np.max(np.abs(vals - vals2)) <= 1e-8

    def test_against_numpy_oracle(self):
        for n in (3, 6, 10):
            m = rand_hermitian(n)
            mine = hermitian_eigenvalues(m)
            ref = np.sort(np.linalg.eigvalsh(m.data))[::-1]
            assert np.max(np.abs(mine - ref)) <= 1e-9 * max(1.0, m.norm())

    def test_eigenvectors(self):
        m = rand_hermitian(6)
        vals, vecs = hermitian_eigensystem(m)
        assert np.linalg.norm(m.data @ vecs - vecs @ np.diag(vals)) <= 1e-9
        assert np.linalg.norm(vecs.conj().T @ vecs - np.eye(6)) <= 1e-10

    def test_non_hermitian_rejected(self):
        with pytest.raises(PreconditionError):
            hermitian_eigenvalues(DenseMatrix.from_rows([[0, 1], [0, 0]]))


def power_iteration_sv(a, iters=3000):
    """Test oracle: dominant singular value via power iteration on A*A."""
    g = a.conj().T @ a
    x = np.ones(a.shape[0], dtype=complex) + 0.1 * np.arange(a.shape[0])
    x /= np.linalg.norm(x)
    lam = 0.0
    for _ in range(iters):
        y = g @ x
        lam = np.linalg.norm(y)
        if lam == 0:
            return 0.0
        x = y / lam
    return math.sqrt(lam)


class TestSingularValues:
    def test_unitary(self):
        u = haar_unitary(5, seed=1)
        assert np.allclose(singular_values(u), np.ones(5), atol=1e-10)

    def test_sign(self):
        assert np.allclose(singular_values(DenseMatrix.diagonal([-2, 1])), [2, 1], atol=1e-12)

    def test_power_iteration_oracle(self):
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        m = DenseMatrix(a)
        assert abs(singular_values(m)[0] - power_iteration_sv(a)) <= 1e-8 * np.linalg.norm(a)

    def test_unitary_invariance(self):
        a = rng.standard_normal((5, 5))
        u = haar_unitary(5, seed=11).data
        v = haar_unitary(5, seed=12).data
        s1 = singular_values(DenseMatrix(a))
        s2 = singular_values(DenseMatrix(u @ a @ v))
        assert np.max(np.abs(s1 - s2)) <= 1e-8 * max(1, np.linalg.norm(a))

    def test_agrees_with_lapack(self):
        # the verifier (Gram route, Jacobi) against the LAPACK SVD that the
        # constructors build with
        for n in (2, 4, 6):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            got = singular_values(DenseMatrix(a))
            ref = np.linalg.svd(a, compute_uv=False)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.linalg.norm(a)


class TestNumericalRange:
    def test_support_diag(self):
        val, vec = numerical_range_support(DenseMatrix.diagonal([0, 1]), 0.0)
        assert abs(val - 1) <= 1e-12
        assert abs(abs(vec[1]) - 1) <= 1e-10

    def test_support_reversed(self):
        val, vec = numerical_range_support(DenseMatrix.diagonal([0, 1]), math.pi)
        assert abs(val - 0) <= 1e-12
        assert abs(abs(vec[0]) - 1) <= 1e-10

    def test_shift_disk_radius(self):
        m = DenseMatrix.from_rows([[0, 1], [0, 0]])
        # oracle: dense sampling of Rayleigh quotients confirms radius 1/2
        best = 0.0
        for t in np.linspace(0, math.pi, 181):
            x = np.array([math.cos(t), math.sin(t)], dtype=complex)
            best = max(best, abs(np.vdot(x, m.data @ x)))
        for theta in (0.0, 1.0, 2.5):
            val, _ = numerical_range_support(m, theta)
            assert abs(val - 0.5) <= 1e-10
        assert best <= 0.5 + 1e-9

    def test_attain_symmetric_zero(self):
        x = attain_numerical_range_vector(DenseMatrix.diagonal([1, -1]), 0.0)
        assert abs(np.vdot(x, np.diag([1, -1]) @ x)) <= 1e-9
        assert abs(abs(x[0]) - 1 / math.sqrt(2)) <= 1e-6

    def test_attain_top_eigenvalue(self):
        m = rand_hermitian(4)
        vals, vecs = hermitian_eigensystem(m)
        x = attain_numerical_range_vector(m, float(vals[0]))
        assert abs(np.vdot(x, m.data @ x) - vals[0]) <= 1e-9 * max(1, m.norm())

    def test_attain_centroid_random_normal(self):
        lam = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        u = haar_unitary(4, seed=9).data
        m = DenseMatrix(u @ np.diag(lam) @ u.conj().T)
        z = lam.mean()
        x = attain_numerical_range_vector(m, z, tol=1e-9)
        assert abs(np.vdot(x, m.data @ x) - z) <= 1e-9 * max(1, m.norm())
        assert abs(np.linalg.norm(x) - 1) <= 1e-10

    def test_schur_2x2_near_diagonal_block(self):
        from diagonalis.spectra import _schur_2x2
        # off-diagonal entries near 3e-14: the eigenvector candidate built
        # from b[0, 1] is then mostly cancellation error
        for b in (np.array([[1.3 + 0.2j, 3e-14], [2e-14j, -0.4 + 0.9j]]),
                  np.array([[0.7, 3e-14], [-1e-14, 0.2]], dtype=complex),
                  np.array([[0.7, 0.3], [0.1, 0.2]], dtype=complex)):
            q, t = (np.array(x) for x in _schur_2x2(*b.ravel().tolist()))
            assert abs(t[1, 0]) <= 1e-12 * np.linalg.norm(b)
            assert np.linalg.norm(q.conj().T @ q - np.eye(2)) <= 1e-14
            assert np.linalg.norm(q @ t @ q.conj().T - b) <= 1e-14 * np.linalg.norm(b)

    def test_attain_centroid_seeded_normal_sweep(self):
        # 200 seeded normal matrices, n = 3-5, at the centroid of their
        # eigenvalues; seeds 56, 94 and 155 failed under the fixed sweep
        for seed in range(200):
            r = np.random.default_rng([seed, 1])
            n = 3 + seed % 3
            lam = r.standard_normal(n) + 1j * r.standard_normal(n)
            u = haar_unitary(n, seed=[seed, 2]).data
            m = DenseMatrix(u @ np.diag(lam) @ u.conj().T)
            z = lam.mean()
            x = attain_numerical_range_vector(m, z, tol=1e-9)
            assert abs(np.vdot(x, m.data @ x) - z) <= 1e-9 * max(1, m.norm()), seed
            assert abs(np.linalg.norm(x) - 1) <= 1e-10, seed

    def test_attain_outside_rejected(self):
        with pytest.raises(PreconditionError):
            attain_numerical_range_vector(DenseMatrix.diagonal([1, -1]), 5.0)

    def test_attain_far_outside_rejected(self):
        # the numerical radius is at most |M|_2, so |z| = 3 |M|_2 is outside
        r = np.random.default_rng(31)
        for k in range(40):
            n = 2 + k % 6
            a = r.standard_normal((n, n)) + 1j * r.standard_normal((n, n))
            z = 3 * np.linalg.norm(a, 2) * np.exp(1j * r.uniform(0, 2 * math.pi))
            with pytest.raises(PreconditionError):
                attain_numerical_range_vector(DenseMatrix(a), z)

    def test_attain_just_outside_within_tolerance(self):
        # support points pushed outward by 0.7 tol*scale: no direction can
        # reject them, so they are attained from the nearest boundary chord
        for k in range(20):
            r = np.random.default_rng([k, 5])
            n = 3 + k % 4
            if k % 2:
                lam = r.standard_normal(n) + 1j * r.standard_normal(n)
                u = haar_unitary(n, seed=[k, 6]).data
                m = DenseMatrix(u @ np.diag(lam) @ u.conj().T)
            else:
                m = DenseMatrix(r.standard_normal((n, n)) + 1j * r.standard_normal((n, n)))
            phi = r.uniform(0, 2 * math.pi)
            _, x = numerical_range_support(m, -phi)
            scale = max(1, m.norm())
            z = np.vdot(x, m.data @ x) + 0.7e-9 * scale * np.exp(1j * phi)
            x = attain_numerical_range_vector(m, z, tol=1e-9)
            assert abs(np.vdot(x, m.data @ x) - z) <= 1e-9 * scale, k
            assert abs(np.linalg.norm(x) - 1) <= 1e-10, k

    def test_attain_segment_interior_and_ends(self):
        # W(e^{ia} S + c) for real symmetric S is the segment between the
        # images of its extreme eigenvalues
        r = np.random.default_rng(32)
        for k in range(20):
            n = 2 + k % 5
            s = r.standard_normal((n, n))
            s = s + s.T
            phase = np.exp(1j * r.uniform(0, 2 * math.pi))
            shift = complex(r.standard_normal(), r.standard_normal())
            m = DenseMatrix(phase * s + shift * np.eye(n))
            w = np.linalg.eigvalsh(s)
            for t in (w[0], w[-1], w[0] + r.uniform() * (w[-1] - w[0])):
                z = phase * t + shift
                x = attain_numerical_range_vector(m, z, tol=1e-9)
                assert abs(np.vdot(x, m.data @ x) - z) <= 1e-9 * max(1, m.norm())
                assert abs(np.linalg.norm(x) - 1) <= 1e-10

    def test_attain_2x2_thin_blocks(self):
        # diagonal blocks have a segment for range: the discriminant must not
        # be a difference of two nearly equal products
        r = np.random.default_rng(0)
        for _ in range(1000):
            lam = r.standard_normal(2) + 1j * r.standard_normal(2)
            b = np.diag(lam)
            z = lam[0] + r.uniform() * (lam[1] - lam[0])
            y = np.array(_attain_2x2(*b.ravel().tolist(), complex(z), 1e-9))
            assert abs(np.vdot(y, b @ y) - z) <= 1e-9 * max(1, np.linalg.norm(b))
            assert abs(np.linalg.norm(y) - 1) <= 1e-10

    def test_attain_2x2_non_normal_blocks(self):
        # b = q [[mid + dd, off], [0, mid - dd]] q*, whose range is an ellipse
        # with foci mid +- dd and minor axis |off|.  Odd k: |dd| <= |off|,
        # down to 1e-12 |off| (nearly nilpotent about mid), the branch that
        # takes the smaller of c and s from |cross|.  Even k: nearly normal,
        # |off| down to 1e-14 |dd|.  The targets are Rayleigh quotients of
        # random unit vectors pulled toward mid by up to 1e-12, so in W(b).
        r = np.random.default_rng(25)
        wide = 0
        for k in range(1000):
            mid, off = r.standard_normal(2) + 1j * r.standard_normal(2)
            ratio = 10.0 ** (r.uniform(-12, 0) if k % 2 else r.uniform(0, 14))
            dd = ratio * abs(off) * np.exp(1j * r.uniform(0, 2 * math.pi))
            wide += abs(dd) <= abs(off)
            q = haar_unitary(2, seed=[k, 25]).data
            b = q @ np.array([[mid + dd, off], [0, mid - dd]]) @ q.conj().T
            x = r.standard_normal(2) + 1j * r.standard_normal(2)
            x = x / np.linalg.norm(x)
            z = complex(mid + 10.0 ** r.uniform(-12, 0) * (np.vdot(x, b @ x) - mid))
            y = np.array(_attain_2x2(*b.ravel().tolist(), z, 1e-9))
            scale = max(np.linalg.norm(b), abs(z), 1)
            assert abs(np.vdot(y, b @ y) - z) <= 1e-9 * scale, k
            assert abs(np.linalg.norm(y) - 1) <= 1e-10, k
        assert wide == 500

    def test_support_sweep_contains_rayleigh_samples(self):
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        m = DenseMatrix(a)
        hull = _hull_edges(numerical_range_hull(m, grid=90))
        scale = max(1.0, m.norm())
        for _ in range(200):
            x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            x /= np.linalg.norm(x)
            z = complex(np.vdot(x, a @ x))
            assert _interior_distance(z, hull) >= -1e-2 * scale


class TestHaar:
    def test_unitarity(self):
        u = haar_unitary(6, seed=4)
        assert np.linalg.norm(u.data.conj().T @ u.data - np.eye(6)) <= 1e-12

    def test_seed_reproducible(self):
        a = haar_unitary(5, seed=123).data
        b = haar_unitary(5, seed=123).data
        assert np.array_equal(a, b)

    def test_pinned_digest(self):
        # every seeded search, restart and test matrix rests on these bits
        h = hashlib.sha256()
        for n in range(1, 13):
            for seed in (0, 1, 7, [3, 1], [5, 2], 2**62 + 11):
                h.update(haar_unitary(n, seed).data.tobytes())
        assert h.hexdigest() == "f1dd1238c559e4c7e7ab8fbc0124c3ce37507a4111b78809b901d017d912f4a6"

    def test_first_entry_moment(self):
        n, trials = 4, 10_000
        tot = 0.0
        for k in range(trials):
            tot += abs(haar_unitary(n, seed=k)[0] if False else haar_unitary(n, seed=k).data[0, 0]) ** 2
        mean = tot / trials
        var = (n - 1) / (n * n * (n + 1))
        assert abs(mean - 1 / n) <= 3 * math.sqrt(var / trials)

    def test_left_invariance_statistic(self):
        n, trials = 3, 4000
        v = haar_unitary(n, seed=77).data
        a = sum(abs(haar_unitary(n, seed=k).data[0, 0]) ** 2 for k in range(trials)) / trials
        b = sum(abs((v @ haar_unitary(n, seed=k).data)[0, 0]) ** 2 for k in range(trials)) / trials
        var = (n - 1) / (n * n * (n + 1))
        assert abs(a - b) <= 8 * math.sqrt(var / trials)


class TestEssentialSummary:
    def test_two_point(self):
        s = FiniteSpectrumSpec(((F(0), INF), (F(1), INF)))
        es = essential_summary(s)
        assert es.ess_points == (F(0), F(1))
        assert es.w_e == (F(0), F(1))
        assert es.endpoint_mult[F(0)] == INF

    def test_geometric_kernel(self):
        s = DiagonalizableSpec(seq(Geometric(F(1, 2), F(1, 2))), kernel_dim=INF)
        es = essential_summary(s)
        assert es.ess_points == (F(0),)

    def test_three_point(self):
        s = FiniteSpectrumSpec(((F(0), INF), (F(1, 2), INF), (F(1), INF)))
        es = essential_summary(s)
        assert len(es.ess_points) == 3
        assert es.w_e == (F(0), F(1))

    def test_matrix_rejected(self):
        with pytest.raises(FiniteDimensionalError):
            essential_summary(MatrixSpec(DenseMatrix.diagonal([1, 0])))

    def test_affine_equivariance(self):
        s = FiniteSpectrumSpec(((F(0), INF), (F(1, 3), INF), (F(1), INF)))
        a, b = F(2), F(-1)
        es = essential_summary(operator_affine_image(s, a, b))
        base = essential_summary(s)
        assert es.ess_points == tuple(sorted(a * p + b for p in base.ess_points))
        assert es.w_e == (a * base.w_e[0] + b, a * base.w_e[1] + b)
