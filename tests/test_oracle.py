import contextlib
import hashlib
import io
from fractions import Fraction as F

import numpy as np
import pytest

from diagonalis import cli
from diagonalis.deciders import decide_schur_horn, decide_williams_3x3
from diagonalis.majorization import majorize_finite
from diagonalis.oracle import (
    Found,
    SearchNotFound,
    rational_majorization_oracle,
    sample_diagonals,
    search_membership,
)
from diagonalis.spectra import DenseMatrix

rng = np.random.default_rng(31337)


class TestSampling:
    def test_rank_one_projection_geometry(self):
        t = DenseMatrix.diagonal([1, 0])
        for d in sample_diagonals(t, 50, seed=1):
            # diagonals of the orbit are (t, 1-t) with t in [0, 1]
            assert abs(d[0] + d[1] - 1) <= 1e-12
            assert -1e-12 <= d[0].real <= 1 + 1e-12
            assert abs(d[0].imag) <= 1e-12

    def test_scalar_matrix(self):
        t = DenseMatrix.diagonal([2.5, 2.5, 2.5])
        for d in sample_diagonals(t, 10, seed=2):
            assert np.allclose(d, 2.5, atol=1e-12)

    def test_schur_direction(self):
        lam = [3.0, 1.0, 0.5, -2.0]
        t = DenseMatrix.diagonal(lam)
        for d in sample_diagonals(t, 200, seed=3):
            assert decide_schur_horn(lam, list(d.real)).verdict == "Yes"

    def test_williams_direction(self):
        lam = [0.2 + 0.5j, -0.7j, 1.0]
        t = DenseMatrix.diagonal(lam)
        for d in sample_diagonals(t, 200, seed=4):
            assert decide_williams_3x3(lam, list(d)).verdict == "Yes"


class TestSearch:
    def test_finds_majorized_diagonal(self):
        t = DenseMatrix.diagonal([3, 1, 0])
        out = search_membership(t, [2, 1, 1], tol=1e-8, budget=400_000, seed=5)
        assert isinstance(out, Found)
        u = out.unitary.data
        got = np.diagonal(u.conj().T @ t.data @ u)
        assert np.max(np.abs(got - np.array([2, 1, 1]))) <= 1e-8 * 3

    def test_immediate_hit(self):
        t = DenseMatrix.diagonal([1, 0])
        out = search_membership(t, [1, 0], tol=1e-8, budget=50_000, seed=6)
        assert isinstance(out, Found)

    def test_not_found_out_of_range(self):
        t = DenseMatrix.diagonal([1, 0])
        out = search_membership(t, [2, -1], tol=1e-6, budget=30_000, seed=7)
        assert isinstance(out, SearchNotFound)
        assert out.best_residual > 0.5


class TestDifferential:
    def test_matches_library_on_random_rationals(self):
        for trial in range(2000):
            n = int(rng.integers(1, 11))
            d = [F(int(rng.integers(-6, 7)), int(rng.integers(1, 7))) for _ in range(n)]
            lam = [F(int(rng.integers(-6, 7)), int(rng.integers(1, 7))) for _ in range(n)]
            mine = majorize_finite(d, lam).verdict
            ref = rational_majorization_oracle(d, lam)
            assert mine == ref, (d, lam)

    def test_reflexive(self):
        assert rational_majorization_oracle([F(1), F(2)], [F(2), F(1)]) == "Holds"


# ---------------------------------------------------------------------------
# Outputs pinned to recorded SHA-256 digests: the search and the sampler are
# seed-deterministic, and a faster evaluation order must not move a single bit.


def _orbit_target(kind, n, seed):
    """(matrix, target diagonal) for one pinned search."""
    g = np.random.default_rng([seed, 7])
    z = g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))
    if kind == "general":
        t = z
    elif kind == "hermitian":
        t = (z + z.conj().T) / 2
    else:  # normal or hoffman: a diagonal matrix with complex eigenvalues
        t = np.diag(np.diagonal(z))
    if kind == "hoffman":
        lam = np.diagonal(t)
        return t, [(lam[1] + lam[2]) / 2, (lam[0] + lam[2]) / 2, (lam[0] + lam[1]) / 2]
    q, r = np.linalg.qr(g.standard_normal((n, n)) + 1j * g.standard_normal((n, n)))
    u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return t, list(np.diagonal(u.conj().T @ t @ u))


def _search_digest(out):
    h = hashlib.sha256()
    if isinstance(out, Found):
        h.update(b"found" + out.unitary.data.tobytes() + float(out.residual).hex().encode())
    else:
        h.update(f"notfound {out.budget} {float(out.best_residual).hex()}".encode())
    return h.hexdigest()


def _sample_digest(ds):
    return hashlib.sha256(np.array(ds).tobytes()).hexdigest()


# (kind, n, budget, seed) -> digest of search_membership(t, d, tol=1e-6, budget, seed)
PINNED_SEARCHES = {
    ("general", 3, 5000, 0):
        "deb646f00db147f8f0917838ebc74a961cdc7978954919a3c66ccdb5c340e73c",
    ("general", 3, 5000, 1):
        "9a06f784d3cbf8a74ca239b98a5e060d62b3e4ca1fc33a9d8e863084c66279c9",
    ("general", 3, 5000, 2):
        "773eb25744aad5adc87a2d41e64b2c10c8f5ebddaea789c56feab5af8125d5b4",
    ("normal", 3, 5000, 3):
        "1a65009798e36f315833d04386aa628e31f11707e0733e92076a7051f0eebfae",
    ("normal", 3, 5000, 4):
        "0bba34af0375134d2c178ae20f15c94e3e6859bab413c9ac412549aada6d74c6",
    ("normal", 3, 5000, 5):
        "d54dc0127e77b353d974a90f2b6dbbf54bd2ed8e3a61b7c1adb2ace1db4d7b82",
    ("hoffman", 3, 3000, 6):
        "b034174d0809cf672c71c75c36885152d10b535f4f5eddd1ef2f7026ae015d6c",
    ("hoffman", 3, 3000, 7):
        "6c99ef97f09e6298d7114afb45fed35b6bd182bfe4f179f129208d4e0b91eb76",
    # 1536 evaluations go to the two coordinate sweeps, so these budgets run
    # out inside a gradient line search
    ("general", 3, 1700, 8):
        "f08bf5674eb343eb8243df1fc23fc148c419c446fc33c74e03717a5cd93befea",
    ("normal", 3, 1700, 9):
        "f0a2cefc94fbf82c17c92f60810363b727d7cc01c53c0a15d4ecf62b402150d1",
    ("hermitian", 4, 5000, 10):
        "e2456295016343560cfa1475a5d4b13139c709068d8d817db0f56fdf8053fa30",
    ("general", 2, 2000, 11):
        "61bf39c7bda6545e0b5659ea36db8f19b349012e2cf911974a029bdfab7c8146",
    ("hermitian", 5, 4000, 12):
        "0b0b1738698aa8d013c81bc5d31ddba204c2d49809771e5a736e89698db5f6ff",
}

# (n, trials, seed) -> digest of sample_diagonals on the "general" matrix
PINNED_SAMPLES = {
    (2, 40, 0):
        "c27a078e6691e701faa7955f9a3b2fcd4b50f8adfacb27795f05f325fc8527e2",
    (3, 40, 1):
        "8178b1462d68effb8b7d3b1897db71145250c147f8dcedd180251abf1b395625",
    (5, 17, 2):
        "246caaa61edbff0977c88fa1dcd8dad5d7dcfb88fe67b556f3ac3520887630d1",
    (8, 40, 3):
        "53c29c1614fb92bb0f667ffc7f53f34a1121ead988d520657721bd5178b7e748",
    (1, 5, 4):
        "60df2bedd0f9f48f132f77c86947502b1d74864e18bc344edbd744d1f8a81807",
}

SEARCH_ARGV = ["oracle", "search", "--matrix",
               '{"n":2,"real":false,"entries":[[1,0],[0,1],[0,0],[-1,0]]}',
               "--d", "[[0,0],[0,0]]", "--tol", "1e-9", "--budget", "3000", "--seed", "4"]
SAMPLE_ARGV = ["oracle", "sample", "--matrix",
               '{"n":3,"real":true,"entries":[[2,0],[1,0],[0,0],[1,0],[0,0],[0,0],[0,0],[0,0],[-1,0]]}',
               "--trials", "6", "--seed", "11"]
PINNED_CLI = {
    "search":
        "d59e2ae1f2dda231a20ecb3318e459fa8a97fadff19b9468b77cb3a4868059bb",
    "sample":
        "ede9babc416cf54e6d91c5cb7a20dea389502117e980763e8cfadb69ee682255",
}


def _cli_digest(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(list(argv))
    return hashlib.sha256(f"{code}\n{buf.getvalue()}".encode()).hexdigest()


class TestPinnedOutputs:
    @pytest.mark.parametrize("case", sorted(PINNED_SEARCHES))
    def test_search_membership(self, case):
        kind, n, budget, seed = case
        t, d = _orbit_target(kind, n, seed)
        out = search_membership(DenseMatrix(t), d, tol=1e-6, budget=budget, seed=seed)
        assert _search_digest(out) == PINNED_SEARCHES[case]

    @pytest.mark.parametrize("case", sorted(PINNED_SAMPLES))
    def test_sample_diagonals(self, case):
        n, trials, seed = case
        t, _ = _orbit_target("general", n, seed)
        ds = sample_diagonals(DenseMatrix(t), trials, seed=seed)
        assert _sample_digest(ds) == PINNED_SAMPLES[case]

    @pytest.mark.parametrize("what", sorted(PINNED_CLI))
    def test_cli_stdout(self, what):
        argv = SEARCH_ARGV if what == "search" else SAMPLE_ARGV
        assert _cli_digest(argv) == PINNED_CLI[what]
