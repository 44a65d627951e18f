import contextlib
import hashlib
import io
import json
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
from diagonalis.scalars import PreconditionError
from diagonalis.spectra import DenseMatrix, haar_unitary

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


class TestSearchInput:
    T = DenseMatrix.diagonal([1, 0])

    @pytest.mark.parametrize("d,tol,budget", [
        ([float("nan"), 0], 1e-6, 1000),
        ([complex(0, float("inf")), 1], 1e-6, 1000),
        ([1, 0], float("nan"), 1000),
        ([1, 0], float("inf"), 1000),
        ([1, 0], 0.0, 1000),
        ([1, 0], -1e-6, 1000),
        ([1, 0], 1e-6, -5),
    ])
    def test_rejected_at_the_boundary(self, d, tol, budget):
        with pytest.raises(PreconditionError):
            search_membership(self.T, d, tol=tol, budget=budget, seed=0)

    def test_zero_budget_searches_nothing(self):
        out = search_membership(self.T, [1, 0], tol=1e-6, budget=0, seed=0)
        assert isinstance(out, SearchNotFound) and out.budget == 0

    @pytest.mark.parametrize("extra", [["--d", "[NaN, 0]"],
                                       ["--d", "[1, 0]", "--tol", "nan"],
                                       ["--d", "[1, 0]", "--budget", "-5"]])
    def test_cli_exits_with_precondition_error(self, extra):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.run(["oracle", "search", "--matrix",
                            '{"n":2,"real":true,"entries":[[1,0],[0,0],[0,0],[0,0]]}'] + extra)
        assert code == 3
        assert json.loads(buf.getvalue())["type"] == "PreconditionError"


def _reachable_target(kind, k):
    """T and a diagonal of its unitary orbit: T = U diag(lam) U* (normal) or a
    Ginibre matrix (general), d = diag(V*TV), all drawn from k."""
    g = np.random.default_rng([k, 7])
    if kind == "normal":
        lam = g.standard_normal(3) + 1j * g.standard_normal(3)
        u = haar_unitary(3, [k, 1]).data
        t = u @ np.diag(lam) @ u.conj().T
    else:
        t = g.standard_normal((3, 3)) + 1j * g.standard_normal((3, 3))
    v = haar_unitary(3, [k, 2]).data
    return t, np.diagonal(v.conj().T @ t @ v)


@pytest.mark.parametrize("kind,least", [("normal", 59), ("general", 60)])
def test_search_finds_reachable_targets(kind, least):
    """Positive control: the search must find diagonals known to be reachable,
    or its failures on Hoffman midpoints say nothing."""
    found = 0
    for k in range(60):
        t, d = _reachable_target(kind, k)
        out = search_membership(DenseMatrix(t), list(d), tol=1e-6, budget=5000, seed=k)
        if isinstance(out, Found):
            u = out.unitary.data
            assert np.linalg.norm(u.conj().T @ u - np.eye(3)) <= 1e-12
            got = np.diagonal(u.conj().T @ t @ u)
            assert np.max(np.abs(got - d)) <= 1e-6 * max(np.linalg.norm(t), 1.0)
            found += 1
    assert found >= least


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
        "d3664b6d5cee36e90042a396b593aec507ef4d32a7eda6b100300657f1c1639c",
    ("general", 3, 5000, 1):
        "8425cf6d5ed2997095e7ea47956e1de3df92d733283d591459e3df96e57413ec",
    ("general", 3, 5000, 2):
        "49ee19f681f9fd052d5ecb6be0545e059bb5dbe3934b9de92a2419055ce73cf7",
    ("normal", 3, 5000, 3):
        "205040775c61fede946c499eac009b204ad4a6a9863916db166a45bbf9dbe8e4",
    ("normal", 3, 5000, 4):
        "746050a5dff388d64b815ebfdd821601e556bc25beb98c45e8335362a6e6eac9",
    ("normal", 3, 5000, 5):
        "b858031d679c011880e81cc3c0e39209e1314e26f7b249184e9a09dddecb0d57",
    ("hoffman", 3, 3000, 6):
        "ef9019ceaf036e8e893e296add3292f72f9218ed4fa1e49be8e52d4238f7efb8",
    ("hoffman", 3, 3000, 7):
        "6c99ef97f09e6298d7114afb45fed35b6bd182bfe4f179f129208d4e0b91eb76",
    # 1536 evaluations go to the two coordinate sweeps, so these budgets run
    # out inside the Levenberg-Marquardt polish
    ("general", 3, 1700, 8):
        "af2837bf6fcc6277bce4be6de697f50bda944ce7fdf9d47859e5d0496ebb1e65",
    ("normal", 3, 1700, 9):
        "6381fbf6634ee09dd8c0dcce4010f3f311cd92fed7c1b11eec419b6d6ba084c1",
    ("hermitian", 4, 5000, 10):
        "e4b7d38fe5b7fdd3cecb0a58e2467195e1ccb283a767431d810e73330684c942",
    ("general", 2, 2000, 11):
        "e1875e02601a4790a92cc9a68b551e6c8c1f264fb736ac4b3584f1bef57a2564",
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
        "f18b31f87a77914a620c142710a251ba2318c9af30e957b3cf4e1810128abe06",
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
