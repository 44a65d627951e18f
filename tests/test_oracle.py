import contextlib
import hashlib
import io
import json
import math
from fractions import Fraction as F

import numpy as np
import pytest

from diagonalis import cli
from diagonalis.deciders import decide_schur_horn, decide_williams_3x3
from diagonalis.majorization import majorize_finite
from diagonalis.oracle import (
    STACK_MAX,
    Found,
    SearchNotFound,
    _lm_polish,
    _sweeps,
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

    def test_rank_one_projection_diagonal_is_uniform(self):
        # for Haar U in U(2), |u11|^2 is uniform on [0, 1]: Kolmogorov-Smirnov
        # distance of 4000 samples below its 0.1% critical value 1.95/sqrt(4000)
        t = DenseMatrix.diagonal([1, 0])
        x = np.sort([d[0].real for d in sample_diagonals(t, 4000, seed=5)])
        k = np.arange(1, len(x) + 1)
        ks = max(np.max(k / len(x) - x), np.max(x - (k - 1) / len(x)))
        assert ks <= 1.95 / math.sqrt(len(x))

    def test_trials_boundary(self):
        t = DenseMatrix.diagonal([1, 0])
        assert sample_diagonals(t, 0, seed=6) == []
        with pytest.raises(PreconditionError):
            sample_diagonals(t, -1, seed=6)


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

    def test_empty_matrix(self):
        with pytest.raises(PreconditionError, match="at least one row"):
            search_membership(DenseMatrix(np.zeros((0, 0))), [], tol=1e-6, budget=1000, seed=0)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.run(["oracle", "search", "--matrix", '{"n":0,"real":true,"entries":[]}',
                            "--d", "[]"])
        assert code == 3
        assert json.loads(buf.getvalue()) == {"error": "matrix must have at least one row",
                                              "type": "PreconditionError"}

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


# ---------------------------------------------------------------------------
# The restarts run in stacks but are counted in restart order.  The pins
# below were recorded with the sequential restart loop that the stack replaced;
# _sequential_search is a copy of that loop.

# T = diag(lam) with d on the boundary of its Williams set (a bisection along
# the segment from the Hoffman midpoints to the centroid).  The Jacobian is
# singular at the solution, so each polish converges linearly: at tol 3e-8,
# seed 21, the first restart ends after 400 trials at 40 tol scale and the
# second hits after 13.  Linear convergence keeps rounding in the last digits.
BOUNDARY_LAM = [-1.6417271606182724 - 0.5611391465060063j,
                -0.8165072159504408 + 0.4146698601879163j,
                0.3793426653186408 + 1.8425742832605878j]
BOUNDARY_D = [-0.37670948482339484 + 0.9408708252192519j,
              -0.6517827996870538 + 0.6156011563515709j,
              -1.0503994267396235 + 0.139633015371675j]


def _counting_case(name):
    """(T, d, tol, budget, seed) of one counting pin."""
    boundary = np.diag(BOUNDARY_LAM)
    hoffman0, hoffman13 = _orbit_target("hoffman", 3, 0), _orbit_target("hoffman", 3, 13)
    return {
        # criterion 3's scale: 64 restarts, the last with no polish
        "hoffman-100000": (*hoffman13, 1e-6, 100_000, 13),
        # restart 2 gets 10 polish trials where it would stop after 27
        "hoffman-cap-binds-in-restart-2": (*hoffman0, 1e-6, 3106, 0),
        # three restarts, then a fourth whose sweeps end past the budget
        "hoffman-5000": (*hoffman0, 1e-6, 5000, 0),
        "boundary-found-on-restart-2": (boundary, BOUNDARY_D, 3e-8, 12_000, 21),
        # restart 2 would hit after 13 trials, but only 5 are left
        "boundary-cap-binds-in-restart-2": (boundary, BOUNDARY_D, 3e-8, 3477, 21),
        "n1-hit": (np.array([[2 + 1j]]), [2 + 1j], 1e-6, 500, 3),
        # 14 trials a restart (rejections up to the largest damping); the 36th
        # restart gets the last 10
        "n1-miss": (np.array([[2 + 1j]]), [3], 1e-6, 500, 3),
        "n1-budget-1": (np.array([[2 + 1j]]), [3], 1e-6, 1, 3),
        # the sweeps of the one restart spend 1536 of a budget of 1
        "budget-1": (*_orbit_target("general", 3, 0), 1e-6, 1, 0),
    }[name]


# name -> ("found", |U_00| of the witness) or ("notfound", budget, best_residual)
PINNED_COUNTS = {
    "hoffman-100000": ("notfound", 100_000, 0.04953554985390323),
    "hoffman-cap-binds-in-restart-2": ("notfound", 3106, 0.13229563988061976),
    "hoffman-5000": ("notfound", 5000, 0.13095664627116732),
    "boundary-found-on-restart-2": ("found", 0.3333335943038481),
    "boundary-cap-binds-in-restart-2": ("notfound", 3477, 3.2500882394823436e-06),
    "n1-hit": ("found", 1.0),
    "n1-miss": ("notfound", 500, 1.4142135623730945),
    "n1-budget-1": ("notfound", 1, 1.4142135623730945),
    "budget-1": ("notfound", 1, 0.027683591305325415),
}


@pytest.mark.parametrize("name", sorted(PINNED_COUNTS))
def test_counting_paths(name):
    t, d, tol, budget, seed = _counting_case(name)
    out = search_membership(DenseMatrix(t), d, tol=tol, budget=budget, seed=seed)
    pin = PINNED_COUNTS[name]
    if pin[0] == "found":
        assert isinstance(out, Found)
        assert abs(abs(out.unitary.data[0, 0]) - pin[1]) <= 1e-6
    else:
        rel = 1e-6 if name.startswith("boundary") else 1e-9
        assert isinstance(out, SearchNotFound) and out.budget == pin[1]
        assert out.best_residual == pytest.approx(pin[2], rel=rel)


def test_stacks_grow_from_four(monkeypatch):
    """A hit on restart 1 pays for one stack of four at any budget; a long
    search runs stacks of 4, 16 and then at most STACK_MAX."""
    sizes, sweeps = [], _sweeps
    monkeypatch.setattr("diagonalis.oracle._sweeps", lambda a, *rest: sizes.append(len(a)) or sweeps(a, *rest))
    for kind in ("normal", "general"):
        t, d = _reachable_target(kind, 0)
        sizes.clear()
        assert isinstance(search_membership(DenseMatrix(t), d, tol=1e-6, budget=100_000), Found)
        assert sizes == [4]
    t, d, tol, budget, seed = _counting_case("hoffman-100000")
    sizes.clear()
    search_membership(DenseMatrix(t), d, tol=tol, budget=budget, seed=seed)
    assert sizes[:2] == [4, 16] and len(sizes) == 3 and sizes[2] <= STACK_MAX


def _sequential_search(t, d, tol, budget, seed):
    """The sequential restart loop: one restart after another, each swept and
    then polished by Levenberg-Marquardt in 2-D numpy calls."""
    n = t.shape[0]
    target = np.array([complex(x) for x in d])
    scale = max(float(np.linalg.norm(t)), 1.0)
    thetas = np.linspace(0.0, math.pi / 2, 16, endpoint=False)
    phis = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
    rng = np.random.default_rng(seed)
    best, spent = math.inf, 0
    while spent < budget:
        u = haar_unitary(n, seed=rng.integers(0, 2**63 - 1)).data.copy()
        a = u.conj().T @ t @ u
        for _ in range(2):
            for i in range(n - 1):
                for j in range(i + 1, n):
                    c, s = np.cos(thetas)[:, None], np.sin(thetas)[:, None]
                    cross = np.exp(-1j * phis) * a[i, j] + np.exp(1j * phis) * a[j, i]
                    d1 = (c * c) * a[i, i] + (s * s) * a[j, j] + (c * s) * cross
                    d2 = (s * s) * a[i, i] + (c * c) * a[j, j] - (c * s) * cross
                    score = np.abs(d1 - target[i]) ** 2 + np.abs(d2 - target[j]) ** 2
                    spent += score.size
                    k = int(np.argmin(score))
                    base = abs(a[i, i] - target[i]) ** 2 + abs(a[j, j] - target[j]) ** 2
                    if score.flat[k] < base - 1e-18 * scale ** 2:
                        theta, phi = thetas[k // 16], phis[k % 16]
                        z = math.sin(theta) * np.exp(-1j * phi)
                        g = np.array([[math.cos(theta), -np.conj(z)], [z, math.cos(theta)]])
                        a[:, [i, j]] = a[:, [i, j]] @ g
                        a[[i, j], :] = g.conj().T @ a[[i, j], :]
                        u[:, [i, j]] = u[:, [i, j]] @ g
        a, u, trials = _sequential_polish(a, u, target, scale, tol, budget - spent)
        spent += trials
        res = float(np.max(np.abs(np.diagonal(a) - target)))
        best = min(best, res)
        if res <= tol * scale:
            check = np.diagonal(u.conj().T @ t @ u)
            if float(np.max(np.abs(check - target))) <= tol * scale:
                return Found(DenseMatrix(u), float(np.max(np.abs(check - target))))
    return SearchNotFound(budget, best)


def _sequential_polish(a, u, target, scale, tol, budget):
    n = len(target)
    ii, jj = np.triu_indices(n, 1)
    moves = np.tile(np.eye(n)[:, jj] - np.eye(n)[:, ii], 2)
    mu, spent = 1e-3, 0
    r = np.diagonal(a) - target
    f = float(np.vdot(r, r).real)
    while spent < min(budget, 400):
        if float(np.max(np.abs(r))) <= 0.9 * tol * scale:
            break
        jc = moves * np.concatenate([a[ii, jj] + a[jj, ii], 1j * (a[jj, ii] - a[ii, jj])])
        jac = np.concatenate([jc.real, jc.imag])
        delta = np.linalg.solve(jac.T @ jac + (mu * scale ** 2) * np.eye(2 * len(ii)),
                                -jac.T @ np.concatenate([r.real, r.imag]))
        x = np.zeros((n, n), dtype=complex)
        x[ii, jj] = delta[:len(ii)] + 1j * delta[len(ii):]
        w, v = np.linalg.eigh(1j * (x - x.conj().T))
        e = (v * np.exp(-1j * w)) @ v.conj().T
        a2 = e.conj().T @ a @ e
        r2 = np.diagonal(a2) - target
        f2 = float(np.vdot(r2, r2).real)
        spent += 1
        if f2 < f - 1e-24 * scale ** 2:
            stalled = f - f2 < 1e-12 * f
            a, u, r, f = a2, u @ e, r2, f2
            mu = max(mu / 3.0, 1e-12)
            if stalled:
                break
        elif mu >= 1e8:
            break
        else:
            mu = min(mu * 8.0, 1e8)
    return a, u, spent


def _differential_cases():
    cases = []
    for budget in (0, 1, 500, 1536, 1700, 3000, 5000, 12_000):
        for n in range(1, 6):
            for kind in ("general", "normal"):
                for seed in range(3):
                    cases.append((kind, n, budget, 100 * n + seed))
        for seed in range(8):
            cases.append(("hoffman", 3, budget, 200 + seed))
    return cases


def test_stack_matches_sequential_restarts():
    """Same status and budget on every case, best residuals within 1e-9."""
    statuses = set()
    for kind, n, budget, seed in _differential_cases():
        t, d = _orbit_target(kind, n, seed)
        ref = _sequential_search(t, d, 1e-6, budget, seed)
        out = search_membership(DenseMatrix(t), d, tol=1e-6, budget=budget, seed=seed)
        case = (kind, n, budget, seed)
        assert type(out) is type(ref), case
        statuses.add(type(out))
        if isinstance(ref, SearchNotFound):
            assert out.budget == ref.budget, case
            assert out.best_residual == pytest.approx(ref.best_residual, rel=1e-9, abs=0), case
    assert statuses == {Found, SearchNotFound}


def test_a_member_does_not_depend_on_its_stack():
    """Sweeps and polish give each member the bits it gets alone."""
    t, d = _orbit_target("general", 4, 5)
    target = np.array(d)
    rng = np.random.default_rng(9)
    u = np.stack([haar_unitary(4, seed=rng.integers(0, 2**63 - 1)).data for _ in range(7)])
    a = u.conj().transpose(0, 2, 1) @ t @ u
    swept = _sweeps(a.copy(), u.copy(), target, 5.0)
    polished = _lm_polish(*swept, target, 5.0, 1e-6, np.full(7, 400))
    for k in range(7):
        alone = _sweeps(a[k:k + 1].copy(), u[k:k + 1].copy(), target, 5.0)
        assert all(np.array_equal(x[0], y[k]) for x, y in zip(alone, swept))
        once = _lm_polish(*alone, target, 5.0, 1e-6, [400])
        assert all(np.array_equal(x[0], y[k]) for x, y in zip(once, polished))


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
# seed-deterministic, so a change that moves a single bit shows here.


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
        "a1047b35559b607fff43bb76667642c83069e2aa7cfbb59c4f1107bdb451be38",
    ("general", 3, 5000, 1):
        "3bfeb097edba468f5ada9cea7a4821a72ff7b5d2267ce787986958ad738e485d",
    ("general", 3, 5000, 2):
        "6102d60d3e738190ea3dce4523ad168a01552a49529558d400eda37edf082f9d",
    ("normal", 3, 5000, 3):
        "2985dc9330180388d61a6fbc3145fd7d81a8ff55e26b5488f44b046078e4e633",
    ("normal", 3, 5000, 4):
        "89918dbca338b1cc22065f5c0dc6e1cf1a3407cb9ad6aa46accffc41cea7c6df",
    ("normal", 3, 5000, 5):
        "a6c15c4955fbbf0fba41cb3098e1919687a1c810ca0f5295f8ca65f2539e9fc8",
    ("hoffman", 3, 3000, 6):
        "550c3682fe251f8b5914361f8d50c0a4bc444d50b483115c06110c0fec5d86d4",
    ("hoffman", 3, 3000, 7):
        "6c99ef97f09e6298d7114afb45fed35b6bd182bfe4f179f129208d4e0b91eb76",
    # 1536 evaluations go to the two coordinate sweeps, so these budgets run
    # out inside the Levenberg-Marquardt polish
    ("general", 3, 1700, 8):
        "6cd0923f8d7c6a0e8d042c458eddae544ab41fcd1c0aeb09be170b1b1938afae",
    ("normal", 3, 1700, 9):
        "75ea07fb9552c1058858c7836eea6de7767727f889c2f96bb639dbdffe230713",
    ("hermitian", 4, 5000, 10):
        "a08b28f622d8cd9badc2848742b9e437e5055cf4203ed14bfb78f37f6fd96bbf",
    ("general", 2, 2000, 11):
        "b89886b7d5615b1992548b7e9f34c364c987cbb15f0188b1b31119fb16356ef0",
    ("hermitian", 5, 4000, 12):
        "d565733958961c83fb95b547d264369ab3a177fcd8c568d95416331848058000",
}

# (n, trials, seed) -> digest of sample_diagonals on the "general" matrix
PINNED_SAMPLES = {
    (2, 40, 0):
        "299a22b26a8bf5371edd9f3d121c1eeff743d6da5b61519f21dc0c5d0960ebcc",
    (3, 40, 1):
        "62826abf1cd0a9cae8c7413693a724e9e3366663e58ae17d95ce50f3e9b8c7af",
    (5, 17, 2):
        "ff59e010898f9e62996153bdf90986ee12c57af9ce0b2a8d4b2f9f27b160afcf",
    (8, 40, 3):
        "ac8c01dbc514c46e0768ba9e6fcf52b89f007da06b0413cc101655efb8418668",
    (1, 5, 4):
        "40cf90fe7c5fce0188649e43d39126f0f2ee4353de9306f680e05f5a1542bebc",
}

SEARCH_ARGV = ["oracle", "search", "--matrix",
               '{"n":2,"real":false,"entries":[[1,0],[0,1],[0,0],[-1,0]]}',
               "--d", "[[0,0],[0,0]]", "--tol", "1e-9", "--budget", "3000", "--seed", "4"]
SAMPLE_ARGV = ["oracle", "sample", "--matrix",
               '{"n":3,"real":true,"entries":[[2,0],[1,0],[0,0],[1,0],[0,0],[0,0],[0,0],[0,0],[-1,0]]}',
               "--trials", "6", "--seed", "11"]
PINNED_CLI = {
    "search":
        "a1f6569ac86a12d09241a4cd74c0c61f4911605f4a62370a6594842c4e83dee7",
    "sample":
        "61f6aff39dd929698c32c72dd1912f3fd0faf82aa87347487668467284a97d23",
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
