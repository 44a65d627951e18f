"""Independent brute-force ground truth.

Nothing here shares code with the deciders it cross-checks: membership is
searched over the unitary group directly, and the rational majorization
oracle re-implements the partial-sum definition from scratch.  A NotFound
from the search is never treated as nonexistence; only deciders say No.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .scalars import PreconditionError
from .spectra import DenseMatrix, haar_unitaries, haar_unitary

THETA_CANDIDATES = 16
PHI_CANDIDATES = 16
# Backtracking steps 2^-1, ..., 2^-56 (the powers of two above 1e-17), tried
# in two stacked chunks; most accepted steps are among the first sixteen.
LINE_CHUNKS = np.split(np.ldexp(1.0, -np.arange(1, 57)), [16])


@dataclass(frozen=True)
class Found:
    unitary: DenseMatrix
    residual: float

    def as_json(self):
        from .jsonio import encode_matrix
        return {"found": True, "residual": self.residual,
                "unitary": encode_matrix(self.unitary)}


@dataclass(frozen=True)
class SearchNotFound:
    budget: int
    best_residual: float

    def as_json(self):
        return {"found": False, "budget": self.budget,
                "best_residual": self.best_residual}


def sample_diagonals(t: DenseMatrix, trials: int, seed) -> list:
    """Diagonals of Haar-conjugated copies of t, each unitary drawn from its
    own per-trial seed and all of them conjugated as one stack."""
    rng = np.random.default_rng(seed)
    u = haar_unitaries(t.n, [rng.integers(0, 2**63 - 1) for _ in range(trials)])
    return list(np.diagonal(u @ t.data @ u.conj().transpose(0, 2, 1), axis1=1, axis2=2).copy())


def _pair_rotation_candidates(b, ti, tj, thetas, phis):
    """Objective of the (i, j) diagonal pair over a rotation grid.

    Returns (score grid, d1 grid, d2 grid) for G(theta, phi) applied to the
    2x2 compression b.
    """
    c = np.cos(thetas)[:, None]
    s = np.sin(thetas)[:, None]
    cross = (np.exp(-1j * phis)[None, :] * b[0, 1]
             + np.exp(1j * phis)[None, :] * b[1, 0])
    d1 = (c * c) * b[0, 0] + (s * s) * b[1, 1] + (c * s) * cross
    d2 = (s * s) * b[0, 0] + (c * c) * b[1, 1] - (c * s) * cross
    score = np.abs(d1 - ti) ** 2 + np.abs(d2 - tj) ** 2
    return score


def _apply_rotation(a, u, i, j, theta, phi):
    c = math.cos(theta)
    s = math.sin(theta) * np.exp(-1j * phi)
    g = np.array([[c, -np.conj(s)], [s, c]])
    cols = a[:, [i, j]] @ g
    a[:, [i, j]] = cols
    a[[i, j], :] = g.conj().T @ a[[i, j], :]
    u[:, [i, j]] = u[:, [i, j]] @ g


def search_membership(t: DenseMatrix, d, tol=1e-8, budget=100_000, seed=0):
    """Minimize the diagonal mismatch of U*TU over the unitary group.

    Random restarts with coordinate rotation sweeps for coarse progress,
    then Riemannian gradient descent with a backtracking line search (the
    sweeps alone settle at pairwise-stable saddle points).  Each gradient
    step makes one Hermitian eigendecomposition i*X = V diag(w) V*: the
    candidate at step eps is exp(eps*X) = V diag(exp(-i*eps*w)) V*, since
    scaling by a power of two is exact, and the candidates are evaluated as
    stacks.  The first candidate that lowers the objective is taken.
    ``budget`` counts candidate evaluations up to that one, as one at a
    time would; a Found result carries the verified witness unitary.
    """
    n = t.n
    target = np.array([complex(x) for x in d])
    if len(target) != n:
        raise PreconditionError("diagonal length mismatch")
    scale = max(t.norm(), 1.0)
    thetas = np.linspace(0.0, math.pi / 2, THETA_CANDIDATES, endpoint=False)
    phis = np.linspace(0.0, 2.0 * math.pi, PHI_CANDIDATES, endpoint=False)
    per_pair = THETA_CANDIDATES * PHI_CANDIDATES
    diag = np.arange(n)
    rng = np.random.default_rng(seed)
    best = (math.inf, None)
    spent = 0

    def objective(a):
        r = np.diagonal(a) - target
        return float(np.sum(np.abs(r) ** 2))

    while spent < budget:
        u0 = haar_unitary(n, seed=rng.integers(0, 2**63 - 1)).data
        a = u0.conj().T @ t.data @ u0
        u = u0.copy()
        # coarse coordinate sweeps
        for _ in range(2):
            for i in range(n - 1):
                for j in range(i + 1, n):
                    b = a[np.ix_([i, j], [i, j])]
                    base = (abs(a[i, i] - target[i]) ** 2
                            + abs(a[j, j] - target[j]) ** 2)
                    score = _pair_rotation_candidates(b, target[i], target[j],
                                                      thetas, phis)
                    spent += per_pair
                    k = int(np.argmin(score))
                    if score.flat[k] < base - 1e-18 * scale ** 2:
                        ti_, pi_ = np.unravel_index(k, score.shape)
                        _apply_rotation(a, u, i, j, float(thetas[ti_]),
                                        float(phis[pi_]))
        # gradient polish
        for _ in range(400):
            if spent >= budget:
                break
            r = np.diagonal(a) - target
            big_r = np.diag(r)
            g = big_r.conj().T @ a - a @ big_r.conj().T
            x = (g - g.conj().T) / 2.0
            nx = np.linalg.norm(x)
            if nx < 1e-16 * scale:
                break
            x = x / nx
            base = objective(a)
            w, v = np.linalg.eigh(1j * x)
            vh = v.conj().T
            for steps in LINE_CHUNKS:
                phases = np.zeros((len(steps), n, n), dtype=complex)
                phases[:, diag, diag] = np.exp(-1j * (steps[:, None] * w))
                e = v @ phases @ vh
                a2 = e.conj().transpose(0, 2, 1) @ a @ e
                r2 = np.diagonal(a2, axis1=1, axis2=2) - target
                lower = np.flatnonzero(np.sum(np.abs(r2) ** 2, axis=1)
                                       < base - 1e-24 * scale ** 2)
                if lower.size:
                    k = int(lower[0])
                    spent += k + 1
                    a = a2[k]
                    u = u @ e[k]
                    break
                spent += len(steps)
            else:
                break
            res = float(np.max(np.abs(np.diagonal(a) - target)))
            if res < best[0]:
                best = (res, u.copy())
            if res <= 0.9 * tol * scale:
                break
        res = float(np.max(np.abs(np.diagonal(a) - target)))
        if res < best[0]:
            best = (res, u.copy())
        if res <= tol * scale:
            w = DenseMatrix(u)
            check = np.diagonal(w.data.conj().T @ t.data @ w.data)
            verified = float(np.max(np.abs(check - target)))
            if verified <= tol * scale:
                return Found(w, verified)
    return SearchNotFound(budget, best[0])


def rational_majorization_oracle(d, lam) -> str:
    """Exhaustive exact partial-sum check, independent of the library path."""
    dd = sorted((Fraction(x) for x in d), reverse=True)
    ll = sorted((Fraction(x) for x in lam), reverse=True)
    if len(dd) != len(ll):
        raise PreconditionError("length mismatch")
    run_d = Fraction(0)
    run_l = Fraction(0)
    for x, y in zip(dd, ll):
        run_d += x
        run_l += y
        if run_d > run_l:
            return "Fails"
    if run_d != run_l:
        return "Fails"
    return "Holds"
