"""Independent brute-force ground truth.

Nothing here shares code with the deciders it cross-checks: membership is
searched over the unitary group directly, and the rational majorization
oracle re-implements the partial-sum definition from scratch.

The search minimizes |r(U)|^2 for r(U) = diag(U*TU) - d.  Each restart
draws a Haar unitary, makes two coarse sweeps of pairwise rotations for
global progress, and then polishes by Riemannian Levenberg-Marquardt: damped
Gauss-Newton steps on the unitary group, which converge quadratically even
where the minimizers form a manifold rather than isolated points (Absil,
Mahony & Sepulchre, Optimization Algorithms on Matrix Manifolds, ch. 8;
Yamashita & Fukushima, Computing Suppl. 15, 2001).  The polish stops within
0.9 tol scale of the target, at a rejection under the largest damping, at a
gain of rounding size, or after 400 trials.  Every grid point of a sweep and
every trial point of the polish is one evaluation of the budget.
A SearchNotFound from the search is never treated as nonexistence, never
read as No; only deciders say No.
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
# Levenberg-Marquardt polish: the damping mu is relative to scale^2, starts
# at LM_MU_START, is multiplied by LM_MU_DOWN after an accepted trial and by
# LM_MU_UP after a rejected one, and stays within [LM_MU_MIN, LM_MU_MAX].
LM_MU_START = 1e-3
LM_MU_DOWN = 1.0 / 3.0
LM_MU_UP = 8.0
LM_MU_MIN = 1e-12
LM_MU_MAX = 1e8
LM_STALL = 1e-12   # a relative decrease of |r|^2 at rounding level
LM_STEPS = 400     # trial points per restart


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
        # a search that ran no restart has an infinite best, which JSON cannot carry
        best = self.best_residual
        return {"found": False, "budget": self.budget,
                "best_residual": best if math.isfinite(best) else None}


def sample_diagonals(t: DenseMatrix, trials: int, seed) -> list:
    """Diagonals of ``trials`` Haar-conjugated copies of t.

    The unitaries are drawn as one stack from ``seed``'s generator and
    conjugate t in one stacked product.
    """
    if trials < 0:
        raise PreconditionError("trials must be nonnegative")
    u = haar_unitaries(t.n, np.random.default_rng(seed), trials)
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
    """Search the unitary orbit of t for a matrix with diagonal d.

    Minimizes |r(U)|^2 for r(U) = diag(U*TU) - d.  Each restart draws a Haar
    unitary from ``seed``'s stream, makes two sweeps of pairwise rotations
    over a 16 x 16 grid, and polishes by Riemannian Levenberg-Marquardt
    (:func:`_lm_polish`).  A restart's polish ends when the largest residual
    entry is at most 0.9 tol scale (scale = max(||T||_F, 1)), when a trial is
    rejected at the largest damping, when an accepted trial lowers |r|^2 by
    less than a relative LM_STALL, or after LM_STEPS trials.  ``budget``
    counts evaluations: every grid point of a sweep and every trial point of
    the polish is one, and no restart starts once it is spent.  A Found
    result carries a witness unitary whose diagonal was recomputed and
    checked against tol scale.  The search never proves nonexistence: a
    SearchNotFound is never read as No.
    """
    n = t.n
    target = np.array([complex(x) for x in d])
    if len(target) != n:
        raise PreconditionError("diagonal length mismatch")
    if not np.all(np.isfinite(target)):
        raise PreconditionError("target diagonal entries must be finite")
    if not (math.isfinite(tol) and tol > 0):
        raise PreconditionError("tol must be finite and positive")
    if budget < 0:
        raise PreconditionError("budget must be nonnegative")
    scale = max(t.norm(), 1.0)
    thetas = np.linspace(0.0, math.pi / 2, THETA_CANDIDATES, endpoint=False)
    phis = np.linspace(0.0, 2.0 * math.pi, PHI_CANDIDATES, endpoint=False)
    per_pair = THETA_CANDIDATES * PHI_CANDIDATES
    rng = np.random.default_rng(seed)
    best = math.inf
    spent = 0

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
        a, u, trials = _lm_polish(a, u, target, scale, tol, budget - spent)
        spent += trials
        res = float(np.max(np.abs(np.diagonal(a) - target)))
        best = min(best, res)
        if res <= tol * scale:
            w = DenseMatrix(u)
            check = np.diagonal(w.data.conj().T @ t.data @ w.data)
            verified = float(np.max(np.abs(check - target)))
            if verified <= tol * scale:
                return Found(w, verified)
    return SearchNotFound(budget, best)


def _lm_polish(a, u, target, scale, tol, budget):
    """Riemannian Levenberg-Marquardt on r(U) = diag(U*TU) - target, from
    A = U*TU; returns (A, U, trial points spent).

    Moving U to U exp(X) for skew-Hermitian X changes the diagonal by
    diag(AX - XA) to first order.  Diagonal X leave it fixed, so the real
    Jacobian J is taken over the n(n-1) off-diagonal directions E_ij - E_ji
    and i(E_ij + E_ji), i < j, which move entries i and j of the diagonal by
    -/+(A_ij + A_ji) and -/+i(A_ji - A_ij).  A trial solves
    (J^T J + mu scale^2 I) delta = -J^T [Re r; Im r] and retracts through one
    eigendecomposition i X = V diag(w) V*, exp(X) = V diag(exp(-i w)) V*.
    It is accepted if it lowers |r|^2 by more than 1e-24 scale^2; mu then
    shrinks, and it grows after a rejection.  The stopping rule is
    search_membership's, and at most ``budget`` trials are made.
    """
    n = len(target)
    ii, jj = np.triu_indices(n, 1)
    # column p of moves is e_j - e_i for the pair p = (i, j), once for each
    # of its two directions
    moves = np.tile(np.eye(n)[:, jj] - np.eye(n)[:, ii], 2)
    eye = np.eye(2 * len(ii))
    floor = 1e-24 * scale ** 2
    mu = LM_MU_START
    r = np.diagonal(a) - target
    f = float(np.vdot(r, r).real)
    jac = None
    spent = 0
    while spent < min(budget, LM_STEPS):
        if float(np.max(np.abs(r))) <= 0.9 * tol * scale:
            break
        if jac is None:
            jc = moves * np.concatenate([a[ii, jj] + a[jj, ii],
                                         1j * (a[jj, ii] - a[ii, jj])])
            jac = np.concatenate([jc.real, jc.imag])
            normal = jac.T @ jac
            grad = jac.T @ np.concatenate([r.real, r.imag])
        delta = np.linalg.solve(normal + (mu * scale ** 2) * eye, -grad)
        x = np.zeros((n, n), dtype=complex)
        x[ii, jj] = delta[:len(ii)] + 1j * delta[len(ii):]
        x = x - x.conj().T
        w, v = np.linalg.eigh(1j * x)
        e = (v * np.exp(-1j * w)) @ v.conj().T
        a2 = e.conj().T @ a @ e
        r2 = np.diagonal(a2) - target
        f2 = float(np.vdot(r2, r2).real)
        spent += 1
        if f2 < f - floor:
            stalled = f - f2 < LM_STALL * f
            a, u, r, f, jac = a2, u @ e, r2, f2, None
            mu = max(mu * LM_MU_DOWN, LM_MU_MIN)
            if stalled:
                break
        elif mu >= LM_MU_MAX:
            break
        else:
            mu = min(mu * LM_MU_UP, LM_MU_MAX)
    return a, u, spent


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
