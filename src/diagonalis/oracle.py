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
every trial point of the polish is one evaluation of the budget.  Restarts
run in (R, n, n) stacks, swept and polished in lockstep, and are counted
in restart order.  A SearchNotFound from the search is never treated as
nonexistence, never read as No; only deciders say No.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .scalars import PreconditionError
from .spectra import DenseMatrix, haar_unitaries, haar_unitary

# The sweep grid: G = [[cos t, -conj(z)], [z, cos t]] for z = sin(t) exp(-i p),
# 16 angles t in [0, pi/2) by 16 phases p in [0, 2 pi); point 0 is the identity.
_COS = np.cos(np.linspace(0.0, math.pi / 2, 16, endpoint=False))[:, None]
_SIN = np.sin(np.linspace(0.0, math.pi / 2, 16, endpoint=False))[:, None]
_TURN = np.exp(-1j * np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False))
_GRID = np.stack(np.broadcast_arrays(_COS, -(_SIN * _TURN).conj(), _SIN * _TURN, _COS), -1).reshape(-1, 4)
STACK_MAX = 64     # the largest stack of restarts; stacks grow 4, 16, 64
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
        from .jsonio import finite_or_null
        return {"found": False, "budget": self.budget,
                "best_residual": finite_or_null(self.best_residual)}


def sample_diagonals(t: DenseMatrix, trials: int, seed) -> list:
    """Diagonals of ``trials`` Haar-conjugated copies of t.

    The unitaries are drawn as one stack from ``seed``'s generator and
    conjugate t in one stacked product.
    """
    if trials < 0:
        raise PreconditionError("trials must be nonnegative")
    u = haar_unitaries(t.n, np.random.default_rng(seed), trials)
    return list(np.diagonal(u @ t.data @ u.conj().transpose(0, 2, 1), axis1=1, axis2=2).copy())


def _h(x):   # conjugate transpose of each member of a stack
    return x.conj().transpose(0, 2, 1)


def search_membership(t: DenseMatrix, d, tol=1e-8, budget=100_000, seed=0):
    """Search the unitary orbit of t for a matrix with diagonal d.

    Each restart draws a Haar unitary from ``seed``'s stream, makes two
    sweeps of pairwise rotations (:func:`_sweeps`) and polishes by
    Levenberg-Marquardt (:func:`_lm_polish`) until the largest residual entry
    is at most 0.9 tol scale (scale = max(||T||_F, 1)), a trial is rejected at
    the largest damping, an accepted one gains less than a relative LM_STALL,
    or min(budget - spent, LM_STEPS) trials are spent.  ``budget`` counts
    evaluations, one per sweep grid point and per polish trial.  A restart
    starts while spent < budget, so its sweeps can take the count past
    ``budget``: at n = 3 a budget of 5000 spends about 6200, and the fourth
    restart gets no polish.

    Restarts run in stacks of 4, 16 and then STACK_MAX members, none larger
    than the number of restarts that can still start, so a hit on an early
    restart pays for at most four.  A stack's starts are drawn in seed order,
    swept and polished together, each member with the trials it would have
    if no member before it took one.  Counted in restart order, a member
    starts only while spent < budget, one that took more trials than it had
    left is polished again from its swept state, and the first hit returns
    its witness unitary, whose diagonal is recomputed and checked against
    tol scale.  A SearchNotFound is never read as No.
    """
    n = t.n
    if n == 0:
        raise PreconditionError("matrix must have at least one row")
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
    sweep = len(_GRID) * n * (n - 1)   # both sweeps over every pair
    rng = np.random.default_rng(seed)
    best, spent, size = math.inf, 0, 4
    while spent < budget:
        count = min(size, -(-(budget - spent) // max(sweep, 1)))
        size = min(4 * size, STACK_MAX)
        u0 = np.stack([haar_unitary(n, seed=rng.integers(0, 2**63 - 1)).data
                       for _ in range(count)])
        a0, u0 = _sweeps(_h(u0) @ t.data @ u0, u0, target, scale)
        caps = np.minimum(budget - spent - sweep * np.arange(1, count + 1), LM_STEPS)
        a, u, trials, res, stopped = _lm_polish(a0, u0, target, scale, tol, caps)
        for k in range(count):
            if spent >= budget:
                break
            spent += sweep
            cap = min(budget - spent, LM_STEPS)
            if not stopped[k] or trials[k] > max(cap, 0):
                once = _lm_polish(a0[k:k + 1], u0[k:k + 1], target, scale, tol, [cap])
                a[k], u[k], trials[k], res[k] = (x[0] for x in once[:4])
            spent += int(trials[k])
            best = min(best, float(res[k]))
            if res[k] <= tol * scale:
                check = np.diagonal(u[k].conj().T @ t.data @ u[k])
                verified = float(np.max(np.abs(check - target)))
                if verified <= tol * scale:
                    return Found(DenseMatrix(u[k]), verified)
    return SearchNotFound(budget, best)


def _sweeps(a, u, target, scale):
    """Two coordinate sweeps on a stack A = U*TU: for each pair (i, j), every
    member scores the rotations of the grid on its 2x2 compression, and turns
    rows and columns i, j by the best one if it lowers the pair's residual."""
    m, n = a.shape[:2]
    cc, ss, cs = _COS * _COS, _SIN * _SIN, _COS * _SIN
    floor = 1e-18 * scale ** 2
    for _ in range(2):
        for i in range(n - 1):
            for j in range(i + 1, n):
                p, q, x, y = (a[:, i, i, None, None], a[:, j, j, None, None],
                              a[:, i, j, None, None], a[:, j, i, None, None])
                cross = cs * (_TURN * x + _TURN.conj() * y)
                score = (np.abs(cc * p + ss * q - target[i] + cross) ** 2
                         + np.abs(ss * p + cc * q - target[j] - cross) ** 2).reshape(m, -1)
                k = np.argmin(score, axis=1)
                k[score[np.arange(m), k] >= score[:, 0] - floor] = 0   # keep the identity
                g = _GRID[k]
                for w, h in ((a, g), (a.transpose(0, 2, 1), g.conj()), (u, g)):
                    wi, wj = w[:, :, i], w[:, :, j]   # A's rows turn by conj(G) through A^T
                    w[:, :, i], w[:, :, j] = wi * h[:, :1] + wj * h[:, 2:3], wi * h[:, 1:2] + wj * h[:, 3:]
    return a, u


def _lm_polish(a, u, target, scale, tol, caps):
    """Riemannian Levenberg-Marquardt on r(U) = diag(U*TU) - target for a
    stack A = U*TU in lockstep, each member with its own damping, stop rules
    and at most caps[k] trials; returns (A, U, trials, max |r|, stopped).

    Moving U to U exp(X) for skew-Hermitian X changes the diagonal by
    diag(AX - XA) to first order.  Diagonal X leave it fixed, so the real
    Jacobian J is taken over the n(n-1) directions E_ij - E_ji and
    i(E_ij + E_ji), i < j, which move the diagonal by c_p m_p for m_p =
    e_j - e_i and c_p = A_ij + A_ji or i(A_ji - A_ij).  J^T J and J^T r are
    formed entrywise, <m_p, m_q> Re(conj(c_p) c_q) and Re(conj(c_p)(r_j -
    r_i)), so no matrix-vector product makes a member's bits depend on its
    stack.  A trial solves (J^T J + mu scale^2 I) delta = -J^T [Re r; Im r]
    and retracts through one eigendecomposition i X = V diag(w) V*, exp(X) =
    V diag(exp(-i w)) V*.  It is accepted if it lowers |r|^2 by more than
    1e-24 scale^2; mu then shrinks, and it grows after a rejection.  The
    stack stops early, leaving the rest unstopped, once a member within tol
    scale has only stopped members before it.
    """
    m, n = a.shape[:2]
    ii, jj = np.triu_indices(n, 1)
    m_p = np.eye(n)[:, jj] - np.eye(n)[:, ii]
    i2, j2, gram, eye = np.tile(ii, 2), np.tile(jj, 2), np.tile(m_p.T @ m_p, (2, 2)), np.eye(2 * len(ii))
    floor, aim, half = 1e-24 * scale ** 2, 0.9 * tol * scale, len(ii)
    a, u, caps = a.copy(), u.copy(), np.asarray(caps)
    res = np.abs(np.diagonal(a, axis1=1, axis2=2) - target).max(1)
    trials = np.zeros(m, dtype=int)
    stopped = (res <= aim) | (caps <= 0)
    k = np.flatnonzero(~stopped)   # the members still polished
    ak, uk, resk, cap, mu, tk = a[k], u[k], res[k], caps[k], np.full(len(k), LM_MU_START), trials[k]
    rk = np.diagonal(ak, axis1=1, axis2=2) - target
    fk = (np.abs(rk) ** 2).sum(1)
    while len(k):
        hit = stopped & (res <= tol * scale)
        if hit.any() and stopped[:np.argmax(hit)].all():
            break
        up, lo = ak[:, ii, jj], ak[:, jj, ii]
        c = np.concatenate([up + lo, 1j * (lo - up)], 1)
        ch = c.conj()
        normal = gram * (ch[:, :, None] * c[:, None, :]).real + (mu * scale ** 2)[:, None, None] * eye
        delta = np.linalg.solve(normal, (ch * (rk[:, i2] - rk[:, j2])).real[:, :, None])[:, :, 0]
        z = 1j * delta[:, :half] - delta[:, half:]   # i X above the diagonal
        ix = np.zeros((len(k), n, n), dtype=complex)
        ix[:, ii, jj], ix[:, jj, ii] = z, z.conj()
        w, v = np.linalg.eigh(ix)
        e = (v * np.exp(-1j * w)[:, None, :]) @ _h(v)
        a2 = _h(e) @ ak @ e
        r2 = np.diagonal(a2, axis1=1, axis2=2) - target
        ar2 = np.abs(r2)
        f2, res2 = (ar2 * ar2).sum(1), ar2.max(1)
        tk += 1
        ok = f2 < fk - floor
        go = np.where(ok, (fk - f2 >= LM_STALL * fk) & (res2 > aim), mu < LM_MU_MAX) & (tk < cap)
        ak, uk = np.where(ok[:, None, None], a2, ak), np.where(ok[:, None, None], uk @ e, uk)
        rk, fk, resk = np.where(ok[:, None], r2, rk), np.where(ok, f2, fk), np.where(ok, res2, resk)
        mu = np.minimum(np.maximum(mu * np.where(ok, LM_MU_DOWN, LM_MU_UP), LM_MU_MIN), LM_MU_MAX)
        if not go.all():
            end, out = k[~go], ~go
            a[end], u[end], res[end], trials[end], stopped[end] = ak[out], uk[out], resk[out], tk[out], True
            k, ak, uk, rk, fk, resk, cap, mu, tk = (x[go] for x in (k, ak, uk, rk, fk, resk, cap, mu, tk))
    return a, u, trials, res, stopped


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
