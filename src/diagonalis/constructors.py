"""Explicit finite realizations with built-in verification.

Every constructor re-checks its output (eigenvalues, singular values,
diagonal, unitarity) before returning; a candidate that fails verification
is an error or an honest ``NotFound``, never a silent return.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

import numpy as np

from .scalars import (
    INF,
    ConvergenceError,
    PreconditionError,
    UnsupportedError,
)
from .deciders import (
    decide_horn_unitary,
    decide_kadison,
    decide_schur_horn,
    decide_thompson,
    decide_williams_3x3,
)
from .seqspec import (
    ConstantRepeat,
    FiniteList,
    SequenceSpec,
    canonical_streams,
    count_value,
    stream_is_infinite,
)
from .spectra import (
    DenseMatrix,
    _attain_2x2,
    _interp_on_span,
    haar_unitary,
    hermitian_eigenvalues,
    singular_values,
)


@dataclass(frozen=True)
class Realization:
    matrix: DenseMatrix
    residuals: dict
    method_tag: str
    basis: DenseMatrix | None = None

    def as_json(self):
        from .jsonio import encode_matrix
        out = {"matrix": encode_matrix(self.matrix),
               "residuals": {k: float(v) for k, v in self.residuals.items()},
               "method": self.method_tag}
        if self.basis is not None:
            out["basis"] = encode_matrix(self.basis)
        return out


@dataclass(frozen=True)
class NotFound:
    budget: int
    best_residual: float

    def as_json(self):
        best = float(self.best_residual)
        return {"not_found": True, "budget": self.budget,
                "best_residual": best if math.isfinite(best) else None}


# ---------------------------------------------------------------------------
# Schur-Horn chain


def _t_transform_chain(lam, d, exact):
    """Bracketing mix chain sending sorted lam to sorted d.

    Returns the list of steps (i, j, t, target) over sorted-position indices
    and the fixing order; step semantics: positions i (value above target)
    and j (value below) mix with weight t so position i lands on the target.
    """
    num = Fraction if exact else float
    lam_sorted = sorted((num(x) for x in lam), reverse=True)
    d_sorted = sorted((num(x) for x in d), reverse=True)
    n = len(lam_sorted)
    work = list(lam_sorted)
    active = list(range(n))
    steps = []
    fixed = []
    for t_val in d_sorted[:-1]:
        above = [i for i in active if work[i] >= t_val]
        below = [i for i in active if work[i] <= t_val]
        if not above or not below:
            # tolerate float dust at the extremes
            if not above:
                above = [max(active, key=lambda i: work[i])]
            if not below:
                below = [min(active, key=lambda i: work[i])]
        i = min(above, key=lambda k: (work[k], k))
        j = max((k for k in below if k != i), key=lambda k: (work[k], -k), default=None)
        # equal ends cannot mix: float dust outside their value is left to
        # the caller's residual check
        if work[i] == t_val or j is None or work[i] == work[j]:
            fixed.append(i)
            active.remove(i)
            steps.append((i, i, num(1), t_val))
            continue
        t = (t_val - work[j]) / (work[i] - work[j])
        steps.append((i, j, t, t_val))
        work[j] = work[i] + work[j] - t_val
        work[i] = t_val
        fixed.append(i)
        active.remove(i)
    fixed.append(active[0])
    return lam_sorted, d_sorted, steps, fixed


def construct_schur_horn(lam, d, tol=1e-9) -> Realization:
    """Real symmetric matrix with spectrum lam and diagonal d (Givens chain)."""
    dec = decide_schur_horn(lam, d)
    if dec.verdict != "Yes":
        raise PreconditionError("d is not majorized by lam")
    n = len(lam)
    lam_sorted, d_sorted, steps, fixed = _t_transform_chain(lam, d, exact=False)
    a = np.diag(np.array(lam_sorted, dtype=float))
    for (i, j, t, target) in steps:
        if i == j:
            continue
        c = math.sqrt(min(1.0, max(0.0, t)))
        s = math.sqrt(min(1.0, max(0.0, 1.0 - t)))
        g = np.eye(n)
        g[i, i] = c
        g[j, i] = s
        g[i, j] = -s
        g[j, j] = c
        a = g.T @ a @ g
    # route sorted positions back to the input order of d
    order_d = sorted(range(n), key=lambda p: (-float(d[p]), p))
    sigma = [0] * n
    for k in range(n):
        sigma[order_d[k]] = fixed[k]
    m = a[np.ix_(sigma, sigma)]
    out = DenseMatrix(m, real=True)
    eigs = hermitian_eigenvalues(out)
    lam_ref = np.array(sorted((float(x) for x in lam), reverse=True))
    scale = max(1.0, float(np.max(np.abs(lam_ref))))
    spec_res = float(np.max(np.abs(eigs - lam_ref)))
    diag_res = float(np.max(np.abs(np.real(out.diag()) - np.array([float(x) for x in d]))))
    if spec_res > tol * scale or diag_res > max(tol, 1e-10) * scale:
        raise ConvergenceError(f"verification failed: spectral {spec_res:.2e}, "
                               f"diagonal {diag_res:.2e}")
    return Realization(out, {"spectral": spec_res, "diagonal": diag_res}, "givens-chain")


def _birkhoff_matching(support):
    """Perfect matching on a boolean support matrix via augmenting paths.

    Rows are matched in order, each by a depth-first search that tries
    columns in ascending order.  The search keeps an explicit stack, so
    paths as long as n need no recursion.
    """
    n = len(support)
    adj = [[c for c, ok in enumerate(row) if ok] for row in support]
    match_col = [-1] * n
    for root in range(n):
        seen = [False] * n
        # the path so far: rows[k] reaches rows[k + 1] through column cols[k];
        # its[k] resumes the column scan of rows[k]
        rows, cols, its = [root], [], [iter(adj[root])]
        while its:
            for c in its[-1]:
                if not seen[c]:
                    seen[c] = True
                    break
            else:
                # no unseen column left: back up to the previous row
                its.pop()
                rows.pop()
                if cols:
                    cols.pop()
                continue
            cols.append(c)
            if match_col[c] < 0:
                # free column: shift every row on the path to its next column
                for r, col in zip(rows, cols):
                    match_col[col] = r
                break
            rows.append(match_col[c])
            its.append(iter(adj[match_col[c]]))
        else:
            return None
    perm = [0] * n
    for c, r in enumerate(match_col):
        perm[r] = c
    return perm


def _doubly_stochastic(lam, d, exact):
    """Doubly stochastic S with S lam = d, from the bracketing chain.

    Rows follow the input order of d and columns that of lam; ties are
    ordered by index.  Exact input is sorted and mixed on Fractions.
    """
    n = len(lam)
    num = Fraction if exact else float
    lam_sorted, d_sorted, steps, fixed = _t_transform_chain(lam, d, exact)
    s_mat = [[num(1) if i == j else num(0) for j in range(n)] for i in range(n)]
    for (i, j, t, target) in steps:
        if i == j:
            continue
        row_i = s_mat[i]
        row_j = s_mat[j]
        new_i = [t * a + (1 - t) * b for a, b in zip(row_i, row_j)]
        new_j = [(1 - t) * a + t * b for a, b in zip(row_i, row_j)]
        s_mat[i] = new_i
        s_mat[j] = new_j
    order_d = sorted(range(n), key=lambda p: (-num(d[p]), p))
    order_l = sorted(range(n), key=lambda p: (-num(lam[p]), p))
    full = [[num(0)] * n for _ in range(n)]
    for k in range(n):
        for m in range(n):
            full[order_d[k]][order_l[m]] = s_mat[fixed[k]][m]
    return full


def convex_decomposition(lam, d, tol=1e-10):
    """Weights and permutations with sum_i w_i lam_{pi_i} = d.

    Built from the bracketing-chain doubly stochastic matrix followed by
    greedy Birkhoff extraction.  Exact input is extracted on integers: the
    matrix is scaled by D, the lcm of its denominators, and each weight w
    becomes Fraction(w, D).  Its check is exact and integer-only as well:
    the weights sum to D, and every row r satisfies
    sum_k w_k lam_hat[pi_k(r)] = d_r D L, where L is the lcm of lam's
    denominators and lam_hat = L lam.  No exact value is converted to float.
    Float input is extracted with a 1e-12 cutoff and checked against tol.
    """
    dec = decide_schur_horn(lam, d)
    if dec.verdict != "Yes":
        raise PreconditionError("d is not majorized by lam")
    exact = all(isinstance(x, Rational) for x in list(lam) + list(d))
    n = len(lam)
    full = _doubly_stochastic(lam, d, exact)
    if exact:
        unit = math.lcm(*(x.denominator for row in full for x in row))
        remaining = [[x.numerator * (unit // x.denominator) for x in row] for row in full]
    else:
        unit = 1.0
        remaining = [row[:] for row in full]
    eps = 0 if exact else 1e-12
    weight_left = unit
    out = []
    cap = (n - 1) ** 2 + 1
    support = [[x > eps for x in row] for row in remaining]
    for _ in range(cap):
        if weight_left <= eps:
            break
        perm = _birkhoff_matching(support)
        if perm is None:
            break
        w = min(remaining[r][perm[r]] for r in range(n))
        if w <= eps:
            break
        out.append((w, tuple(perm)))
        # only the entries on perm changed, so only they can leave the support
        for r, c in enumerate(perm):
            remaining[r][c] -= w
            if remaining[r][c] <= eps:
                support[r][c] = False
        weight_left -= w
    if exact:
        lam_q = [Fraction(x) for x in lam]
        l_den = math.lcm(*(x.denominator for x in lam_q))
        lam_hat = [x.numerator * (l_den // x.denominator) for x in lam_q]
        if sum(w for w, _ in out) != unit:
            raise ConvergenceError("exact decomposition weights do not sum to 1")
        for r, x in enumerate(Fraction(x) for x in d):
            row = sum(w * lam_hat[p[r]] for w, p in out)
            if row * x.denominator != x.numerator * unit * l_den:
                raise ConvergenceError(f"exact decomposition misses d at row {r}")
        return [(Fraction(w, unit), p) for w, p in out]
    total_w = sum(w for w, _ in out)
    recon = [sum(w * float(lam[p[r]]) for w, p in out) for r in range(n)]
    resid = max(abs(recon[r] - float(d[r])) for r in range(n))
    wres = abs(total_w - 1.0)
    if resid > tol * max(1.0, max(abs(float(x)) for x in lam)) or wres > 1e-12:
        raise ConvergenceError(f"decomposition verification failed at {resid:.2e}")
    return out


def construct_projection_with_diagonal(d, tol=1e-9) -> Realization:
    """Symmetric idempotent with prescribed diagonal (integer-sum entries)."""
    vals = [Fraction(x) if isinstance(x, Rational) else float(x) for x in d]
    n = len(vals)
    total = sum(vals)
    if isinstance(total, Fraction):
        r = int(total)
        if total != r:
            raise PreconditionError("entries must sum to an integer")
        if any(v < 0 or v > 1 for v in vals):
            raise PreconditionError("entries must lie in [0, 1]")
    else:
        r = round(float(total))
        if abs(float(total) - r) > max(tol, 1e-9):
            raise PreconditionError("entries must sum to an integer")
        if any(float(v) < -1e-12 or float(v) > 1 + 1e-12 for v in vals):
            raise PreconditionError("entries must lie in [0, 1]")
    if not 0 <= r <= n:
        raise PreconditionError("integer sum out of range")
    lam = [1] * r + [0] * (n - r)
    real = construct_schur_horn(lam, vals, tol=tol)
    p = real.matrix.data.real
    idem = float(np.linalg.norm(p @ p - p))
    if idem > tol * max(1.0, n):
        raise ConvergenceError(f"projection defect {idem:.2e}")
    res = dict(real.residuals)
    res["idempotency"] = idem
    return Realization(DenseMatrix(p, real=True), res, "schur-horn-projection")


@dataclass(frozen=True)
class KadisonBlockDescription:
    """Finite block plus infinite identity/zero summands realizing a diagonal."""

    block: Realization | None
    block_values: tuple
    ones_count: object
    zeros_count: object
    integer_a_minus_b: int

    def as_json(self):
        return {
            "block": None if self.block is None else self.block.as_json(),
            "block_values": [float(v) for v in self.block_values],
            "ones_count": "inf" if self.ones_count == INF else self.ones_count,
            "zeros_count": "inf" if self.zeros_count == INF else self.zeros_count,
            "a_minus_b": self.integer_a_minus_b,
        }


def construct_kadison_block(d: SequenceSpec, tol=1e-9) -> KadisonBlockDescription:
    """Block description of a projection whose diagonal is ``d``.

    Requires finitely many entries off {0, 1}; the deviating entries form a
    finite projection block (their sum is forced to be an integer by the
    decider), padded by an infinite identity and kernel.
    """
    dec = decide_kadison(d)
    if dec.verdict != "Yes":
        raise PreconditionError("decider rejects d as a projection diagonal")
    zero = Fraction(0) if d.exact else 0.0
    one = Fraction(1) if d.exact else 1.0
    deviating = []
    for s in canonical_streams(d):
        if stream_is_infinite(s):
            lim = s.value if isinstance(s, ConstantRepeat) else None
            if lim is None or (lim != zero and lim != one):
                raise UnsupportedError(
                    "infinitely many entries off {0,1}: no finite block")
            continue
        if isinstance(s, FiniteList):
            deviating.extend(v for v in s.values if v != zero and v != one)
        elif isinstance(s, ConstantRepeat):
            if s.value != zero and s.value != one:
                deviating.extend([s.value] * s.count)
    a_minus_b = dec.certificate.get("integer", 0)
    ones = count_value(d, one)
    zeros = count_value(d, zero)
    if not deviating:
        return KadisonBlockDescription(None, (), ones, zeros, a_minus_b)
    block = construct_projection_with_diagonal(deviating, tol=tol)
    return KadisonBlockDescription(block, tuple(deviating), ones, zeros, a_minus_b)


# ---------------------------------------------------------------------------
# zero-diagonal bases


def _zero_combination(points, eps):
    """Indices and weights of 1-3 points whose hull contains 0."""
    n = len(points)
    for i in range(n):
        if abs(points[i]) <= eps:
            return (i,), (1.0,)
    for i in range(n):
        for j in range(i + 1, n):
            a, b = points[i], points[j]
            ab = b - a
            denom = abs(ab) ** 2
            if denom < eps * eps:
                continue
            t = (-a * ab.conjugate()).real / denom
            cross = (ab.conjugate() * (-a)).imag / abs(ab)
            if -1e-12 <= t <= 1 + 1e-12 and abs(cross) <= eps:
                t = min(1.0, max(0.0, t))
                return (i, j), (1.0 - t, t)
    best = None
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                m = np.array([
                    [points[i].real, points[j].real, points[k].real],
                    [points[i].imag, points[j].imag, points[k].imag],
                    [1.0, 1.0, 1.0],
                ])
                try:
                    alpha = np.linalg.solve(m, np.array([0.0, 0.0, 1.0]))
                except np.linalg.LinAlgError:
                    continue
                worst = float(np.min(alpha))
                if best is None or worst > best[0]:
                    best = (worst, (i, j, k), alpha)
    if best is None or best[0] < -1e-7:
        return None, None
    _, idx, alpha = best
    alpha = np.clip(alpha, 0.0, None)
    alpha = alpha / alpha.sum()
    return idx, tuple(float(x) for x in alpha)


def _householder_first_column(x):
    """Unitary with first column x."""
    n = x.shape[0]
    e = np.zeros(n, dtype=complex)
    e[0] = 1.0
    u = x.copy()
    alpha = u[0]
    phase = alpha / abs(alpha) if abs(alpha) > 1e-300 else 1.0
    v = u + phase * np.linalg.norm(u) * e
    nv = np.linalg.norm(v)
    if nv < 1e-300:
        q = np.eye(n, dtype=complex)
    else:
        v = v / nv
        q = np.eye(n, dtype=complex) - 2.0 * np.outer(v, v.conj())
        q = q * (-phase.conjugate())
    # first column of q is now x up to rounding
    return q


def construct_zero_diagonal_basis(t: DenseMatrix, tol=1e-9) -> Realization:
    """Unitary basis in which a trace-zero matrix has an all-zero diagonal.

    Deflation: pick a unit vector attaining zero (its existence follows from
    the zero mean of the diagonal entries), fix it as a basis column, and
    recurse on the orthogonal compression, whose trace stays zero.
    """
    n = t.n
    scale = max(t.norm(), 1.0)
    if abs(complex(np.trace(t.data))) > max(tol, 1e-9) * scale:
        raise PreconditionError("matrix must have (numerically) zero trace")
    v_total = np.eye(n, dtype=complex)
    a = t.data.copy()
    for size in range(n, 1, -1):
        block = v_total[:, n - size:]
        comp = block.conj().T @ t.data @ block
        diag = np.diagonal(comp)
        idx, weights = _zero_combination(list(diag), 1e-12 * scale)
        if idx is None:
            raise ConvergenceError("no zero combination among diagonal entries")
        if len(idx) == 1:
            y = np.zeros(size, dtype=complex)
            y[idx[0]] = 1.0
        elif len(idx) == 2:
            i, j = idx
            b = np.array([[comp[i, i], comp[i, j]], [comp[j, i], comp[j, j]]])
            y2 = _attain_2x2(b, 0.0, tol)
            y = np.zeros(size, dtype=complex)
            y[i] = y2[0]
            y[j] = y2[1]
        else:
            i, j, k = idx
            wi, wj, wk = weights
            if wi + wj < 1e-14:
                stage_target = complex(diag[k])
            else:
                stage_target = (wi * diag[i] + wj * diag[j]) / (wi + wj)
            b = np.array([[comp[i, i], comp[i, j]], [comp[j, i], comp[j, j]]])
            y2 = _attain_2x2(b, stage_target, max(tol, 1e-12))
            y1 = np.zeros(size, dtype=complex)
            y1[i] = y2[0]
            y1[j] = y2[1]
            ek = np.zeros(size, dtype=complex)
            ek[k] = 1.0
            y = _interp_on_span(comp, y1, ek, 0.0, tol)
        q = _householder_first_column(y)
        v_total[:, n - size:] = block @ q
    u = DenseMatrix(v_total)
    final = u.data.conj().T @ t.data @ u.data
    diag_res = float(np.max(np.abs(np.diagonal(final))))
    unit_res = float(np.linalg.norm(u.data.conj().T @ u.data - np.eye(n)))
    if diag_res > tol * scale or unit_res > 1e-10:
        raise ConvergenceError(f"zero-diagonal verification failed: {diag_res:.2e}")
    return Realization(DenseMatrix(final), {"diagonal": diag_res, "unitarity": unit_res},
                       "attain-deflation", basis=u)


# ---------------------------------------------------------------------------
# Thompson realizations

# alternating-projection sweeps per restart; up to ten times as many while
# the diagonal residual is already below 1e-3 of the scale
_THOMPSON_SWEEPS = 500


def construct_thompson(s, d, tol=1e-9, budget=200, seed=0):
    """Matrix with singular values s and diagonal d.

    Dimensions 1 and 2 are closed-form; larger sizes use alternating
    projections with seeded restarts and report NotFound when the budget
    runs out (never claiming nonexistence).  Each sweep sets the diagonal
    and then the singular values through ``np.linalg.svd`` of the working
    array, which stays float64 for real data; a candidate is accepted only
    after the self-contained Jacobi ``singular_values`` confirms it.
    """
    if budget < 0:
        raise PreconditionError("budget must be nonnegative")
    dec = decide_thompson(s, d)
    if dec.verdict != "Yes":
        raise PreconditionError("Thompson inequalities reject (s, d)")
    s_f = [float(x) for x in s]
    d_c = [complex(x) for x in d]
    n = len(s_f)
    realness = all(abs(v.imag) == 0.0 for v in d_c)
    scale = max(s_f[0] if s_f else 0.0, 1.0)
    if n == 1:
        m = np.array([[d_c[0]]])
        return _verified_thompson(m, s_f, d_c, tol, scale, "closed-form", realness)
    if n == 2:
        rr = s_f[0] ** 2 + s_f[1] ** 2 - abs(d_c[0]) ** 2 - abs(d_c[1]) ** 2
        rr = max(rr, 0.0)
        prod = d_c[0] * d_c[1]
        target = s_f[0] * s_f[1]
        w_mag = abs(prod) - target
        if abs(prod) > 1e-300:
            w = w_mag * prod / abs(prod)
        else:
            w = -target + 0j  # any phase works when the diagonal product vanishes
            if realness:
                w = -target
        disc = rr * rr - 4.0 * abs(w) ** 2
        disc = max(disc, 0.0)
        x2 = (rr + math.sqrt(disc)) / 2.0
        x = math.sqrt(max(x2, 0.0))
        y = w / x if x > 1e-300 else 0.0
        m = np.array([[d_c[0], x], [y, d_c[1]]])
        return _verified_thompson(m, s_f, d_c, tol, scale, "closed-form", realness)
    if max(s_f) - min(s_f) <= 1e-12 * scale and min(s_f) > 0:
        # constant singular spectrum: scaled unitary, closed form
        c = s_f[0]
        real = construct_unitary_with_diagonal([v / c for v in d_c], tol=tol)
        m = c * real.matrix.data
        return _verified_thompson(m, s_f, d_c, tol, scale, "scaled-unitary", realness)
    rng = np.random.default_rng(seed)
    best = math.inf
    target_d = np.array(d_c) if not realness else np.array([v.real for v in d_c])
    for restart in range(budget):
        u = haar_unitary(n, seed=rng.integers(0, 2**63 - 1)).data
        v = haar_unitary(n, seed=rng.integers(0, 2**63 - 1)).data
        if realness:
            u, _ = np.linalg.qr(u.real)
            v, _ = np.linalg.qr(v.real)
        m = u @ np.diag(s_f) @ v.conj().T
        prev = math.inf
        sweep = 0
        while sweep < _THOMPSON_SWEEPS or (sweep < 10 * _THOMPSON_SWEEPS and prev < 1e-3 * scale):
            sweep += 1
            np.fill_diagonal(m, target_d)
            u2, _, vh2 = np.linalg.svd(m)
            m = (u2 * s_f) @ vh2
            res = float(np.max(np.abs(np.diagonal(m) - target_d)))
            if res <= 0.5 * tol * scale:
                np.fill_diagonal(m, target_d)
                try:
                    return _verified_thompson(m, s_f, d_c, tol, scale,
                                              "alternating-projection", realness)
                except ConvergenceError:
                    break
            if res >= prev * 0.999999 and sweep >= _THOMPSON_SWEEPS:
                break
            prev = res
            best = min(best, res)
    return NotFound(budget, best)


def _verified_thompson(m, s_f, d_c, tol, scale, tag, realness):
    got = singular_values(DenseMatrix(m))
    sv_res = float(np.max(np.abs(got - np.array(sorted(s_f, reverse=True)))))
    diag_res = float(np.max(np.abs(np.diagonal(m) - np.array(d_c))))
    if sv_res > tol * scale or diag_res > tol * scale:
        raise ConvergenceError(f"thompson verification failed: sv {sv_res:.2e}, "
                               f"diag {diag_res:.2e}")
    real_out = realness and bool(np.all(np.abs(m.imag) <= 1e-14 * scale))
    return Realization(DenseMatrix(m, real=real_out),
                       {"singular": sv_res, "diagonal": diag_res}, tag)


# ---------------------------------------------------------------------------
# unitary diagonals


def construct_unitary_with_diagonal(d, tol=1e-9) -> Realization:
    """Unitary with prescribed diagonal; orthogonal when d is real.

    Structure: entries of modulus one become fixed phases; the rest absorb
    their moduli deficit through K coplanar rotations by a common angle,
    whose planes span the range of a rank-2K projection with prescribed
    diagonal.  The planes are ``np.linalg.eigh`` eigenvectors of its 2K
    largest eigenvalues; any orthonormal basis of the range gives the same
    diagonal, which the direct residual check confirms.  Where Horn's
    condition holds only within ``decide_horn_unitary``'s float tolerance,
    the largest deficit is lowered until it holds.  The result is
    deterministic.
    """
    dec = decide_horn_unitary(d, "unitary")
    if dec.verdict != "Yes":
        raise PreconditionError("Horn condition rejects d")
    d_c = [complex(x) for x in d]
    n = len(d_c)
    realness = all(v.imag == 0.0 for v in d_c)
    moduli = [abs(v) for v in d_c]
    phases = [v / m if m > 1e-300 else 1.0 for v, m in zip(d_c, moduli)]
    rest = [i for i in range(n) if moduli[i] < 1.0 - 1e-13]
    deltas = [1.0 - moduli[i] for i in rest]
    if rest:
        # Horn's 2 max <= sum may hold only within the decider's tolerance: lower
        # the largest deficit to the others' sum (a lone one becomes a phase)
        top = deltas.index(max(deltas))
        deltas[top] = min(deltas[top], sum(deltas) - deltas[top])
        if not deltas[top]:
            del rest[top], deltas[top]
    u = np.zeros((n, n), dtype=complex)
    for i in range(n):
        if i not in rest:
            u[i, i] = phases[i]
    if rest:
        m = len(rest)
        delta_total = sum(deltas)
        dmax = max(deltas)
        k = max(1, math.ceil(delta_total / 4.0 - 1e-12))
        while delta_total / (2 * k) < dmax - 1e-12 and k > 1:
            k -= 1
        if 2 * k > m or delta_total / (2 * k) < dmax - 1e-12:
            raise ConvergenceError("no admissible rotation count")
        c = 1.0 - delta_total / (2 * k)
        # not x / (1 - c), which cancels when the deficits are tiny
        mu = [2 * k * x / delta_total for x in deltas]
        proj = construct_projection_with_diagonal(mu, tol=min(1e-10, tol))
        # orthonormal basis of the range: eigh lists eigenvalues ascending
        q = np.linalg.eigh(proj.matrix.data.real)[1][:, m - 2 * k:]
        s_ang = math.sqrt(max(0.0, 1.0 - c * c))
        r = np.eye(m)
        for t in range(k):
            v1 = q[:, 2 * t]
            v2 = q[:, 2 * t + 1]
            r = r + (c - 1.0) * (np.outer(v1, v1) + np.outer(v2, v2)) \
                + s_ang * (np.outer(v1, v2) - np.outer(v2, v1))
        block = np.diag([phases[i] for i in rest]) @ r
        u[np.ix_(rest, rest)] = block
    unit_res = float(np.linalg.norm(u.conj().T @ u - np.eye(n)))
    diag_res = float(np.max(np.abs(np.diagonal(u) - np.array(d_c))))
    if unit_res > max(tol, 1e-10) or diag_res > tol:
        raise ConvergenceError(f"unitary verification failed: unit {unit_res:.2e}, "
                               f"diag {diag_res:.2e}")
    real_out = realness and bool(np.all(np.abs(u.imag) <= 1e-14))
    return Realization(DenseMatrix(u.real if real_out else u, real=real_out),
                       {"unitarity": unit_res, "diagonal": diag_res},
                       "plane-rotations")


# ---------------------------------------------------------------------------
# Williams realizations


def construct_williams(lam, d, tol=1e-8, budget=4096):
    """3x3 normal matrix realization of a Williams-admissible diagonal.

    Off the collinear case, a phase sweep tries the points of a square grid
    of max(8, sqrt(budget / 4)) points a side, none at budget 0, and reports
    NotFound when none finishes (never claiming nonexistence).
    """
    if budget < 0:
        raise PreconditionError("budget must be nonnegative")
    dec = decide_williams_3x3(lam, d)
    if dec.verdict != "Yes":
        raise PreconditionError("Williams conditions reject (lam, d)")
    lam_c = [complex(x) for x in lam]
    d_c = [complex(x) for x in d]
    scale = max(max(abs(v) for v in lam_c), 1.0)
    if dec.certificate.get("clause") == "collinear reduction":
        return _williams_collinear_construct(lam_c, d_c, tol, scale)
    nmat = np.diag(lam_c)
    a = np.array([[lam_c[0].real, lam_c[1].real, lam_c[2].real],
                  [lam_c[0].imag, lam_c[1].imag, lam_c[2].imag],
                  [1.0, 1.0, 1.0]])
    w = np.linalg.solve(a, np.array([d_c[0].real, d_c[0].imag, 1.0]))
    w = np.clip(w, 0.0, None)
    w = w / w.sum()
    roots = np.sqrt(w)
    grid = max(8, int(math.sqrt(budget / 4))) if budget else 0
    best = None
    for ia in range(grid):
        alpha = 2.0 * math.pi * ia / grid
        for ib in range(grid):
            beta = 2.0 * math.pi * ib / grid
            x = np.array([roots[0], roots[1] * cmath.exp(1j * alpha),
                          roots[2] * cmath.exp(1j * beta)])
            res = _try_finish_williams(nmat, x, d_c, tol, scale)
            if isinstance(res, Realization):
                return res
            if best is None or res < best:
                best = res
    return NotFound(budget, float("inf") if best is None else best)


def _try_finish_williams(nmat, x, d_c, tol, scale):
    q = _householder_first_column(x)
    comp = q.conj().T @ nmat @ q
    b = comp[1:, 1:]
    try:
        y2 = _attain_2x2(b, d_c[1], tol)
    except (PreconditionError, ConvergenceError):
        mid = (b[0, 0] + b[1, 1]) / 2.0
        return abs(d_c[1] - mid)
    y = q[:, 1:] @ y2
    y_perp = q[:, 1:] @ np.array([-np.conj(y2[1]), np.conj(y2[0])])
    u = np.column_stack([x, y, y_perp])
    diag = np.diagonal(u.conj().T @ nmat @ u)
    res = float(np.max(np.abs(diag - np.array(d_c))))
    if res <= tol * scale:
        unit = float(np.linalg.norm(u.conj().T @ u - np.eye(3)))
        if unit <= 1e-9:
            return Realization(DenseMatrix(u.conj().T @ nmat @ u),
                               {"diagonal": res, "unitarity": unit},
                               "phase-sweep", basis=DenseMatrix(u))
    return res


def _williams_collinear_construct(lam_c, d_c, tol, scale):
    base = lam_c[0]
    direction = lam_c[1] - lam_c[0]
    denom = abs(direction) ** 2
    t_lam = [((v - base) * direction.conjugate()).real / denom for v in lam_c]
    t_d = [((v - base) * direction.conjugate()).real / denom for v in d_c]
    inner = construct_schur_horn(t_lam, t_d, tol=tol)
    m = direction * inner.matrix.data + base * np.eye(3)
    diag_res = float(np.max(np.abs(np.diagonal(m) - np.array(d_c))))
    if diag_res > tol * scale:
        raise ConvergenceError("collinear construction verification failed")
    return Realization(DenseMatrix(m), {"diagonal": diag_res,
                                        "spectral": inner.residuals["spectral"]},
                       "collinear-schur-horn")
