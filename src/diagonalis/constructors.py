"""Explicit finite realizations with built-in verification.

Every constructor builds its realization in closed form or by a finite
chain of steps, and re-checks it (eigenvalues, singular values, diagonal,
unitarity) before returning; one that fails verification raises
``ConvergenceError``, never returns silently.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from numbers import Rational

import numpy as np

from .scalars import (
    Cmp,
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
    _ray_crossing,
    hermitian_eigenvalues,
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
    """A search that spent its budget without a realization.

    No constructor returns it: none of them searches.
    """

    budget: int
    best_residual: float

    def as_json(self):
        from .jsonio import finite_or_null
        return {"not_found": True, "budget": self.budget,
                "best_residual": finite_or_null(self.best_residual)}


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
        # float dust can put the target just outside [work[j], work[i]]
        t = min(max((t_val - work[j]) / (work[i] - work[j]), 0), 1)
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
        c = math.sqrt(t)
        s = math.sqrt(1.0 - t)
        a[:, [i, j]] = a[:, [i, j]] @ [[c, -s], [s, c]]
        a[[i, j]] = [[c, s], [-s, c]] @ a[[i, j]]
    # the two products round each off-diagonal pair apart: keep the upper one
    a = np.triu(a) + np.triu(a, 1).T
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
    Float input is extracted with a 1e-15 cutoff and checked against tol.
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
    eps = 0 if exact else 1e-15
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
    exact = isinstance(total, Fraction)
    if exact:
        r = int(total)
        if total != r:
            raise PreconditionError("entries must sum to an integer")
    else:
        r = round(float(total))
        if abs(float(total) - r) > max(tol, 1e-9):
            raise PreconditionError("entries must sum to an integer")
    # float entries within the deciders' tolerance of [0, 1] move onto it, as they do there
    vals = [Cmp(exact).clamp(v, 0.0, 1.0) for v in vals]
    if any(v < 0 or v > 1 for v in vals):
        raise PreconditionError("entries must lie in [0, 1]")
    if not 0 <= r <= n:
        raise PreconditionError("integer sum out of range")
    # at rank 0 the Schur-Horn decider would see only d's float dust as scale
    shift = int(r == 0)
    real = construct_schur_horn([1 + shift] * r + [shift] * (n - r),
                                [v + shift for v in vals], tol=tol)
    p = real.matrix.data.real - shift * np.eye(n)
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
        from .jsonio import encode
        return encode({
            "block": None if self.block is None else self.block.as_json(),
            "block_values": [float(v) for v in self.block_values],
            "ones_count": self.ones_count,
            "zeros_count": self.zeros_count,
            "a_minus_b": self.integer_a_minus_b,
        })


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


def _turn(a, u, p, q, z, tol):
    """Turn rows and columns p, q of a, and columns p, q of u, so that a[p, p] = z."""
    y0, y1 = _attain_2x2(a.item(p, p), a.item(p, q), a.item(q, p), a.item(q, q), z, tol)
    # g = [[y0, -conj y1], [y1, conj y0]]: a g, then g* a, and u g
    for m in (a, u):
        col_p, col_q = m[:, p], m[:, q]
        m[:, p], m[:, q] = col_p * y0 + col_q * y1, col_p * -y1.conjugate() + col_q * y0.conjugate()
    row_p, row_q = a[p], a[q]
    a[p], a[q] = y0.conjugate() * row_p + y1.conjugate() * row_q, -y1 * row_p + y0 * row_q


def construct_zero_diagonal_basis(t: DenseMatrix, tol=1e-9) -> Realization:
    """Unitary basis in which a trace-zero matrix has an all-zero diagonal.

    A chain of 2x2 turns (P. A. Fillmore, Amer. Math. Monthly 76, 1969).
    The diagonal entries average to 0, so the chord between the entries
    nearest by angle on either side of the ray from 0 away from the largest
    entry f meets that ray at some c.  One turn sets the first of them, p,
    to c; a second turns (p, f) so that p lands on 0, which lies on [c, f].
    p then leaves the chain, and each step zeroes one entry.
    """
    n = t.n
    if n == 0:
        raise PreconditionError("matrix must have at least one row")
    scale = max(t.norm(), 1.0)
    if abs(complex(np.trace(t.data))) > max(tol, 1e-9) * scale:
        raise PreconditionError("matrix must have (numerically) zero trace")
    a = t.data.copy()
    u = np.eye(n, dtype=complex)
    small = 1e-12 * scale
    live = [i for i in range(n) if abs(a.item(i, i)) > small]
    while len(live) > 1:
        dg = a.diagonal().tolist()
        f = max(live, key=lambda i: abs(dg[i]))
        away = -dg[f]
        rest = [i for i in live if i != f]
        # nearest by |angle|: an entry on the ray may read -1e-17 and must
        # still count as on it, not as on f's side
        angle = [cmath.phase(dg[i] * away.conjugate()) for i in rest]
        k = min(range(len(rest)), key=lambda j: abs(angle[j]))
        p = rest[k]
        other = [j for j in range(len(rest)) if angle[j] * angle[k] < 0]
        if other:
            q = rest[min(other, key=lambda j: abs(angle[j]))]
            c = _ray_crossing(dg[p], dg[q], away)
            if c is not None:
                _turn(a, u, p, q, c, tol)
        # a[p, p] is now c, or already on the ray when every entry lies on
        # one line through 0, so 0 lies on [a[p, p], a[f, f]]
        _turn(a, u, p, f, 0.0, tol)
        live = [i for i in live if i != p and abs(a.item(i, i)) > small]
    final = u.conj().T @ t.data @ u
    diag_res = float(np.max(np.abs(np.diagonal(final))))
    unit_res = float(np.linalg.norm(u.conj().T @ u - np.eye(n)))
    if diag_res > tol * scale or unit_res > 1e-10:
        raise ConvergenceError(f"zero-diagonal verification failed: {diag_res:.2e}")
    return Realization(DenseMatrix(final), {"diagonal": diag_res, "unitarity": unit_res},
                       "rotation-chain", basis=DenseMatrix(u))


# ---------------------------------------------------------------------------
# Thompson realizations


def _thompson_holds(pool, targets):
    """Thompson's inequalities for descending singular values and moduli."""
    sums = list(zip(accumulate(targets), accumulate(pool)))
    return all(t <= p for t, p in sums) and \
        2 * pool[-1] + sums[-1][0] <= sums[-1][1] + 2 * targets[-1]


def _thompson_chain(s, t):
    """Exact plan of 2x2 steps from diag(s) to diagonal t, both descending.

    Step j turns the block diag(A, B) of two pool values (first s, at
    positions 0..n-1) into one with diagonal (t[j], b), which exists iff
    t[j] + b <= A + B and |t[j] - b| <= A - B.  b replaces B in the pool,
    chosen so that Thompson's inequalities still hold for the pool and the
    targets left.  Returns the steps (pa, pb, A, B, t[j], b) and the
    position of each target."""
    pool = [(x, i) for i, x in enumerate(s)]
    steps = []
    for j, a in enumerate(t[:-1]):
        rest = t[j + 1:]
        k = min(sum(v >= a for v, _ in pool), len(pool) - 1) - 1
        (big, pa), (small, pb) = pool[k], pool[k + 1]
        others = pool[:k] + pool[k + 2:]
        lo = max(0, a - big + small)
        hi = min(a + big - small, big + small - a)
        # the last inequality bounds b by cap once b is the smallest pool value
        cap = sum(v for v, _ in others) - sum(rest) + 2 * rest[-1]
        for b in (hi, max(lo, min(hi, cap))):
            reduced = sorted(others + [(b, pb)], key=lambda e: -e[0])
            if _thompson_holds([v for v, _ in reduced], rest):
                break
        else:
            raise ConvergenceError(f"no 2x2 step freezes target {j}")
        steps.append((pa, pb, big, small, a, b))
        pool = reduced
    return steps, [step[0] for step in steps] + [pool[0][1]]


def _rotation_chain(s_f, d_c):
    """Matrix with singular values s_f (descending) and diagonal d_c.

    ``_thompson_chain`` plans on the sorted moduli of d, and each step turns
    two rows and two columns; the rows then take the phases of d, so real d
    gives a real matrix.  The plan is exact on ints: s and the moduli, scaled
    to integers, are only added, compared and scaled again, so it is the
    rational plan times one constant.  Returns the matrix and whether d is real.
    """
    n = len(d_c)
    order_d = sorted(range(n), key=lambda p: (-abs(d_c[p]), p))
    ratios = [x.as_integer_ratio() for x in s_f + [abs(d_c[p]) for p in order_d]]
    unit = max(den for _, den in ratios)
    s_q, t = ([num * (unit // den) for num, den in ratios[k:k + n]] for k in (0, n))
    # moduli that pass only within tolerance: scale them onto the partial-sum
    # faces, then pull them toward their mean onto the last face
    over = max((Fraction(lhs - rhs, lhs) for lhs, rhs in zip(accumulate(t), accumulate(s_q))
                if lhs > rhs), default=0)
    s_q, t = [x * over.denominator for x in s_q], [x * (over.denominator - over.numerator) for x in t]
    excess = sum(t) - 2 * t[-1] - sum(s_q) + 2 * s_q[-1]
    if excess > 0 and n > 1:
        # x + excess (mean - x) / (2 (mean - t[-1])), all times den
        total, den = sum(t), 2 * (sum(t) - n * t[-1])
        s_q, t = [x * den for x in s_q], [x * den + excess * (total - n * x) for x in t]
    steps, fixed = _thompson_chain(s_q, t)
    m = np.diag(s_f)
    for pa, pb, big, small, a, b in steps:
        # rows turn by theta, columns by phi; theta - phi fixes a + b, theta + phi a - b
        minus = math.acos((a + b) / (big + small)) if big else 0.0
        plus = math.acos((a - b) / (big - small)) if big != small else 0.0
        c, sn = math.cos((plus + minus) / 2), math.sin((plus + minus) / 2)
        m[[pa, pb]] = [[c, -sn], [sn, c]] @ m[[pa, pb]]
        c, sn = math.cos((plus - minus) / 2), math.sin((plus - minus) / 2)
        m[:, [pa, pb]] = m[:, [pa, pb]] @ [[c, sn], [-sn, c]]
    # route frozen positions back to the input order of d, then add the phases
    sigma = [pos for _, pos in sorted(zip(order_d, fixed))]
    realness = all(v.imag == 0.0 for v in d_c)
    phases = np.array([v / abs(v) if v else 1.0 for v in d_c])
    return (phases.real if realness else phases)[:, None] * m[np.ix_(sigma, sigma)], realness


def construct_thompson(s, d, tol=1e-9):
    """Matrix with singular values s and diagonal d, by a chain of 2x2 steps.

    No LAPACK call builds it, so ``np.linalg.svd`` checks it (the Gram route
    of ``spectra`` blurs a zero singular value).
    """
    if decide_thompson(s, d).verdict != "Yes":
        raise PreconditionError("Thompson inequalities reject (s, d)")
    s_f = [float(x) for x in s]
    d_c = [complex(x) for x in d]
    m, realness = _rotation_chain(s_f, d_c)
    sv_res = float(np.max(np.abs(np.linalg.svd(m, compute_uv=False) - s_f)))
    diag_res = float(np.max(np.abs(np.diagonal(m) - d_c)))
    if max(sv_res, diag_res) > tol * max(s_f[0], 1.0):
        raise ConvergenceError(f"thompson verification failed: sv {sv_res:.2e}, "
                               f"diag {diag_res:.2e}")
    return Realization(DenseMatrix(m, real=realness),
                       {"singular": sv_res, "diagonal": diag_res}, "rotation-chain")


# ---------------------------------------------------------------------------
# unitary diagonals


def construct_unitary_with_diagonal(d, tol=1e-9) -> Realization:
    """Unitary with prescribed diagonal; orthogonal when d is real.

    Horn's condition on d is Thompson's inequalities for singular values
    s = (1, ..., 1) (R. C. Thompson, SIAM J. Appl. Math. 32, 1977), and a
    matrix whose singular values are all 1 is unitary: the Thompson rotation
    chain builds it.
    """
    if decide_horn_unitary(d, "unitary").verdict != "Yes":
        raise PreconditionError("Horn condition rejects d")
    d_c = [complex(x) for x in d]
    n = len(d_c)
    u, realness = _rotation_chain([1.0] * n, d_c)
    unit_res = float(np.linalg.norm(u.conj().T @ u - np.eye(n)))
    diag_res = float(np.max(np.abs(np.diagonal(u) - np.array(d_c))))
    if unit_res > max(tol, 1e-10) or diag_res > tol:
        raise ConvergenceError(f"unitary verification failed: unit {unit_res:.2e}, "
                               f"diag {diag_res:.2e}")
    return Realization(DenseMatrix(u, real=realness),
                       {"unitarity": unit_res, "diagonal": diag_res}, "rotation-chain")


# ---------------------------------------------------------------------------
# Williams realizations


def construct_williams(lam, d, tol=1e-9):
    """3x3 normal matrix with eigenvalues lam and diagonal d.

    Off the collinear case, B with B_ij the barycentric coordinate of d_i
    in the triangle lam is the one doubly stochastic matrix with B lam = d,
    and Williams's conditions say it is unistochastic (Au-Yeung & Poon,
    Linear Algebra Appl. 27, 1979): a unitary U with |U_ij|^2 = B_ij gives
    U diag(lam) U* the diagonal d.  Row 1 of U is sqrt(B_1j).  Row 2 is
    sqrt(B_2j) times the phases of a triangle with sides sqrt(B_1j B_2j),
    which makes it orthogonal to row 1.  Row 3 is the conjugate cross
    product of the two.  ``basis`` is U*.
    """
    dec = decide_williams_3x3(lam, d)
    if dec.verdict != "Yes":
        raise PreconditionError("Williams conditions reject (lam, d)")
    lam_c = [complex(x) for x in lam]
    d_c = [complex(x) for x in d]
    scale = max(max(abs(v) for v in lam_c), 1.0)
    if dec.certificate.get("clause") == "collinear reduction":
        return _williams_collinear_construct(lam_c, d_c, tol, scale)
    b = np.linalg.solve([[v.real for v in lam_c], [v.imag for v in lam_c], [1.0] * 3],
                        [[v.real for v in d_c], [v.imag for v in d_c], [1.0] * 3]).T
    b = np.clip(b, 0.0, None)
    # the two shorter sides meet at the angle the law of cosines gives and
    # the longest closes the triangle: a short closing side would come out
    # of a cancellation between two long ones
    sides = np.sqrt(b[0] * b[1])
    k = int(np.argmax(sides))
    i, j = (k + 1) % 3, (k + 2) % 3
    prod = 2.0 * sides[i] * sides[j]
    cos = (sides[k] ** 2 - sides[i] ** 2 - sides[j] ** 2) / prod if prod else 1.0
    cos = min(1.0, max(-1.0, cos))
    z = np.zeros(3, dtype=complex)
    z[i] = sides[i]
    z[j] = sides[j] * complex(cos, math.sqrt(1.0 - cos * cos))
    z[k] = -(z[i] + z[j])
    row1 = np.sqrt(b[0] / b[0].sum())
    row2 = np.sqrt(b[1]) * np.exp(1j * np.angle(z))
    row2 = row2 - np.vdot(row1, row2) * row1
    row2 = row2 / np.linalg.norm(row2)
    u = np.array([row1, row2, np.cross(row1, row2).conj()])
    m = u @ np.diag(lam_c) @ u.conj().T
    diag_res = float(np.max(np.abs(np.diagonal(m) - np.array(d_c))))
    unit_res = float(np.linalg.norm(u.conj().T @ u - np.eye(3)))
    if diag_res > tol * scale or unit_res > 1e-9:
        raise ConvergenceError(f"williams verification failed: unit {unit_res:.2e}, "
                               f"diag {diag_res:.2e}")
    return Realization(DenseMatrix(m), {"diagonal": diag_res, "unitarity": unit_res},
                       "unistochastic", basis=DenseMatrix(u.conj().T))


def _williams_collinear_construct(lam_c, d_c, tol, scale):
    base = lam_c[0]
    # the line's direction as the decider takes it: toward the first point
    # unequal to lam_0 (all equal: any direction, and the matrix is lam_0 I)
    direction = next((v - base for v in lam_c[1:] + d_c if v != base), 1.0)
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
