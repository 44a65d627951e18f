"""Dense-matrix kernels and the finite identity checks built on them.

The finite constructors build in closed form (Givens, Thompson and 2x2
turn chains) and check what they build: ``np.linalg.svd`` checks Thompson
matrices, and the Hermitian eigensolver here, a cyclic-by-row Jacobi
iteration, checks Schur-Horn matrices.  Jacobi also answers ``verify matrix
--eigenvalues`` and gives the support directions of the numerical range.
Matrices here are small (n <= 64), where Jacobi is simple, provably
convergent and accurate.  ``singular_values`` takes the Gram route, which
blurs a zero singular value to about 1e-8 of the largest; no library code
calls it.  Thompson chains are planned on Python integers, and 2x2 turns
run on four Python complex scalars, where a numpy call costs more than its flops.

A point of the numerical range W(M) is attained by adaptive support
directions, and rejected only when a support direction certifies that it
lies outside W(M) by more than the tolerance.
"""

from __future__ import annotations

import bisect
import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .jsonio import encode
from .scalars import EPS_MAT, ConvergenceError, PreconditionError

JACOBI_SWEEP_CAP = 30
SUPPORT_DIRECTION_CAP = 64
ATTAIN_TOL_DEFAULT = 1e-9


@dataclass(frozen=True)
class DenseMatrix:
    """Small dense complex matrix; ``real`` flags the real submode."""

    data: np.ndarray
    real: bool = False

    def __post_init__(self):
        a = np.asarray(self.data, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise PreconditionError("DenseMatrix must be square")
        if not np.all(np.isfinite(a)):
            raise PreconditionError("DenseMatrix entries must be finite")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "data", a)
        object.__setattr__(self, "real", bool(self.real))

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @staticmethod
    def from_rows(rows, real=None):
        a = np.asarray(rows, dtype=complex)
        if real is None:
            real = bool(np.all(np.abs(a.imag) == 0.0))
        return DenseMatrix(a, real=real)

    @staticmethod
    def diagonal(values):
        a = np.diag(np.asarray(list(values), dtype=complex))
        return DenseMatrix(a, real=bool(np.all(a.imag == 0.0)))

    def diag(self) -> np.ndarray:
        return np.diagonal(self.data).copy()

    def norm(self) -> float:
        return float(np.linalg.norm(self.data))

    def is_hermitian(self, tol=EPS_MAT) -> bool:
        scale = max(self.norm(), 1.0)
        return float(np.linalg.norm(self.data - self.data.conj().T)) <= tol * scale

    def is_normal(self, tol=EPS_MAT) -> bool:
        a = self.data
        scale = max(self.norm() ** 2, 1.0)
        return float(np.linalg.norm(a @ a.conj().T - a.conj().T @ a)) <= tol * scale

    def is_projection(self, tol=EPS_MAT) -> bool:
        a = self.data
        return self.is_hermitian(tol) and float(np.linalg.norm(a @ a - a)) <= tol * max(self.norm(), 1.0)


# ---------------------------------------------------------------------------
# Jacobi eigensolver


def _offdiag_norm(a) -> float:
    mask = ~np.eye(a.shape[0], dtype=bool)
    return float(np.linalg.norm(a[mask]))


def _jacobi_rotate(a, v, p, q):
    apq = a[p, q]
    if apq == 0:
        return
    w = abs(apq)
    phase = apq / w
    beta = (a[q, q].real - a[p, p].real) / (2.0 * w)
    # smaller-magnitude root of t^2 - 2*beta*t - 1 = 0
    t = -math.copysign(1.0, beta) / (abs(beta) + math.hypot(beta, 1.0)) if beta != 0 else 1.0
    c = 1.0 / math.hypot(t, 1.0)
    sigma = t * c
    s = sigma * phase.conjugate()
    # G = [[c, -conj(s)], [s, c]] acting on columns (p, q)
    col_p = a[:, p].copy()
    col_q = a[:, q].copy()
    a[:, p] = c * col_p + s * col_q
    a[:, q] = -np.conj(s) * col_p + c * col_q
    row_p = a[p, :].copy()
    row_q = a[q, :].copy()
    a[p, :] = c * row_p + np.conj(s) * row_q
    a[q, :] = -s * row_p + c * row_q
    a[p, q] = 0.0
    a[q, p] = 0.0
    vp = v[:, p].copy()
    vq = v[:, q].copy()
    v[:, p] = c * vp + s * vq
    v[:, q] = -np.conj(s) * vp + c * vq


def hermitian_eigensystem(m: DenseMatrix, tol=1e-13):
    """Eigenvalues (descending) and matching orthonormal columns.

    Cyclic-by-row Jacobi with a threshold: rotations smaller than the sweep
    threshold are skipped until the off-diagonal mass is negligible.
    """
    if not m.is_hermitian():
        raise PreconditionError("matrix is not hermitian at tolerance")
    n = m.n
    a = ((m.data + m.data.conj().T) / 2.0).astype(complex)
    v = np.eye(n, dtype=complex)
    scale = max(float(np.linalg.norm(a)), 1e-300)
    for _ in range(JACOBI_SWEEP_CAP):
        off = _offdiag_norm(a)
        if off <= tol * scale:
            break
        skip = 1e-300 * scale
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) > skip:
                    _jacobi_rotate(a, v, p, q)
    else:
        off = _offdiag_norm(a)
        if off > 1e-8 * scale:
            raise ConvergenceError("Jacobi sweep cap reached before convergence")
    vals = np.real(np.diag(a))
    order = np.argsort(-vals, kind="stable")
    return vals[order], v[:, order]


def hermitian_eigenvalues(m: DenseMatrix):
    vals, _ = hermitian_eigensystem(m)
    return vals


def singular_values(m: DenseMatrix):
    """Square roots of the Gram matrix spectrum, descending."""
    gram = DenseMatrix(m.data.conj().T @ m.data)
    vals = hermitian_eigenvalues(gram)
    return np.sqrt(np.clip(vals, 0.0, None))


# ---------------------------------------------------------------------------
# numerical range


def numerical_range_support(m: DenseMatrix, theta: float):
    """Largest eigenvalue and eigenvector of Re(e^{i theta} M)."""
    rotated = cmath.exp(1j * theta) * m.data
    h = DenseMatrix((rotated + rotated.conj().T) / 2.0)
    vals, vecs = hermitian_eigensystem(h)
    return float(vals[0]), vecs[:, 0]


def numerical_range_hull(m: DenseMatrix, grid: int):
    """Boundary sample of W(M): points <Mx,x> for ``grid`` support directions."""
    if grid <= 0:
        raise PreconditionError("grid must be a positive integer")
    if m.n == 0:
        raise PreconditionError("matrix must have at least one row")
    pts = []
    for k in range(grid):
        _, x = numerical_range_support(m, 2.0 * math.pi * k / grid)
        pts.append(_rayleigh(m.data, x))
    return pts


def _rayleigh(m: np.ndarray, x: np.ndarray) -> complex:
    return complex(np.vdot(x, m @ x))


def _schur_2x2(b00, b01, b10, b11):
    """Unitary q with q* b q upper triangular, for b = [[b00, b01], [b10, b11]];
    returns (q, t) as rows of Python complex scalars."""
    tr = b00 + b11
    det = b00 * b11 - b01 * b10
    disc = cmath.sqrt(tr * tr / 4.0 - det)
    lam = tr / 2.0 + disc
    # eigenvector for lam: both candidates solve (b - lam) v = 0 exactly, so
    # take the longer one; the shorter may be all cancellation error
    v0, v1 = max(((b01, lam - b00), (lam - b11, b10)), key=lambda v: abs(v[0]) ** 2 + abs(v[1]) ** 2)
    nrm = math.hypot(abs(v0), abs(v1))
    if nrm < 1e-300:
        v0, v1, nrm = 1.0, 0.0, 1.0
    v0, v1 = complex(v0 / nrm), complex(v1 / nrm)
    w0, w1 = -v1.conjugate(), v0.conjugate()
    # t = q* b q for q = [[v0, w0], [v1, w1]]: b times each column, then each row of q*
    bq = ((b00 * v0 + b01 * v1, b10 * v0 + b11 * v1), (b00 * w0 + b01 * w1, b10 * w0 + b11 * w1))
    t = [[x0.conjugate() * y0 + x1.conjugate() * y1 for y0, y1 in bq] for x0, x1 in ((v0, v1), (w0, w1))]
    return ((v0, w0), (v1, w1)), t


def _attain_2x2(b00, b01, b10, b11, z: complex, tol: float):
    """Unit (y0, y1) with <B y, y> = z for B = [[b00, b01], [b10, b11]], via the Schur-form quadratic."""
    scale = max(math.hypot(abs(b00), abs(b01), abs(b10), abs(b11)), abs(z), 1.0)
    ((q00, q01), (q10, q11)), ((t00, off), (_, t11)) = _schur_2x2(b00, b01, b10, b11)
    mid = (t00 + t11) / 2.0
    dd = (t00 - t11) / 2.0
    w = z - mid
    aa = abs(dd) ** 2 + abs(off) ** 2 / 4.0
    if aa <= (1e-16 * scale) ** 2:
        if abs(w) > tol * scale:
            raise PreconditionError("target outside the numerical range of the block")
        return q00, q10
    bb = (w * dd.conjugate()).real
    # bb^2 - aa*(|w|^2 - |off|^2/4), rearranged so thin blocks lose no digits
    disc = abs(off) ** 2 / 4.0 * (aa - abs(w) ** 2) - (w * dd.conjugate()).imag ** 2
    if disc < 0:
        if disc < -1e-12 * scale ** 2 * max(aa, 1.0):
            raise PreconditionError("target outside the numerical range of the block")
        disc = 0.0
    best = None
    for root in ((bb + math.sqrt(disc)) / aa, (bb - math.sqrt(disc)) / aa):
        u = min(1.0, max(-1.0, root))
        c = math.sqrt((1.0 + u) / 2.0)
        s = math.sqrt((1.0 - u) / 2.0)
        cross = w - u * dd
        if disc > 0 and abs(dd) <= abs(off):
            # 1 -+ u cancels near u = +-1: inside W(b), unless b is nearly
            # normal, the smaller of c and s follows from c s |off| = |cross|
            c, s = (c, abs(cross) / (c * abs(off))) if u > 0 else (abs(cross) / (s * abs(off)), s)
        if c * s * abs(off) > 1e-300:
            phase = cross / (c * s * off)
            mag = abs(phase)
            phase = phase / mag if mag > 0 else 1.0
        else:
            phase = 1.0
        y0, y1 = q00 * c + q01 * (s * phase), q10 * c + q11 * (s * phase)
        res = abs(y0.conjugate() * (b00 * y0 + b01 * y1) + y1.conjugate() * (b10 * y0 + b11 * y1) - z)
        if best is None or res < best[0]:
            best = (res, (y0, y1))
    res, y = best
    if res > tol * scale:
        raise ConvergenceError(f"2x2 attainment residual {res:.2e} above tolerance")
    return y


def _interp_on_span(m: np.ndarray, u: np.ndarray, v: np.ndarray, z: complex, tol: float):
    """Unit x in span{u, v} with <Mx, x> = z (u, v need not be orthogonal)."""
    w = v - u * np.vdot(u, v)
    nrm = np.linalg.norm(w)
    if nrm < 1e-10:
        raise ConvergenceError("degenerate interpolation pair")
    w = w / nrm
    y0, y1 = _attain_2x2(_rayleigh(m, u), complex(np.vdot(u, m @ w)),
                         complex(np.vdot(w, m @ u)), _rayleigh(m, w), z, tol)
    return y0 * u + y1 * w


def _chord_foot(p, q):
    """Point of the segment [p, q] nearest to 0 and, if inside the segment,
    the chord's normal towards 0 (the foot itself loses the digits of that
    direction when the chord is far longer than its distance to 0)."""
    d = q - p
    dd = abs(d) ** 2
    tau = -(p * d.conjugate()).real / dd if dd else 0.0
    if tau <= 0.0:
        return p, None
    if tau >= 1.0:
        return q, None
    normal = -1j * d
    return p + tau * d, (normal if (normal.conjugate() * p).real < 0 else -normal)


def _ray_crossing(p, q, e):
    """Point where the chord [p, q] meets the open ray from 0 along e, or None."""
    op, oq = (p * e.conjugate()).imag, (q * e.conjugate()).imag
    if op * oq > 0.0 or op == oq:
        return None
    c = p + op / (op - oq) * (q - p)
    return c if (c * e.conjugate()).real > 0.0 else None


def _chord_vector(a, end0, end1, t, tol, snap):
    """Unit x with <Ax, x> = t, for t on the chord between two (point, vector)
    ends; an end within ``snap`` of t is returned as it is."""
    (p, x), (q, y) = end0, end1
    if min(abs(t - p), abs(t - q)) <= snap:
        return x if abs(t - p) <= abs(t - q) else y
    return _interp_on_span(a, x, y, t, tol)


def attain_numerical_range_vector(m: DenseMatrix, z, tol=ATTAIN_TOL_DEFAULT):
    """Unit x with <Mx, x> = z up to ``tol`` * max(|M|_F, 1).

    Adaptive support directions (R. Carden, Inverse Problems 25 (2009)
    115019).  With A = M - z, the top eigenvector of Re(e^{-i phi} A) gives
    the boundary point of W(A) facing direction phi.  From the four axis
    directions on, a chord that 0 lies outside is split at its normal (at a
    corner, the facing angle interval is bisected) until the boundary points
    surround 0 or a chord passes within tolerance of it.  Two-dimensional
    compressions then give the vector: one on the chord by which the line
    from the farthest point through 0 leaves, one on that line.  A z just
    outside W(M) is still unresolved after ``SUPPORT_DIRECTION_CAP``
    directions; it gets the vector of the nearest chord or boundary point
    when that lies within tol * scale.  The only rejection is a direction
    whose top eigenvalue is below -tol * scale, which certifies that z lies
    outside W(M).
    """
    z = complex(z)
    scale = max(m.norm(), 1.0)
    a = m.data - z * np.eye(m.n)
    shifted = DenseMatrix(a)
    snap = 0.25 * tol * scale
    sides = []  # (phi, <Ax, x>, x), sorted by phi in [0, 2 pi)

    def support(phi):
        top, x = numerical_range_support(shifted, -phi)
        if top < -tol * scale:
            raise PreconditionError(f"target outside the numerical range: top eigenvalue "
                                    f"{top:.3e} in direction {phi:.6f} is below -tol*scale")
        bisect.insort(sides, (phi, _rayleigh(a, x), x), key=lambda s: s[0])

    for k in range(4):
        support(k * math.pi / 2.0)
    while True:
        chords = list(zip(sides, sides[1:] + sides[:1]))
        _, pf, xf = max(sides, key=lambda s: abs(s[1]))
        e = -pf / abs(pf) if pf else 1.0
        exits = [(c, s0, s1) for s0, s1 in chords
                 if (c := _ray_crossing(s0[1], s1[1], e)) is not None]
        if exits:  # the boundary points surround 0
            c, s0, s1 = max(exits, key=lambda ex: abs(ex[0]))
            y = _chord_vector(a, s0[1:], s1[1:], c, tol, snap)
            x = _chord_vector(a, (pf, xf), (_rayleigh(a, y), y), 0.0, tol, snap)
            break
        (t, toward), s0, s1 = min(((_chord_foot(s0[1], s1[1]), s0, s1) for s0, s1 in chords),
                                  key=lambda f: abs(f[0][0]))
        capped = len(sides) >= SUPPORT_DIRECTION_CAP
        # 0 lies on a chord, or out of reach but within tolerance of one
        if abs(t) <= 2.0 * snap or capped and abs(t) <= tol * scale:
            x = _chord_vector(a, s0[1:], s1[1:], t, tol, snap)
            break
        if capped:
            raise ConvergenceError(f"no attainment or rejection in {len(sides)} support directions")
        phi = cmath.phase(-t if toward is None else toward) % (2.0 * math.pi)
        if toward is None:  # nearest at a boundary point: bisect the angles facing 0
            i = bisect.bisect(sides, phi, key=lambda s: s[0]) - 1
            hi = sides[i + 1][0] if i + 1 < len(sides) else 2.0 * math.pi
            phi = (sides[i][0] + hi) / 2.0
        support(phi)
    x = x / np.linalg.norm(x)
    res = abs(_rayleigh(m.data, x) - z)
    if res > tol * scale:
        raise ConvergenceError(f"attainment residual {res:.2e} above tolerance")
    return x


# ---------------------------------------------------------------------------
# Haar sampling


def haar_unitaries(n: int, rng, count: int) -> np.ndarray:
    """Stack of ``count`` Haar-distributed unitaries from the generator ``rng``.

    All ``count`` complex Ginibre samples are drawn as one stack, real parts
    first, and orthonormalized by one stacked QR whose R diagonal is made
    positive (Mezzadri, Notices AMS 54, 2007).
    """
    z = (rng.standard_normal((count, n, n))
         + 1j * rng.standard_normal((count, n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


def haar_unitary(n: int, seed) -> DenseMatrix:
    """Haar-distributed unitary from QR of a complex Ginibre sample."""
    return DenseMatrix(haar_unitaries(n, np.random.default_rng(seed), 1)[0], real=False)


# ---------------------------------------------------------------------------
# essential codimension (finite analogues)


def essential_codimension_finite(p, q) -> int:
    """trace P - trace Q for two finite projections (DenseMatrix)."""
    if not p.is_projection() or not q.is_projection():
        raise PreconditionError("inputs must be projections at tolerance")
    tp = float(np.trace(p.data).real)
    tq = float(np.trace(q.data).real)
    for t in (tp, tq):
        if abs(t - round(t)) > 0.1:
            raise PreconditionError("projection trace too far from an integer")
    return int(round(tp - tq))


@dataclass(frozen=True)
class IdentityReport:
    lhs: object
    rhs: object
    residual: float
    ok: bool
    detail: dict = field(default_factory=dict)

    def as_json(self):
        return encode(vars(self))


def verify_kadison_codimension_identity(p) -> IdentityReport:
    """Finite check that a - b equals trace P - trace Q."""
    if not p.is_projection():
        raise PreconditionError("input must be a projection at tolerance")
    d = np.real(p.diag())
    a = float(np.sum(d[d < 0.5]))
    b = float(np.sum(1.0 - d[d >= 0.5]))
    tq = int(np.sum(d >= 0.5))
    tp = float(np.trace(p.data).real)
    lhs = a - b
    rhs = tp - tq
    res = abs(lhs - rhs)
    return IdentityReport(lhs, rhs, res, res <= p.n * EPS_MAT,
                          {"a": a, "b": b, "trace_P": tp, "trace_Q": tq})


def verify_normal_codimension_identity(n, n_prime, cluster_tol=1e-8) -> IdentityReport:
    """Finite check of the spectral-projection trace identity."""
    if n.n != n_prime.n:
        raise PreconditionError("size mismatch")
    offdiag = n_prime.data - np.diag(np.diagonal(n_prime.data))
    if np.linalg.norm(offdiag) > EPS_MAT * max(1.0, n_prime.norm()):
        raise PreconditionError("second argument must be diagonal")
    if not n.is_normal():
        raise PreconditionError("matrix is not normal at tolerance")
    # the eigenvalues of a normal matrix are perfectly conditioned; clusters
    # are listed by descending real part, then imaginary part
    vals = np.sort_complex(np.linalg.eigvals(n.data))[::-1]
    scale = max(n.norm(), 1.0)
    centers = []
    counts = []
    used = np.zeros(n.n, dtype=bool)
    for i in range(n.n):
        if used[i]:
            continue
        mask = np.abs(vals - vals[i]) <= cluster_tol * scale
        fresh = mask & ~used
        centers.append(np.mean(vals[fresh]))
        counts.append(int(np.sum(fresh)))
        used |= mask
    dprime = np.diagonal(n_prime.data)
    q_counts = [0] * len(centers)
    for e in dprime:
        hits = [j for j, c in enumerate(centers) if abs(e - c) <= 10 * cluster_tol * scale]
        if len(hits) != 1:
            raise PreconditionError("diagonal entry does not match a unique eigenvalue cluster")
        q_counts[hits[0]] += 1
    lhs = complex(np.trace(n.data) - np.trace(n_prime.data))
    rhs = sum((counts[j] - q_counts[j]) * centers[j] for j in range(len(centers)))
    res = abs(lhs - rhs)
    ok = bool(res <= max(1e-8 * scale, 1e-12))
    return IdentityReport(lhs, rhs, res, ok,
                          {"clusters": centers,
                           "P_ranks": counts, "Q_ranks": q_counts})
