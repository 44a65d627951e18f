"""Dense-matrix kernels and spectral models of operators.

The Hermitian eigensolver is a cyclic-by-row Jacobi iteration and the SVD is
obtained from the Gram matrix; both are self-contained so every constructor
in this package can be verified without trusting an external eigensolver.
Matrices here are small (n <= 64), where Jacobi is simple, provably
convergent and accurate.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .scalars import (
    EPS_MAT,
    ConvergenceError,
    PreconditionError,
    UnsupportedError,
)
from . import seqspec
from .seqspec import (
    ConstantRepeat,
    SequenceSpec,
    canonical_streams,
    count_value,
    spec_bounds,
    stream_is_infinite,
    stream_limit,
)
from .scalars import INF

JACOBI_SWEEP_CAP = 30
THETA_GRID_DEFAULT = 720
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


def svd_via_gram(m: DenseMatrix, rank_tol=1e-12):
    """(U, s, V) with M = U diag(s) V*; all factors from the Gram route."""
    n = m.n
    vals, v = hermitian_eigensystem(DenseMatrix(m.data.conj().T @ m.data))
    s = np.sqrt(np.clip(vals, 0.0, None))
    scale = max(s[0] if n else 0.0, 1.0)
    u = np.zeros((n, n), dtype=complex)
    cols = []
    for i in range(n):
        if s[i] > rank_tol * scale:
            u[:, i] = (m.data @ v[:, i]) / s[i]
            cols.append(i)
    # complete the range basis for the (near) null directions
    for i in range(n):
        if i in cols:
            continue
        w = np.zeros(n, dtype=complex)
        for basis in list(np.eye(n, dtype=complex)):
            cand = basis.copy()
            for j in range(n):
                if np.any(u[:, j]):
                    cand = cand - u[:, j] * np.vdot(u[:, j], cand)
            nrm = np.linalg.norm(cand)
            if nrm > 1e-8:
                w = cand / nrm
                break
        u[:, i] = w
    return u, s, v


# ---------------------------------------------------------------------------
# numerical range


def numerical_range_support(m: DenseMatrix, theta: float):
    """Largest eigenvalue and eigenvector of Re(e^{i theta} M)."""
    rotated = cmath.exp(1j * theta) * m.data
    h = DenseMatrix((rotated + rotated.conj().T) / 2.0)
    vals, vecs = hermitian_eigensystem(h)
    return float(vals[0]), vecs[:, 0]


def numerical_range_hull(m: DenseMatrix, grid=THETA_GRID_DEFAULT):
    """Boundary sample of W(M): points <Mx,x> for support directions."""
    pts = []
    vecs = []
    for k in range(grid):
        theta = 2.0 * math.pi * k / grid
        _, x = numerical_range_support(m, theta)
        pts.append(complex(np.vdot(x, m.data @ x)))
        vecs.append(x)
    return pts, vecs


def _rayleigh(m: np.ndarray, x: np.ndarray) -> complex:
    return complex(np.vdot(x, m @ x))


def _schur_2x2(b: np.ndarray):
    """Unitary q with q* b q upper triangular; returns (q, t)."""
    tr = b[0, 0] + b[1, 1]
    det = b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0]
    disc = cmath.sqrt(tr * tr / 4.0 - det)
    lam = tr / 2.0 + disc
    # eigenvector for lam: both candidates solve (b - lam) v = 0 exactly, so
    # take the longer one; the shorter may be all cancellation error
    cands = (np.array([b[0, 1], lam - b[0, 0]], dtype=complex),
             np.array([lam - b[1, 1], b[1, 0]], dtype=complex))
    vec = max(cands, key=np.linalg.norm)
    nrm = np.linalg.norm(vec)
    if nrm < 1e-300:
        vec = np.array([1.0, 0.0], dtype=complex)
        nrm = 1.0
    v = vec / nrm
    q = np.array([[v[0], -np.conj(v[1])], [v[1], np.conj(v[0])]], dtype=complex)
    t = q.conj().T @ b @ q
    return q, t


def _attain_2x2(b: np.ndarray, z: complex, tol: float):
    """Unit y in C^2 with <B y, y> = z, via the Schur-form quadratic."""
    scale = max(float(np.linalg.norm(b)), abs(z), 1.0)
    q, t = _schur_2x2(b)
    mid = (t[0, 0] + t[1, 1]) / 2.0
    dd = (t[0, 0] - t[1, 1]) / 2.0
    off = t[0, 1]
    w = z - mid
    aa = abs(dd) ** 2 + abs(off) ** 2 / 4.0
    if aa <= (1e-16 * scale) ** 2:
        if abs(w) > tol * scale:
            raise PreconditionError("target outside the numerical range of the block")
        y = np.array([1.0, 0.0], dtype=complex)
        return q @ y
    bb = (w * np.conj(dd)).real
    cc = abs(w) ** 2 - abs(off) ** 2 / 4.0
    disc = bb * bb - aa * cc
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
        if c * s * abs(off) > 1e-300:
            phase = cross / (c * s * off)
            mag = abs(phase)
            phase = phase / mag if mag > 0 else 1.0
        else:
            phase = 1.0
        y = q @ np.array([c, s * phase], dtype=complex)
        res = abs(_rayleigh(b, y) - z)
        if best is None or res < best[0]:
            best = (res, y)
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
    b = np.array([[_rayleigh(m, u), np.vdot(u, m @ w)],
                  [np.vdot(w, m @ u), _rayleigh(m, w)]], dtype=complex)
    y = _attain_2x2(b, z, tol)
    return y[0] * u + y[1] * w


def _segment_distance(z, a, b):
    ab = b - a
    denom = abs(ab) ** 2
    if denom < 1e-300:
        return abs(z - a)
    t = ((z - a) * np.conj(ab)).real / denom
    t = min(1.0, max(0.0, t))
    return abs(z - (a + t * ab))


def _polygon_contains(pts, z, margin):
    """Distance-based membership of z in the convex hull of pts."""
    hull = _convex_hull([ (p.real, p.imag) for p in pts ])
    if len(hull) == 1:
        return abs(complex(*hull[0]) - z) <= margin
    if len(hull) == 2:
        return _segment_distance(z, complex(*hull[0]), complex(*hull[1])) <= margin
    # edges between near-duplicate sweep points have a direction that is
    # rounding noise; the neighbouring edges bound z on their own
    min_edge = 1e-12 * max(1.0, max(math.hypot(x, y) for x, y in hull))
    inside = True
    for i in range(len(hull)):
        x1, y1 = hull[i]
        x2, y2 = hull[(i + 1) % len(hull)]
        cross = (x2 - x1) * (z.imag - y1) - (y2 - y1) * (z.real - x1)
        edge = math.hypot(x2 - x1, y2 - y1)
        if edge < min_edge:
            continue
        if cross / edge < -margin:
            inside = False
            break
    return inside


def _convex_hull(points):
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    def half(iterable):
        out = []
        for p in iterable:
            while len(out) >= 2 and ((out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                                     - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])) <= 0:
                out.pop()
            out.append(p)
        return out
    lower = half(pts)
    upper = half(reversed(pts))
    return lower[:-1] + upper[:-1]


def attain_numerical_range_vector(m: DenseMatrix, z, tol=ATTAIN_TOL_DEFAULT,
                                  grid=THETA_GRID_DEFAULT):
    """Unit x with <Mx, x> = z up to ``tol``.

    Locates support vectors whose range points straddle z along a line,
    interpolates each boundary crossing inside a two-dimensional
    compression, then combines the two crossing vectors.  Rejects z outside
    the polygon hull of the support sweep.
    """
    z = complex(z)
    a = m.data
    scale = max(float(np.linalg.norm(a)), 1.0)
    diag = np.diagonal(a)
    for i, dv in enumerate(diag):
        if abs(dv - z) <= 0.1 * tol * scale:
            e = np.zeros(m.n, dtype=complex)
            e[i] = 1.0
            return e
    pts, vecs = numerical_range_hull(m, grid)
    for p, x in zip(pts, vecs):
        if abs(p - z) <= 0.1 * tol * scale:
            return x
    if not _polygon_contains(pts, z, max(tol * scale, 1e-12 * scale)):
        raise PreconditionError("target outside the numerical range hull")
    k = len(pts)
    # z on (or near) a chord between adjacent sweep points: one interpolation
    for i in range(k):
        j = (i + 1) % k
        if _segment_distance(z, pts[i], pts[j]) <= 1e-9 * scale:
            try:
                x = _interp_on_span(a, vecs[i], vecs[j], z, tol)
            except (ConvergenceError, PreconditionError):
                continue
            if abs(_rayleigh(a, x) - z) <= tol * scale:
                return x / np.linalg.norm(x)
    for attempt in range(8):
        psi = math.pi * (attempt + 0.37) / 8.0
        direction = cmath.exp(1j * psi)
        # signed coordinate of each sweep point transverse to the line
        offs = [((p - z) * cmath.exp(-1j * psi)).imag for p in pts]
        crossings = []
        for i in range(k):
            j = (i + 1) % k
            oi, oj = offs[i], offs[j]
            if oi == 0.0 and oj == 0.0:
                continue
            if (oi <= 0.0 <= oj) or (oj <= 0.0 <= oi):
                t = abs(oi) / (abs(oi) + abs(oj)) if (abs(oi) + abs(oj)) > 0 else 0.0
                target = pts[i] + t * (pts[j] - pts[i])
                crossings.append((i, j, target))
        sides = {}
        for i, j, target in crossings:
            side = ((target - z) * cmath.exp(-1j * psi)).real
            key = side >= 0
            if key not in sides or abs(side) > abs(sides[key][3]):
                sides[key] = (i, j, target, side)
        if len(sides) < 2:
            continue
        try:
            ys = []
            for i, j, target, _ in sides.values():
                if abs(pts[i] - target) <= 1e-14 * scale:
                    ys.append(vecs[i])
                else:
                    ys.append(_interp_on_span(a, vecs[i], vecs[j], target, tol))
            x = _interp_on_span(a, ys[0], ys[1], z, tol)
        except (ConvergenceError, PreconditionError):
            continue
        if abs(_rayleigh(a, x) - z) <= tol * scale:
            return x / np.linalg.norm(x)
    raise ConvergenceError("attainment failed after direction retries")


# ---------------------------------------------------------------------------
# Haar sampling


def haar_unitaries(n: int, seeds) -> np.ndarray:
    """Stack of Haar-distributed unitaries, one per seed, from one stacked QR
    of complex Ginibre samples; each sample is drawn from its own seed."""
    z = np.empty((len(seeds), n, n), dtype=complex)
    for k, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        z[k] = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


def haar_unitary(n: int, seed) -> DenseMatrix:
    """Haar-distributed unitary from QR of a complex Ginibre sample."""
    return DenseMatrix(haar_unitaries(n, [seed])[0], real=False)


# ---------------------------------------------------------------------------
# operator specs and essential spectral data


@dataclass(frozen=True)
class MatrixSpec:
    matrix: DenseMatrix


@dataclass(frozen=True)
class FiniteSpectrumSpec:
    points: tuple  # ((eigenvalue, multiplicity-or-INF), ...)

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        vals = [p for p, _ in self.points]
        if len(set(map(repr, vals))) != len(vals):
            raise PreconditionError("FiniteSpectrum points must be distinct")
        for _, mult in self.points:
            if mult != INF and (int(mult) != mult or mult < 1):
                raise PreconditionError("multiplicities are positive integers or inf")


@dataclass(frozen=True)
class DiagonalizableSpec:
    eigs: SequenceSpec
    kernel_dim: object = 0  # count or INF

    def __post_init__(self):
        if self.kernel_dim != INF and (int(self.kernel_dim) != self.kernel_dim
                                       or self.kernel_dim < 0):
            raise PreconditionError("kernel_dim is a nonnegative integer or inf")


class FiniteDimensionalError(UnsupportedError):
    """Raised when an essential-spectrum question is asked of a matrix."""


@dataclass(frozen=True)
class SpectralSummary:
    spectrum_min: object
    spectrum_max: object
    min_attained: bool
    max_attained: bool
    ess_points: tuple          # sorted distinct essential-spectrum values
    w_e: tuple                 # (lo, hi) interval for real specs
    endpoint_mult: dict        # eigenspace dimension at each of lo, hi


def eigen_multiset(spec) -> SequenceSpec:
    """All eigenvalues of a spectral model as one sequence spec."""
    if isinstance(spec, DiagonalizableSpec):
        streams = list(spec.eigs.streams)
        if spec.kernel_dim == INF:
            streams.append(ConstantRepeat(_zero_of(spec.eigs), INF))
        elif spec.kernel_dim:
            streams.append(ConstantRepeat(_zero_of(spec.eigs), int(spec.kernel_dim)))
        return SequenceSpec(tuple(streams), spec.eigs.field, spec.eigs.exact)
    if isinstance(spec, FiniteSpectrumSpec):
        from fractions import Fraction
        streams = []
        exact = all(not isinstance(p, float) and not isinstance(p, complex)
                    for p, _ in spec.points)
        field = "real" if all(_is_real(p) for p, _ in spec.points) else "complex"
        for p, mult in spec.points:
            streams.append(ConstantRepeat(p, mult if mult == INF else int(mult)))
        return SequenceSpec(tuple(streams), field, exact)
    raise PreconditionError("matrix spec has no eigenvalue multiset here")


def _zero_of(s: SequenceSpec):
    from fractions import Fraction
    return Fraction(0) if s.exact else 0.0


def _is_real(p):
    from .scalars import is_real_scalar
    return is_real_scalar(p)


def essential_points(spec):
    """Essential spectrum: infinite-multiplicity values plus tail limits."""
    if isinstance(spec, MatrixSpec):
        raise FiniteDimensionalError("finite-dimensional: essential spectrum empty")
    ms = eigen_multiset(spec)
    pts = []
    for s in canonical_streams(ms):
        if stream_is_infinite(s):
            lim = stream_limit(s)
            if lim not in pts:
                pts.append(lim)
    return pts


def essential_summary(spec) -> SpectralSummary:
    if isinstance(spec, MatrixSpec):
        raise FiniteDimensionalError("finite-dimensional: essential spectrum empty")
    ms = eigen_multiset(spec)
    if ms.field != "real":
        raise PreconditionError("essential_summary handles selfadjoint (real) specs")
    pts = sorted(essential_points(spec))
    if not pts:
        raise PreconditionError("essential spectrum is empty (not a bounded diagonalizable model)")
    b = spec_bounds(ms)
    lo, lo_att, hi, hi_att = b
    w_lo, w_hi = pts[0], pts[-1]
    endpoint_mult = {}
    for val in (w_lo, w_hi):
        endpoint_mult[val] = count_value(ms, val)
    return SpectralSummary(lo, hi, lo_att, hi_att, tuple(pts), (w_lo, w_hi), endpoint_mult)


def operator_affine_image(spec, a, b):
    """Spectral model of a*T + b."""
    if isinstance(spec, FiniteSpectrumSpec):
        return FiniteSpectrumSpec(tuple((a * p + b, m) for p, m in spec.points))
    if isinstance(spec, DiagonalizableSpec):
        eigs = seqspec.affine_image(eigen_multiset(spec), a, b)
        return DiagonalizableSpec(eigs, 0)
    raise PreconditionError("unsupported spec for affine image")
