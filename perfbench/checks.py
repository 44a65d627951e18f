"""Independent answer checks.

Nothing here calls diagonalis: realizations are re-verified with
``numpy.linalg`` (LAPACK, not the library's Jacobi solver) against the
acceptance-criterion bounds, and verdicts are compared with answers known by
construction of the instance.  Each check returns a ``Result``: ``ok``,
``unknown`` (the library declined a question whose answer is known) or
``wrong`` (the answer contradicts ground truth).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

YES = frozenset({"Yes", "YesModuloKernel", "SufficientConditionHolds", "Holds"})
NO = frozenset({"No", "NecessaryConditionFails", "Fails"})
UNDECIDED = frozenset({"Unknown", "ConditionFails"})

# Acceptance-criterion bounds, relative to max(1, operator scale).
SPECTRAL_TOL = 1e-8    # criterion 1: eigenvalues of Schur-Horn realizations
DIAG_TOL_SH = 1e-10    # criterion 1: diagonal of Schur-Horn realizations
SINGULAR_TOL = 1e-9    # criterion 8: singular values and diagonal (Thompson)
UNITARY_TOL = 1e-9     # criterion 7: unitarity and diagonal
BASIS_UNITARY_TOL = 1e-10  # criterion 9: basis unitarity
ZERO_DIAG_TOL = 1e-9   # criterion 9: diagonal in the new basis
ATTAIN_TOL = 1e-9      # attain_numerical_range_vector default tolerance


@dataclass
class Result:
    status: str                  # 'ok' | 'unknown' | 'wrong'
    detail: str = ""
    extras: dict = field(default_factory=dict)


def ok(**extras):
    return Result("ok", extras=extras)


def unknown(detail, **extras):
    return Result("unknown", detail, extras)


def wrong(detail, **extras):
    return Result("wrong", detail, extras)


def verdict(truth, got):
    """Compare a verdict string with the known answer ('yes' or 'no')."""
    if got in UNDECIDED:
        return unknown(f"{got} where the answer is {truth}")
    if got in YES:
        side = "yes"
    elif got in NO:
        side = "no"
    else:
        return wrong(f"unrecognised verdict {got!r}")
    if side != truth:
        return wrong(f"answered {got} where the answer is {truth}")
    return ok()


def _scale(*values):
    return max(1.0, *(float(np.max(np.abs(np.asarray(v)))) for v in values if np.size(v)))


def hermitian_realization(a, lam, d):
    """A is Hermitian with spectrum lam and diagonal d (criterion 1 bounds).

    Returns the check and the worst residual over its bound.
    """
    a = np.asarray(a, dtype=complex)
    scale = _scale(lam)
    herm = float(np.max(np.abs(a - a.conj().T)))
    eig = np.sort(np.linalg.eigvalsh((a + a.conj().T) / 2))[::-1]
    spec = float(np.max(np.abs(eig - np.sort(np.asarray(lam, dtype=float))[::-1])))
    diag = float(np.max(np.abs(np.diagonal(a) - np.asarray(d, dtype=float))))
    rel = max(spec / (SPECTRAL_TOL * scale), diag / (DIAG_TOL_SH * scale),
              herm / (SPECTRAL_TOL * scale))
    if rel > 1.0:
        return wrong(f"realization off: spectral {spec:.2e}, diagonal {diag:.2e}, "
                     f"hermitian {herm:.2e}", residual_rel=rel)
    return ok(residual_rel=rel)


def singular_realization(m, s, d):
    """M has singular values s and diagonal d (criterion 8 bounds)."""
    m = np.asarray(m, dtype=complex)
    scale = _scale(s)
    sv = np.linalg.svd(m, compute_uv=False)
    sres = float(np.max(np.abs(sv - np.sort(np.asarray(s, dtype=float))[::-1])))
    dres = float(np.max(np.abs(np.diagonal(m) - np.asarray(d, dtype=complex))))
    rel = max(sres, dres) / (SINGULAR_TOL * scale)
    if rel > 1.0:
        return wrong(f"realization off: singular {sres:.2e}, diagonal {dres:.2e}",
                     residual_rel=rel)
    return ok(residual_rel=rel)


def unitary_with_diagonal(u, d):
    """U is unitary with diagonal d (criterion 7 bounds)."""
    u = np.asarray(u, dtype=complex)
    unit = float(np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0])))
    dres = float(np.max(np.abs(np.diagonal(u) - np.asarray(d, dtype=complex))))
    rel = max(unit, dres) / UNITARY_TOL
    if rel > 1.0:
        return wrong(f"realization off: unitarity {unit:.2e}, diagonal {dres:.2e}",
                     residual_rel=rel)
    return ok(residual_rel=rel)


def zero_diagonal_basis(t, basis):
    """basis is unitary and basis* T basis has zero diagonal (criterion 9)."""
    t = np.asarray(t, dtype=complex)
    b = np.asarray(basis, dtype=complex)
    scale = max(1.0, float(np.linalg.norm(t)))
    unit = float(np.linalg.norm(b.conj().T @ b - np.eye(b.shape[0])))
    dres = float(np.max(np.abs(np.diagonal(b.conj().T @ t @ b))))
    rel = max(unit / BASIS_UNITARY_TOL, dres / (ZERO_DIAG_TOL * scale))
    if rel > 1.0:
        return wrong(f"basis off: unitarity {unit:.2e}, diagonal {dres:.2e}",
                     residual_rel=rel)
    return ok(residual_rel=rel)


def attained(m, z, x):
    """x is a unit vector with <Mx, x> = z."""
    m = np.asarray(m, dtype=complex)
    x = np.asarray(x, dtype=complex)
    scale = max(1.0, float(np.linalg.norm(m)))
    unit = abs(float(np.vdot(x, x).real) - 1.0)
    res = abs(complex(np.vdot(x, m @ x)) - complex(z))
    rel = max(unit, res / scale) / ATTAIN_TOL
    if rel > 1.0:
        return wrong(f"vector off: norm defect {unit:.2e}, residual {res:.2e}",
                     residual_rel=rel)
    return ok(residual_rel=rel)


def search_witness(t, d, u, tol):
    """u is unitary and diag(u* T u) matches d within the search tolerance."""
    t = np.asarray(t, dtype=complex)
    u = np.asarray(u, dtype=complex)
    scale = max(1.0, float(np.linalg.norm(t)))
    unit = float(np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0])))
    res = float(np.max(np.abs(np.diagonal(u.conj().T @ t @ u) - np.asarray(d, dtype=complex))))
    if unit > 1e-8 or res > tol * scale:
        return wrong(f"witness off: unitarity {unit:.2e}, diagonal {res:.2e}")
    return ok()
