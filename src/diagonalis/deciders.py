"""One decider per characterization theorem, with typed certificates.

Verdict discipline: ``Yes``/``No`` appear only where the underlying theorem
is an equivalence under the input's preconditions.  One-directional results
report ``SufficientConditionHolds`` / ``NecessaryConditionFails`` /
``ConditionFails``; honest ignorance is ``Unknown``.  Trace-class style
results that only identify a diagonal up to extra kernel report
``YesModuloKernel``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from itertools import accumulate
from numbers import Rational

import numpy as np

from .scalars import (
    EPS_MAT,
    INF,
    INTEGRALITY_BUFFER,
    INTEGRALITY_TOL,
    QC,
    Cmp,
    PreconditionError,
    UnsupportedError,
    XSum,
    fraction_str,
    integrality,
    is_exact_scalar,
    is_real_scalar,
    scalar_abs,
)
from . import ratlinalg
from .majorization import (
    approx_p_majorize,
    majorize_finite,
    majorize_l1,
    majorize_spec,
    p_majorize,
    weak_majorize,
)
from .seqspec import (
    ConstantRepeat,
    OrderedSequenceSpec,
    SequenceSpec,
    affine_image,
    canonical_streams,
    count_value,
    interval_blaschke_sum,
    materialize_prefix,
    spec_bounds,
    split_parts,
    split_sums,
    stream_abs_summable,
    stream_entries,
    stream_is_infinite,
    stream_limit,
    stream_tail_deviation,
    stream_total,
    total_sum,
    validate_c0_plus,
    validate_l1,
    zero_count,
    abs_values,
    is_c0,
)
from .spectra import (
    DenseMatrix,
    eigen_multiset,
    essential_points,
    essential_summary,
    hermitian_eigensystem,
)

BJ_SEARCH_CAP = 1_000_000
ARVESON_COEFF_BOUND_DEFAULT = 64


@dataclass(frozen=True)
class Decision:
    verdict: str
    theorem_tag: str
    certificate: dict = dc_field(default_factory=dict)
    mode: str = "exact"

    YES = "Yes"
    YES_MODULO_KERNEL = "YesModuloKernel"
    NO = "No"
    UNKNOWN = "Unknown"
    SUFFICIENT = "SufficientConditionHolds"
    NECESSARY_FAILS = "NecessaryConditionFails"
    CONDITION_FAILS = "ConditionFails"

    def as_json(self):
        return {"verdict": self.verdict, "theorem": self.theorem_tag,
                "certificate": _jsonable(self.certificate), "mode": self.mode}


def _jsonable(x):
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, Fraction):
        return fraction_str(x)
    if isinstance(x, QC):
        return [fraction_str(x.re), fraction_str(x.im)]
    if isinstance(x, complex):
        return [x.real, x.imag]
    if isinstance(x, XSum):
        return x.as_json()
    if x is INF:
        return "inf"
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.floating):
        return float(x)
    return x


def _spec_mode(*specs):
    return "exact" if all(getattr(s, "exact", True) for s in specs) else "float"


def _verdict_from_majorization(v, yes=Decision.YES, no=Decision.NO):
    if v.verdict == "Holds":
        return yes
    if v.verdict == "Fails":
        return no
    return Decision.UNKNOWN


# ---------------------------------------------------------------------------
# Schur-Horn and compact relatives


def _prefix_sums(xs):
    """[x0, x0 + x1, ...] as one running sum started from 0, like ``sum``.

    Starting from the int 0 keeps the values and types of ``sum(xs[:k+1])``:
    a -0.0 head becomes 0.0, and int or Fraction entries stay exact.
    """
    return list(accumulate(xs, initial=0))[1:]


def decide_schur_horn(lam, d) -> Decision:
    """Finite selfadjoint case: d is a diagonal iff it is majorized."""
    v = majorize_finite(d, lam)
    ds = sorted(d, reverse=True)
    ls = sorted(lam, reverse=True)
    cert = {
        "partial_sums_d": _prefix_sums(ds),
        "partial_sums_lambda": _prefix_sums(ls),
    }
    if v.witness is not None:
        cert["witness"] = {"index": v.witness[0], "lhs": v.witness[1], "rhs": v.witness[2]}
    return Decision(_verdict_from_majorization(v), "schur-horn", cert, v.mode)


def decide_gohberg_markus(lam: SequenceSpec, d: SequenceSpec) -> Decision:
    """Trace-class selfadjoint: diagonals modulo the size of the kernel."""
    validate_l1(lam, "lambda")
    mode = _spec_mode(lam, d)
    try:
        validate_l1(d, "d")
    except PreconditionError:
        return Decision(Decision.NO, "gohberg-markus",
                        {"reason": "d is not absolutely summable"}, mode)
    v = majorize_l1(d, lam)
    cert = {"majorization": v.as_json()}
    return Decision(
        _verdict_from_majorization(v, yes=Decision.YES_MODULO_KERNEL),
        "gohberg-markus", cert, v.mode)


def decide_kw(s: SequenceSpec, kernel_dim, d: SequenceSpec) -> Decision:
    """Positive compact operators: kernel-aware majorization characterizations."""
    validate_c0_plus(s, "s(A)")
    validate_c0_plus(d, "d")
    mode = _spec_mode(s, d)
    zd = zero_count(d)
    if kernel_dim == 0:
        if zd != 0:
            return Decision(Decision.NO, "kaftal-weiss",
                            {"reason": "zero entries but trivial kernel",
                             "zero_count": zd}, mode)
        v = majorize_spec(d, s)
        return Decision(_verdict_from_majorization(v), "kaftal-weiss",
                        {"majorization": v.as_json()}, v.mode)
    if kernel_dim == INF:
        if zd == INF:
            v = majorize_spec(d, s)
            return Decision(_verdict_from_majorization(v), "kw-infinite-kernel",
                            {"branch": "infinitely many zeros",
                             "majorization": v.as_json()}, v.mode)
        v = p_majorize(d, s, INF)
        return Decision(_verdict_from_majorization(v), "kw-infinite-kernel",
                        {"branch": "finitely many zeros", "zero_count": zd,
                         "p_majorization": v.as_json()}, v.mode)
    kernel_dim = int(kernel_dim)
    if zd == INF or zd > kernel_dim:
        return Decision(Decision.NECESSARY_FAILS, "kw-finite-kernel",
                        {"reason": "more zero entries than kernel dimensions",
                         "zero_count": zd, "kernel_dim": kernel_dim}, mode)
    p0 = kernel_dim - zd
    suff = p_majorize(d, s, p0)
    if suff.verdict == "Holds":
        return Decision(Decision.SUFFICIENT, "kw-finite-kernel",
                        {"p": p0, "p_majorization": suff.as_json()}, suff.mode)
    nec = approx_p_majorize(d, s, p0)
    if nec.verdict == "Fails":
        return Decision(Decision.NECESSARY_FAILS, "kw-finite-kernel",
                        {"p": p0, "approx_p_majorization": nec.as_json()}, nec.mode)
    return Decision(Decision.UNKNOWN, "kw-finite-kernel",
                    {"p": p0, "reason": "between the sufficient and necessary conditions",
                     "sufficient": suff.as_json(), "necessary": nec.as_json()}, mode)


# ---------------------------------------------------------------------------
# Kadison and Bownik-Jasper


@dataclass(frozen=True)
class KadisonInvariants:
    a: XSum
    b: XSum


def kadison_invariants(d: SequenceSpec) -> KadisonInvariants:
    half = Fraction(1, 2) if d.exact else 0.5
    a, b = split_sums(d, half, ceiling=Fraction(1) if d.exact else 1.0)
    return KadisonInvariants(a, b)


def decide_kadison(d: SequenceSpec) -> Decision:
    """Diagonals of projections: a+b infinite, or a-b an integer."""
    bounds = spec_bounds(d)
    mode = _spec_mode(d)
    if bounds is not None:
        lo, _, hi, _ = bounds
        if lo < 0 or hi > 1:
            raise PreconditionError("entries must lie in [0, 1]")
    inv = kadison_invariants(d)
    cert = {"a": inv.a, "b": inv.b}
    if not inv.a.finite or not inv.b.finite:
        return Decision(Decision.YES, "kadison", {**cert, "branch": "a+b infinite"}, mode)
    diff = inv.a.value - inv.b.value
    cert["a_minus_b"] = diff
    isint, k = integrality(diff, mode == "exact")
    if isint is True:
        return Decision(Decision.YES, "kadison", {**cert, "integer": k}, mode)
    if isint is None:
        return Decision(Decision.UNKNOWN, "kadison",
                        {**cert, "reason": "a-b inside the integrality buffer"}, mode)
    return Decision(Decision.NO, "kadison", cert, mode)


@dataclass(frozen=True)
class BJInvariants:
    ceiling: object
    interior: tuple
    c_half: XSum
    d_half: XSum


def decide_bownik_jasper(points, d: SequenceSpec) -> Decision:
    """Finite-spectrum selfadjoint operators with spectrum {0, interior..., B}.

    ``points`` is the full increasing list 0 = lam_0 < ... < lam_{n+1} = B.
    """
    pts = list(points)
    if len(pts) < 2 or pts[0] != 0:
        raise PreconditionError("points must start at 0 and end at B > 0")
    if any(y <= x for x, y in zip(pts, pts[1:])):
        raise PreconditionError("points must be strictly increasing")
    ceiling = pts[-1]
    interior = pts[1:-1]
    mode = _spec_mode(d)
    cmp = Cmp(mode == "exact")
    bounds = spec_bounds(d)
    if bounds is not None:
        lo, _, hi, _ = bounds
        if lo < 0 or hi > ceiling:
            raise PreconditionError("entries must lie in [0, B]")
    if total_sum(d).kind != "pinf":
        raise PreconditionError("sum of entries must be infinite")
    if total_sum(affine_image(d, -1, ceiling)).kind != "pinf":
        raise PreconditionError("sum of (B - entries) must be infinite")
    half = ceiling / 2
    c_half, d_half = split_sums(d, half, ceiling=ceiling)
    inv = BJInvariants(ceiling, tuple(interior), c_half, d_half)
    cert = {"C(B/2)": c_half, "D(B/2)": d_half}
    if not c_half.finite or not d_half.finite:
        return Decision(Decision.YES, "bownik-jasper",
                        {**cert, "branch": "C+D infinite"}, mode)
    target = c_half.value - d_half.value
    cert["C_minus_D"] = target
    n = len(interior)
    if n == 0:
        q = target / ceiling
        isint, k = integrality(q, mode == "exact")
        if isint is True:
            return Decision(Decision.YES, "bownik-jasper", {**cert, "N": [], "k": k}, mode)
        if isint is None:
            return Decision(Decision.UNKNOWN, "bownik-jasper",
                            {**cert, "reason": "k inside the integrality buffer"}, mode)
        return Decision(Decision.NO, "bownik-jasper", cert, mode)
    lhs = []
    for lr in interior:
        c_r, d_r = split_sums(d, lr, ceiling=ceiling)
        if not c_r.finite or not d_r.finite:
            lhs.append(None)  # inequality trivially satisfied
        else:
            lhs.append((ceiling - lr) * c_r.value + lr * d_r.value)
    bound = []
    for j, lj in enumerate(interior):
        bj = None
        for r, lr in enumerate(interior):
            coef = (ceiling - lr) * lj if j <= r else lr * (ceiling - lj)
            if lhs[r] is None:
                continue
            cap = lhs[r] / coef
            bj = cap if bj is None else min(bj, cap)
        limit = BJ_SEARCH_CAP if bj is None else int(math.floor(float(bj) + 1e-12))
        if limit < 1:
            return Decision(Decision.NO, "bownik-jasper",
                            {**cert, "reason": f"no admissible N_{j+1}",
                             "bound": limit}, mode)
        bound.append(limit)
    combos = 1
    for b in bound:
        combos *= b
        if combos > BJ_SEARCH_CAP:
            return Decision(Decision.UNKNOWN, "bownik-jasper",
                            {**cert, "reason": "search bound exceeds candidate cap",
                             "bounds": bound}, mode)
    borderline = False
    ns = [1] * n
    while True:
        s = sum(lj * nj for lj, nj in zip(interior, ns))
        q = (target - s) / ceiling
        isint, k = integrality(q, mode == "exact")
        if isint is None:
            borderline = True
        elif isint:
            ok = True
            for r in range(n):
                if lhs[r] is None:
                    continue
                rhs = ((ceiling - interior[r]) * sum(interior[j] * ns[j] for j in range(r + 1))
                       + interior[r] * sum((ceiling - interior[j]) * ns[j]
                                           for j in range(r + 1, n)))
                c = cmp.le(rhs, lhs[r])
                if c is None:
                    borderline = True
                    ok = False
                    break
                if not c:
                    ok = False
                    break
            if ok:
                return Decision(Decision.YES, "bownik-jasper",
                                {**cert, "N": list(ns), "k": k}, mode)
        # lexicographic increment
        i = n - 1
        while i >= 0:
            ns[i] += 1
            if ns[i] <= bound[i]:
                break
            ns[i] = 1
            i -= 1
        if i < 0:
            break
    if borderline:
        return Decision(Decision.UNKNOWN, "bownik-jasper",
                        {**cert, "reason": "candidates inside the float buffer"}, mode)
    return Decision(Decision.NO, "bownik-jasper",
                    {**cert, "reason": "no (N, k) satisfies the equality and inequalities",
                     "bounds": bound}, mode)


# ---------------------------------------------------------------------------
# Neumann closure, Blaschke conditions, the three-point theorem


def decide_neumann_closure(spec, d: SequenceSpec) -> Decision:
    """Membership of d in the sup-norm closure of the diagonal set."""
    summary = essential_summary(spec)
    lo, hi = summary.w_e
    if d.field != "real":
        raise PreconditionError("d must be real for a selfadjoint operator")
    mode = _spec_mode(d, getattr(spec, "eigs", d))
    ms = eigen_multiset(spec)
    s_plus, _ = split_parts(affine_image(ms, 1, -hi))
    _, s_minus = split_parts(affine_image(ms, 1, -lo))
    try:
        d_plus, _ = split_parts(affine_image(d, 1, -hi))
        _, d_minus = split_parts(affine_image(d, 1, -lo))
        vp = weak_majorize(d_plus, s_plus)
        vm = weak_majorize(d_minus, s_minus)
    except PreconditionError as exc:
        return Decision(Decision.NO, "neumann-closure",
                        {"reason": f"excess part is not a null sequence: {exc}"}, mode)
    cert = {"alpha_minus": lo, "alpha_plus": hi,
            "upper": vp.as_json(), "lower": vm.as_json()}
    if vp.verdict == "Holds" and vm.verdict == "Holds":
        return Decision(Decision.YES, "neumann-closure", cert, mode)
    if vp.verdict == "Fails" or vm.verdict == "Fails":
        return Decision(Decision.NO, "neumann-closure", cert, mode)
    return Decision(Decision.UNKNOWN, "neumann-closure", cert, mode)


def _complex_points(spec_or_list):
    pts = []
    for p in spec_or_list:
        if isinstance(p, QC):
            pts.append(p)
        else:
            pts.append(complex(p))
    return pts


def _hull_edges(points):
    """Convex hull as a list of (vertex, edge direction) pairs, ccw."""
    pl = [(complex(p).real, complex(p).imag) for p in points]
    from .spectra import _convex_hull
    hull = _convex_hull(pl)
    return [complex(x, y) for x, y in hull]


def _interior_distance(z, hull):
    """Signed distance of z to the hull boundary (positive inside)."""
    z = complex(z)
    if len(hull) < 3:
        return -abs(z - hull[0]) if len(hull) == 1 else None
    best = None
    for i in range(len(hull)):
        a, b = hull[i], hull[(i + 1) % len(hull)]
        edge = b - a
        nrm = abs(edge)
        if nrm < 1e-300:
            continue
        sd = ((edge.conjugate() * (z - a)).imag) / nrm
        best = sd if best is None else min(best, sd)
    return best


def check_blaschke(spec, d: SequenceSpec, mode="selfadjoint") -> Decision:
    """Divergent boundary-distance sum: a sufficient diagonal condition."""
    dmode = _spec_mode(d)
    if mode == "selfadjoint":
        summary = essential_summary(spec)
        lo, hi = summary.w_e
        if lo == hi:
            raise PreconditionError("essential numerical range has empty interior")
        if d.field != "real":
            raise PreconditionError("selfadjoint mode needs real d")
        b = spec_bounds(d)
        if b is not None:
            dlo, dlo_att, dhi, dhi_att = b
            if dlo < lo or dhi > hi or (dlo == lo and dlo_att) or (dhi == hi and dhi_att):
                raise PreconditionError("entries must lie strictly inside the interval")
        s = interval_blaschke_sum(d, lo, hi)
        cert = {"w_e": [lo, hi], "blaschke_sum": s}
        if s.kind == "pinf":
            return Decision(Decision.SUFFICIENT, "blaschke-selfadjoint", cert, dmode)
        return Decision(Decision.CONDITION_FAILS, "blaschke-selfadjoint", cert, dmode)
    if mode != "general":
        raise PreconditionError("mode must be 'selfadjoint' or 'general'")
    pts = essential_points(spec)
    hull = _hull_edges(pts)
    if len(hull) < 3:
        raise PreconditionError("essential numerical range has empty planar interior")
    diverges = False
    tol = 0.0 if dmode == "exact" else 1e-12
    for s in canonical_streams(d):
        if stream_is_infinite(s):
            lim = complex(stream_limit(s)) if not isinstance(stream_limit(s), QC) \
                else complex(stream_limit(s))
            sd = _interior_distance(lim, hull)
            if sd < -tol:
                raise PreconditionError("stream limit escapes the essential numerical range")
            if sd > tol:
                diverges = True
    for v in materialize_prefix(d, 64):
        sd = _interior_distance(v, hull)
        # float entries clustering at a boundary limit sit within rounding of
        # the boundary; only a clear violation refutes the hypothesis
        outside = (sd < -1e-12) if dmode == "float" else (sd <= 0)
        if outside:
            raise PreconditionError("entry on or outside the boundary")
    cert = {"hull": [ _jsonable(h) for h in hull ], "diverges": diverges}
    if diverges:
        return Decision(Decision.SUFFICIENT, "blaschke-general", cert, dmode)
    return Decision(Decision.CONDITION_FAILS, "blaschke-general", cert, dmode)


def decide_three_point(spec, d: SequenceSpec) -> Decision:
    """Characterization when W(T) sits inside W_e(T) and |ess spectrum| >= 3."""
    summary = essential_summary(spec)
    if len(summary.ess_points) < 3:
        raise PreconditionError("need at least three essential-spectrum points")
    a, b = summary.w_e
    if summary.spectrum_min != a or summary.spectrum_max != b:
        raise PreconditionError("spectrum extremes must lie in the essential spectrum")
    if d.field != "real":
        raise PreconditionError("d must be real")
    mode = _spec_mode(d)
    ms = eigen_multiset(spec)
    dim_a = count_value(ms, a)
    dim_b = count_value(ms, b)
    cert = {"a": a, "b": b, "dim_a": dim_a, "dim_b": dim_b}
    bounds = spec_bounds(d)
    if bounds is not None:
        lo, lo_att, hi, hi_att = bounds
        if lo < a or hi > b:
            return Decision(Decision.NO, "three-point",
                            {**cert, "clause": "value outside W(T)"}, mode)
        if lo == a and lo_att and dim_a == 0:
            return Decision(Decision.NO, "three-point",
                            {**cert, "clause": "endpoint a not an eigenvalue"}, mode)
        if hi == b and hi_att and dim_b == 0:
            return Decision(Decision.NO, "three-point",
                            {**cert, "clause": "endpoint b not an eigenvalue"}, mode)
    use_a = count_value(d, a)
    use_b = count_value(d, b)
    cert["count_a"] = use_a
    cert["count_b"] = use_b
    if not (use_a == 0 or use_a <= dim_a) or not (use_b == 0 or use_b <= dim_b):
        return Decision(Decision.NO, "three-point",
                        {**cert, "clause": "endpoint multiplicity exceeds eigenspace"}, mode)
    s = interval_blaschke_sum(d, a, b)
    cert["blaschke_sum"] = s
    if s.kind != "pinf":
        return Decision(Decision.NO, "three-point",
                        {**cert, "clause": "boundary-distance sum converges"}, mode)
    return Decision(Decision.YES, "three-point", cert, mode)


# ---------------------------------------------------------------------------
# 3x3 normal matrices (Williams geometry)


def _all_exact(vals):
    return all(isinstance(v, (Rational, QC)) and not isinstance(v, float) for v in vals)


def _qc(v):
    if isinstance(v, QC):
        return v
    return QC(Fraction(v), Fraction(0))


def _on_segment_exact(p, a, b):
    cross = (b - a) * (p - a).conj()
    if cross.im != 0:
        return False
    ab2 = (b - a).abs2()
    if ab2 == 0:
        return p == a
    t = ((p - a) * (b - a).conj()).re / ab2
    return 0 <= t <= 1


def _on_segment_float(p, a, b, tol):
    p, a, b = complex(p), complex(a), complex(b)
    ab = b - a
    if abs(ab) < tol:
        return abs(p - a) <= tol
    cross = ((p - a) * ab.conjugate()).imag / abs(ab)
    if abs(cross) > tol:
        return False
    t = ((p - a) * ab.conjugate()).real / abs(ab) ** 2
    return -tol <= t <= 1 + tol


def _conic_through_tangent(traces, side_dirs, exact):
    """Conic coefficients (A,B,C,D,E,F) tangent to each side at its trace."""
    rows = []
    for (tx, ty), (sx, sy) in zip(traces, side_dirs):
        rows.append([tx * tx, tx * ty, ty * ty, tx, ty, 1])
        rows.append([2 * tx * sx, ty * sx + tx * sy, 2 * ty * sy, sx, sy, 0])
    if exact:
        coef = ratlinalg.nullspace_vector(rows)
        if coef is None:
            raise PreconditionError("degenerate inscribed-conic system")
        return coef
    m = np.array([[float(x) for x in r] for r in rows])
    _, _, vt = np.linalg.svd(m)
    return list(vt[-1])


def _conic_eval(coef, x, y):
    a, b, c, d, e, f = coef
    return a * x * x + b * x * y + c * y * y + d * x + e * y + f


def _conic_center(coef, exact):
    a, b, c, d, e, f = coef
    if exact:
        sol = ratlinalg.solve_exact([[2 * a, b], [b, 2 * c]], [-d, -e])
        if sol is None:
            raise PreconditionError("conic has no center")
        return sol
    m = np.array([[2 * float(a), float(b)], [float(b), 2 * float(c)]])
    rhs = np.array([-float(d), -float(e)])
    return list(np.linalg.solve(m, rhs))


def decide_williams_3x3(lam, d) -> Decision:
    """Diagonals of a 3x3 normal matrix with eigenvalues ``lam``."""
    lam = list(lam)
    d = list(d)
    if len(lam) != 3 or len(d) != 3:
        raise PreconditionError("need three eigenvalues and three diagonal entries")
    exact = _all_exact(lam) and _all_exact(d)
    mode = "exact" if exact else "float"
    if exact:
        lam_q = [_qc(v) for v in lam]
        d_q = [_qc(v) for v in d]
        area2 = ((lam_q[1] - lam_q[0]) * (lam_q[2] - lam_q[0]).conj()).im
        if area2 == 0:
            return _williams_collinear(lam_q, d_q, mode)
        return _williams_exact(lam_q, d_q)
    lam_c = [complex(v) for v in lam]
    d_c = [complex(v) for v in d]
    scale = max(max(abs(v) for v in lam_c), 1.0)
    tol = 1e-9 * scale
    area2 = ((lam_c[1] - lam_c[0]) * (lam_c[2] - lam_c[0]).conjugate()).imag
    if abs(area2) <= tol * scale:
        return _williams_collinear(lam_c, d_c, mode, tol=tol)
    return _williams_float(lam_c, d_c, tol)


def _williams_collinear(lam, d, mode, tol=0.0):
    """Collinear eigenvalues reduce to the selfadjoint (Schur-Horn) case."""
    if mode == "exact":
        w = lam[1] - lam[0]
        coords = []
        for v in list(lam) + list(d):
            rel = (v - lam[0]) * w.conj()
            if rel.im != 0:
                return Decision(Decision.NO, "williams-3x3",
                                {"clause": "entry off the eigenvalue line"}, mode)
            coords.append(rel.re)
        t_lam, t_d = coords[:3], coords[3:]
    else:
        w = lam[1] - lam[0]
        coords = []
        for v in list(lam) + list(d):
            rel = (v - lam[0]) * w.conjugate()
            if abs(rel.imag) > tol * max(abs(w), 1.0) ** 2:
                return Decision(Decision.NO, "williams-3x3",
                                {"clause": "entry off the eigenvalue line"}, mode)
            coords.append(rel.real)
        t_lam, t_d = coords[:3], coords[3:]
    inner = decide_schur_horn(t_lam, t_d)
    return Decision(inner.verdict, "williams-3x3",
                    {"clause": "collinear reduction", "inner": inner.as_json()}, mode)


def _williams_exact(lam, d) -> Decision:
    mode = "exact"
    bc = ratlinalg.barycentric(d[0], lam[0], lam[1], lam[2])
    if bc is None:
        raise PreconditionError("degenerate triangle")
    u, v, w = bc
    cert = {"barycentric_d1": [u, v, w]}
    if u < 0 or v < 0 or w < 0:
        return Decision(Decision.NO, "williams-3x3",
                        {**cert, "clause": "d1 outside the triangle"}, mode)
    zeros = [x == 0 for x in (u, v, w)]
    nz = zeros.count(True)
    if nz >= 2:  # vertex
        i = zeros.index(False) if nz == 3 else [k for k in range(3) if not zeros[k]][0]
        j, l = [k for k in range(3) if k != i]
        ok = (d[1] + d[2] == lam[j] + lam[l]) and _on_segment_exact(d[1], lam[j], lam[l])
        return Decision(Decision.YES if ok else Decision.NO, "williams-3x3",
                        {**cert, "clause": "vertex case", "edge": [j, l]}, mode)
    if nz == 1:  # open edge
        k = zeros.index(True)
        i, j = [t for t in range(3) if t != k]
        reflected = lam[i] + lam[j] - d[0]
        ok = (d[1] + d[2] == reflected + lam[k]) and _on_segment_exact(d[1], reflected, lam[k])
        return Decision(Decision.YES if ok else Decision.NO, "williams-3x3",
                        {**cert, "clause": "edge case",
                         "reflected_d1": reflected, "opposite_vertex": k}, mode)
    # interior: inscribed conic tangent at the traces of the isotomic conjugate
    conj = (v * w, u * w, u * v)
    tot = sum(conj)
    traces = []
    side_dirs = []
    pairs = ((1, 2), (0, 2), (0, 1))
    for k in range(3):
        i, j = pairs[k]
        s = conj[i] + conj[j]
        pt = (lam[i] * conj[i] + lam[j] * conj[j]) / QC(Fraction(s), Fraction(0))
        traces.append((pt.re, pt.im))
        sd = lam[j] - lam[i]
        side_dirs.append((sd.re, sd.im))
    coef = _conic_through_tangent(traces, side_dirs, exact=True)
    disc = coef[1] * coef[1] - 4 * coef[0] * coef[2]
    if disc >= 0:
        raise PreconditionError("inscribed conic is not an ellipse")
    # the achievable pair set is centrally symmetric, pinning the center
    half = QC(Fraction(1, 2), Fraction(0))
    center = (lam[0] + lam[1] + lam[2] - d[0]) * half
    cert["ellipse_center"] = center
    if d[1] + d[2] != center + center:
        return Decision(Decision.NO, "williams-3x3",
                        {**cert, "clause": "pair not symmetric about the ellipse center"},
                        mode)
    q_center = _conic_eval(coef, center.re, center.im)
    q_d2 = _conic_eval(coef, d[1].re, d[1].im)
    inside = q_d2 == 0 or (q_d2 > 0) == (q_center > 0)
    return Decision(Decision.YES if inside else Decision.NO, "williams-3x3",
                    {**cert, "clause": "interior case"}, mode)


def _williams_float(lam, d, tol) -> Decision:
    mode = "float"
    a = np.array([[lam[0].real, lam[1].real, lam[2].real],
                  [lam[0].imag, lam[1].imag, lam[2].imag],
                  [1.0, 1.0, 1.0]])
    u, v, w = np.linalg.solve(a, np.array([d[0].real, d[0].imag, 1.0]))
    cert = {"barycentric_d1": [u, v, w]}
    if min(u, v, w) < -tol:
        return Decision(Decision.NO, "williams-3x3",
                        {**cert, "clause": "d1 outside the triangle"}, mode)
    zeroish = [abs(x) <= tol for x in (u, v, w)]
    nz = zeroish.count(True)
    if nz >= 2:
        i = [k for k in range(3) if not zeroish[k]][0]
        j, l = [k for k in range(3) if k != i]
        ok = (abs(d[1] + d[2] - (lam[j] + lam[l])) <= tol
              and _on_segment_float(d[1], lam[j], lam[l], tol))
        return Decision(Decision.YES if ok else Decision.NO, "williams-3x3",
                        {**cert, "clause": "vertex case"}, mode)
    if nz == 1:
        k = zeroish.index(True)
        i, j = [t for t in range(3) if t != k]
        reflected = lam[i] + lam[j] - d[0]
        ok = (abs(d[1] + d[2] - (reflected + lam[k])) <= tol
              and _on_segment_float(d[1], reflected, lam[k], tol))
        return Decision(Decision.YES if ok else Decision.NO, "williams-3x3",
                        {**cert, "clause": "edge case"}, mode)
    conj = (v * w, u * w, u * v)
    traces = []
    side_dirs = []
    pairs = ((1, 2), (0, 2), (0, 1))
    for k in range(3):
        i, j = pairs[k]
        s = conj[i] + conj[j]
        pt = (lam[i] * conj[i] + lam[j] * conj[j]) / s
        traces.append((pt.real, pt.imag))
        sd = lam[j] - lam[i]
        side_dirs.append((sd.real, sd.imag))
    coef = _conic_through_tangent(traces, side_dirs, exact=False)
    center = (lam[0] + lam[1] + lam[2] - d[0]) / 2.0
    cert["ellipse_center"] = center
    if abs(d[1] + d[2] - 2 * center) > tol:
        return Decision(Decision.NO, "williams-3x3",
                        {**cert, "clause": "pair not symmetric about the ellipse center"},
                        mode)
    q_center = _conic_eval(coef, center.real, center.imag)
    q_d2 = _conic_eval(coef, d[1].real, d[1].imag)
    qscale = abs(q_center)
    inside = q_d2 * q_center >= -1e-7 * qscale
    return Decision(Decision.YES if inside else Decision.NO, "williams-3x3",
                    {**cert, "clause": "interior case"}, mode)


# ---------------------------------------------------------------------------
# Arveson's finite-spectrum normal condition


def check_arveson(vertices, d: SequenceSpec, coeff_bound=ARVESON_COEFF_BOUND_DEFAULT) -> Decision:
    """Deviation-sum lattice membership for finite-spectrum normal operators."""
    verts = list(vertices)
    if len(verts) < 2:
        raise PreconditionError("need at least two vertices")
    exact = _all_exact(verts) and d.exact
    mode = "exact" if exact else "float"
    if exact:
        vq = [_qc(v) for v in verts]
        gaps = [((vq[i] - vq[j]).abs2()) for i in range(len(vq)) for j in range(i)]
        min_gap2 = min(gaps)
        total_dev = QC(Fraction(0), Fraction(0))
        assigned = []
        for s in canonical_streams(d):
            if stream_is_infinite(s):
                lim = _qc(stream_limit(s))
                match = next((j for j, x in enumerate(vq) if x == lim), None)
                if match is None:
                    raise PreconditionError(
                        "infinite stream limit is not a vertex: deviation sum diverges")
                head, tail = _split_complex_head(s, min_gap2)
                total_dev = total_dev + _complex_tail_deviation(tail)
                for e in head:
                    j = _closest_vertex_exact(_qc(e), vq)
                    assigned.append((e, j))
                    total_dev = total_dev + (_qc(e) - vq[j])
            else:
                for e in _expand_finite(s):
                    j = _closest_vertex_exact(_qc(e), vq)
                    assigned.append((e, j))
                    total_dev = total_dev + (_qc(e) - vq[j])
        gens = [((vq[j] - vq[0]).re, (vq[j] - vq[0]).im) for j in range(1, len(vq))]
        sol = ratlinalg.lattice_solve(gens, (total_dev.re, total_dev.im))
        cert = {"deviation_sum": total_dev}
        if sol is None:
            return Decision(Decision.NO, "arveson",
                            {**cert, "reason": "deviation sum outside the vertex lattice"},
                            mode)
        coeffs = [-sum(sol)] + sol
        cert["c"] = coeffs
        if max(abs(c) for c in coeffs) > coeff_bound:
            cert["note"] = "certificate exceeds requested coefficient bound"
        return Decision(Decision.YES, "arveson", cert, mode)
    vc = [complex(v) for v in verts]
    scale = max(max(abs(v) for v in vc), 1.0)
    tol = 1e-9 * scale
    min_gap = min(abs(vc[i] - vc[j]) for i in range(len(vc)) for j in range(i))
    total_dev = 0j
    for s in canonical_streams(d):
        if stream_is_infinite(s):
            lim = complex(stream_limit(s))
            match = next((j for j, x in enumerate(vc) if abs(x - lim) <= tol), None)
            if match is None:
                raise PreconditionError(
                    "infinite stream limit is not a vertex: deviation sum diverges")
            head, tail = _split_complex_head(s, min_gap ** 2)
            total_dev += complex(_complex_tail_deviation(tail))
            for e in head:
                j = min(range(len(vc)), key=lambda j: (abs(complex(e) - vc[j]), j))
                total_dev += complex(e) - vc[j]
        else:
            for e in _expand_finite(s):
                j = min(range(len(vc)), key=lambda j: (abs(complex(e) - vc[j]), j))
                total_dev += complex(e) - vc[j]
    gens = [((vc[j] - vc[0]).real, (vc[j] - vc[0]).imag) for j in range(1, len(vc))]
    sol = ratlinalg.lattice_search_float(gens, (total_dev.real, total_dev.imag),
                                         coeff_bound, 1e-9)
    cert = {"deviation_sum": total_dev}
    if sol is not None:
        coeffs = [-sum(sol)] + sol
        return Decision(Decision.YES, "arveson", {**cert, "c": coeffs}, mode)
    return Decision(Decision.UNKNOWN, "arveson",
                    {**cert, "reason": "bounded lattice search exhausted"}, mode)


def _closest_vertex_exact(e: QC, vq):
    best = None
    for j, x in enumerate(vq):
        d2 = (e - x).abs2()
        if best is None or d2 < best[0]:
            best = (d2, j)
    return best[1]


def _expand_finite(s):
    out = []
    for e in stream_entries(s):
        out.append(e)
        if len(out) > 100_000:
            raise UnsupportedError("finite stream too large")
    return out


def _split_complex_head(s, gap2):
    """Peel entries whose squared deviation from the limit reaches gap2/4."""
    from .seqspec import Geometric, TelTail, ConstantRepeat
    lim = stream_limit(s)
    if isinstance(s, ConstantRepeat):
        return [], s
    head = []
    if isinstance(s, Geometric):
        term = s.first
        guard = 0
        while not _is_zero(term) and 4 * _abs2_any(term) >= gap2:
            head.append(s.offset + term)
            term = term * s.ratio
            guard += 1
            if guard > 100_000:
                raise UnsupportedError("head peel exceeded cap")
        return head, Geometric(term, s.ratio, s.offset) if not _is_zero(term) \
            else ConstantRepeat(lim, INF)
    n = s.n0 if isinstance(s, TelTail) else 1
    guard = 0
    while 4 * _abs2_any(s.scale) / (n * (n + 1)) ** 2 >= gap2:
        head.append(s.offset + s.scale / (n * (n + 1)))
        n += 1
        guard += 1
        if guard > 100_000:
            raise UnsupportedError("head peel exceeded cap")
    return head, TelTail(s.scale, n, s.offset)


def _is_zero(v):
    return v.is_zero() if isinstance(v, QC) else v == 0


def _abs2_any(v):
    if isinstance(v, QC):
        return v.abs2()
    if isinstance(v, complex):
        return v.real * v.real + v.imag * v.imag
    return v * v


def _complex_tail_deviation(s):
    if isinstance(s, ConstantRepeat):
        return QC(Fraction(0), Fraction(0))
    dev = stream_tail_deviation(s)
    return dev if isinstance(dev, QC) else _qc(dev) if is_exact_scalar(dev) else dev


# ---------------------------------------------------------------------------
# unitary and Thompson diagonals


def decide_horn_unitary(d, variant="unitary") -> Decision:
    """Finite unitary / orthogonal / rotation diagonals."""
    d = list(d)
    if not d:
        raise PreconditionError("empty input")
    if variant not in ("unitary", "orthogonal", "rotation"):
        raise PreconditionError("variant must be unitary, orthogonal or rotation")
    realness = all(is_real_scalar(v) for v in d)
    if variant in ("orthogonal", "rotation") and not realness:
        raise PreconditionError(f"{variant} variant requires real entries")
    exact = _all_exact(d) and (realness or all(isinstance(v, QC) for v in d))
    n = len(d)
    if variant == "rotation":
        vals = [Fraction(v) if exact else float(v) for v in d]
        if any(abs(v) > 1 for v in vals):
            return Decision(Decision.NO, "horn-rotation",
                            {"reason": "entry outside [-1, 1]"},
                            "exact" if exact else "float")
        neg = sum(1 for v in vals if v < 0)
        red = sorted((abs(v) for v in vals))
        signed = list(red)
        if neg % 2 == 1:
            signed[0] = -signed[0]
        lhs = 2 * (1 - min(signed))
        rhs = sum(1 - v for v in signed)
        ok = lhs <= rhs
        return Decision(Decision.YES if ok else Decision.NO, "horn-rotation",
                        {"reduced": signed, "lhs": lhs, "rhs": rhs},
                        "exact" if exact else "float")
    moduli = [scalar_abs(v) for v in d]
    exact = exact and all(is_exact_scalar(m) for m in moduli)
    mode = "exact" if exact else "float"
    if any(m > 1 for m in moduli):
        return Decision(Decision.NO, f"horn-{variant}",
                        {"reason": "modulus above 1"}, mode)
    lhs = 2 * (1 - min(moduli))
    rhs = sum(1 - m for m in moduli)
    ok = lhs <= rhs
    return Decision(Decision.YES if ok else Decision.NO, f"horn-{variant}",
                    {"lhs": lhs, "rhs": rhs}, mode)


def decide_jlw_unitary(d: SequenceSpec) -> Decision:
    """Diagonals of unitary operators (infinite dimensional)."""
    ad = abs_values(d)
    mode = _spec_mode(ad)
    bounds = spec_bounds(ad)
    if bounds is None:
        raise PreconditionError("empty sequence")
    lo, _, hi, _ = bounds
    cert = {}
    if hi > 1:
        return Decision(Decision.NO, "jlw-unitary",
                        {"reason": "modulus above 1", "sup": hi}, mode)
    rhs = total_sum(affine_image(ad, -1, 1))
    cert["inf_modulus"] = lo
    cert["deficiency_sum"] = rhs
    if rhs.kind == "pinf":
        return Decision(Decision.YES, "jlw-unitary", cert, mode)
    lhs = 2 * (1 - lo)
    cert["lhs"] = lhs
    ok = lhs <= rhs.value
    return Decision(Decision.YES if ok else Decision.NO, "jlw-unitary", cert, mode)


def decide_thompson(s, d) -> Decision:
    """Finite matrices with prescribed singular values and diagonal."""
    s = list(s)
    d = list(d)
    if len(s) != len(d):
        raise PreconditionError("length mismatch")
    if any(s[i] < s[i + 1] for i in range(len(s) - 1)):
        raise PreconditionError("singular values must be nonincreasing")
    if any(x < 0 for x in s):
        raise PreconditionError("singular values must be nonnegative")
    moduli = sorted((scalar_abs(v) for v in d), reverse=True)
    exact = _all_exact(s) and all(is_exact_scalar(m) for m in moduli)
    mode = "exact" if exact else "float"
    run_d = run_s = 0
    for k, (x, y) in enumerate(zip(moduli, s), start=1):
        run_d += x
        run_s += y
        if run_d > run_s:
            return Decision(Decision.NO, "thompson",
                            {"witness": {"index": k, "lhs": run_d, "rhs": run_s}}, mode)
    lhs = 2 * (s[-1] - moduli[-1])
    rhs = run_s - run_d
    cert = {"lhs": lhs, "rhs": rhs}
    if lhs > rhs:
        return Decision(Decision.NO, "thompson", cert, mode)
    return Decision(Decision.YES, "thompson", cert, mode)


def decide_thompson_compact(s: SequenceSpec, d: SequenceSpec) -> Decision:
    """Compact operators: the trailing Thompson inequality disappears."""
    validate_c0_plus(s, "s")
    if not is_c0(d):
        raise PreconditionError("d must converge to zero")
    v = weak_majorize(abs_values(d), s)
    return Decision(_verdict_from_majorization(v), "thompson-compact",
                    {"weak_majorization": v.as_json()}, v.mode)


def check_mt_p_summable(spec, d: SequenceSpec, p) -> Decision:
    """p-summable boundary-distance: diagonal after a Schatten-p perturbation."""
    if not (p > 1):
        raise PreconditionError("requires p > 1")
    mode = _spec_mode(d)
    interior_limit = False
    if d.field == "real":
        summary = essential_summary(spec)
        lo, hi = summary.w_e
        for s in canonical_streams(d):
            if stream_is_infinite(s):
                lim = stream_limit(s)
                if lo < lim < hi:
                    interior_limit = True
    else:
        pts = essential_points(spec)
        hull = _hull_edges(pts)
        if len(hull) < 3:
            interior_limit = False
        else:
            for s in canonical_streams(d):
                if stream_is_infinite(s):
                    sd = _interior_distance(complex(stream_limit(s)), hull)
                    if sd > 1e-12:
                        interior_limit = True
    cert = {"p": p, "summable": not interior_limit}
    if interior_limit:
        return Decision(Decision.CONDITION_FAILS, "mt-p-summable", cert, mode)
    return Decision(Decision.SUFFICIENT, "mt-p-summable", cert, mode)


# ---------------------------------------------------------------------------
# Fan's zero-diagonal criterion and the trace-set classification


def check_fan_criterion(d: OrderedSequenceSpec) -> Decision:
    """Some subsequence of the ordered partial sums converges to zero."""
    mode = "exact" if d.exact else "float"
    infinite = [(s, w) for s, w in d.tail if stream_is_infinite(s)]
    base = total_sum(OrderedSequenceSpec(d.prefix,
                                         tuple((s, w) for s, w in d.tail
                                               if not stream_is_infinite(s)),
                                         d.field, d.exact))
    drift_steps = []
    for s, w in infinite:
        lim = stream_limit(s)
        if not _is_zero(lim):
            drift_steps.extend([lim] * w)
        else:
            base = base + stream_total(s)
            drift_steps.extend([lim * 0] * w)
    if not base.finite:
        return Decision(Decision.UNKNOWN, "fan-zero-diagonal",
                        {"reason": "summable part diverges"}, mode)
    base_val = base.value
    if not infinite:
        zero = _norm_is_zero(base_val, mode)
        if zero is None:
            return Decision(Decision.UNKNOWN, "fan-zero-diagonal",
                            {"total": base_val, "reason": "total inside float buffer"}, mode)
        return Decision(Decision.YES if zero else Decision.NO, "fan-zero-diagonal",
                        {"total": base_val}, mode)
    drift = base_val * 0
    offsets = [drift]
    for v in drift_steps:
        drift = drift + v
        offsets.append(drift)
    if not _is_zero_like(drift, mode):
        return Decision(Decision.NO, "fan-zero-diagonal",
                        {"round_drift": drift, "reason": "partial sums escape to infinity"},
                        mode)
    limit_points = [base_val + o for o in offsets]
    cert = {"limit_points": limit_points}
    borderline = False
    for lp in limit_points:
        zero = _norm_is_zero(lp, mode)
        if zero is True:
            return Decision(Decision.YES, "fan-zero-diagonal", cert, mode)
        if zero is None:
            borderline = True
    if borderline:
        return Decision(Decision.UNKNOWN, "fan-zero-diagonal",
                        {**cert, "reason": "limit point inside float buffer"}, mode)
    return Decision(Decision.NO, "fan-zero-diagonal", cert, mode)


def _norm_is_zero(v, mode):
    mag = scalar_abs(v)
    if mode == "exact":
        return mag == 0
    if mag <= INTEGRALITY_TOL:
        return True
    if mag <= INTEGRALITY_BUFFER:
        return None
    return False


def _is_zero_like(v, mode):
    r = _norm_is_zero(v, mode)
    return r is True


@dataclass(frozen=True)
class TraceSetClass:
    kind: str                 # 'Empty' | 'Point' | 'Line' | 'Plane'
    value: object = None      # Point: the trace
    direction: object = None  # Line: unit direction of the trace line
    offset: object = None     # Line: signed distance of the line from 0

    def as_json(self):
        out = {"kind": self.kind}
        if self.value is not None:
            out["value"] = _jsonable(self.value)
        if self.direction is not None:
            out["direction"] = _jsonable(self.direction)
        if self.offset is not None:
            out["offset"] = _jsonable(self.offset)
        return out


def _ray_direction(phase):
    if isinstance(phase, (QC, complex)):
        u = phase
        mag2 = _abs2_any(u)
        if mag2 == 0:
            raise PreconditionError("zero direction")
        if isinstance(u, QC):
            if mag2 != 1:
                raise PreconditionError("exact ray directions must be unit vectors")
            return u
        return u / abs(u)
    return cmath.exp(1j * float(phase))


def classify_trace_set(rays) -> TraceSetClass:
    """Shape of the set of basis-dependent traces of a diagonal normal operator.

    ``rays``: list of (phase, magnitude SequenceSpec); eigenvalues are
    direction * magnitude over each ray's stream.
    """
    dirs = []
    summable = []
    totals = []
    for phase, mag in rays:
        u = _ray_direction(phase)
        b = spec_bounds(mag)
        if b is not None and b[0] < 0:
            raise PreconditionError("ray magnitudes must be nonnegative")
        ok = all(stream_abs_summable(s) for s in mag.streams)
        dirs.append(u)
        summable.append(ok)
        totals.append(total_sum(mag) if ok else None)
    ns = [i for i in range(len(rays)) if not summable[i]]
    if not ns:
        val = 0j
        for i in range(len(rays)):
            val += _mul_dir(dirs[i], totals[i].value)
        return TraceSetClass("Point", value=val)
    tol = 1e-12
    collinear = True
    for i in ns[1:]:
        cr = _cross(dirs[ns[0]], dirs[i])
        if not _near_zero(cr, tol):
            collinear = False
            break
    if collinear:
        both = any(_dot(dirs[ns[0]], dirs[i]) < 0 for i in ns)
        u0 = complex(dirs[ns[0]])
        if both:
            # trace line along u0; offset = normal component of the summable part
            w = 1j * u0
            c = 0.0
            for i in range(len(rays)):
                if summable[i]:
                    c += _dot(w, dirs[i]) * float(totals[i].value)
            return TraceSetClass("Line", direction=u0, offset=c)
        return TraceSetClass("Empty")
    for j in ns:
        for sgn in (1, -1):
            ok_all = True
            strict = False
            for i in ns:
                s = sgn * _cross(dirs[j], dirs[i])
                if s > tol:
                    ok_all = False
                    break
                if s < -tol:
                    strict = True
            if ok_all and strict:
                return TraceSetClass("Empty")
    return TraceSetClass("Plane")


def _mul_dir(u, x):
    if isinstance(u, QC):
        return complex(u) * float(x)
    return u * float(x)


def _cross(a, b):
    ca, cb = complex(a), complex(b)
    return (ca.conjugate() * cb).imag


def _dot(a, b):
    ca, cb = complex(a), complex(b)
    return (ca.conjugate() * cb).real


def _near_zero(x, tol):
    return abs(x) <= tol


# ---------------------------------------------------------------------------
# essential codimension (finite analogues)


def essential_codimension_finite(p: DenseMatrix, q: DenseMatrix) -> int:
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
    detail: dict = dc_field(default_factory=dict)

    def as_json(self):
        return {"lhs": _jsonable(self.lhs), "rhs": _jsonable(self.rhs),
                "residual": self.residual, "ok": self.ok,
                "detail": _jsonable(self.detail)}


def verify_kadison_codimension_identity(p: DenseMatrix) -> IdentityReport:
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


def _normal_eigensystem(n: DenseMatrix, cluster_tol=1e-8):
    """Eigen decomposition of a normal matrix via its commuting parts."""
    if not n.is_normal():
        raise PreconditionError("matrix is not normal at tolerance")
    h = DenseMatrix((n.data + n.data.conj().T) / 2.0)
    k = DenseMatrix((n.data - n.data.conj().T) / 2.0j)
    hv, hvec = hermitian_eigensystem(h)
    scale = max(n.norm(), 1.0)
    groups = _cluster(hv, cluster_tol * scale)
    vals = np.zeros(n.n, dtype=complex)
    vecs = np.zeros((n.n, n.n), dtype=complex)
    for idxs in groups:
        basis = hvec[:, idxs]
        comp = DenseMatrix(basis.conj().T @ k.data @ basis)
        kv, kvec = hermitian_eigensystem(comp)
        refined = basis @ kvec
        for pos, idx in enumerate(idxs):
            vals[idx] = hv[idxs[0]] + 1j * kv[pos]
            vecs[:, idx] = refined[:, pos]
    return vals, vecs


def _cluster(sorted_vals, tol):
    groups = []
    cur = [0]
    for i in range(1, len(sorted_vals)):
        if abs(sorted_vals[i] - sorted_vals[cur[-1]]) <= tol:
            cur.append(i)
        else:
            groups.append(cur)
            cur = [i]
    groups.append(cur)
    return groups


def verify_normal_codimension_identity(n: DenseMatrix, n_prime: DenseMatrix,
                                       cluster_tol=1e-8) -> IdentityReport:
    """Finite check of the spectral-projection trace identity."""
    if n.n != n_prime.n:
        raise PreconditionError("size mismatch")
    offdiag = n_prime.data - np.diag(np.diagonal(n_prime.data))
    if np.linalg.norm(offdiag) > EPS_MAT * max(1.0, n_prime.norm()):
        raise PreconditionError("second argument must be diagonal")
    vals, vecs = _normal_eigensystem(n, cluster_tol)
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
    ok = res <= max(1e-8 * scale, 1e-12)
    return IdentityReport(lhs, rhs, res, ok,
                          {"clusters": [_jsonable(c) for c in centers],
                           "P_ranks": counts, "Q_ranks": q_counts})
