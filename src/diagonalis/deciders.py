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
from itertools import accumulate, combinations, product

from .scalars import (
    INF,
    INTEGRALITY_BUFFER,
    INTEGRALITY_TOL,
    QC,
    Cmp,
    PreconditionError,
    UnsupportedError,
    XSum,
    abs2,
    as_qc,
    integrality,
    is_exact_scalar,
    is_real_scalar,
    python_scalars,
    scalar_abs,
    unit_scale,
)
from .jsonio import encode
from .majorization import (
    _sorted_scan,
    approx_p_majorize,
    majorize_l1,
    majorize_spec,
    p_majorize,
    weak_majorize,
)
from .seqspec import (
    ConstantRepeat,
    FiniteList,
    OrderedSequenceSpec,
    SequenceSpec,
    affine_image,
    canonical_streams,
    count_value,
    eigen_multiset,
    essential_points,
    essential_summary,
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
    _peel_head_by_gap,
    _z,
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
        return encode({"verdict": self.verdict, "theorem": self.theorem_tag,
                       "certificate": self.certificate, "mode": self.mode})


def _spec_mode(*specs):
    return "exact" if all(getattr(s, "exact", True) for s in specs) else "float"


def _verdict_from_majorization(v, yes=Decision.YES, no=Decision.NO):
    if v.verdict == "Holds":
        return yes
    if v.verdict == "Fails":
        return no
    return Decision.UNKNOWN


# Every numeric comparison behind a verdict goes through ``scalars.Cmp``:
# exact in exact mode; in float mode True within the tolerance, None (which
# the verdict reports as Unknown) in the buffer above it.
_BUFFER = "comparison inside the float tolerance buffer"


def _all3(answers):
    """Conjunction of three-valued Cmp answers: any False, else any None."""
    answers = list(answers)
    if False in answers:
        return False
    return None if None in answers else True


def _decided(ok, tag, cert, mode):
    """Yes / No from a three-valued Cmp answer; None becomes Unknown."""
    if ok is None:
        return Decision(Decision.UNKNOWN, tag, {**cert, "reason": _BUFFER}, mode)
    return Decision(Decision.YES if ok else Decision.NO, tag, cert, mode)


def _clamp(cmp, d, a, b):
    """d with every finite entry and constant value that ``cmp`` puts within
    the float tolerance of [a, b] moved onto the endpoint, and a certificate
    entry counting the moved entries (empty when none moved).

    This is the perturbation ``Cmp`` grants every other comparison.  Exact
    mode and complex specs are left as they are, and so are geometric and
    telescoping streams: their closed-form sums need the exact interval.
    """
    if cmp.exact or d.field != "real":
        return d, {}
    a, b = float(a), float(b)

    def near(v):
        return a if v < a and cmp.le(a, v) else b if v > b and cmp.le(v, b) else v

    streams, moved = [], 0
    for s in d.streams:
        if isinstance(s, FiniteList):
            values = [near(v) for v in s.values]
            moved += sum(x != v for x, v in zip(values, s.values))
            s = FiniteList(values)
        elif isinstance(s, ConstantRepeat) and near(s.value) != s.value:
            moved += s.count
            s = ConstantRepeat(near(s.value), s.count)
        streams.append(s)
    if not moved:
        return d, {}
    return SequenceSpec(tuple(streams), d.field, d.exact), {"clamped": moved}


def _inside(cmp, bounds, a, b):
    """Whether every entry, by its ``spec_bounds``, lies in [a, b].

    None also when an entry is outside by less than the float tolerance
    (one ``_clamp`` could not move): the closed-form sums that follow need
    the exact interval.
    """
    lo, _, hi, _ = bounds
    return _all3([cmp.le(a, lo), cmp.le(hi, b)]) and (bool(a <= lo and hi <= b) or None)


# ---------------------------------------------------------------------------
# Schur-Horn and compact relatives


def _prefix_sums(xs):
    """[x0, x0 + x1, ...] as one running sum started from 0, like ``sum``.

    Starting from the int 0 keeps the values and types of ``sum(xs[:k+1])``:
    a -0.0 head becomes 0.0, and int or Fraction entries stay exact.
    """
    return list(accumulate(xs, initial=0))[1:]


def decide_schur_horn(lam, d) -> Decision:
    """Finite selfadjoint case: d is a diagonal iff it is majorized (one sort per side)."""
    v, ds, ls = _sorted_scan(python_scalars(d), python_scalars(lam))
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
    if kernel_dim != INF and (int(kernel_dim) != kernel_dim or kernel_dim < 0):
        raise PreconditionError("kernel_dim is a nonnegative integer or inf")
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
    mode = _spec_mode(d)
    cmp = Cmp(mode == "exact")
    d, clamped = _clamp(cmp, d, 0, 1)
    bounds = spec_bounds(d)
    if bounds is not None:
        inside = _inside(cmp, bounds, 0, 1)
        if inside is False:
            raise PreconditionError("entries must lie in [0, 1]")
        if inside is None:
            return Decision(Decision.UNKNOWN, "kadison", {**clamped, "reason": _BUFFER}, mode)
    inv = kadison_invariants(d)
    cert = {**clamped, "a": inv.a, "b": inv.b}
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


def _bj_periods(interior, ceiling, target):
    """The period p_j of each N_j, or None unless the points and C - D are exact.

    With L the lcm of the denominators of the lambda_j, B and C - D, the
    equality C - D = sum lambda_j N_j + k B reads sum (L lambda_j) N_j =
    L (C - D) mod L B.  Lowering N_j by p_j = L B / gcd(L lambda_j, L B)
    keeps it, and keeps every inequality, whose right side grows in every N_j.
    """
    values = [*interior, ceiling, target]
    if not all(map(is_exact_scalar, values)):
        return None
    den = math.lcm(*(Fraction(v).denominator for v in values))
    modulus = int(ceiling * den)
    return [modulus // math.gcd(int(lj * den), modulus) for lj in interior]


def decide_bownik_jasper(points, d: SequenceSpec) -> Decision:
    """Finite-spectrum selfadjoint operators with spectrum {0, interior..., B}.

    ``points`` is the full increasing list 0 = lam_0 < ... < lam_{n+1} = B.
    """
    pts = python_scalars(points)
    if len(pts) < 2 or pts[0] != 0:
        raise PreconditionError("points must start at 0 and end at B > 0")
    if any(y <= x for x, y in zip(pts, pts[1:])):
        raise PreconditionError("points must be strictly increasing")
    ceiling = pts[-1]
    interior = pts[1:-1]
    mode = _spec_mode(d)
    cmp = Cmp(mode == "exact")
    d, clamped = _clamp(cmp, d, 0, ceiling)
    bounds = spec_bounds(d)
    if bounds is not None:
        inside = _inside(cmp, bounds, 0, ceiling)
        if inside is False:
            raise PreconditionError("entries must lie in [0, B]")
        if inside is None:
            return Decision(Decision.UNKNOWN, "bownik-jasper",
                            {**clamped, "reason": _BUFFER}, mode)
    if total_sum(d).kind != "pinf":
        raise PreconditionError("sum of entries must be infinite")
    if total_sum(affine_image(d, -1, ceiling)).kind != "pinf":
        raise PreconditionError("sum of (B - entries) must be infinite")
    half = ceiling / 2
    c_half, d_half = split_sums(d, half, ceiling=ceiling)
    cert = {**clamped, "C(B/2)": c_half, "D(B/2)": d_half}
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
    period = _bj_periods(interior, ceiling, target)
    bound = []
    for j, lj in enumerate(interior):
        bj = None
        for r, lr in enumerate(interior):
            coef = (ceiling - lr) * lj if j <= r else lr * (ceiling - lj)
            if lhs[r] is None:
                continue
            cap = lhs[r] / coef
            bj = cap if bj is None else min(bj, cap)
        limit = BJ_SEARCH_CAP if bj is None else math.floor(bj)  # exact for a Fraction
        if bj is not None and cmp.le(limit + 1, bj) is not False:  # float bj rounded down
            limit += 1
        if limit < 1:
            return Decision(Decision.NO, "bownik-jasper",
                            {**cert, "reason": f"no admissible N_{j+1}",
                             "bound": limit}, mode)
        bound.append(limit if period is None else min(limit, period[j]))
    if math.prod(bound) > BJ_SEARCH_CAP:
        return Decision(Decision.UNKNOWN, "bownik-jasper",
                        {**cert, "reason": "search bound exceeds candidate cap",
                         "bounds": bound}, mode)
    borderline = False
    for ns in product(*(range(1, b + 1) for b in bound)):  # the last N_j runs fastest
        s = sum(lj * nj for lj, nj in zip(interior, ns))
        ok, k = integrality((target - s) / ceiling, mode == "exact")
        for r, lr in enumerate(interior):  # up to the first answer that is not True
            if ok and lhs[r] is not None:
                rhs = ((ceiling - lr) * sum(interior[j] * ns[j] for j in range(r + 1))
                       + lr * sum((ceiling - interior[j]) * ns[j] for j in range(r + 1, n)))
                ok = cmp.le(rhs, lhs[r])
        if ok:
            return Decision(Decision.YES, "bownik-jasper", {**cert, "N": list(ns), "k": k}, mode)
        borderline = borderline or ok is None
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


def _hull_edges(points, mode="float"):
    """Convex hull vertices, ccw (edges join neighbours): QC points in exact
    mode (see _points_mode), complex ones otherwise."""
    point = as_qc if mode == "exact" else complex
    pts = sorted({point(p) for p in points}, key=lambda w: (w.real, w.imag))
    if len(pts) <= 2:
        return pts
    hull = []
    for chain in (pts, pts[::-1]):  # Andrew's lower and upper monotone chains
        out = []
        for p in chain:
            while len(out) >= 2 and ((out[-1] - out[-2]).conjugate() * (p - out[-2])).imag <= 0:
                out.pop()
            out.append(p)
        hull += out[:-1]
    return hull


def _points_mode(points, d):
    """Exact only when d and every essential-spectrum point are exact."""
    return _spec_mode(d) if all(map(is_exact_scalar, points)) else "float"


def _interior_distance(z, hull):
    """Signed distance of z to the boundary of a hull of three or more
    vertices (positive inside).

    On a QC hull the edge cross products are not divided by the edge
    lengths: the sign is exact, the size is not a distance.
    """
    exact = isinstance(hull[0], QC)
    z = as_qc(z) if exact else complex(z)
    best = None
    for i in range(len(hull)):
        a, b = hull[i], hull[(i + 1) % len(hull)]
        edge = b - a
        sd = (edge.conjugate() * (z - a)).imag
        if not exact:
            nrm = abs(edge)
            if nrm < 1e-300:
                continue
            sd /= nrm
        best = sd if best is None else min(best, sd)
    return best


def check_blaschke(spec, d: SequenceSpec, mode="selfadjoint") -> Decision:
    """Divergent boundary-distance sum: a sufficient diagonal condition."""
    if mode == "selfadjoint":
        summary = essential_summary(spec)
        dmode = _points_mode(summary.ess_points, d)
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
    points = essential_points(spec)
    dmode = _points_mode(points, d)
    hull = _hull_edges(points, dmode)
    if len(hull) < 3:
        raise PreconditionError("essential numerical range has empty planar interior")
    diverges = False
    tol = 0.0 if dmode == "exact" else 1e-12
    for s in canonical_streams(d):
        if stream_is_infinite(s):
            sd = _interior_distance(stream_limit(s), hull)
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
    cert = {"hull": hull, "diverges": diverges}
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
    cmp = Cmp(mode == "exact")
    ms = eigen_multiset(spec)
    dim_a = count_value(ms, a)
    dim_b = count_value(ms, b)
    d, clamped = _clamp(cmp, d, a, b)
    cert = {**clamped, "a": a, "b": b, "dim_a": dim_a, "dim_b": dim_b}
    bounds = spec_bounds(d)
    if bounds is not None:
        lo, lo_att, hi, hi_att = bounds
        inside = _inside(cmp, bounds, a, b)
        if inside is False:
            return Decision(Decision.NO, "three-point",
                            {**cert, "clause": "value outside W(T)"}, mode)
        at_a = lo_att and dim_a == 0 and cmp.eq(lo, a)
        at_b = hi_att and dim_b == 0 and cmp.eq(hi, b)
        if at_a:
            return Decision(Decision.NO, "three-point",
                            {**cert, "clause": "endpoint a not an eigenvalue"}, mode)
        if at_b:
            return Decision(Decision.NO, "three-point",
                            {**cert, "clause": "endpoint b not an eigenvalue"}, mode)
        if None in (inside, at_a, at_b):
            return Decision(Decision.UNKNOWN, "three-point", {**cert, "reason": _BUFFER}, mode)
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


def _parallel(cmp, u, v):
    """Whether plane vectors u, v are parallel: the cross product's terms agree.

    In float mode both terms are divided by max(|u|, |v|): a move of the
    unit-scale data by 1e-10 moves u x v by about 1e-10 (|u| + |v|), so
    that is the size the tolerance should be measured against, not 1.
    """
    if not cmp.exact:
        size = max(abs(u), abs(v))
        if size == 0:
            return True
        u = u / size
    return cmp.eq(u.real * v.imag, u.imag * v.real)


def _on_segment(cmp, p, a, b):
    """Whether p lies on the segment [a, b], a != b; three-valued."""
    u, v = b - a, p - a
    t = (v * u.conjugate()).real  # |u|^2 times the position of p along [a, b]
    return _all3([_parallel(cmp, u, v), cmp.le(0, t), cmp.le(t, abs2(u))])


def _inconic(bc, p):
    """Q(p) for the ellipse inscribed in the triangle that touches each side
    at the trace of the isotomic conjugate (vw : uw : uv) of bc = (u, v, w);
    p is in barycentric coordinates.  Q vanishes on the ellipse, and each
    side meets it in a double root at that trace.
    """
    u, v, w = bc
    x, y, z = p
    return ((u * x) ** 2 + (v * y) ** 2 + (w * z) ** 2
            - 2 * (u * v * x * y + v * w * y * z + w * u * z * x))


def _barycentric(p, a, b, c):
    """Barycentric coordinates of p in the triangle (a, b, c), or None if flat.

    Cramer's rule on plane points (``QC`` or ``complex``): exact for QC.
    """
    def cross(u, v):
        return u.real * v.imag - u.imag * v.real

    den = cross(b - a, c - a)
    if den == 0:
        return None
    return cross(b - p, c - p) / den, cross(c - p, a - p) / den, cross(a - p, b - p) / den


def decide_williams_3x3(lam, d) -> Decision:
    """Diagonals of a 3x3 normal matrix with eigenvalues ``lam``.

    Exact input runs on ``QC`` points, float input on ``complex`` ones, through
    the same geometry.  In the interior case one closed form serves both
    modes: with d1 = (u, v, w) in barycentric coordinates, the ellipse
    inscribed in the triangle that touches the sides at the traces of the
    isotomic conjugate (vw : uw : uv) is Q = 0 for
    Q(x, y, z) = (ux)^2 + (vy)^2 + (wz)^2 - 2(uv xy + vw yz + wu zx)
    (Williams, J. London Math. Soc. 3, 1971), and d2 is admissible when it
    lies on the center's side of it.
    """
    lam = python_scalars(lam)
    d = python_scalars(d)
    if len(lam) != 3 or len(d) != 3:
        raise PreconditionError("need three eigenvalues and three diagonal entries")
    exact = all(map(is_exact_scalar, lam + d))
    mode = "exact" if exact else "float"
    cmp = Cmp(exact)
    point = as_qc if exact else complex
    lam = [point(v) for v in lam]
    d = [point(v) for v in d]
    # scaling the plane changes no clause: decide on unit-scale points and
    # report certificate points in the data's own scale
    unit = unit_scale(lam + d, exact)
    if unit != 1:
        lam = [v / unit for v in lam]
        d = [v / unit for v in d]
    tag = "williams-3x3"
    flat = _parallel(cmp, lam[1] - lam[0], lam[2] - lam[0])
    if flat is None:
        return _decided(None, tag, {}, mode)
    if flat:
        return _williams_collinear(cmp, lam, d, mode)
    # every case below checks the trace: d2 + d3 = lam1 + lam2 + lam3 - d1
    pair_ok = cmp.eq(d[1] + d[2], lam[0] + lam[1] + lam[2] - d[0])
    bc = _barycentric(d[0], *lam)
    cert = {"barycentric_d1": list(bc)}
    if _all3(cmp.le(0, x) for x in bc) is False:
        return Decision(Decision.NO, tag, {**cert, "clause": "d1 outside the triangle"}, mode)
    zeros = [cmp.eq(x, 0) for x in bc]
    if None in zeros:
        return _decided(None, tag, cert, mode)
    nz = zeros.count(True)
    if nz >= 2:  # d1 is the vertex lam_i
        i = zeros.index(False)
        j, l = [k for k in range(3) if k != i]
        ok = _all3([pair_ok, _on_segment(cmp, d[1], lam[j], lam[l])])
        return _decided(ok, tag, {**cert, "clause": "vertex case", "edge": [j, l]}, mode)
    if nz == 1:  # d1 on the open edge opposite lam_k
        k = zeros.index(True)
        i, j = [t for t in range(3) if t != k]
        reflected = lam[i] + lam[j] - d[0]
        ok = _all3([pair_ok, _on_segment(cmp, d[1], reflected, lam[k])])
        return _decided(ok, tag, {**cert, "clause": "edge case",
                                  "reflected_d1": reflected * unit, "opposite_vertex": k}, mode)
    # interior: the inscribed ellipse with perspector the isotomic conjugate
    # of d1; the achievable pair set is centrally symmetric, pinning the center
    center = (lam[0] + lam[1] + lam[2] - d[0]) / 2
    cert["ellipse_center"] = center * unit
    if pair_ok is not True:
        return _decided(pair_ok, tag,
                        {**cert, "clause": "pair not symmetric about the ellipse center"}, mode)
    q_center = _inconic(bc, _barycentric(center, *lam))
    q_d2 = _inconic(bc, _barycentric(d[1], *lam))
    # d2 is inside or on the ellipse: on the center's side of the conic
    return _decided(cmp.le(0, q_d2 / q_center), tag, {**cert, "clause": "interior case"}, mode)


def _williams_collinear(cmp, lam, d, mode):
    """Collinear eigenvalues reduce to the selfadjoint (Schur-Horn) case."""
    # the line's direction: a repeated lam[0] gives none, so take the next
    # point that differs from it (all equal: every coordinate is 0)
    w = next((v - lam[0] for v in lam[1:] + d if v != lam[0]), lam[1] - lam[0])
    on_line = _all3(_parallel(cmp, w, v - lam[0]) for v in lam + d)
    if on_line is not True:
        return _decided(on_line, "williams-3x3",
                        {"clause": "entry off the eigenvalue line"}, mode)
    t_lam, t_d = [[((v - lam[0]) * w.conjugate()).real for v in vs] for vs in (lam, d)]
    inner = decide_schur_horn(t_lam, t_d)
    return Decision(inner.verdict, "williams-3x3",
                    {"clause": "collinear reduction", "inner": inner.as_json()}, mode)


# ---------------------------------------------------------------------------
# Arveson's finite-spectrum normal condition


def check_arveson(vertices, d: SequenceSpec, coeff_bound=ARVESON_COEFF_BOUND_DEFAULT) -> Decision:
    """Deviation-sum lattice membership for finite-spectrum normal operators."""
    verts = python_scalars(vertices)
    if len(verts) < 2:
        raise PreconditionError("need at least two vertices")
    exact = all(map(is_exact_scalar, verts)) and d.exact
    mode = "exact" if exact else "float"
    cmp = Cmp(exact)
    point = as_qc if exact else complex
    vs = [point(v) for v in verts]
    # the difference of the closest pair of distinct vertices
    closest = min((vs[i] - vs[j] for i in range(len(vs)) for j in range(i)
                    if vs[i] != vs[j]), key=abs2, default=None)
    total_dev = point(0)
    for s in canonical_streams(d):
        if stream_is_infinite(s):
            lim = point(stream_limit(s))
            if not any(cmp.eq(lim, v) for v in vs):
                raise PreconditionError(
                    "infinite stream limit is not a vertex: deviation sum diverges")
            # tail entries lie within half the vertex gap of the limit, so the
            # limit is their closest vertex and their deviation has a closed form
            head, tail = _peel_head_by_gap(s, closest / 2) if closest else ([], s)
            total_dev = total_dev + point(stream_tail_deviation(tail))
        else:
            head = _expand_finite(s)
        for e in head:
            e = point(e)
            j = min(range(len(vs)), key=lambda j: (abs2(e - vs[j]), j))
            total_dev = total_dev + (e - vs[j])
    gens = [((v - vs[0]).real, (v - vs[0]).imag) for v in vs[1:]]
    target = (total_dev.real, total_dev.imag)
    cert = {"deviation_sum": total_dev}
    if not exact:
        sol = _lattice_search_float(gens, target, coeff_bound, 1e-9)
        if sol is None:
            return Decision(Decision.UNKNOWN, "arveson",
                            {**cert, "reason": "bounded lattice search exhausted"}, mode)
        return Decision(Decision.YES, "arveson", {**cert, "c": [-sum(sol)] + sol}, mode)
    sol = _lattice_solve(gens, target)
    if sol is None:
        return Decision(Decision.NO, "arveson",
                        {**cert, "reason": "deviation sum outside the vertex lattice"}, mode)
    coeffs = [-sum(sol)] + sol
    cert["c"] = coeffs
    if max(abs(c) for c in coeffs) > coeff_bound:
        cert["note"] = "certificate exceeds requested coefficient bound"
    return Decision(Decision.YES, "arveson", cert, mode)


def _egcd(a, b):
    """(g, x, y) with a x + b y = g = gcd(a, b) >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return (a, x0, y0) if a >= 0 else (-a, -x0, -y0)


def _lattice_solve(gens, target):
    """Integer x with sum_j x_j gens[j] = target, or None.

    ``gens`` and ``target`` are rational plane vectors, scaled to integers by
    the lcm of their denominators.  A two-row Hermite reduction: each
    integer column carries its coefficient vector, and for each row,
    extended-gcd steps fold every entry into one pivot column and leave 0 in
    the others; the target is then back-substituted.  Membership is decided
    exactly, so a None is a proof of non-membership.
    """
    den = math.lcm(*(Fraction(v).denominator for vec in [*gens, target] for v in vec))
    cols = [([int(v * den) for v in g], [int(i == j) for i in range(len(gens))])
            for j, g in enumerate(gens)]
    t = [int(v * den) for v in target]
    x = [0] * len(gens)
    for row in (0, 1):
        pivot, rest = None, []
        for col in cols:
            if col[0][row] == 0:
                rest.append(col)
            elif pivot is None:
                pivot = col
            else:  # u, w = p/g, c/g in this row: a P + b C has g, u C - w P has 0
                (pv, pc), (cv, cc) = pivot, col
                g, a, b = _egcd(pv[row], cv[row])
                u, w = pv[row] // g, cv[row] // g
                pivot = ([a * y + b * z for y, z in zip(pv, cv)],
                         [a * y + b * z for y, z in zip(pc, cc)])
                rest.append(([u * z - w * y for y, z in zip(pv, cv)],
                             [u * z - w * y for y, z in zip(pc, cc)]))
        cols = rest
        if pivot is None:
            if t[row]:
                return None
            continue
        q, r = divmod(t[row], pivot[0][row])
        if r:
            return None
        t = [y - q * z for y, z in zip(t, pivot[0])]
        x = [y + q * z for y, z in zip(x, pivot[1])]
    return x


def _lattice_search_float(gens, target, bound, tol):
    """Bounded float search: integer combo of up to two generators hitting target.

    Returns coefficient list or None; None proves nothing (search control
    only).
    """
    m = len(gens)
    tx, ty = target
    scale = max(abs(tx), abs(ty), 1.0)
    if abs(tx) <= tol * scale and abs(ty) <= tol * scale:
        return [0] * m
    for i, j in combinations(range(m), 2):
        (a, b), (c, d) = gens[i], gens[j]
        det = a * d - b * c
        if abs(det) < 1e-14:
            continue
        x = (tx * d - ty * c) / det
        y = (a * ty - b * tx) / det
        xi, yi = round(x), round(y)
        if abs(x - xi) <= 1e-6 and abs(y - yi) <= 1e-6 and abs(xi) <= bound and abs(yi) <= bound:
            rx = xi * a + yi * c - tx
            ry = xi * b + yi * d - ty
            if abs(rx) <= tol * scale and abs(ry) <= tol * scale:
                out = [0] * m
                out[i], out[j] = xi, yi
                return out
    for i in range(m):
        a, b = gens[i]
        nrm = a * a + b * b
        if nrm < 1e-28:
            continue
        x = (tx * a + ty * b) / nrm
        xi = round(x)
        if abs(x - xi) <= 1e-6 and abs(xi) <= bound:
            if abs(xi * a - tx) <= tol * scale and abs(xi * b - ty) <= tol * scale:
                out = [0] * m
                out[i] = xi
                return out
    return None


def _expand_finite(s):
    out = []
    for e in stream_entries(s):
        out.append(e)
        if len(out) > 100_000:
            raise UnsupportedError("finite stream too large")
    return out


# ---------------------------------------------------------------------------
# unitary and Thompson diagonals


def decide_horn_unitary(d, variant="unitary") -> Decision:
    """Finite unitary / orthogonal / rotation diagonals."""
    d = python_scalars(d)
    if not d:
        raise PreconditionError("empty input")
    if variant not in ("unitary", "orthogonal", "rotation"):
        raise PreconditionError("variant must be unitary, orthogonal or rotation")
    if variant in ("orthogonal", "rotation") and not all(map(is_real_scalar, d)):
        raise PreconditionError(f"{variant} variant requires real entries")
    tag = f"horn-{variant}"
    if variant == "rotation":
        exact = all(map(is_exact_scalar, d))
        vals = [Fraction(v.real) if exact else float(v.real) for v in d]
        # |d| sorted, the smallest negated when an odd number of d are negative
        xs = sorted(abs(v) for v in vals)
        if sum(1 for v in vals if v < 0) % 2 == 1:
            xs[0] = -xs[0]
        cert, outside = {"reduced": xs}, "entry outside [-1, 1]"
    else:
        xs = [scalar_abs(v) for v in d]
        exact = all(map(is_exact_scalar, xs))
        cert, outside = {}, "modulus above 1"
    mode = "exact" if exact else "float"
    cmp = Cmp(exact)
    inside = _all3(cmp.le(abs(x), 1) for x in xs)
    if inside is False:
        return Decision(Decision.NO, tag, {"reason": outside}, mode)
    lhs = 2 * (1 - min(xs))
    rhs = sum(1 - x for x in xs)
    return _decided(_all3([inside, cmp.le(lhs, rhs)]), tag, {**cert, "lhs": lhs, "rhs": rhs}, mode)


def decide_jlw_unitary(d: SequenceSpec) -> Decision:
    """Diagonals of unitary operators (infinite dimensional)."""
    ad = abs_values(d)
    mode = _spec_mode(ad)
    cmp = Cmp(mode == "exact")
    ad, clamped = _clamp(cmp, ad, 0, 1)
    bounds = spec_bounds(ad)
    if bounds is None:
        raise PreconditionError("empty sequence")
    lo, _, hi, _ = bounds
    inside = _inside(cmp, bounds, 0, 1)
    if inside is not True:
        return _decided(inside, "jlw-unitary",
                        {**clamped, "reason": "modulus above 1", "sup": hi}, mode)
    rhs = total_sum(affine_image(ad, -1, 1))
    cert = {**clamped, "inf_modulus": lo, "deficiency_sum": rhs}
    if rhs.kind == "pinf":
        return Decision(Decision.YES, "jlw-unitary", cert, mode)
    lhs = 2 * (1 - lo)
    cert["lhs"] = lhs
    return _decided(cmp.le(lhs, rhs.value), "jlw-unitary", cert, mode)


def decide_thompson(s, d) -> Decision:
    """Finite matrices with prescribed singular values and diagonal."""
    s = python_scalars(s)
    d = python_scalars(d)
    if len(s) != len(d):
        raise PreconditionError("length mismatch")
    if not s:
        raise PreconditionError("empty input")
    if any(s[i] < s[i + 1] for i in range(len(s) - 1)):
        raise PreconditionError("singular values must be nonincreasing")
    if any(x < 0 for x in s):
        raise PreconditionError("singular values must be nonnegative")
    moduli = sorted((scalar_abs(v) for v in d), reverse=True)
    exact = all(map(is_exact_scalar, s + moduli))
    mode = "exact" if exact else "float"
    cmp = Cmp(exact)
    # the inequalities are homogeneous: decide them on unit-scale data and
    # report the certificate in the data's own scale
    unit = unit_scale(s + moduli, exact)
    if unit != 1:
        s = [x / unit for x in s]
        moduli = [x / unit for x in moduli]
    answers = []
    run_d = run_s = 0
    for k, (x, y) in enumerate(zip(moduli, s), start=1):
        run_d += x
        run_s += y
        answers.append(cmp.le(run_d, run_s))
        if answers[-1] is False:
            return Decision(Decision.NO, "thompson", {"witness": {
                "index": k, "lhs": run_d * unit, "rhs": run_s * unit}}, mode)
    lhs = 2 * (s[-1] - moduli[-1])
    rhs = run_s - run_d
    # lhs <= rhs compared as two sums, so the tolerance scales with the data
    answers.append(cmp.le(2 * s[-1] + run_d, run_s + 2 * moduli[-1]))
    return _decided(_all3(answers), "thompson", {"lhs": lhs * unit, "rhs": rhs * unit}, mode)


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
    interior_limit = False
    if d.field == "real":
        summary = essential_summary(spec)
        mode = _points_mode(summary.ess_points, d)
        lo, hi = summary.w_e
        for s in canonical_streams(d):
            if stream_is_infinite(s):
                lim = stream_limit(s)
                if lo < lim < hi:
                    interior_limit = True
    else:
        points = essential_points(spec)
        mode = _points_mode(points, d)
        hull = _hull_edges(points, mode)
        if len(hull) >= 3:
            tol = 0 if mode == "exact" else 1e-12
            for s in canonical_streams(d):
                if stream_is_infinite(s) and _interior_distance(stream_limit(s), hull) > tol:
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
        if not _z(lim):
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
    if _norm_is_zero(drift, mode) is not True:
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
        return bool(mag == 0)
    if mag <= INTEGRALITY_TOL:
        return True
    if mag <= INTEGRALITY_BUFFER:
        return None
    return False


@dataclass(frozen=True)
class TraceSetClass:
    kind: str                 # 'Empty' | 'Point' | 'Line' | 'Plane'
    value: object = None      # Point: the trace
    direction: object = None  # Line: unit direction of the trace line
    offset: object = None     # Line: signed distance of the line from 0

    def as_json(self):
        return encode({k: v for k, v in vars(self).items() if v is not None})


def _ray_direction(phase):
    if isinstance(phase, (QC, complex)):
        u = phase
        mag2 = abs2(u)
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
    direction * magnitude over each ray's stream.  A phase is an angle or a
    unit direction.  When every direction is a ``QC`` and every magnitude
    spec is exact, the class, the point and the line are computed exactly;
    otherwise in floats, with a fixed 1e-12 for the cross product signs.
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
        totals.append(total_sum(mag).value if ok else None)
    exact = all(isinstance(u, QC) for u in dirs) and all(mag.exact for _, mag in rays)
    if not exact:
        dirs = [complex(u) for u in dirs]
        totals = [None if t is None else float(t) for t in totals]
    tol = 0 if exact else 1e-12
    ns = [i for i in range(len(rays)) if not summable[i]]
    if not ns:
        val = as_qc(0) if exact else 0j
        for u, t in zip(dirs, totals):
            val += u * t
        return TraceSetClass("Point", value=val)
    u0 = dirs[ns[0]]
    if all(abs(_cross(u0, dirs[i])) <= tol for i in ns[1:]):
        if any(_dot(u0, dirs[i]) < 0 for i in ns):
            # trace line along u0; offset = normal component of the summable part
            w = u0 * (QC(Fraction(0), Fraction(1)) if exact else 1j)
            c = sum((_dot(w, u) * t for u, t in zip(dirs, totals) if t is not None),
                    Fraction(0) if exact else 0.0)
            return TraceSetClass("Line", direction=u0, offset=c)
        return TraceSetClass("Empty")
    for j in ns:
        for sgn in (1, -1):
            signs = [sgn * _cross(dirs[j], dirs[i]) for i in ns]
            # every non-summable ray on one closed side, one strictly inside
            if all(x <= tol for x in signs) and any(x < -tol for x in signs):
                return TraceSetClass("Empty")
    return TraceSetClass("Plane")


def _cross(a, b):
    return (a.conjugate() * b).imag


def _dot(a, b):
    return (a.conjugate() * b).real
