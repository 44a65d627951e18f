"""Majorization deciders over sequence specs, exact where closed forms permit.

The partial-sum scans below certify their verdicts rather than extrapolate:

* a definite partial-sum violation yields Fails with the witness index;
* once the dominated side's running sum reaches the other side's total, all
  later inequalities follow from monotonicity (prefix domination);
* with equal totals, once both merged enumerations are inside a single
  closed-form tail (geometric or telescoping), the remaining infinitely many
  inequalities reduce to a tail-comparison rule decided exactly.

Both tail rules take every comparison from one scan, ``_scan``, which
compares tail_l(m) with tail_d(m + shift) for m = 0, 1, ... up to
``_SCAN_CAP``.  A per-kind-pair table completes each rule: for "for every
m", the index from which domination persists; for "eventually", the
asymptotic order of the two tails.

Outside the supported tail table (at most one infinite positive stream per
side), verdicts unresolved at the horizon are Unknown, never guessed.  On
the supported table the approximate p-majorization test coincides with the
plain p-shifted one; the epsilon relaxation only separates them for tail
shapes this package does not represent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, count, repeat
from numbers import Rational
from operator import mul

from .scalars import INF, Cmp, PreconditionError, fraction_str, unit_scale
from .seqspec import (
    DescendingMerge,
    SequenceSpec,
    total_sum,
    validate_c0_plus,
    validate_l1,
    split_parts,
)

HORIZON_DEFAULT = 10_000
_SCAN_CAP = 1_000_000


@dataclass(frozen=True)
class MajorizationVerdict:
    verdict: str                 # 'Holds' | 'Fails' | 'Unknown'
    mode: str                    # 'exact' | 'float'
    witness: tuple | None = None  # (index m, lhs, rhs) on Fails
    horizon: int | None = None    # scan depth on Unknown
    detail: str = ""

    @property
    def holds(self):
        return self.verdict == "Holds"

    def as_json(self):
        out = {"verdict": self.verdict, "mode": self.mode}
        if self.witness is not None:
            m, lhs, rhs = self.witness
            out["witness"] = {"index": m, "lhs": _num(lhs), "rhs": _num(rhs)}
        if self.horizon is not None:
            out["horizon"] = self.horizon
        if self.detail:
            out["detail"] = self.detail
        return out


def _num(x):
    if isinstance(x, Fraction):
        return fraction_str(x)
    return x


def parse_plevel(p):
    if p == INF or (isinstance(p, str) and p.lower() in ("inf", "infinity")):
        return INF
    p = int(p)
    if p < 0:
        raise PreconditionError("p must be a nonnegative integer or inf")
    return p


def _mode(*specs) -> str:
    return "exact" if all(s.exact for s in specs) else "float"


# ---------------------------------------------------------------------------
# finite lists


def majorize_finite(d, lam) -> MajorizationVerdict:
    """Classical majorization of two equal-length real tuples."""
    d = list(d)
    lam = list(lam)
    if len(d) != len(lam):
        raise PreconditionError("length mismatch")
    if not d:
        raise PreconditionError("empty input")
    exact = all(isinstance(x, Rational) for x in d + lam)
    mode = "exact" if exact else "float"
    cmp = Cmp(exact)
    ds = sorted(d, reverse=True)
    ls = sorted(lam, reverse=True)
    # majorization is homogeneous: decide it on unit-scale data and report
    # the witness in the data's own scale
    unit = unit_scale(ds + ls, exact)
    if unit != 1:
        ds = [x / unit for x in ds]
        ls = [x / unit for x in ls]
    sd = sl = ds[0] * 0
    uncertain = False
    detail = ""
    for m, (x, y) in enumerate(zip(ds, ls), start=1):
        sd += x
        sl += y
        c = cmp.le(sd, sl)
        if c is False:
            break
        if c is None:
            uncertain = True
    else:
        e = cmp.eq(sd, sl)
        if e is None or e and uncertain:
            return MajorizationVerdict("Unknown", "float", horizon=len(ds),
                                       detail="comparison inside float tolerance")
        if e:
            return MajorizationVerdict("Holds", mode)
        detail = "total sums differ"
    if unit != 1:
        sd, sl = sd * unit, sl * unit
    return MajorizationVerdict("Fails", mode, witness=(m, sd, sl), detail=detail)


# ---------------------------------------------------------------------------
# merged descending enumeration with tail awareness


class MergedDesc(DescendingMerge):
    """Partial-sum scan over the nonincreasing enumeration of a c0+ spec.

    Entries of a c0+ spec are nonnegative, so zeros from the finite source
    come up only once every tail is used up as well.
    """

    def __init__(self, spec: SequenceSpec):
        validate_c0_plus(spec)
        super().__init__(spec)
        self.multi_tail = len(self.tails) > 1
        self.n = 0
        self.partial = Fraction(0) if spec.exact else 0.0
        self.total = total_sum(spec)

    def advance(self):
        v = self.pop()
        self.n += 1
        if v is not None:
            self.partial = self.partial + v

    @property
    def settled(self) -> bool:
        """No finite positive entry is left and at most one tail remains."""
        head = self.finite.head
        return not self.multi_tail and (head is None or head <= 0)

    def tail_descr(self):
        """Closed-form remaining-sum descriptor, valid once settled."""
        assert self.settled
        return self.tails[0].descr() if self.tails else ("zero",)


def _tail_at(descr, m):
    kind = descr[0]
    if kind == "zero":
        return 0
    if kind == "geo":
        _, a, r = descr
        return a * r**m
    _, s, b = descr
    return s / (b + m)


def _terms(descr, shift):
    """tail(m + shift) for m = 0, 1, ...; a geometric term is one product per step."""
    if descr[0] == "geo":
        _, a, r = descr
        return accumulate(repeat(r), mul, initial=a * r**shift if shift else a)
    _, s, b = descr
    b = b + shift
    return (s / (b + m) for m in count())


def _scan(td, tl, shift, cmp):
    """cmp.le(tail_l(m), tail_d(m + shift)) for m = 0 ... _SCAN_CAP.

    Two telescoping tails are compared cross-multiplied: the quotients would
    put small tail values inside the float comparison floor.
    """
    ms = range(_SCAN_CAP + 1)
    if td[0] == tl[0] == "tel":
        _, s1, b1 = td
        _, s2, b2 = tl
        b1 = b1 + shift
        return (cmp.le(s2 * (b1 + m), s1 * (b2 + m)) for m in ms)
    return (cmp.le(y, x) for _, y, x in zip(ms, _terms(tl, 0), _terms(td, shift)))


def _first_violation(td, tl, shift, cmp):
    """First m of the scan with a definite violation (uncertain ones skipped)."""
    return next((m for m, c in enumerate(_scan(td, tl, shift, cmp)) if c is False),
                _SCAN_CAP + 1)


def _tails_dominate_forall(td, tl, cmp):
    """Does tail_d(m) >= tail_l(m) hold for every m >= 0?

    Returns True, None (uncertain), or (False, m) with the first violation.
    The scan stops at the index from which domination persists:
    0 for geo/geo with r_d >= r_l and for tel/tel with s_l <= s_d; for tel(d)
    against geo(l) the m1 past which a r^m (b+m)/s decreases; never otherwise.
    """
    if tl[0] == "zero":
        return True
    if td[0] == "zero":
        return (False, 0)
    kinds = (td[0], tl[0])
    stop = None
    if kinds == ("geo", "geo"):
        if td[2] >= tl[2]:
            stop = 0
    elif kinds == ("tel", "tel"):
        c = cmp.le(tl[1], td[1])
        if c is None:
            return None
        if c:
            stop = 0
    elif kinds == ("tel", "geo"):
        b, r = td[2], tl[2]
        m1_num = r * (b + 1) - b
        stop = int(m1_num / (1 - r)) + 1 if m1_num > 0 else 0
    for m, c in enumerate(_scan(td, tl, 0, cmp)):
        if c is not True:
            return None if c is None else (False, m)
        if m == stop:
            return True
    return None


def _tails_dominate_eventually(td, tl, p, cmp):
    """Does tail_d(m+p) >= tail_l(m) hold for all sufficiently large m?

    ``p`` is a nonnegative integer or INF (meaning: for every finite p).
    Returns True / None / (False, m, p_used) where m indexes a violation for
    the reported p.  The asymptotic order decides: a zero tail loses, a
    telescoping tail outlasts a geometric one, the larger ratio or scale wins
    between two of a kind, and a tie is settled at m = 0.
    """
    if tl[0] == "zero":
        return True
    pp = 0 if p == INF else p
    if td[0] == "zero":
        return (False, 0, pp)
    kinds = (td[0], tl[0])
    if kinds == ("geo", "geo"):
        order = (td[2] > tl[2]) - (td[2] < tl[2])
    elif kinds == ("tel", "tel"):
        gt = cmp.lt(tl[1], td[1])
        eq = False if gt else cmp.eq(td[1], tl[1])
        if gt is None or eq is None:
            return None
        order = 1 if gt else 0 if eq else -1
    else:
        order = 1 if td[0] == "tel" else -1
    if order > 0:
        return True
    if order < 0:
        return (False, _first_violation(td, tl, pp, cmp), pp)
    if kinds == ("geo", "geo"):
        if p == INF:
            # tail_l(0) <= tail_d(p) fails for large p: scan against a constant
            return (False, 0, _first_violation(td, ("geo", tl[1], 1), 0, cmp))
        c = next(_scan(td, tl, p, cmp))
        return c if c is not False else (False, 0, p)
    b1, b2 = td[2], tl[2]
    if p == INF:
        return (False, 0, max(b2 - b1 + 1, 0))
    if b1 + p <= b2:
        return True
    return (False, 0, p)


# ---------------------------------------------------------------------------
# spec-level deciders


def _tail_witness(sd, sl, m, shift=0):
    """(index, lhs, rhs) of a tail-rule violation m entries past both settled scans."""
    return (sd.n + m, sd.total.value - _tail_at(sd.tail_descr(), m + shift),
            sl.total.value - _tail_at(sl.tail_descr(), m))


def _totals_differ(d, lam):
    """Fails or Unknown unless the totals are equal (two infinite sums count as equal)."""
    mode = _mode(d, lam)
    t_d, t_l = total_sum(d), total_sum(lam)
    eq = Cmp(mode == "exact").xs_eq(t_d, t_l)
    if eq is False:
        return MajorizationVerdict(
            "Fails", mode, witness=(0, t_d.value if t_d.finite else t_d.kind,
                                    t_l.value if t_l.finite else t_l.kind),
            detail="total sums differ")
    if eq is None:
        return MajorizationVerdict("Unknown", mode, horizon=0,
                                   detail="totals inside float tolerance")
    return None


def weak_majorize(d: SequenceSpec, lam: SequenceSpec,
                  horizon=HORIZON_DEFAULT) -> MajorizationVerdict:
    """Weak majorization d ⪻ λ for nonnegative null sequences."""
    mode = _mode(d, lam)
    cmp = Cmp(mode == "exact")
    sd = MergedDesc(d)
    sl = MergedDesc(lam)
    if not sd.total.finite or not sl.total.finite:
        raise PreconditionError("weak majorization requires summable specs")
    td_total = sd.total.value
    uncertain = False
    for n in range(1, horizon + 1):
        sd.advance()
        sl.advance()
        c = cmp.le(sd.partial, sl.partial)
        if c is False:
            return MajorizationVerdict("Fails", mode, witness=(n, sd.partial, sl.partial))
        if c is None:
            uncertain = True
        dom = cmp.le(td_total, sl.partial)
        if dom is True:
            if uncertain:
                return MajorizationVerdict("Unknown", mode, horizon=n,
                                           detail="comparison inside float tolerance")
            return MajorizationVerdict("Holds", mode, detail="prefix domination")
        if sd.settled and sl.settled:
            eq = cmp.eq(td_total, sl.total.value)
            if eq is None:
                return MajorizationVerdict("Unknown", mode, horizon=n,
                                           detail="totals inside float tolerance")
            if eq is False:
                continue
            res = _tails_dominate_forall(sd.tail_descr(), sl.tail_descr(), cmp)
            if res is True:
                if uncertain:
                    return MajorizationVerdict("Unknown", mode, horizon=n,
                                               detail="comparison inside float tolerance")
                return MajorizationVerdict("Holds", mode, detail="tail rule")
            if res is None:
                return MajorizationVerdict("Unknown", mode, horizon=n,
                                           detail="tail comparison unresolved")
            return MajorizationVerdict("Fails", mode, witness=_tail_witness(sd, sl, res[1]),
                                       detail="tail rule")
    return MajorizationVerdict("Unknown", mode, horizon=horizon,
                               detail="horizon reached without certificate")


def majorize_spec(d: SequenceSpec, lam: SequenceSpec,
                  horizon=HORIZON_DEFAULT) -> MajorizationVerdict:
    """Majorization d ≺ λ: weak majorization plus equal totals."""
    return _totals_differ(d, lam) or weak_majorize(d, lam, horizon=horizon)


def majorize_l1(d: SequenceSpec, lam: SequenceSpec,
                horizon=HORIZON_DEFAULT) -> MajorizationVerdict:
    """Real ell-1 majorization: positive parts, negative parts, equal totals."""
    if d.field != "real" or lam.field != "real":
        raise PreconditionError("l1 majorization requires real specs")
    validate_l1(d, "d")
    validate_l1(lam, "lambda")
    off = _totals_differ(d, lam)
    if off:
        return off
    mode = _mode(d, lam)
    d_pos, d_neg = split_parts(d)
    l_pos, l_neg = split_parts(lam)
    vp = weak_majorize(d_pos, l_pos, horizon=horizon)
    if vp.verdict != "Holds":
        return MajorizationVerdict(vp.verdict, mode, witness=vp.witness,
                                   horizon=vp.horizon, detail="positive part: " + vp.detail)
    vn = weak_majorize(d_neg, l_neg, horizon=horizon)
    if vn.verdict != "Holds":
        return MajorizationVerdict(vn.verdict, mode, witness=vn.witness,
                                   horizon=vn.horizon, detail="negative part: " + vn.detail)
    return MajorizationVerdict("Holds", mode)


def _settle(state: MergedDesc):
    while not state.settled:
        if state.multi_tail:
            return False
        if state.n > _SCAN_CAP:
            return False
        state.advance()
    return True


def _p_shifted(d: SequenceSpec, lam: SequenceSpec, p, approx: bool,
               horizon=HORIZON_DEFAULT) -> MajorizationVerdict:
    p = parse_plevel(p)
    base = majorize_spec(d, lam, horizon=horizon)
    if base.verdict != "Holds":
        return base
    if p == 0 and not approx:
        return base
    mode = _mode(d, lam)
    cmp = Cmp(mode == "exact")
    sd, sl = MergedDesc(d), MergedDesc(lam)
    if not (_settle(sd) and _settle(sl)):
        return MajorizationVerdict("Unknown", mode, horizon=max(sd.n, sl.n),
                                   detail="tails outside the supported comparison table")
    while sd.n < sl.n:
        sd.advance()
    while sl.n < sd.n:
        sl.advance()
    res = _tails_dominate_eventually(sd.tail_descr(), sl.tail_descr(), p, cmp)
    if res is True:
        return MajorizationVerdict("Holds", mode, detail="tail rule")
    if res is None:
        return MajorizationVerdict("Unknown", mode, horizon=sd.n,
                                   detail="tail constants inside float tolerance")
    _, m, p_used = res
    detail = "eventual inequality fails"
    if p == INF:
        detail += f" already at p={p_used}"
    return MajorizationVerdict("Fails", mode, witness=_tail_witness(sd, sl, m, p_used),
                               detail=detail)


def p_majorize(d: SequenceSpec, lam: SequenceSpec, p,
               horizon=HORIZON_DEFAULT) -> MajorizationVerdict:
    """p-majorization: d ≺ λ plus the eventual p-shifted partial-sum bound."""
    return _p_shifted(d, lam, p, approx=False, horizon=horizon)


def approx_p_majorize(d: SequenceSpec, lam: SequenceSpec, p,
                      horizon=HORIZON_DEFAULT) -> MajorizationVerdict:
    """Approximate p-majorization (epsilon-relaxed eventual bound)."""
    return _p_shifted(d, lam, p, approx=True, horizon=horizon)
