"""Majorization deciders over sequence specs, exact where closed forms permit.

The partial-sum scans below certify their verdicts rather than extrapolate:

* a definite partial-sum violation yields Fails with the witness index;
* once the dominated side's running sum reaches the other side's total, all
  later inequalities follow from monotonicity (prefix domination);
* with equal totals, once both merged enumerations are inside a single
  closed-form tail (geometric or telescoping), the remaining infinitely many
  inequalities reduce to a tail-comparison rule decided exactly;
* with equal totals, once no finite positive entry is left and a side holds
  two or more tails, weak majorization of what remains is the threshold
  condition sum min(d_i, t) >= sum min(lambda_i, t) for every t > 0.

Both tail rules ask where tail_l(m) <= tail_d(m + shift) first fails, up to
``_SCAN_CAP``.  They locate that index from the shape of the two tails, by
bisection on log estimates whose rounding error is bounded and on exact
values where that bound does not decide, and confirm an index found with
estimates on exact values at m and m - 1.  A first violation past the cap
is not reported: "for every m" is then Unknown, and a failure that the
asymptotic order proves is Fails without a witness.  A per-kind-pair table
completes each rule: for "for every m", the index from which domination
persists; for "eventually", the asymptotic order of the two tails.

The threshold condition certifies Holds when the streams left on the two
sides cancel one for one, or when every stream left is geometric with one
common ratio r and d keeps at least as many of them as lambda.  The
difference of the two threshold sums is then checked exactly at every entry
down to one period below the smallest first entry, and the period repeats
below that, scaled by r.  Every other multi-tail case keeps scanning
partial sums to the horizon, where a violation gives Fails with the scan's
witness and none gives Unknown, never a guess.

p-majorization keeps the one-tail table: with two or more infinite positive
streams on a side it is Unknown.  On that table the approximate
p-majorization test coincides with the plain p-shifted one; the epsilon
relaxation only separates them for tail shapes this package does not
represent.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral, Rational
from operator import itemgetter

from .jsonio import encode
from .scalars import INF, Cmp, PreconditionError, unit_scale
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
            out["witness"] = {"index": m, "lhs": lhs, "rhs": rhs}
        if self.horizon is not None:
            out["horizon"] = self.horizon
        if self.detail:
            out["detail"] = self.detail
        return encode(out)


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
    """Classical majorization of two equal-length real tuples.

    Exact input is sorted and scanned on Python ints x·L, L the lcm of all
    denominators; a witness is typed as sums from 0 times the largest d.
    """
    return _sorted_scan(d, lam)[0]


def _sorted_scan(d, lam):
    """(verdict, ds, ls), with ds and ls the input values in the order of
    ``sorted(values, reverse=True)``: d and lam are sorted once."""
    d = list(d)
    lam = list(lam)
    if len(d) != len(lam):
        raise PreconditionError("length mismatch")
    if not d:
        raise PreconditionError("empty input")
    exact = all(isinstance(x, Rational) for x in d + lam)
    mode = "exact" if exact else "float"
    cmp = Cmp(exact)
    if exact:
        unit = math.lcm(*{int(x.denominator) for x in d + lam})
        # keys x·unit as Python ints (numpy ints would wrap); a stable sort
        # on them orders the entries as sorted(values, reverse=True) does
        (kd, ds), (kl, ls) = (zip(*sorted([(int(x.numerator) * (unit // int(x.denominator)), x)
                                           for x in xs], key=itemgetter(0), reverse=True))
                              for xs in (d, lam))
    else:
        ds = sorted(d, reverse=True)
        ls = sorted(lam, reverse=True)
        # majorization is homogeneous: decide it on unit-scale data and
        # report the witness in the data's own scale
        unit = unit_scale(ds + ls, exact)
        kd, kl = ([x / unit for x in xs] if unit != 1 else xs for xs in (ds, ls))
    sd = sl = kd[0] * 0
    uncertain = False
    detail = ""
    for m, (x, y) in enumerate(zip(kd, kl), start=1):
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
                                       detail="comparison inside float tolerance"), ds, ls
        if e:
            return MajorizationVerdict("Holds", mode), ds, ls
        detail = "total sums differ"
    if exact:  # typed as sums from 0 * ds[0]: an int prefix stays an int
        sd, sl = (t // unit if all(isinstance(x, Integral) for x in xs) else Fraction(t, unit)
                  for t, xs in ((sd, ds[:m]), (sl, (ds[0], *ls[:m]))))
    elif unit != 1:
        sd, sl = sd * unit, sl * unit
    return MajorizationVerdict("Fails", mode, witness=(m, sd, sl), detail=detail), ds, ls


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

    def advance_run(self):
        """Take a whole run of equal positive finite entries when it is on top,
        else one entry.  The finite source wins ties, so its run stays on top
        until it is used up."""
        f = self.finite
        v, k = f.head, f.left
        if v is None or v <= 0 or any(t.head > v for t in self.tails):
            self.advance()
            return
        f.pop(k)
        self.n += k
        self.partial = self.partial + v * k

    def advance_to(self, n):
        """Move a settled scan on to ``n`` >= ``self.n`` entries taken, in closed form."""
        if self.tails and n > self.n:
            left = _tail_at(self.tail_descr(), 0)
            self.tails[0].pop(n - self.n)
            self.partial = self.partial + left - _tail_at(self.tail_descr(), 0)
        self.n = n

    @property
    def heads_done(self) -> bool:
        """No finite positive entry is left."""
        head = self.finite.head
        return head is None or head <= 0

    @property
    def settled(self) -> bool:
        """No finite positive entry is left and at most one tail remains."""
        return not self.multi_tail and self.heads_done

    def tail_descr(self):
        """Closed-form remaining-sum descriptor, valid once settled."""
        assert self.settled
        return self.tails[0].descr() if self.tails else ("zero",)


# ---------------------------------------------------------------------------
# closed-form tail rules
#
# ``tail(m)`` is a settled scan's remaining sum after m more entries:
# ("geo", a, r) gives a*r**m and ("tel", s, b) gives s/(b + m).  Every tail
# rule asks for the first m at which tail_l(m) <= tail_d(m + shift) is not
# True, and finds it by bisection instead of by stepping m.  In exact
# arithmetic the failing indices form one run from the first of them on:
# ln(tail_l/tail_d) is monotone for two tails of one kind, and a r^m (b+m)/s
# rises and then falls for a geometric against a telescoping tail, so a
# geometric tail_d fails from 0 on or once that has fallen below 1, and the
# forall rule scans a telescoping tail_d only while it rises.  Float
# comparisons add a few turning points (``_TailPair.turns``).


def _tail_at(descr, m, power=pow):
    kind = descr[0]
    if kind == "zero":
        return 0
    if kind == "geo":
        _, a, r = descr
        return a * power(r, m) if m else a
    _, s, b = descr
    return s / (b + m)


def _sides(td, tl, shift, m, power=pow):
    """(tail_l(m), tail_d(m + shift)) as compared.

    Two telescoping tails are compared cross-multiplied: the quotients would
    put small tail values inside the float comparison floor.
    """
    if td[0] == tl[0] == "tel":
        return tl[1] * (td[2] + shift + m), td[1] * (tl[2] + m)
    return _tail_at(tl, m, power), _tail_at(td, m + shift, power)


# bound on the relative rounding error of a short sum of logarithms, with a
# margin of 2**12 over the few units in the last place it can lose
_LOG_SLACK = 2.0 ** -40
# below this index exact tail values cost less than a log estimate
_EXACT_BELOW = 32
_HALF = Fraction(1, 2)


def _ln(q):
    """(ln q, a magnitude whose 2**-52 multiple bounds its rounding error).

    A Fraction goes through the logarithms of its integer parts, which never
    overflow, or through log1p near 1, where those would cancel.  ln 0 is -inf.
    """
    if q == 0:
        return -math.inf, 0.0
    if isinstance(q, Fraction) and not _HALF < q < 2:
        a, b = math.log(q.numerator), math.log(q.denominator)
        return a - b, a + b
    v = math.log1p(q - 1) if isinstance(q, Fraction) else math.log(q)
    return v, abs(v)


class _LogTail:
    """ln tail(m + shift) with its error magnitude, for a geometric or telescoping tail.

    ``c`` is ln a (shift included) or ln s, ``lr`` is ln r and ``b`` the
    telescoping index with the shift included.
    """

    def __init__(self, descr, shift):
        self.geo = descr[0] == "geo"
        self.c, self.ec = _ln(descr[1])
        if self.geo:
            self.lr, self.er = _ln(descr[2])
            self.c, self.ec = self.c + shift * self.lr, self.ec + shift * self.er
        else:
            self.b = descr[2] + shift

    def __call__(self, m):
        if self.geo:
            return self.c + m * self.lr, self.ec + m * self.er
        lb = math.log(self.b + m)
        return self.c - lb, self.ec + lb


def _root(f, lo, hi):
    """A point within 1/2 below a sign change of f, when f(lo) and f(hi) differ in sign."""
    pos = f(lo) > 0
    if lo >= hi or (f(hi) > 0) == pos:
        return None
    while hi - lo > 0.5:
        mid = (lo + hi) / 2
        if (f(mid) > 0) == pos:
            lo = mid
        else:
            hi = mid
    return lo


class _TailPair:
    """The comparison tail_l(m) <= tail_d(m + shift) that every tail rule scans.

    In exact mode an index from _EXACT_BELOW on is decided by a log estimate
    when its certified error margin allows and by exact Fractions otherwise;
    an index found with estimates is confirmed on exact values at m and m - 1.
    """

    def __init__(self, td, tl, shift, cmp):
        self.td, self.tl, self.shift, self.cmp = td, tl, shift, cmp
        self.estimate = cmp.exact
        self.estimated = False  # did a log estimate decide some index?
        self.values, self.powers = {}, {}

    @functools.cached_property
    def log_d(self):
        return _LogTail(self.td, self.shift)

    @functools.cached_property
    def log_l(self):
        return _LogTail(self.tl, 0)

    def sides(self, m):
        if m not in self.values:
            self.values[m] = _sides(self.td, self.tl, self.shift, m, self.power)
        return self.values[m]

    def power(self, r, k):
        """r**k, by one division when r**(k + 1) was taken already (the
        constant tail's int ratio 1 would divide to a float)."""
        if k < _EXACT_BELOW or r == 1:
            return r**k
        if (r, k) not in self.powers:
            above = self.powers.get((r, k + 1))
            self.powers[r, k] = r**k if above is None else above / r
        return self.powers[r, k]

    def fails(self, m, definite):
        """Is the comparison at m not True (``definite``: False)?"""
        if self.estimate and m >= _EXACT_BELOW:
            (gl, el), (gd, ed) = self.log_l(m), self.log_d(m)
            if abs(gl - gd) > (el + ed + 1) * _LOG_SLACK:
                self.estimated = True
                return gl > gd
        c = self.cmp.le(*self.sides(m))
        return c is False if definite else c is not True

    def turns(self, hi):
        """Real indices between which the float comparison fails on one run.

        Failing means tail_l - tail_d > tol * max(tail_l, 1) for a tolerance
        tol (Cmp's rule), which is ln(tail_l/tail_d) > -ln(1 - tol) while
        tail_l >= 1 and tail_l - tail_d > tol below.  So the runs can end
        where tail_l crosses 1, where the log ratio turns (a geometric ratio
        against a telescoping index) and where tail_l - tail_d turns.
        """
        kd, kl = self.td[0], self.tl[0]
        ld, ll = self.log_d, self.log_l
        out = []
        if kd != kl:
            g, t = (ld, ll) if kd == "geo" else (ll, ld)
            lam = -g.lr
            # d/dm (tail_l - tail_d) = 0 where lam a r^m (b + m)^2 = s
            def f(m):
                return math.log(lam) + g.c - t.c - lam * m + 2 * math.log(t.b + m)
            top = max(2 / lam - t.b, 0)
            out += [1 / lam - t.b, _root(f, 0, top), _root(f, top, hi + 3)]
        elif kd == "geo" and ll.lr < 0 and ld.lr != ll.lr:
            # a_l r_l^m ln r_l = a_d r_d^m ln r_d
            out.append((math.log(ld.lr / ll.lr) - ll.c + ld.c) / (ll.lr - ld.lr))
        if kl == "geo":
            out.append(ll.c / -ll.lr if ll.lr < 0 else None)
        elif kd == "tel":
            out.append(math.exp(min(-ll.c, 700)) - ld.b)
        else:
            out.append(math.exp(min(ll.c, 700)) - ll.b)
        return [t for t in out if t is not None and -3 < t < hi + 3]

    def _search(self, hi, definite):
        cuts = {0, hi + 1}
        for t in [] if self.cmp.exact else self.turns(hi):
            k = math.floor(t)
            cuts.update(range(k - 2, k + 5))  # unit runs around a turning point
        cuts = sorted(c for c in cuts if 0 <= c <= hi + 1)
        for lo, end in zip(cuts, cuts[1:]):
            up = end - 1
            if self.fails(lo, definite):
                return lo
            # gallop from lo, then bisect: fails(a) is False and fails(b) True
            a, step = lo, 1
            while a + step < up and not self.fails(a + step, definite):
                a, step = a + step, 2 * step
            b = min(a + step, up)
            if b == up and (up == a or not self.fails(up, definite)):
                continue
            while b - a > 1:
                mid = (a + b) // 2
                if self.fails(mid, definite):
                    b = mid
                else:
                    a = mid
            return b
        return None

    def first(self, hi, definite=False):
        """Least m <= hi at which the comparison is not True (``definite``:
        is False), or None."""
        m = self._search(hi, definite)
        if self.estimated and m is not None:
            confirmed = (not self.cmp.le(*self.sides(m))
                         and (m == 0 or self.cmp.le(*self.sides(m - 1))))
            if not confirmed:  # search again on exact values alone
                self.estimate = False
                m = self._search(hi, definite)
        return m


def _first_violation(td, tl, shift, cmp):
    """First m <= _SCAN_CAP with a definite violation (uncertain ones
    skipped), or None."""
    return _TailPair(td, tl, shift, cmp).first(_SCAN_CAP, definite=True)


def _tails_dominate_forall(td, tl, cmp):
    """Does tail_d(m) >= tail_l(m) hold for every m >= 0?

    Returns True, None (uncertain, or no violation up to _SCAN_CAP), or
    (False, m) with the first violation.  Domination persists from m = 0 for
    geo/geo with r_d >= r_l and for tel/tel with s_l <= s_d; for tel(d)
    against geo(l) from the m1 past which a r^m (b+m)/s decreases; never
    certainly otherwise.
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
    pair = _TailPair(td, tl, 0, cmp)
    m = pair.first(_SCAN_CAP if stop is None else min(stop, _SCAN_CAP))
    if m is None:
        return True if stop is not None and stop <= _SCAN_CAP else None
    return None if cmp.le(*pair.sides(m)) is None else (False, m)


def _tails_dominate_eventually(td, tl, p, cmp):
    """Does tail_d(m+p) >= tail_l(m) hold for all sufficiently large m?

    ``p`` is a nonnegative integer or INF (meaning: for every finite p).
    Returns True / None / (False, m, p_used) where m indexes a violation for
    the reported p.  The asymptotic order decides: a zero tail loses, a
    telescoping tail outlasts a geometric one, the larger ratio or scale wins
    between two of a kind, and a tie is settled at m = 0.  A failure the
    order proves but whose first violation lies past _SCAN_CAP has m = None
    (and p_used = None for a geometric tie at p = INF).
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
            p_used = _first_violation(td, ("geo", tl[1], 1), 0, cmp)
            return (False, None if p_used is None else 0, p_used)
        c = cmp.le(*_sides(td, tl, p, 0))
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


def _thresholds_hold(sd, sl, cmp, budget):
    """Certify D(t) = sum min(d_i, t) - sum min(lambda_i, t) >= 0 for all t > 0
    over the tails two scans have left.

    With equal totals and no finite positive entry left, that is weak
    majorization of what remains (the threshold form, Marshall-Olkin-Arnold
    4.B).  D is additive over streams, so streams on both sides cancel; none
    left means D = 0.  Otherwise every stream left must be geometric with one
    ratio r.  D is piecewise linear with a breakpoint at each entry, and it is
    checked at each one down to r times the smallest first entry u, at most
    ``budget`` of them.  For t <= u, D(rt) = r (D(t) + (n_d - n_l) t) with n_d
    and n_l the numbers of streams left, which carries that period down to 0
    when n_d >= n_l.  False means not certified.
    """
    cd = Counter(s.descr() for s in sd.tails)
    cl = Counter(s.descr() for s in sl.tails)
    common = cd & cl
    cd, cl = cd - common, cl - common
    keys = list(cd) + list(cl)
    if not keys:
        return True
    if any(k[0] != "geo" for k in keys) or len({k[2] for k in keys}) > 1:
        return False
    r = keys[0][2]
    if sum(cd.values()) < sum(cl.values()):
        return False
    floor = r * min(a * (1 - r) for _, a, _ in keys)
    entries = []
    for side, streams in enumerate((cd, cl)):
        for (_, a, _), k in streams.items():
            v = a * (1 - r)
            while v >= floor:
                if len(entries) == budget:
                    return False
                entries.append((v, side, k))
                v = v * r
    entries.sort(key=lambda e: e[0], reverse=True)
    # S(t) = sum min(x_i, t) per side, from the totals down through the breakpoints
    sums = [sum((a * k for (_, a, _), k in streams.items()), 0 * r) for streams in (cd, cl)]
    above = [0, 0]
    prev = entries[0][0]
    for v, side, k in entries:
        sums[0] -= (prev - v) * above[0]
        sums[1] -= (prev - v) * above[1]
        if cmp.le(sums[1], sums[0]) is not True:
            return False
        above[side] += k
        prev = v
    return True


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
    if horizon < 0:
        raise PreconditionError("horizon must be nonnegative")
    mode = _mode(d, lam)
    cmp = Cmp(mode == "exact")
    sd = MergedDesc(d)
    sl = MergedDesc(lam)
    if not sd.total.finite or not sl.total.finite:
        raise PreconditionError("weak majorization requires summable specs")
    td_total = sd.total.value
    uncertain = False
    thresholds_tried = False
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
        if sd.multi_tail or sl.multi_tail:
            if not thresholds_tried and sd.heads_done and sl.heads_done:
                thresholds_tried = True
                if cmp.eq(td_total, sl.total.value) and _thresholds_hold(sd, sl, cmp, horizon):
                    if uncertain:
                        return MajorizationVerdict("Unknown", mode, horizon=n,
                                                   detail="comparison inside float tolerance")
                    return MajorizationVerdict("Holds", mode, detail="threshold sums")
        elif sd.settled and sl.settled:
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
    """Advance to a settled state, a whole run of equal finite entries per step."""
    for _ in range(_SCAN_CAP + 1):
        if state.settled:
            return True
        if state.multi_tail:
            return False
        state.advance_run()
    return False


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
    n = max(sd.n, sl.n)
    sd.advance_to(n)
    sl.advance_to(n)
    res = _tails_dominate_eventually(sd.tail_descr(), sl.tail_descr(), p, cmp)
    if res is True:
        return MajorizationVerdict("Holds", mode, detail="tail rule")
    if res is None:
        return MajorizationVerdict("Unknown", mode, horizon=sd.n,
                                   detail="tail constants inside float tolerance")
    _, m, p_used = res
    detail = "eventual inequality fails"
    if m is None:
        return MajorizationVerdict("Fails", mode, detail=detail + " by the tails' asymptotic "
                                   f"order; its first violation lies past {_SCAN_CAP}")
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
