"""Finite and symbolically infinite sequences with exact closed-form sums.

A :class:`SequenceSpec` is an order-free multiset given as a union of
streams.  Four stream kinds are public:

* ``FiniteList(values)``
* ``ConstantRepeat(value, count)`` with ``count`` a positive integer or inf
* ``Geometric(first, ratio, offset)``: entries ``offset + first*ratio**k``
  for ``k = 0, 1, ...`` with ``|ratio| < 1``
* ``TelescopingHarmonic(scale, offset, n0)``: entries
  ``offset + scale/(n(n+1))`` for ``n = n0, n0 + 1, ...``

The ``offset`` fields default to zero; they exist so affine images of
geometric and telescoping streams stay exactly representable.  The start
index ``n0`` defaults to 1; peeling finitely many head terms off a
telescoping stream leaves a tail with a later start, which has no wire
format.

Everything here is a pure function over immutable values, and all
rearrangement-invariant operations give identical results under any
permutation of the streams list.

The spectral models of operators live here too: ``FiniteSpectrumSpec`` and
``DiagonalizableSpec`` give an operator by its eigenvalues, so its
eigenvalue multiset and essential spectrum are sequence questions.
``MatrixSpec`` wraps a ``spectra.DenseMatrix`` and has no essential
spectrum.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from numbers import Integral

from .scalars import (
    INF,
    QC,
    PreconditionError,
    UnsupportedError,
    XSum,
    abs2,
    is_exact_scalar,
    is_real_scalar,
    scalar_abs,
    sign_of,
)

_EXPANSION_CAP = 100_000


def _is_inf(c) -> bool:
    return c == INF


def _z(v) -> bool:
    if isinstance(v, QC):
        return v.is_zero()
    return v == 0


@dataclass(frozen=True)
class FiniteList:
    values: tuple

    def __init__(self, values):
        object.__setattr__(self, "values", tuple(values))


@dataclass(frozen=True)
class ConstantRepeat:
    value: object
    count: object  # positive int or INF

    def __post_init__(self):
        if not _is_inf(self.count):
            if int(self.count) != self.count or self.count < 1:
                raise PreconditionError("ConstantRepeat count must be a positive integer or inf")
            object.__setattr__(self, "count", int(self.count))


@dataclass(frozen=True)
class Geometric:
    first: object
    ratio: object
    offset: object = 0

    def __post_init__(self):
        r = self.ratio
        ok = r.abs2() < 1 if isinstance(r, QC) else abs(r) < 1
        if not ok:
            raise PreconditionError("Geometric requires |ratio| < 1")


@dataclass(frozen=True)
class TelescopingHarmonic:
    scale: object
    offset: object = 0
    n0: int = 1

    def __post_init__(self):
        if int(self.n0) != self.n0 or self.n0 < 1:
            raise PreconditionError("telescoping start index n0 must be a positive integer")


@dataclass(frozen=True)
class SequenceSpec:
    streams: tuple
    field: str = "real"  # 'real' | 'complex'
    exact: bool = True

    def __post_init__(self):
        object.__setattr__(self, "streams", tuple(self.streams))
        if self.field not in ("real", "complex"):
            raise PreconditionError("field must be 'real' or 'complex'")
        if self.exact:
            object.__setattr__(self, "streams", tuple(_ints_as_fractions(s) for s in self.streams))
            for s in self.streams:
                for p in stream_params(s):
                    if not is_exact_scalar(p):
                        raise PreconditionError("exact mode requires rational stream parameters")
                    if self.field == "real" and isinstance(p, QC):
                        raise PreconditionError("real exact mode cannot hold complex values")


def _as_fraction(p):
    return Fraction(int(p)) if isinstance(p, Integral) else p


def _ints_as_fractions(s):
    """The stream with its int parameters as Fractions, so that the true
    divisions computing its entries and sums stay exact."""
    if not any(isinstance(p, Integral) for p in stream_params(s)):
        return s
    if isinstance(s, FiniteList):
        return FiniteList(_as_fraction(v) for v in s.values)
    if isinstance(s, ConstantRepeat):
        return replace(s, value=_as_fraction(s.value))
    if isinstance(s, Geometric):
        return replace(s, first=_as_fraction(s.first), ratio=_as_fraction(s.ratio),
                       offset=_as_fraction(s.offset))
    return replace(s, scale=_as_fraction(s.scale), offset=_as_fraction(s.offset))


@dataclass(frozen=True)
class OrderedSequenceSpec:
    """Order-sensitive sequence: explicit prefix, then weighted round-robin."""

    prefix: tuple
    tail: tuple  # tuple of (stream, weight)
    field: str = "complex"
    exact: bool = True

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple(self.prefix))
        object.__setattr__(self, "tail", tuple(self.tail))
        if self.exact:
            object.__setattr__(self, "prefix", tuple(_as_fraction(v) for v in self.prefix))
            object.__setattr__(self, "tail", tuple((_ints_as_fractions(s), w) for s, w in self.tail))
        for _, w in self.tail:
            if int(w) != w or w < 1:
                raise PreconditionError("tail weights must be positive integers")


def seq(*streams, field="real", exact=None) -> SequenceSpec:
    """Convenience constructor; infers exactness from the parameter types."""
    if exact is None:
        ps = [p for s in streams for p in stream_params(s)]
        exact = all(is_exact_scalar(p) for p in ps)
        if field == "real":
            exact = exact and not any(isinstance(p, QC) for p in ps)
    return SequenceSpec(tuple(streams), field=field, exact=exact)


def stream_params(s):
    if isinstance(s, FiniteList):
        return s.values
    if isinstance(s, ConstantRepeat):
        return (s.value,)
    if isinstance(s, Geometric):
        return (s.first, s.ratio, s.offset)
    if isinstance(s, TelescopingHarmonic):
        return (s.scale, s.offset)
    raise TypeError(f"not a stream: {s!r}")


# ---------------------------------------------------------------------------
# per-stream basics


def stream_count(s):
    if isinstance(s, FiniteList):
        return len(s.values)
    if isinstance(s, ConstantRepeat):
        return s.count
    return INF


def stream_is_infinite(s) -> bool:
    return _is_inf(stream_count(s))


def stream_limit(s):
    """Accumulation value of an infinite stream (its only limit point)."""
    if isinstance(s, ConstantRepeat) and _is_inf(s.count):
        return s.value
    if isinstance(s, (Geometric, TelescopingHarmonic)):
        return s.offset
    return None


def stream_entries(s):
    """Canonical enumeration of one stream."""
    if isinstance(s, FiniteList):
        return iter(s.values)
    if isinstance(s, ConstantRepeat):
        if _is_inf(s.count):
            return itertools.repeat(s.value)
        return (s.value for _ in range(s.count))  # range, unlike repeat, takes any int
    if isinstance(s, Geometric):
        def gen():
            term = s.first
            while True:
                yield s.offset + term
                term = term * s.ratio
        return gen()
    if isinstance(s, TelescopingHarmonic):
        def gen():
            n = s.n0
            while True:
                yield s.offset + s.scale / (n * (n + 1))
                n += 1
        return gen()
    raise TypeError(f"not a stream: {s!r}")


def _limit_mass(level) -> XSum:
    """Sum of infinitely many copies of ``level``."""
    if not is_real_scalar(level):
        return XSum.fin(level * 0) if _z(level) else XSum.div()
    sg = sign_of(level)
    if sg == 0:
        return XSum.fin(level * 0)
    return XSum.pinf() if sg > 0 else XSum.ninf()


def stream_total(s) -> XSum:
    if isinstance(s, FiniteList):
        return XSum.fin(_ksum(s.values))
    if not stream_is_infinite(s):
        return XSum.fin(s.value * s.count)
    return XSum.fin(stream_tail_deviation(s)) + _limit_mass(stream_limit(s))


def stream_tail_deviation(s):
    """Sum of (entry - limit) over an infinite stream, in closed form."""
    if isinstance(s, ConstantRepeat):
        return s.value * 0
    if isinstance(s, Geometric):
        return s.first / (1 - s.ratio)
    if isinstance(s, TelescopingHarmonic):
        return s.scale / s.n0
    raise TypeError


def stream_abs_summable(s) -> bool:
    if isinstance(s, ConstantRepeat) and _is_inf(s.count):
        return _z(s.value)
    return True


def _ksum(values):
    total = None
    for v in values:
        total = v if total is None else total + v
    return 0 if total is None else total


# ---------------------------------------------------------------------------
# canonicalization used by analysis paths (never by I/O)


def canonical_streams(spec) -> list:
    """Rewrite streams so infinite ones have sign-coherent deviations.

    Geometric streams with negative ratio split into even/odd substreams
    (ratio squared); zero ratio peels the head term; zero first collapses to
    a constant stream.
    """
    out = []
    for s in spec.streams:
        out.extend(_canon_one(s))
    return out


def _canon_one(s):
    if isinstance(s, Geometric):
        if _z(s.first):
            return [ConstantRepeat(s.offset + s.first * 0, INF)]
        r = s.ratio
        if isinstance(r, QC) or isinstance(r, complex):
            return [s]
        if r == 0:
            return [FiniteList([s.offset + s.first]), ConstantRepeat(s.offset + s.first * 0, INF)]
        if r < 0:
            r2 = r * r
            return [Geometric(s.first, r2, s.offset), Geometric(s.first * r, r2, s.offset)]
        return [s]
    if isinstance(s, TelescopingHarmonic) and _z(s.scale):
        return [ConstantRepeat(s.offset + s.scale * 0, INF)]
    return [s]


# ---------------------------------------------------------------------------
# enumeration and sums over whole specs


def materialize_prefix(spec, n: int):
    """First ``n`` terms of the canonical enumeration.

    Streams are visited in listed order, round-robin; exhausted streams drop
    out.  A finite spec yields fewer than ``n`` terms, which is the
    exhaustion flag.
    """
    if n < 0:
        raise PreconditionError("n must be nonnegative")
    if isinstance(spec, SequenceSpec):
        spec = OrderedSequenceSpec((), tuple((s, 1) for s in spec.streams),
                                   spec.field, spec.exact)
    return list(itertools.islice(ordered_entries(spec), n))


def ordered_entries(spec: OrderedSequenceSpec):
    yield from spec.prefix
    iters = [(stream_entries(s), w) for s, w in spec.tail]
    alive = list(range(len(iters)))
    while alive:
        survivors = []
        for i in alive:
            it, w = iters[i]
            stopped = False
            for _ in range(w):
                try:
                    yield next(it)
                except StopIteration:
                    stopped = True
                    break
            if not stopped:
                survivors.append(i)
        alive = survivors


def total_sum(spec) -> XSum:
    if isinstance(spec, OrderedSequenceSpec):
        total = XSum.fin(_ksum(spec.prefix))
        for s, _ in spec.tail:
            total = total + stream_total(s)
        return total
    total = XSum.fin(0)
    for s in spec.streams:
        total = total + stream_total(s)
    return total


# ---------------------------------------------------------------------------
# descending enumeration


class _Runs:
    """Every finite entry, nonincreasing, as (value, count) runs.

    ``count`` may be INF; a run is never expanded into a list.  Equal values
    keep their stream order.
    """

    __slots__ = ("runs", "i", "head", "left")

    def __init__(self, runs):
        self.runs = sorted(runs, key=lambda run: run[0], reverse=True)
        self.i = 0
        self.head, self.left = self.runs[0] if self.runs else (None, 0)

    def pop(self, k=1):
        self.left -= k
        if not self.left:
            self.i += 1
            self.head, self.left = self.runs[self.i] if self.i < len(self.runs) else (None, 0)


class _GeoRun:
    """Entries ``offset + term``, the term shrinking by a ratio in (0, 1)."""

    __slots__ = ("term", "ratio", "offset", "head")

    def __init__(self, s):
        self.term, self.ratio = s.first, s.ratio
        self.offset = None if _z(s.offset) else s.offset
        self.head = self.term if self.offset is None else self.offset + self.term

    def pop(self, k=1):
        self.term = self.term * (self.ratio if k == 1 else self.ratio ** k)
        self.head = self.term if self.offset is None else self.offset + self.term

    def descr(self):
        """Closed form of the deviations still to come: ("geo", sum, ratio)."""
        return ("geo", self.term / (1 - self.ratio), self.ratio)


class _TelRun:
    """Entries ``offset + scale/(n(n+1))`` from the current index n on."""

    __slots__ = ("scale", "n", "offset", "head")

    def __init__(self, s):
        self.scale, self.n = s.scale, s.n0 - 1
        self.offset = None if _z(s.offset) else s.offset
        self.pop()

    def pop(self, k=1):
        self.n += k
        term = self.scale / (self.n * (self.n + 1))
        self.head = term if self.offset is None else self.offset + term

    def descr(self):
        """Closed form of the deviations still to come: ("tel", scale, n)."""
        return ("tel", self.scale, self.n)


class DescendingMerge:
    """Nonincreasing enumeration of a real spec over peekable sources.

    ``finite`` holds every finite entry; ``tails`` holds one source per
    geometric or telescoping stream, each with its closed-form remaining
    sum.  Ties go to the finite entries, then to the tails in stream order.
    Entries below an infinite stream's limit never come up, which matches
    the usual convention for nonincreasing rearrangements of c0 sequences.
    Raises UnsupportedError when a stream has no descending enumeration at
    all (infinitely many entries ascending to the limit).
    """

    def __init__(self, spec):
        runs, self.tails = [], []
        for s in canonical_streams(spec):
            if isinstance(s, FiniteList):
                runs.extend((v, 1) for v in s.values)
            elif isinstance(s, ConstantRepeat):
                runs.append((s.value, s.count))
            elif isinstance(s, Geometric):
                if s.first < 0:
                    raise UnsupportedError("geometric entries ascend to their limit; no descending order")
                self.tails.append(_GeoRun(s))
            else:
                if s.scale < 0:
                    raise UnsupportedError("telescoping entries ascend to their limit; no descending order")
                self.tails.append(_TelRun(s))
        self.finite = _Runs(runs)
        self.sources = [self.finite] + self.tails

    def pop(self):
        """The largest entry not yet taken; None once none is left."""
        best = None
        for src in self.sources:
            v = src.head
            if v is not None and (best is None or v > best):
                best, best_src = v, src
        if best is not None:
            best_src.pop()
        return best


def sorted_desc_iter(spec):
    """Lazy nonincreasing enumeration of the whole multiset."""
    return iter(DescendingMerge(spec).pop, None)


def sorted_prefix_desc(spec, n: int):
    if spec.field != "real":
        raise PreconditionError("sorted enumeration requires a real spec")
    return list(itertools.islice(sorted_desc_iter(spec), n))


def tail_sum_after_top(spec, n: int) -> XSum:
    total = total_sum(spec)
    if total.kind == "div":
        raise UnsupportedError("tail sum undefined for divergent-oscillating total")
    prefix = sorted_prefix_desc(spec, n)
    return total - XSum.fin(_ksum(prefix))


# ---------------------------------------------------------------------------
# entrywise transforms


def _peel_head_by_gap(s, gap):
    """Split an infinite sign-coherent stream into (head list, tail stream).

    ``head`` receives every entry whose deviation from the limit is at least
    ``|gap|`` (``gap`` nonzero, real or complex); the returned tail stream
    provably deviates by less.  Each deviation is measured as
    ``abs2(deviation / gap) >= 1``: exact for ``Fraction`` and ``QC``, and for
    floats free of the underflow and overflow that squaring the deviation
    itself meets beyond about 1e-154 and 1e154.
    """
    head = []
    if isinstance(s, Geometric):
        term = s.first
        guard = 0
        while not _z(term) and abs2(term / gap) >= 1:
            head.append(s.offset + term)
            term = term * s.ratio
            guard += 1
            if guard > _EXPANSION_CAP:
                raise UnsupportedError("head peel exceeded expansion cap")
        if _z(term):
            return head, ConstantRepeat(s.offset + term, INF)
        return head, Geometric(term, s.ratio, s.offset)
    if isinstance(s, TelescopingHarmonic):
        if _z(s.scale):
            return [], ConstantRepeat(s.offset, INF)
        n = s.n0
        guard = 0
        while abs2(s.scale / (n * (n + 1)) / gap) >= 1:
            head.append(s.offset + s.scale / (n * (n + 1)))
            n += 1
            guard += 1
            if guard > _EXPANSION_CAP:
                raise UnsupportedError("head peel exceeded expansion cap")
        return head, TelescopingHarmonic(s.scale, s.offset, n)
    if isinstance(s, ConstantRepeat):
        return [], s
    raise TypeError


def _negate_stream(s):
    if isinstance(s, FiniteList):
        return FiniteList([-v for v in s.values])
    if isinstance(s, ConstantRepeat):
        return ConstantRepeat(-s.value, s.count)
    if isinstance(s, Geometric):
        return Geometric(-s.first, s.ratio, -s.offset)
    if isinstance(s, TelescopingHarmonic):
        return TelescopingHarmonic(-s.scale, -s.offset, s.n0)
    raise TypeError


def split_parts(spec: SequenceSpec):
    """Positive and negative parts, pointwise over the multiset."""
    if spec.field != "real":
        raise PreconditionError("split_parts requires a real spec")
    pos, neg = [], []
    for s in canonical_streams(spec):
        zero = _zero_like(s)
        if isinstance(s, FiniteList):
            pos.append(FiniteList([max(v, zero) for v in s.values]))
            neg.append(FiniteList([max(-v, zero) for v in s.values]))
        elif isinstance(s, ConstantRepeat):
            if s.value >= 0:
                pos.append(s)
            else:
                neg.append(ConstantRepeat(-s.value, s.count))
        else:
            lim = stream_limit(s)
            if lim > 0:
                head, tail = _peel_head_by_gap(s, lim)
                pos.append(FiniteList([max(e, zero) for e in head]))
                pos.append(tail)
                if any(e < 0 for e in head):
                    neg.append(FiniteList([max(-e, zero) for e in head]))
            elif lim < 0:
                head, tail = _peel_head_by_gap(s, lim)
                neg.append(FiniteList([max(-e, zero) for e in head]))
                neg.append(_negate_stream(tail))
                if any(e > 0 for e in head):
                    pos.append(FiniteList([max(e, zero) for e in head]))
            else:
                dev = stream_tail_deviation(s)
                if dev >= 0:
                    pos.append(s)
                else:
                    neg.append(_negate_stream(s))
    z = spec.exact
    return (SequenceSpec(tuple(pos), "real", z), SequenceSpec(tuple(neg), "real", z))


def _zero_like(s):
    return Fraction(0) if all(is_exact_scalar(p) for p in stream_params(s)) else 0.0


def affine_image(spec: SequenceSpec, a, b) -> SequenceSpec:
    """Entrywise x -> a*x + b, preserving stream structure exactly."""
    out = []
    for s in spec.streams:
        if isinstance(s, FiniteList):
            out.append(FiniteList([a * v + b for v in s.values]))
        elif isinstance(s, ConstantRepeat):
            out.append(ConstantRepeat(a * s.value + b, s.count))
        elif _z(a):
            out.append(ConstantRepeat(b, INF))
        elif isinstance(s, Geometric):
            out.append(Geometric(a * s.first, s.ratio, a * s.offset + b))
        else:
            out.append(TelescopingHarmonic(a * s.scale, a * s.offset + b, s.n0))
    field = spec.field
    if field == "real" and not (is_real_scalar(a) and is_real_scalar(b)):
        field = "complex"
    exact = spec.exact and is_exact_scalar(a) and is_exact_scalar(b)
    return SequenceSpec(tuple(out), field, exact)


def abs_values(spec: SequenceSpec) -> SequenceSpec:
    """Entrywise modulus; exact for real specs, float where moduli need roots."""
    out = []
    exact = spec.exact
    for s in canonical_streams(spec):
        if isinstance(s, FiniteList):
            vals = [scalar_abs(v) for v in s.values]
            exact = exact and all(is_exact_scalar(v) for v in vals)
            out.append(FiniteList(vals))
        elif isinstance(s, ConstantRepeat):
            v = scalar_abs(s.value)
            exact = exact and is_exact_scalar(v)
            out.append(ConstantRepeat(v, s.count))
        else:
            real_params = all(is_real_scalar(p) for p in stream_params(s))
            if not real_params:
                if not _z(s.offset):
                    raise UnsupportedError("modulus of an offset complex stream")
                exact = False
                if isinstance(s, Geometric):
                    out.append(Geometric(scalar_abs(s.first), scalar_abs(s.ratio), 0.0))
                else:
                    out.append(TelescopingHarmonic(scalar_abs(s.scale), 0.0, s.n0))
                continue
            lim = stream_limit(s)
            if lim == 0:
                # the negation keeps this zero limit as it is, sign included
                out.append(s if stream_tail_deviation(s) >= 0
                           else replace(_negate_stream(s), offset=s.offset))
            else:
                head, tail = _peel_head_by_gap(s, lim)
                out.append(FiniteList([scalar_abs(e) for e in head]))
                out.append(tail if lim > 0 else _negate_stream(tail))
    return SequenceSpec(tuple(out), "real", exact)


# ---------------------------------------------------------------------------
# bounds, counts, validation


def spec_bounds(spec: SequenceSpec):
    """(inf, inf_attained, sup, sup_attained) over all entries; None if empty."""
    if spec.field != "real":
        raise PreconditionError("bounds require a real spec")
    lo = hi = None
    lo_att = hi_att = False

    def upd(value, attained):
        nonlocal lo, hi, lo_att, hi_att
        if lo is None or value < lo:
            lo, lo_att = value, attained
        elif value == lo and attained:
            lo_att = True
        if hi is None or value > hi:
            hi, hi_att = value, attained
        elif value == hi and attained:
            hi_att = True

    for s in canonical_streams(spec):
        if isinstance(s, FiniteList):
            for v in s.values:
                upd(v, True)
        else:
            upd(next(stream_entries(s)), True)
            if stream_is_infinite(s):
                upd(stream_limit(s), False)
    if lo is None:
        return None
    return lo, lo_att, hi, hi_att


def count_value(spec: SequenceSpec, v):
    """Exact multiplicity of a value in the multiset (may be INF)."""
    total = 0
    for s in canonical_streams(spec):
        if isinstance(s, ConstantRepeat):
            if s.value == v:
                if _is_inf(s.count):
                    return INF
                total += s.count
            continue
        if isinstance(s, FiniteList):
            entries = s.values
        else:
            gap = v - stream_limit(s)
            if _z(gap):
                continue  # the limit itself is never attained by a nonzero tail
            entries, _ = _peel_head_by_gap(s, gap)
        total += sum(1 for x in entries if x == v)
    return total


def zero_count(spec: SequenceSpec):
    zero = Fraction(0) if spec.exact else 0.0
    return count_value(spec, zero)


def validate_c0_plus(spec: SequenceSpec, what="sequence"):
    """Check the spec is a nonnegative sequence converging to zero."""
    if spec.field != "real":
        raise PreconditionError(f"{what} must be real")
    for s in canonical_streams(spec):
        if isinstance(s, FiniteList):
            if any(v < 0 for v in s.values):
                raise PreconditionError(f"{what} has negative entries")
        elif isinstance(s, ConstantRepeat):
            if s.value < 0:
                raise PreconditionError(f"{what} has negative entries")
            if _is_inf(s.count) and s.value > 0:
                raise PreconditionError(f"{what} does not converge to zero")
        else:
            if not _z(stream_limit(s)):
                raise PreconditionError(f"{what} does not converge to zero")
            if next(stream_entries(s)) < 0:
                raise PreconditionError(f"{what} has negative entries")


def validate_l1(spec: SequenceSpec, what="sequence"):
    for s in spec.streams:
        if not stream_abs_summable(s):
            raise PreconditionError(f"{what} is not absolutely summable")


def is_c0(spec: SequenceSpec) -> bool:
    """True when every infinite stream accumulates at zero."""
    return all(_z(stream_limit(s)) for s in canonical_streams(spec)
               if stream_is_infinite(s))


# ---------------------------------------------------------------------------
# threshold decomposition (closed-form split sums at a cut point)


@dataclass(frozen=True)
class TailAtThreshold:
    side: str          # '<' or '>='
    limit: object
    deviation: object  # exact sum of (entry - limit) over the tail


@dataclass(frozen=True)
class ThresholdSplit:
    head: tuple        # ((value, mult), ...)
    tails: tuple       # (TailAtThreshold, ...)


def threshold_split(spec: SequenceSpec, alpha) -> ThresholdSplit:
    """Split the multiset at ``alpha`` with closed-form infinite tails.

    Every entry that could sit on the minority side of the cut lands in
    ``head`` individually; each infinite stream contributes a tail record
    whose entries are provably all on one side of ``alpha``.
    """
    if spec.field != "real":
        raise PreconditionError("threshold split requires a real spec")
    head = []
    tails = []
    for s in canonical_streams(spec):
        if isinstance(s, FiniteList):
            head.extend((v, 1) for v in s.values)
        elif isinstance(s, ConstantRepeat):
            if _is_inf(s.count):
                side = ">=" if s.value >= alpha else "<"
                tails.append(TailAtThreshold(side, s.value, s.value * 0))
            else:
                head.append((s.value, s.count))
        else:
            lim = stream_limit(s)
            if lim == alpha:
                dev = stream_tail_deviation(s)
                side = ">=" if dev >= 0 else "<"
                tails.append(TailAtThreshold(side, lim, dev))
            else:
                hd, tail = _peel_head_by_gap(s, lim - alpha)
                head.extend((e, 1) for e in hd)
                side = ">=" if lim > alpha else "<"
                tails.append(TailAtThreshold(side, lim, stream_tail_deviation(tail)))
    return ThresholdSplit(tuple(head), tuple(tails))


def split_sums(spec: SequenceSpec, alpha, ceiling=None):
    """(C, D) at the cut: C = sum of entries < alpha; D = sum of
    (ceiling - entry) over entries >= alpha (ceiling defaults to 1)."""
    if ceiling is None:
        ceiling = Fraction(1) if spec.exact else 1.0
    sp = threshold_split(spec, alpha)
    below = XSum.fin(0)
    above = XSum.fin(0)
    for v, m in sp.head:
        if v < alpha:
            below = below + XSum.fin(v * m)
        else:
            above = above + XSum.fin((ceiling - v) * m)
    for t in sp.tails:
        if t.side == "<":
            below = below + _limit_mass(t.limit) + XSum.fin(t.deviation)
        else:
            above = above + _limit_mass(ceiling - t.limit) - XSum.fin(t.deviation)
    return below, above


def interval_blaschke_sum(spec: SequenceSpec, lo, hi) -> XSum:
    """Sum of min(entry - lo, hi - entry) over entries in [lo, hi].

    Entries equal to an endpoint contribute zero.  Raises if some entry
    leaves [lo, hi].
    """
    b = spec_bounds(spec)
    if b is not None:
        blo, _, bhi, _ = b
        if blo < lo or bhi > hi:
            raise PreconditionError("entries leave the interval")
    mid = (lo + hi) / 2
    sp = threshold_split(spec, mid)
    out = XSum.fin(0)
    for v, m in sp.head:
        out = out + XSum.fin(min(v - lo, hi - v) * m)
    for t in sp.tails:
        if t.side == "<":
            out = out + _limit_mass(t.limit - lo) + XSum.fin(t.deviation)
        else:
            out = out + _limit_mass(hi - t.limit) - XSum.fin(t.deviation)
    return out


# ---------------------------------------------------------------------------
# operator specs and essential spectral data


@dataclass(frozen=True)
class MatrixSpec:
    matrix: object  # a spectra.DenseMatrix


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
        if spec.kernel_dim:
            streams.append(ConstantRepeat(Fraction(0) if spec.eigs.exact else 0.0,
                                          spec.kernel_dim))
        return SequenceSpec(tuple(streams), spec.eigs.field, spec.eigs.exact)
    if isinstance(spec, FiniteSpectrumSpec):
        streams = tuple(ConstantRepeat(p, mult) for p, mult in spec.points)
        exact = all(not isinstance(p, float) and not isinstance(p, complex)
                    for p, _ in spec.points)
        field = "real" if all(is_real_scalar(p) for p, _ in spec.points) else "complex"
        return SequenceSpec(streams, field, exact)
    raise PreconditionError("matrix spec has no eigenvalue multiset here")


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
        eigs = affine_image(eigen_multiset(spec), a, b)
        return DiagonalizableSpec(eigs, 0)
    raise PreconditionError("unsupported spec for affine image")
