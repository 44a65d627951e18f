"""Scalar arithmetic shared by the whole package.

Two arithmetic modes run through every decider:

* exact mode: real values are ``fractions.Fraction``, complex values are
  :class:`QC` (a pair of Fractions).  All comparisons are exact.
* float mode: ordinary ``float``/``complex``; comparisons carry a relative
  tolerance, and a comparison that lands inside the tolerance band is
  reported as *uncertain* (``None``) rather than silently rounded, because
  the verdicts built on top of these comparisons are discontinuous in the
  data.

:class:`XSum` is the extended-sum value space: a finite scalar, a signed
infinity, or a divergent marker.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

INF = math.inf

# matrix predicates (hermitian / normal / projection)
EPS_MAT = 1e-10
# float-mode integrality test and the Unknown buffer above it
INTEGRALITY_TOL = 1e-9
INTEGRALITY_BUFFER = 1e-6


class DiagonalisError(Exception):
    """Base error for the package."""


class PreconditionError(DiagonalisError):
    """A theorem's stated hypothesis is violated by the input."""


class UnsupportedError(DiagonalisError):
    """Input is outside the closed-form tables this package supports."""


class ConvergenceError(DiagonalisError):
    """An iterative kernel failed to converge within its cap."""


class InputError(DiagonalisError):
    """Malformed user input (JSON, CLI)."""


@dataclass(frozen=True)
class QC:
    """Complex number with exact rational real/imaginary parts."""

    re: Fraction
    im: Fraction

    def __add__(self, other):
        other = as_qc(other)
        return QC(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return QC(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-as_qc(other))

    def __rsub__(self, other):
        return as_qc(other) + (-self)

    def __mul__(self, other):
        other = as_qc(other)
        return QC(self.re * other.re - self.im * other.im,
                  self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_qc(other)
        den = other.re * other.re + other.im * other.im
        if den == 0:
            raise ZeroDivisionError("division by zero QC")
        return QC((self.re * other.re + self.im * other.im) / den,
                  (self.im * other.re - self.re * other.im) / den)

    def __rtruediv__(self, other):
        return as_qc(other) / self

    def conj(self):
        return QC(self.re, -self.im)

    # the names ``complex`` uses, so plane geometry runs on QC and complex alike
    conjugate = conj

    @property
    def real(self) -> Fraction:
        return self.re

    @property
    def imag(self) -> Fraction:
        return self.im

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __bool__(self):
        return not self.is_zero()


def as_qc(x) -> QC:
    if isinstance(x, QC):
        return x
    if isinstance(x, Rational):
        return QC(Fraction(x), Fraction(0))
    if isinstance(x, complex):
        return QC(Fraction(x.real), Fraction(x.imag))
    if isinstance(x, float):
        return QC(Fraction(x), Fraction(0))
    raise TypeError(f"cannot view {x!r} as exact complex")


def fraction_str(x: Fraction) -> str:
    """``str(x)`` for a Fraction of any size.

    ``str(int)`` refuses ints beyond ``sys.get_int_max_str_digits()`` digits
    (4300 by default), which exact witnesses can exceed; ``decimal.Decimal``
    converts an int without that limit and prints the same digits.
    """
    try:
        return str(x)
    except ValueError:
        num = str(decimal.Decimal(x.numerator))
        if x.denominator == 1:
            return num
        return f"{num}/{decimal.Decimal(x.denominator)}"


def is_exact_scalar(x) -> bool:
    return isinstance(x, (Rational, QC)) and not isinstance(x, float)


def abs2(x):
    """|x|^2, exact for Fraction/QC inputs."""
    if isinstance(x, QC):
        return x.abs2()
    if isinstance(x, complex):
        return x.real * x.real + x.imag * x.imag
    return x * x


def scalar_abs(x):
    """|x|; exact for real rationals, float for complex."""
    if isinstance(x, QC):
        if x.im == 0:
            return abs(x.re)
        return math.sqrt(float(x.abs2()))
    if isinstance(x, complex):
        return abs(x)
    return abs(x)


def unit_scale(values, exact):
    """1 for exact data; for float data, a power of two near the largest |value|.

    The float tolerance never falls below 1e-10, so a test that scaling the
    data leaves unchanged asks ``Cmp`` about the data divided by this, which
    puts the largest |value| in [1/2, 1).  Dividing by a power of two is
    exact, so every float computed from the scaled data is the unscaled one
    divided by the same power of two.
    """
    top = 0 if exact else max(map(scalar_abs, values), default=0)
    return 2.0 ** math.frexp(top)[1] if top and math.isfinite(top) else 1


def is_real_scalar(x) -> bool:
    if isinstance(x, QC):
        return x.im == 0
    if isinstance(x, complex):
        return x.imag == 0.0
    return True


# ---------------------------------------------------------------------------
# extended sums


@dataclass(frozen=True)
class XSum:
    """Value of a (possibly infinite) series: finite, +/-inf, or divergent."""

    kind: str  # 'fin' | 'pinf' | 'ninf' | 'div'
    value: object = None

    @staticmethod
    def fin(v) -> "XSum":
        return XSum("fin", v)

    @staticmethod
    def pinf() -> "XSum":
        return XSum("pinf")

    @staticmethod
    def ninf() -> "XSum":
        return XSum("ninf")

    @staticmethod
    def div() -> "XSum":
        return XSum("div")

    @property
    def finite(self) -> bool:
        return self.kind == "fin"

    def __add__(self, other: "XSum") -> "XSum":
        a, b = self.kind, other.kind
        if a == "div" or b == "div":
            return XSum.div()
        if a == "fin" and b == "fin":
            return XSum.fin(self.value + other.value)
        if a == "fin":
            return other
        if b == "fin":
            return self
        if a == b:
            return self
        return XSum.div()  # +inf + -inf

    def __neg__(self) -> "XSum":
        if self.kind == "fin":
            return XSum.fin(-self.value)
        if self.kind == "pinf":
            return XSum.ninf()
        if self.kind == "ninf":
            return XSum.pinf()
        return self

    def __sub__(self, other: "XSum") -> "XSum":
        return self + (-other)

    def __repr__(self):
        if self.kind == "fin":
            return f"XSum({self.value!r})"
        return {"pinf": "XSum(+inf)", "ninf": "XSum(-inf)", "div": "XSum(divergent)"}[self.kind]


def python_scalars(xs):
    """The entries of ``xs`` as a list of Python scalars.

    A numpy scalar (anything with a ``dtype``) becomes its ``item()``: an
    int, float, complex or bool, so sums cannot wrap and comparisons give
    bools.  numpy itself is never imported; other entries pass unchanged.
    """
    return [x.item() if hasattr(x, "dtype") else x for x in xs]


def sign_of(x):
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


# ---------------------------------------------------------------------------
# mode-aware comparisons


class Cmp:
    """Three-valued comparator: True / False / None (uncertain in a buffer).

    Exact mode never returns None.  Float mode treats differences up to
    ``REL_TOL`` times the scale as satisfied/equal, rejects differences
    beyond ``BUFFER_FACTOR`` times that, and reports None in between: a
    comparison landing in the buffer could flip the verdict, which callers
    surface as Unknown rather than guessing (mirroring the integrality
    buffer used for Diophantine checks).  The deciders take every
    comparison a verdict rests on from here, as bools, never numpy bools.
    """

    REL_TOL = 1e-10
    BUFFER_FACTOR = 1000.0

    def __init__(self, exact: bool):
        self.exact = exact

    def _tol(self, a, b) -> float:
        return self.REL_TOL * max(abs(a), abs(b), 1.0)

    def le(self, a, b):
        """a <= b, three-valued."""
        if self.exact:
            return bool(a <= b)
        d = a - b
        tol = self._tol(a, b)
        if d <= tol:
            return True
        if d <= tol * self.BUFFER_FACTOR:
            return None
        return False

    def eq(self, a, b):
        if self.exact:
            return bool(a == b)
        d = abs(a - b)
        tol = self._tol(a, b)
        if d <= tol:
            return True
        if d <= tol * self.BUFFER_FACTOR:
            return None
        return False

    def lt(self, a, b):
        r = self.le(b, a)
        if r is None:
            return None
        return not r

    def xs_eq(self, a: XSum, b: XSum):
        if a.kind == "div" or b.kind == "div":
            return None
        if a.kind != b.kind:
            return False
        if a.kind == "fin":
            return self.eq(a.value, b.value)
        return True


def integrality(x, exact: bool):
    """Classify x as integer / non-integer / uncertain, per float-mode buffer.

    Returns (verdict, nearest_int) with verdict in {True, False, None}.
    """
    if exact:
        f = Fraction(x)
        if f.denominator == 1:
            return True, int(f)
        return False, None
    r = round(float(x))
    gap = abs(float(x) - r)
    if gap <= INTEGRALITY_TOL:
        return True, int(r)
    if gap <= INTEGRALITY_BUFFER:
        return None, None
    return False, None
