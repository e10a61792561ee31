"""Exact arithmetic in Z[sqrt(q)] and its fraction field.

A value is a + b*sqrt(q) with rational a, b and a fixed positive integer
radicand q.  Perfect-square radicands are folded into the rational part at
construction, so b != 0 implies q is not a square and the representation is
unique.  Signs are decided exactly: for a, b of opposite sign the comparison
a^2 <> b^2*q settles it, and a^2 = b^2*q is impossible with b != 0.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .errors import DomainMismatchError

_ZERO = Fraction(0)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def surd_sign(a, b, q) -> int:
    """Exact sign of a + b*sqrt(q) for integers a, b and q > 0.

    Zero needs a^2 == q b^2 with a, b of opposite signs, so it only occurs
    for square q; q is read only then.  The case analysis uses nothing but
    ordered-ring operations, so sign_with_radical passes QuadReal values.
    """
    sa = (a > 0) - (a < 0)
    sb = (b > 0) - (b < 0)
    if sa == sb or not sb:
        return sa
    if not sa:
        return sb
    d = a * a - q * b * b
    return sa if d > 0 else sb if d < 0 else 0


def sqrt_bracket(n: int, bits: int) -> tuple[int, int]:
    """Integers s <= t with s <= 2^bits * sqrt(n) <= t and t - s <= 1; s == t
    exactly when 2^bits * sqrt(n) is an integer."""
    if n < 0:
        raise ValueError("negative radicand")
    m = n << (2 * bits)
    s = isqrt(m)
    return s, s if s * s == m else s + 1


def sqrt_bounds(n: int, bits: int) -> tuple[Fraction, Fraction]:
    """Rational lo <= sqrt(n) <= hi with hi - lo <= 2^-bits."""
    s, t = sqrt_bracket(n, bits)
    return Fraction(s, 1 << bits), Fraction(t, 1 << bits)


class QuadReal:
    """Immutable element a + b*sqrt(q) of a real quadratic field."""

    __slots__ = ("a", "b", "q")

    def __init__(self, a, b=0, q: int | None = None):
        a = _as_fraction(a)
        b = _as_fraction(b)
        if b != 0:
            if q is None or q <= 0:
                raise ValueError("nonzero irrational part needs a positive radicand")
            r = isqrt(q)
            if r * r == q:
                a, b, q = a + b * r, _ZERO, None
        else:
            b, q = _ZERO, None
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "q", q)

    def __setattr__(self, *_):
        raise AttributeError("QuadReal is immutable")

    # -- radicand bookkeeping -------------------------------------------------

    @staticmethod
    def sqrt(q: int) -> "QuadReal":
        return QuadReal(0, 1, q)

    def _coerce(self, other) -> "QuadReal":
        if isinstance(other, QuadReal):
            return other
        if isinstance(other, (int, Fraction)):
            return QuadReal(other)
        return NotImplemented

    def _join(self, other: "QuadReal") -> int | None:
        if self.q is None:
            return other.q
        if other.q is None or other.q == self.q:
            return self.q
        raise DomainMismatchError(f"mixed radicands {self.q} and {other.q}")

    # -- ring / field operations ----------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        q = self._join(other)
        return QuadReal(self.a + other.a, self.b + other.b, q)

    __radd__ = __add__

    def __neg__(self):
        return QuadReal(-self.a, -self.b, self.q)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        q = self._join(other)
        if q is None:
            return QuadReal(self.a * other.a)
        return QuadReal(
            self.a * other.a + self.b * other.b * q,
            self.a * other.b + self.b * other.a,
            q,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadReal":
        if self.is_zero():
            raise ZeroDivisionError("QuadReal inverse of zero")
        if self.q is None:
            return QuadReal(1 / self.a)
        n = self.a * self.a - self.b * self.b * self.q
        return QuadReal(self.a / n, -self.b / n, self.q)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = QuadReal(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- exact decisions --------------------------------------------------------

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_rational(self) -> bool:
        return self.b == 0

    def to_fraction(self) -> Fraction:
        if self.b != 0:
            raise ValueError(f"{self} is irrational")
        return self.a

    def sign(self) -> int:
        # a + b sqrt(q) times the positive product of the two denominators
        a, b = self.a, self.b
        return surd_sign(a.numerator * b.denominator, b.numerator * a.denominator, self.q)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        try:
            self._join(other)
        except DomainMismatchError:
            return False
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.q))

    def _cmp(self, other) -> int:
        diff = self - other
        if diff is NotImplemented:
            return NotImplemented
        return diff.sign()

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    # -- enclosures / output ----------------------------------------------------

    def interval(self, bits: int = 64) -> tuple[Fraction, Fraction]:
        """Rational enclosure [lo, hi] with width <= |b| * 2^-bits."""
        if self.b == 0:
            return self.a, self.a
        lo, hi = sqrt_bounds(self.q, bits)
        if self.b > 0:
            return self.a + self.b * lo, self.a + self.b * hi
        return self.a + self.b * hi, self.a + self.b * lo

    def __float__(self):
        lo, hi = self.interval(64)
        return float((lo + hi) / 2)

    def __repr__(self):
        if self.b == 0:
            return f"QuadReal({self.a})"
        return f"QuadReal({self.a} + {self.b}*sqrt({self.q}))"

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}*sqrt({self.q})"
        op = "+" if self.b > 0 else "-"
        return f"{self.a} {op} {abs(self.b)}*sqrt({self.q})"


def sign_with_radical(base: QuadReal, coeff: QuadReal, radicand: QuadReal) -> int:
    """Exact sign of base + coeff*sqrt(radicand) for QuadReal inputs, radicand >= 0.

    One extra radical layer over the field: decided by comparing base^2 with
    coeff^2 * radicand, with the usual sign analysis.  Zero is reported exactly.
    """
    if radicand.sign() < 0:
        raise ValueError("negative radicand")
    if radicand.is_zero():
        return base.sign()
    return surd_sign(base, coeff, radicand)
