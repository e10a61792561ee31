"""Exact arithmetic in Z[sqrt(q)] and its fraction field.

A value is stored as an integer triple with its radicand: na, nb, d mean
(na + nb*sqrt(q)) / d.  The form is canonical: d > 0, gcd(na, nb, d) = 1,
q is None whenever nb == 0, and q is never a perfect square (a square
radicand is folded into na at construction, its root computed once per q).
So equal values have equal triples and == compares integers, and every
operation (+, -, *, inverse, **) is a few integer products followed by one
gcd.  The sign is surd_sign(na, nb, q), because d > 0.  The Fraction views
.a and .b exist for output and tests, and a rational value hashes as the
equal Fraction or int; no arithmetic path builds a Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

from .errors import DomainMismatchError


def is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


@lru_cache(maxsize=256)
def _square_root(q: int) -> int:
    """isqrt(q) when q > 0 is a perfect square, else 0; cached per q."""
    r = isqrt(q)
    return r if r * r == q else 0


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


def _ratio(x) -> tuple[int, int]:
    if isinstance(x, (int, Fraction)):
        return x.numerator, x.denominator
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def _join(p: int | None, q: int | None) -> int | None:
    if p is None:
        return q
    if q is None or q == p:
        return p
    raise DomainMismatchError(f"mixed radicands {p} and {q}")


class QuadReal:
    """Immutable element (na + nb*sqrt(q)) / d of a real quadratic field."""

    __slots__ = ("na", "nb", "d", "q")

    def __new__(cls, a, b=0, q: int | None = None):
        an, ad = _ratio(a)
        bn, bd = _ratio(b)
        if not bn:
            return _from_triple(an, 0, ad, None)
        if q is None or q <= 0:
            raise ValueError("nonzero irrational part needs a positive radicand")
        r = _square_root(q)
        if r:
            return _from_triple(an * bd + bn * r * ad, 0, ad * bd, None)
        return _from_triple(an * bd, bn * ad, ad * bd, q)

    def __setattr__(self, *_):
        raise AttributeError("QuadReal is immutable")

    @property
    def a(self) -> Fraction:
        """The rational part, as a Fraction."""
        return Fraction(self.na, self.d)

    @property
    def b(self) -> Fraction:
        """The coefficient of sqrt(q), as a Fraction."""
        return Fraction(self.nb, self.d)

    @staticmethod
    def sqrt(q: int) -> "QuadReal":
        return QuadReal(0, 1, q)

    # -- ring / field operations ----------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        q = self.q if self.q == other.q else _join(self.q, other.q)
        d, e = self.d, other.d
        if d == e:
            return _from_triple(self.na + other.na, self.nb + other.nb, d, q)
        return _from_triple(
            self.na * e + other.na * d, self.nb * e + other.nb * d, d * e, q
        )

    __radd__ = __add__

    def __neg__(self):
        return _raw(-self.na, -self.nb, self.d, self.q)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        q = self.q if self.q == other.q else _join(self.q, other.q)
        a, b, c, e = self.na, self.nb, other.na, other.nb
        na = a * c + b * e * q if b and e else a * c
        return _from_triple(na, a * e + b * c, self.d * other.d, q)

    __rmul__ = __mul__

    def inverse(self) -> "QuadReal":
        """d / (na + nb sqrt q) = d (na - nb sqrt q) / (na^2 - q nb^2)."""
        na, nb, d = self.na, self.nb, self.d
        if nb:
            n = na * na - nb * nb * self.q
            na, nb = d * na, -d * nb
        elif na:
            n, na = na, d
        else:
            raise ZeroDivisionError("QuadReal inverse of zero")
        if n < 0:
            n, na, nb = -n, -na, -nb
        return _from_triple(na, nb, n, self.q)

    def __truediv__(self, other):
        other = _coerce(other)
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
        return not self.na and not self.nb

    def __bool__(self) -> bool:
        return bool(self.na or self.nb)

    def to_fraction(self) -> Fraction:
        if self.nb:
            raise ValueError(f"{self} is irrational")
        return Fraction(self.na, self.d)

    def sign(self) -> int:
        return surd_sign(self.na, self.nb, self.q)

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # canonical triples: equal values have equal (na, nb, d, q)
        return (
            self.na == other.na
            and self.nb == other.nb
            and self.d == other.d
            and self.q == other.q
        )

    def __hash__(self):
        if self.nb:
            return hash((self.na, self.nb, self.d, self.q))
        return hash(Fraction(self.na, self.d))

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
        if not self.nb:
            v = Fraction(self.na, self.d)
            return v, v
        s, t = sqrt_bracket(self.q, bits)
        if self.nb < 0:
            s, t = t, s
        na, scale = self.na << bits, self.d << bits
        return Fraction(na + self.nb * s, scale), Fraction(na + self.nb * t, scale)

    def __float__(self):
        lo, hi = self.interval(64)
        return float((lo + hi) / 2)

    def __repr__(self):
        if not self.nb:
            return f"QuadReal({self.a})"
        return f"QuadReal({self.a} + {self.b}*sqrt({self.q}))"

    def __str__(self):
        if not self.nb:
            return str(self.a)
        if not self.na:
            return f"{self.b}*sqrt({self.q})"
        op = "+" if self.nb > 0 else "-"
        return f"{self.a} {op} {abs(self.b)}*sqrt({self.q})"


_new = object.__new__
_set_na = QuadReal.na.__set__
_set_nb = QuadReal.nb.__set__
_set_d = QuadReal.d.__set__
_set_q = QuadReal.q.__set__


def _raw(na: int, nb: int, d: int, q: int | None) -> QuadReal:
    """A QuadReal from a triple that is already canonical."""
    x = _new(QuadReal)
    _set_na(x, na)
    _set_nb(x, nb)
    _set_d(x, d)
    _set_q(x, q)
    return x


def _from_triple(na: int, nb: int, d: int, q: int | None) -> QuadReal:
    """The canonical QuadReal (na + nb*sqrt(q)) / d, for integers with d > 0
    and q a non-square radicand (read only when nb != 0)."""
    if d != 1:
        g = gcd(na, nb, d)
        if g != 1:
            na, nb, d = na // g, nb // g, d // g
    return _raw(na, nb, d, q if nb else None)


def _coerce(x):
    if type(x) is QuadReal:
        return x
    if isinstance(x, (int, Fraction)):
        return _raw(x.numerator, 0, x.denominator, None)
    return NotImplemented



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
