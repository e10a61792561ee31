"""Exact numbers and polynomials over Q(sqrt(q)).

A QuadReal is stored as an integer triple with its radicand: na, nb, d mean
(na + nb*sqrt(q)) / d.  The form is canonical: d > 0, gcd(na, nb, d) = 1,
q is None whenever nb == 0, and q is never a perfect square (a square
radicand is folded into na at construction, its root computed once per q).
So equal values have equal triples and == compares integers, and every
operation (+, -, *, inverse, **) is a few integer products followed by one
gcd.  The sign is surd_sign(na, nb, q), because d > 0.  The Fraction views
.a and .b exist for output and tests, and a rational value hashes as the
equal Fraction or int; no arithmetic path builds a Fraction.

A QuadPoly carries QuadReal coefficients sharing one radicand.  It keeps a
lazily built integer form, coefficient lists A, B and one positive D with
coeffs[i] = (A[i] + B[i]*sqrt(q)) / D, read straight off each
coefficient's integer triple (D is the lcm of the triples' denominators).
sign_at and evaluate run homogeneous integer Horner on it, and its
numerators A + B*sqrt(q) in Z[sqrt(q)] (plain integers when B is zero)
feed polynomial._prs, the primitive pseudo-remainder sequence behind every
gcd and Sturm chain.  squarefree_part is memoised on the (immutable)
instance, and the result is marked as its own squarefree part.

Only the degree-12 lemma path and the Sturm and interval code beneath it
compute here, so the Z[t] layer (polynomial, weil) imports this module only
inside the functions that need it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm
from typing import Sequence

from .arith import _power, surd_sign
from .errors import DomainMismatchError
from .polynomial import _compose_linear, _homogeneous_horner, _mul, _primitive, _prs, _trim


@lru_cache(maxsize=256)
def _square_root(q: int) -> int:
    """isqrt(q) when q > 0 is a perfect square, else 0; cached per q."""
    r = isqrt(q)
    return r if r * r == q else 0


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
        return _power(self, n, QuadReal(1), QuadReal.__mul__)

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


def _primitive_surd(coeffs) -> list:
    """QuadReal coeffs with d = 1 divided by their positive content, the
    gcd of every na and nb (polynomial._primitive over Z[sqrt(q)])."""
    g = gcd(*(c.na for c in coeffs), *(c.nb for c in coeffs))
    return [_raw(c.na // g, c.nb // g, 1, c.q) for c in coeffs] if g > 1 else coeffs


def _normalized(coeffs) -> list:
    """The primitive multiple of nonzero coeffs over Z or Z[sqrt(q)] with a
    positive integer leading coefficient, a positive rational multiple of
    the monic one: an irrational leading a + b*sqrt(q) is cleared by its
    conjugate a - b*sqrt(q)."""
    lc = coeffs[-1]
    if type(lc) is QuadReal and lc.nb:
        conj = _raw(lc.na, -lc.nb, 1, lc.q)
        coeffs = [c * conj for c in coeffs]
    coeffs = _primitive(coeffs)
    return coeffs if coeffs[-1] > 0 else [-c for c in coeffs]


class QuadPoly:
    """Polynomial with QuadReal coefficients sharing one radicand."""

    __slots__ = ("coeffs", "q", "_int", "_sf")

    def __init__(self, coeffs: Sequence, q: int | None = None):
        vals = []
        for c in coeffs:
            if not isinstance(c, QuadReal):
                c = QuadReal(c)
            vals.append(c)
        for c in vals:
            if c.q is not None:
                if q is not None and q != c.q:
                    raise DomainMismatchError(f"coefficient radicand {c.q} != {q}")
                q = c.q
        object.__setattr__(self, "coeffs", _trim(vals))
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "_int", None)
        object.__setattr__(self, "_sf", None)

    def __setattr__(self, *_):
        raise AttributeError("QuadPoly is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def lc(self) -> QuadReal:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, i: int) -> QuadReal:
        return self.coeffs[i] if 0 <= i <= self.degree else QuadReal(0)

    def __eq__(self, other):
        return (
            isinstance(other, QuadPoly)
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"QuadPoly([{', '.join(str(c) for c in self.coeffs)}])"

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, QuadReal)):
            return QuadPoly([c * other for c in self.coeffs], q=self.q)
        if not isinstance(other, QuadPoly):
            return NotImplemented
        return QuadPoly(_mul(self.coeffs, other.coeffs), q=_join(self.q, other.q))

    __rmul__ = __mul__

    def derivative(self) -> "QuadPoly":
        return QuadPoly(
            [self.coeffs[i] * i for i in range(1, len(self.coeffs))], q=self.q
        )

    def evaluate(self, x) -> QuadReal:
        """p(x) for x an int, a Fraction or a QuadReal.

        At a rational x = n/m, homogeneous integer Horner on the integer
        form gives m^deg * D * p(x); an irrational QuadReal point is
        evaluated in Q(sqrt(q)).
        """
        if isinstance(x, QuadReal):
            if x.nb:
                acc = QuadReal(0)
                for c in reversed(self.coeffs):
                    acc = acc * x + c
                return acc
            n, m = x.na, x.d
        else:
            n, m = x.numerator, x.denominator
        if not self.coeffs:
            return QuadReal(0)
        a, b, den = self.integer_form()
        sa = _homogeneous_horner(a, n, m)
        sb = _homogeneous_horner(b, n, m) if b else 0
        return _from_triple(sa, sb, den * m ** self.degree, self.q)

    def integer_form(self) -> tuple[list[int], list[int] | None, int]:
        """(A, B, D) with coeffs[i] = (A[i] + B[i]*sqrt(q)) / D and D > 0 the
        lcm of the coefficient denominators; B is None when every
        coefficient is rational."""
        if self._int is None:
            den = lcm(*(c.d for c in self.coeffs))
            a = [c.na * (den // c.d) for c in self.coeffs]
            b = [c.nb * (den // c.d) for c in self.coeffs]
            object.__setattr__(self, "_int", (a, b if any(b) else None, den))
        return self._int

    def numerators(self) -> list:
        """The coefficients times D in Z[sqrt(q)]: the integers A when every
        coefficient is rational, else the QuadReals A + B*sqrt(q) (d = 1)."""
        a, b, _ = self.integer_form()
        if b is None:
            return a
        return [_from_triple(x, y, 1, self.q) for x, y in zip(a, b)]

    def sign_at_ratio(self, n: int, d: int) -> int:
        """Exact sign of p(n/d) for integers n and d > 0, in integers alone.

        Homogeneous Horner gives d^deg * D * p(n/d) = SA + SB*sqrt(q); the
        sign of that is settled by surd_sign.
        """
        a, b, _ = self.integer_form()
        sa = _homogeneous_horner(a, n, d)
        if b is None:
            return (sa > 0) - (sa < 0)
        return surd_sign(sa, _homogeneous_horner(b, n, d), self.q)

    def sign_at(self, x) -> int:
        """Exact sign of p(x) for x an int, a Fraction or a QuadReal.

        Rational points take the integer path of sign_at_ratio; an
        irrational QuadReal point is evaluated in Q(sqrt(q)).
        """
        if isinstance(x, QuadReal):
            if x.nb:
                return self.evaluate(x).sign()
            return self.sign_at_ratio(x.na, x.d)
        return self.sign_at_ratio(x.numerator, x.denominator)

    def compose_linear(self, alpha, beta) -> "QuadPoly":
        """p(alpha*t + beta)."""
        return QuadPoly(_compose_linear(self.coeffs, alpha, beta), q=self.q)

    def gcd(self, other: "QuadPoly") -> "QuadPoly":
        """The gcd: the last member of the primitive pseudo-remainder
        sequence of the numerators, normalized."""
        q = _join(self.q, other.q)
        a, b = self.numerators(), other.numerators()
        if len(a) < len(b):
            a, b = b, a
        g = _prs(a, b)[-1]
        return QuadPoly(_normalized(g) if g else g, q=q)

    def squarefree_part(self) -> "QuadPoly":
        """p / gcd(p, p'), normalized; computed once per instance."""
        if self._sf is None:
            sf = self
            if self.coeffs:
                # exact quotient over Q(sqrt(q)) by the gcd g
                g = self.gcd(self.derivative()).coeffs
                d, inv = len(g) - 1, g[-1].inverse()
                rem = list(self.coeffs)
                quot = [QuadReal(0)] * (len(rem) - d)
                for i in range(len(rem) - 1, d - 1, -1):
                    c = quot[i - d] = rem[i] * inv
                    if c:
                        for j in range(d):
                            rem[i - d + j] -= c * g[j]
                sf = QuadPoly(_normalized(QuadPoly(quot, q=self.q).numerators()), q=self.q)
            object.__setattr__(sf, "_sf", sf)
            object.__setattr__(self, "_sf", sf)
        return self._sf
