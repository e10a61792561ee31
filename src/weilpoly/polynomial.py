"""Dense univariate polynomials over Z and over Q(sqrt(q)).

Coefficients are stored constant term first, trimmed so the leading
coefficient is nonzero (the zero polynomial has an empty tuple).  IntPoly is
the workhorse for everything the classifiers consume; QuadPoly carries
QuadReal coefficients sharing one radicand.

A QuadPoly keeps a lazily built integer form, coefficient lists A, B and one
positive D with coeffs[i] = (A[i] + B[i]*sqrt(q)) / D, read straight off
each coefficient's integer triple (D is the lcm of the triples'
denominators).  sign_at and evaluate run homogeneous integer Horner on it,
and its numerators A + B*sqrt(q) in Z[sqrt(q)] (plain integers when B is
zero) feed the one primitive pseudo-remainder sequence (_prs) that every
gcd and Sturm chain of the package is built on, over Z and over Z[sqrt(q)]
alike.  squarefree_part is memoised on the (immutable) instance, and the
result is marked as its own squarefree part.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import DomainMismatchError, ExactnessError, StructuralError
from .quadreal import QuadReal, _from_triple, _raw, surd_sign


def _trim(coeffs: list) -> tuple:
    n = len(coeffs)
    while n > 0 and not coeffs[n - 1]:
        n -= 1
    return tuple(coeffs[:n])


def _mul(f, g) -> list[int]:
    """Dense product of integer coefficient sequences, untrimmed."""
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g, i):
                out[j] += a * b
    return out


def _divmod_monic(f, g) -> tuple[list[int], list[int]]:
    """Quotient and remainder of integer coefficient sequences, g monic."""
    rem = list(f)
    d = len(g) - 1
    if len(rem) - 1 < d:
        return [], rem
    quot = [0] * (len(rem) - d)
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        quot[i - d] = c
        for j in range(d + 1):
            rem[i - d + j] -= c * g[j]
    return quot, rem


def _div_exact(f, g) -> list[int]:
    """f / g for integer coefficient sequences when g divides f in Z[x]."""
    rem = list(f)
    d = len(g) - 1
    lc = g[-1]
    quot = [0] * max(len(rem) - d, 0)
    for i in range(len(rem) - 1, d - 1, -1):
        c, r = divmod(rem[i], lc)
        if r:
            raise ExactnessError("division was not exact")
        quot[i - d] = c
        if c:
            for j in range(d):
                rem[i - d + j] -= c * g[j]
    if any(rem[:d]):
        raise ExactnessError("division was not exact")
    return quot


def _compose_linear(coeffs, alpha, beta) -> list:
    """The coefficients of p(alpha*t + beta), by Horner on coefficient lists."""
    out = []
    for c in reversed(coeffs):
        # out <- out * (alpha*t + beta) + c
        nxt = [c, *(x * alpha for x in out)]
        for k, x in enumerate(out):
            nxt[k] += x * beta
        out = nxt
    return out


def _prem(a, b) -> list:
    """Pseudo-remainder of trimmed coefficient sequences over Z or Z[sqrt(q)]
    (ints, or QuadReals with d = 1) with deg a >= deg b >= 0: the remainder
    of lc(b)^delta * a by b, where delta = deg a - deg b + 1, trimmed."""
    lc = b[-1]
    d = len(b) - 1
    rem = list(a)
    for i in range(len(rem) - 1, d - 1, -1):
        # rem <- lc * rem - rem[i] * x^(i - d) * b, which clears rem[i]
        c = rem[i]
        for j in range(i):
            rem[j] *= lc
        if c:
            for j in range(d):
                rem[i - d + j] -= c * b[j]
    n = d
    while n and not rem[n - 1]:
        n -= 1
    return rem[:n]


def _primitive(coeffs) -> list:
    """coeffs over Z or Z[sqrt(q)] divided by their positive content, the
    gcd of the integers or of every na and nb."""
    if coeffs and type(coeffs[-1]) is QuadReal:
        g = gcd(*(c.na for c in coeffs), *(c.nb for c in coeffs))
        return [_raw(c.na // g, c.nb // g, 1, c.q) for c in coeffs] if g > 1 else coeffs
    g = gcd(*coeffs)
    return [c // g for c in coeffs] if g > 1 else coeffs


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


def _prs_step(a, b) -> list:
    """The member after a, b of a primitive pseudo-remainder sequence over Z
    or Z[sqrt(q)].

    For trimmed coefficient sequences with deg a >= deg b >= 0, this is
    -prem(a, b) times sign(lc b)^delta, delta = deg a - deg b + 1, so a is
    scaled by the positive |lc b|^delta, then divided by its positive
    content.  It is a positive multiple of minus the remainder of a by b, so
    the sequence started from (p, p') is a Sturm chain.
    """
    rem = _prem(a, b)
    if b[-1] > 0 or (len(a) - len(b)) % 2 == 1:
        rem = [-x for x in rem]
    return _primitive(rem)


def _prs(a, b) -> list:
    """The primitive pseudo-remainder sequence a, b, ... of trimmed sequences
    with deg a >= deg b, up to its last nonzero member, which is gcd(a, b)
    up to a constant (just [a] when b is zero)."""
    seq = [a]
    while b:
        seq.append(b)
        a, b = b, _prs_step(a, b) if len(b) > 1 else []
    return seq


def _variations_right(signs: list[int]) -> int:
    """Sign variations of a Sturm chain just right of a point, from its signs
    at the point: a vanishing first member takes the sign of the second,
    which for a squarefree chain is its sign just right of the point."""
    if len(signs) > 1 and signs[0] == 0:
        signs = [signs[1]] + signs[1:]
    var, prev = 0, 0
    for s in signs:
        if s:
            if prev and s != prev:
                var += 1
            prev = s
    return var


def _common_numerators(lo: Fraction, hi: Fraction) -> tuple[int, int, int]:
    """(ln, hn, den) with lo = ln/den and hi = hn/den over the least common den."""
    den = lcm(lo.denominator, hi.denominator)
    return lo.numerator * (den // lo.denominator), hi.numerator * (den // hi.denominator), den


def _homogeneous_horner(coeffs, n: int, d: int) -> int:
    """sum(coeffs[i] * n^i * d^(deg - i)), that is d^deg * f(n/d)."""
    if not coeffs:
        return 0
    acc = coeffs[-1]
    dpow = d
    for c in reversed(coeffs[:-1]):
        acc = acc * n + c * dpow
        dpow *= d
    return acc


class IntPoly:
    """Polynomial with arbitrary-precision integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        """coeffs are integers: a float, string or Fraction is a ValueError,
        never truncated or parsed."""
        try:
            coeffs = list(map(operator.index, coeffs))
        except TypeError:
            raise ValueError(f"expected integer coefficients, got {coeffs!r}") from None
        object.__setattr__(self, "coeffs", _trim(coeffs))

    def __setattr__(self, *_):
        raise AttributeError("IntPoly is immutable")

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def one() -> "IntPoly":
        return IntPoly([1])

    # -- structure ------------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def lc(self) -> int:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return not self.is_zero() and self.lc() == 1

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i <= self.degree else 0

    def __eq__(self, other):
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"IntPoly({list(self.coeffs)})"

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self[i]
            if c == 0:
                continue
            if i == 0:
                parts.append(f"{c:+d}")
            else:
                t = "t" if i == 1 else f"t^{i}"
                if c == 1:
                    parts.append(f"+{t}")
                elif c == -1:
                    parts.append(f"-{t}")
                else:
                    parts.append(f"{c:+d}*{t}")
        s = "".join(parts)
        return s[1:] if s.startswith("+") else s

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other: "IntPoly") -> "IntPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPoly([self[i] + other[i] for i in range(n)])

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPoly([self[i] - other[i] for i in range(n)])

    def __neg__(self) -> "IntPoly":
        return IntPoly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly([c * other for c in self.coeffs])
        if not isinstance(other, IntPoly):
            return NotImplemented
        return IntPoly(_mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "IntPoly":
        if n < 0:
            raise ValueError("a polynomial has no negative powers in Z[t]")
        out = IntPoly.one()
        base = self
        while True:
            if n & 1:
                out = out * base
            n >>= 1
            if not n:
                return out
            base = base * base

    def derivative(self) -> "IntPoly":
        return IntPoly([i * self.coeffs[i] for i in range(1, len(self.coeffs))])

    def evaluate(self, x):
        """Horner evaluation; x may be int, Fraction or QuadReal."""
        acc = x * 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose_linear(self, alpha: int, beta: int) -> "IntPoly":
        """p(alpha*t + beta), exact over Z."""
        return IntPoly(_compose_linear(self.coeffs, alpha, beta))

    def divmod_monic(self, other: "IntPoly") -> tuple["IntPoly", "IntPoly"]:
        """Quotient and remainder for a monic divisor; exact over Z."""
        if not other.is_monic():
            raise ValueError("divisor must be monic")
        quot, rem = _divmod_monic(self.coeffs, other.coeffs)
        return IntPoly(quot), IntPoly(rem)

    def content(self) -> int:
        g = 0
        for c in self.coeffs:
            g = gcd(g, abs(c))
        return g

    def primitive(self) -> tuple[int, "IntPoly"]:
        """(content with the sign of lc, primitive part)."""
        if self.is_zero():
            return 0, self
        g = self.content()
        if self.lc() < 0:
            g = -g
        return g, IntPoly([c // g for c in self.coeffs])

    def to_quad(self, q: int | None = None) -> "QuadPoly":
        return QuadPoly([QuadReal(c) for c in self.coeffs], q=q)


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

    def _join(self, other: "QuadPoly") -> int | None:
        if self.q is None:
            return other.q
        if other.q is None or other.q == self.q:
            return self.q
        raise DomainMismatchError(f"mixed radicands {self.q} and {other.q}")

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, QuadReal)):
            return QuadPoly([c * other for c in self.coeffs], q=self.q)
        if not isinstance(other, QuadPoly):
            return NotImplemented
        q = self._join(other)
        if self.is_zero() or other.is_zero():
            return QuadPoly([], q=q)
        out = [QuadReal(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return QuadPoly(out, q=q)

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
        q = self._join(other)
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


def int_list_from_string(text: str) -> tuple[int, ...]:
    """Parse a comma-separated list of integers.

    Raises StructuralError with a character position on malformed input.
    """
    out = []
    pos = 0
    for chunk in text.split(","):
        stripped = chunk.strip()
        if not stripped:
            raise StructuralError(f"empty coefficient at position {pos}")
        try:
            out.append(int(stripped))
        except ValueError:
            raise StructuralError(
                f"bad integer {stripped!r} at position {pos}"
            ) from None
        pos += len(chunk) + 1
    return tuple(out)


def poly_from_string(text: str) -> IntPoly:
    """Parse a comma-separated coefficient list, constant term first.

    Raises StructuralError with a character position on malformed input.
    """
    return IntPoly(int_list_from_string(text))


def poly_to_string(p: IntPoly) -> str:
    """Inverse of poly_from_string (round-trips)."""
    if p.is_zero():
        return "0"
    return ",".join(str(c) for c in p.coeffs)
