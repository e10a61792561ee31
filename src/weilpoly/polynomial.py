"""Dense univariate polynomials over Z.

Coefficients are stored constant term first, trimmed so the leading
coefficient is nonzero (the zero polynomial has an empty tuple).  IntPoly is
the workhorse for everything the classifiers consume.

The module-level helpers work on plain coefficient sequences.  _prs, the
primitive pseudo-remainder sequence that every gcd and Sturm chain of the
package is built on, takes integers or Z[sqrt(q)] numerators alike, so
quadreal.QuadPoly runs its gcds and Sturm chains on it too.  weil's
integer Sturm chain runs the same sequence itself, so that it can stop at
the first member that shows a non-real root; it only ever divides by a
member one degree lower, so it takes each pseudo-remainder in closed form
(weil._sturm_step) rather than by _prem.  Nothing here imports quadreal or
fractions: a command that works in Z[t] alone loads neither.
"""

from __future__ import annotations

import operator
from math import gcd, lcm
from typing import Iterable

from .arith import _power
from .errors import ExactnessError, StructuralError


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
    if coeffs and not isinstance(coeffs[-1], int):
        # QuadReal coefficients, so quadreal is loaded already
        from .quadreal import _primitive_surd

        return _primitive_surd(coeffs)
    g = gcd(*coeffs)
    return [c // g for c in coeffs] if g > 1 else coeffs


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
        return _power(self, n, IntPoly.one(), operator.mul)

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
        return gcd(*self.coeffs)

    def primitive(self) -> tuple[int, "IntPoly"]:
        """(content with the sign of lc, primitive part)."""
        if self.is_zero():
            return 0, self
        g = self.content()
        if self.lc() < 0:
            g = -g
        return g, IntPoly([c // g for c in self.coeffs])


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
