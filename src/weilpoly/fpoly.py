"""Polynomial arithmetic and factorization over finite fields.

Two coefficient fields are supported: F_p with int elements, and F_{p^d}
presented as F_p[x]/(m(x)) with tuple elements.  Both give zero, one,
order, char, of_int, mul, inv, pow and random.  Polynomials are dense
coefficient lists, constant term first, trimmed.  Over a PrimeField, ftrim,
fadd, fsub, fscale, fmul, fdivmod, frem and fmulmod work on the int lists
directly and reduce each coefficient once with % p.  frem and fmulmod share
one in-place reduction that builds no quotient, needs no inverse for a
monic divisor, and leaves a product unreduced until it is reduced modulo
the divisor.  fgcd, fmonic, fpow_mod and the factorization stages inherit
that path; fgcd's Euclid loop runs straight on that reduction.  ExtField
elements go through the field's add/sub/mul calls.  Products share one
dense kernel and powers one square-and-multiply: fmul over F_p and
ExtField.mul are polynomial._mul, reduced afterwards, and ExtField.pow and
fpow_mod are arith._power.

Factorization is the classical pipeline: squarefree decomposition (with the
char-p p-th-root step), distinct-degree splitting by Frobenius powers
(over F_p, for p <= 13, each one is a substitution, h^p = h(x^p)), and
equal-degree splitting (Cantor-Zassenhaus; trace construction in
characteristic 2).  The factorization is unique, so no draw can change it;
the equal-degree draws are fixed, which keeps the run time reproducible.
Each stage stops where its input needs no more: factor returns a constant
or linear input at once, a squarefree one (gcd(f, f') = 1) leaves the
decomposition after that gcd, and a distinct-degree block of one factor is
not split, so the random generator is made only for a block that splits.

factor over F_p reduces its input mod p, then memoizes the answer per
(p, coefficients) in a bounded LRU cache: the Q_p engine factors the same
small residues over and over, and factorint's degree sieve reads its split
mod 2 from the same answers.  factor is the package's only splitter over
F_p: factorint Hensel-lifts the irreducible factors it returns at the
sieve prime with the fewest, a memo hit when that prime is 2.  The cache
holds tuples and each call gets fresh lists.  ExtField calls are not
memoized.
"""

from __future__ import annotations

import functools
import random

from .arith import _power, prime_factors
from .polynomial import _mul

DEFAULT_SEED = 1729


class PrimeField:
    """F_p with plain int elements."""

    def __init__(self, p: int):
        self.p = p
        self.zero = 0
        self.one = 1

    @property
    def order(self) -> int:
        return self.p

    @property
    def char(self) -> int:
        return self.p

    def of_int(self, n: int) -> int:
        return n % self.p

    def of_poly(self, coeffs: list[int]) -> int:
        """Reduce an F_p[x] coefficient list mod x, as ExtField.of_poly does
        mod its modulus: a t-adic digit is a 1-tuple."""
        return coeffs[0] % self.p if coeffs else 0

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        return pow(a, self.p - 2, self.p)

    def pow(self, a, n):
        return pow(a, n, self.p)

    def random(self, rng: random.Random):
        return rng.randrange(self.p)

    def __repr__(self):
        return f"GF({self.p})"


class ExtField:
    """F_{p^d} = F_p[x]/(modulus); elements are tuples of length d."""

    def __init__(self, p: int, modulus: list[int]):
        if modulus[-1] % p != 1:
            raise ValueError("modulus must be monic")
        self.p = p
        self.modulus = [c % p for c in modulus]
        self.d = len(modulus) - 1
        self.zero = (0,) * self.d
        self.one = tuple([1] + [0] * (self.d - 1))

    @property
    def order(self) -> int:
        return self.p ** self.d

    @property
    def char(self) -> int:
        return self.p

    def of_int(self, n: int):
        return tuple([n % self.p] + [0] * (self.d - 1))

    def of_poly(self, coeffs: list[int]):
        """Reduce an F_p[x] coefficient list into the field."""
        p = self.p
        r = [c % p for c in coeffs]
        m, d = self.modulus, self.d
        while len(r) > d:
            c = r.pop()
            if c:
                k = len(r) - d
                for j in range(d):
                    r[k + j] = (r[k + j] - c * m[j]) % p
        r += [0] * (d - len(r))
        return tuple(r)

    def add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def neg(self, a):
        p = self.p
        return tuple((-x) % p for x in a)

    def mul(self, a, b):
        return self.of_poly(_mul(a, b))

    def inv(self, a):
        return self.pow(a, self.order - 2)

    def pow(self, a, n):
        return _power(a, n, self.one, self.mul)

    def is_zero(self, a) -> bool:
        return all(x == 0 for x in a)

    def random(self, rng: random.Random):
        return tuple(rng.randrange(self.p) for _ in range(self.d))

    def __repr__(self):
        return f"GF({self.p}^{self.d})"


# -- dense polynomial helpers over a field object ------------------------------


def ftrim(F, f):
    n = len(f)
    if isinstance(F, PrimeField):
        while n and f[n - 1] == 0:
            n -= 1
    else:
        while n and F.is_zero(f[n - 1]):
            n -= 1
    return f[:n]


def fdeg(f) -> int:
    return len(f) - 1


def fadd(F, f, g):
    if isinstance(F, PrimeField):
        p = F.p
        if len(f) < len(g):
            f, g = g, f
        out = [(a + b) % p for a, b in zip(f, g)]
        return ftrim(F, out + [a % p for a in f[len(g):]])
    n = max(len(f), len(g))
    out = []
    for i in range(n):
        a = f[i] if i < len(f) else F.zero
        b = g[i] if i < len(g) else F.zero
        out.append(F.add(a, b))
    return ftrim(F, out)


def fsub(F, f, g):
    if isinstance(F, PrimeField):
        p, n = F.p, len(g)
        if len(f) < n:
            f = list(f) + [0] * (n - len(f))
        return ftrim(F, [(a - b) % p for a, b in zip(f, g)] + [a % p for a in f[n:]])
    n = max(len(f), len(g))
    out = []
    for i in range(n):
        a = f[i] if i < len(f) else F.zero
        b = g[i] if i < len(g) else F.zero
        out.append(F.sub(a, b))
    return ftrim(F, out)


def fmul(F, f, g):
    if not f or not g:
        return []
    if isinstance(F, PrimeField):
        p = F.p
        return ftrim(F, [c % p for c in _mul(f, g)])
    out = [F.zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if F.is_zero(a):
            continue
        for j, b in enumerate(g):
            out[i + j] = F.add(out[i + j], F.mul(a, b))
    return ftrim(F, out)


def fscale(F, f, c):
    if isinstance(F, PrimeField):
        p = F.p
        return ftrim(F, [a * c % p for a in f])
    return ftrim(F, [F.mul(a, c) for a in f])


def fmonic(F, f):
    if not f:
        return f
    lc = f[-1]
    if lc == F.one:
        return f
    return fscale(F, f, F.inv(lc))


def fdivmod(F, f, g):
    if not g:
        raise ZeroDivisionError
    f = list(f)
    dg = fdeg(g)
    if isinstance(F, PrimeField):
        # coefficients stay unreduced ints until read
        p = F.p
        if len(f) <= dg:
            return [], ftrim(F, [c % p for c in f])
        inv = 1 if g[-1] == 1 else pow(g[-1], p - 2, p)
        low = g[:-1]
        quot = [0] * (len(f) - dg)
        for i in range(len(f) - 1 - dg, -1, -1):
            c = f[i + dg] * inv % p
            if c:
                quot[i] = c
                for j, b in enumerate(low, i):
                    f[j] -= c * b
        return ftrim(F, quot), ftrim(F, [c % p for c in f[:dg]])
    inv = F.inv(g[-1])
    if fdeg(f) < dg:
        return [], ftrim(F, f)
    quot = [F.zero] * (fdeg(f) - dg + 1)
    for i in range(fdeg(f), dg - 1, -1):
        c = f[i]
        if F.is_zero(c):
            continue
        c = F.mul(c, inv)
        quot[i - dg] = c
        for j in range(dg + 1):
            f[i - dg + j] = F.sub(f[i - dg + j], F.mul(c, g[j]))
    return ftrim(F, quot), ftrim(F, f)


def frem(F, f, g):
    if not isinstance(F, PrimeField):
        return fdivmod(F, f, g)[1]
    if not g:
        raise ZeroDivisionError
    return _reduce(F.p, list(f), g)


def _reduce(p, f, g):
    """f mod g over F_p, reducing the int list f in place; builds no
    quotient, and needs no inverse when g is monic."""
    dg = len(g) - 1
    if len(f) > dg:
        low = g[:-1]
        inv = 1 if g[-1] == 1 else pow(g[-1], p - 2, p)
        for i in range(len(f) - 1, dg - 1, -1):
            c = f[i] * inv % p
            if c:
                for j, b in enumerate(low, i - dg):
                    f[j] -= c * b
        del f[dg:]
    f = [c % p for c in f]
    n = len(f)
    while n and f[n - 1] == 0:
        n -= 1
    return f[:n]


def fmulmod(F, f, g, m):
    """f * g mod m; over F_p the product stays unreduced until _reduce."""
    if not isinstance(F, PrimeField):
        return frem(F, fmul(F, f, g), m)
    return _reduce(F.p, _mul(f, g), m)


def fgcd(F, f, g):
    if isinstance(F, PrimeField):
        return _gcd(F.p, list(f), list(g))
    a, b = list(f), list(g)
    while b:
        a, b = b, frem(F, a, b)
    return fmonic(F, a)


def _gcd(p, a, b):
    """The monic gcd of the int lists a and b over F_p, overwriting both:
    Euclid's loop straight on _reduce."""
    while b:
        a, b = b, _reduce(p, a, b)
    if a and a[-1] != 1:
        inv = pow(a[-1], p - 2, p)
        a = [c * inv % p for c in a]
    return a


def fpow_mod(F, f, n, m):
    """f^n mod m, by arith._power on fmulmod."""
    return _power(frem(F, f, m), n, [F.one], lambda a, b: fmulmod(F, a, b, m))


def fdiff(F, f):
    out = []
    for i in range(1, len(f)):
        out.append(F.mul(f[i], F.of_int(i)))
    return ftrim(F, out)


def _pth_root(F, f):
    """For f with zero derivative, return g with g(x)^p = f(x^p) pattern undone."""
    p = F.char
    out = []
    for i in range(0, len(f), p):
        c = f[i]
        # coefficient p-th root: Frobenius inverse is c -> c^(order/p)
        out.append(F.pow(c, F.order // p))
    return out


def squarefree_decomposition(F, f) -> list[tuple[list, int]]:
    """Yun-style decomposition adapted to characteristic p.

    Returns [(g_i, e_i)] with f = lc * prod g_i^{e_i}, g_i monic squarefree
    pairwise coprime.
    """
    f = fmonic(F, f)
    if fdeg(f) <= 0:
        return []
    out: list[tuple[list, int]] = []

    def rec(f, mult):
        if fdeg(f) <= 0:
            return
        df = fdiff(F, f)
        if not df:
            rec(_pth_root(F, f), mult * F.char)
            return
        g = fgcd(F, f, df)
        if fdeg(g) == 0:
            # f is squarefree: Yun's loop would only divide by 1
            out.append((list(f), mult))
            return
        w = fdivmod(F, f, g)[0]
        e = 1
        while fdeg(w) > 0:
            y = fgcd(F, w, g)
            z = fdivmod(F, w, y)[0]
            if fdeg(z) > 0:
                out.append((z, mult * e))
            w = y
            g = fdivmod(F, g, y)[0]
            e += 1
        # leftover factors all have multiplicity divisible by p, so g is a
        # polynomial in t^p; its p-th root carries multiplicities /p
        if fdeg(g) > 0:
            rec(_pth_root(F, g), mult * F.char)

    rec(f, 1)
    return out


# Over F_p, distinct_degree takes h^p mod f as h(x^p) mod f up to this p.
# That reduces a list of p*deg(h) + 1 coefficients, so its cost grows like
# p * n^2 against log2(p) * n^2 for fpow_mod.  Timed on 50 random monic f of
# degree n = 4, 7, 14 (one core of an x86-64 host, Python 3.11), the
# substitution took 0.4-0.9 of fpow_mod's time for p <= 13 and 0.9-1.4 at
# p = 17-23, rising to 1.3-2.5 at p = 37.
_SUBSTITUTION_MAX_P = 13


def distinct_degree(F, f) -> list[tuple[list, int]]:
    """[(product of irreducible factors of degree d, d)] for squarefree f,
    made monic.

    Over F_p, f's inverse leading coefficient is the only one the walk
    needs: every later divisor is monic.  Each coefficient c has c^p = c,
    so for p <= _SUBSTITUTION_MAX_P the Frobenius step h -> h^p mod f is
    h(x^p) mod f, a substitution and one reduction with no product; for
    larger p, whose substituted list grows with p, it is fpow_mod's
    square-and-multiply.  h = x^(p^d) mod f is reduced mod f,
    so h - x takes one coefficient's change, and the first Euclid step of
    gcd(h - x, f), a remainder of a lower-degree dividend, is skipped.
    """
    out = []
    f = fmonic(F, f)
    if isinstance(F, PrimeField):
        p = F.p
        h = [0, 1]
        d = 0
        while len(f) > 1:
            d += 1
            n = len(f) - 1
            if 2 * d > n:
                out.append((f, n))
                break
            if p <= _SUBSTITUTION_MAX_P:
                t = [0] * (p * len(h) - p + 1)
                t[::p] = h
                h = _reduce(p, t, f)
            else:
                h = fpow_mod(F, h, p, f)
            t = h + [0] * (2 - len(h))
            t[1] = (t[1] - 1) % p
            while t and not t[-1]:
                t.pop()
            g = _gcd(p, list(f), t)
            if len(g) > 1:
                out.append((g, d))
                f = fdivmod(F, f, g)[0]
                h = _reduce(p, h, f)
        return out
    x = [F.zero, F.one]
    h = list(x)
    d = 0
    while fdeg(f) > 0:
        d += 1
        if 2 * d > fdeg(f):
            out.append((f, fdeg(f)))
            break
        h = fpow_mod(F, h, F.order, f)
        g = fgcd(F, fsub(F, h, x), f)
        if fdeg(g) > 0:
            out.append((g, d))
            f = fdivmod(F, f, g)[0]
            h = frem(F, h, f)
    return out


def equal_degree(F, f, d, rng: random.Random) -> list[list]:
    """Split monic squarefree f (all factors of degree d) into irreducibles."""
    n = fdeg(f)
    if n == d:
        return [f]
    while True:
        r = [F.random(rng) for _ in range(n)]
        r = ftrim(F, r)
        if fdeg(r) < 1:
            continue
        g = fgcd(F, r, f)
        if 0 < fdeg(g) < n:
            break
        if F.char == 2:
            # trace map over GF(2^k): T(r) = r + r^2 + ... + r^(2^(k*d-1)) mod f
            t = list(r)
            acc = list(r)
            k = 0
            o = F.order
            while o > 1:
                o //= 2
                k += 1
            for _ in range(k * d - 1):
                t = fmulmod(F, t, t, f)
                acc = fadd(F, acc, t)
            g = fgcd(F, acc, f)
        else:
            e = (F.order ** d - 1) // 2
            h = fpow_mod(F, r, e, f)
            g = fgcd(F, fsub(F, h, [F.one]), f)
        if 0 < fdeg(g) < n:
            break
    left = equal_degree(F, fmonic(F, g), d, rng)
    right = equal_degree(F, fmonic(F, fdivmod(F, f, g)[0]), d, rng)
    return left + right


def factor(F, f) -> tuple[object, list[tuple[list, int]]]:
    """Complete factorization: (leading coefficient, [(monic irreducible, mult)]).

    The unique factorization, factors sorted by (degree, coefficients); the
    equal-degree draws are fixed, which keeps the run time reproducible.
    Over F_p the coefficients are reduced mod p first and the answer is
    memoized; each call gets fresh lists.
    """
    if isinstance(F, PrimeField):
        p = F.p
        f = tuple(ftrim(F, [c % p for c in f]))
        if not f:
            raise ValueError("cannot factor the zero polynomial")
        lc, parts = _factor_mod_p(p, f)
        return lc, [(list(g), e) for g, e in parts]
    f = ftrim(F, list(f))
    if not f:
        raise ValueError("cannot factor the zero polynomial")
    return _factor(F, f)


# The Q_p engine factors h's unit part mod p and every Newton side's
# residual polynomial, and the degree sieve of factorint reads its split of
# h mod 2 from here; on the q=2 box these repeat: there are at most 128
# monic degree-7 polynomials over F_2.  The scan14 list of seed 1 makes
# 1,499 factor calls on 164 distinct inputs; 1,446 of them are over F_p, on
# 145 distinct inputs.  Of those calls, 328 are the sieve's reads at p = 2,
# on 70 distinct inputs, 47 of which the Q_p engine factors too.  ExtField
# calls (53 a run) are not memoized, nor are the sieve's 749 reads at odd
# primes, on 744 distinct inputs, which run distinct_degree.
_FACTOR_MEMO_SIZE = 512


@functools.lru_cache(maxsize=_FACTOR_MEMO_SIZE)
def _factor_mod_p(p: int, f: tuple) -> tuple[int, tuple]:
    """factor over F_p for a reduced, trimmed coefficient tuple, as tuples."""
    lc, parts = _factor(PrimeField(p), list(f))
    return lc, tuple((tuple(g), e) for g, e in parts)


def _factor(F, f):
    """factor for a trimmed nonzero f."""
    lc = f[-1]
    if fdeg(f) == 0:
        return lc, []
    if fdeg(f) == 1:
        return lc, [(fmonic(F, f), 1)]
    rng = None
    out = []
    for g, e in squarefree_decomposition(F, f):
        for h, d in distinct_degree(F, g):
            h = fmonic(F, h)
            if fdeg(h) == d:
                # a block of one factor; equal_degree would draw nothing
                out.append((h, e))
                continue
            if rng is None:
                rng = random.Random(DEFAULT_SEED)
            for irr in equal_degree(F, h, d, rng):
                out.append((irr, e))
    out.sort(key=lambda t: (fdeg(t[0]), _sort_key(F, t[0]), t[1]))
    return lc, out


def _sort_key(F, f):
    if isinstance(F, PrimeField):
        return tuple(f)
    return tuple(x for c in f for x in c)


def is_irreducible(F, f) -> bool:
    """Rabin irreducibility test for monic f."""
    n = fdeg(f)
    if n <= 0:
        return False
    if n == 1:
        return True
    x = [F.zero, F.one]
    h = fpow_mod(F, x, F.order ** n, f)
    if ftrim(F, fsub(F, h, x)):
        return False
    for t in prime_factors(n):
        h = fpow_mod(F, x, F.order ** (n // t), f)
        if fdeg(fgcd(F, fsub(F, h, x), f)) > 0:
            return False
    return True

