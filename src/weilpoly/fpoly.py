"""Polynomial arithmetic and factorization over finite fields.

Two coefficient fields are supported through one small protocol: F_p with
int elements, and F_{p^d} presented as F_p[x]/(m(x)) with tuple elements.
Polynomials are dense coefficient lists, constant term first, trimmed.
Over a PrimeField, ftrim, fsub, fmul and fdivmod work on the int lists
directly and reduce each coefficient once with % p; frem, fgcd, fpow_mod
and the factorization stages inherit that path.  ExtField elements go
through the field's add/sub/mul calls.

Factorization is the classical pipeline: squarefree decomposition (with the
char-p p-th-root step), distinct-degree splitting by Frobenius powers, and
equal-degree splitting (Cantor-Zassenhaus; trace construction in
characteristic 2).  The equal-degree stage draws from a deterministic seeded
generator so outputs are bit-reproducible.
"""

from __future__ import annotations

import random

from .arith import prime_factors

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

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        return pow(a, self.p - 2, self.p)

    def pow(self, a, n):
        return pow(a, n, self.p)

    def is_zero(self, a) -> bool:
        return a == 0

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
        p, d = self.p, self.d
        prod = [0] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] = (prod[i + j] + x * y) % p
        return self.of_poly(prod)

    def inv(self, a):
        return self.pow(a, self.order - 2)

    def pow(self, a, n):
        out = self.one
        base = a
        while n:
            if n & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            n >>= 1
        return out

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
        out = [0] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            if a:
                for j, b in enumerate(g, i):
                    out[j] += a * b
        return ftrim(F, [c % p for c in out])
    out = [F.zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if F.is_zero(a):
            continue
        for j, b in enumerate(g):
            out[i + j] = F.add(out[i + j], F.mul(a, b))
    return ftrim(F, out)


def fscale(F, f, c):
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
        inv = pow(g[-1], p - 2, p)
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
    return fdivmod(F, f, g)[1]


def fgcd(F, f, g):
    a, b = list(f), list(g)
    while b:
        a, b = b, frem(F, a, b)
    return fmonic(F, a)


def fpow_mod(F, f, n, m):
    out = [F.one]
    base = frem(F, f, m)
    while n:
        if n & 1:
            out = frem(F, fmul(F, out, base), m)
        base = frem(F, fmul(F, base, base), m)
        n >>= 1
    return out


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


def distinct_degree(F, f) -> list[tuple[list, int]]:
    """[(product of irreducible factors of degree d, d)] for monic squarefree f."""
    out = []
    x = [F.zero, F.one]
    h = list(x)
    f = fmonic(F, f)
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
                t = frem(F, fmul(F, t, t), f)
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


def factor(F, f, seed: int = DEFAULT_SEED) -> tuple[object, list[tuple[list, int]]]:
    """Complete factorization: (leading coefficient, [(monic irreducible, mult)]).

    Deterministic for a fixed seed; factors sorted by (degree, coefficients).
    """
    f = ftrim(F, list(f))
    if not f:
        raise ValueError("cannot factor the zero polynomial")
    lc = f[-1]
    rng = random.Random(seed)
    out = []
    for g, e in squarefree_decomposition(F, f):
        for h, d in distinct_degree(F, g):
            for irr in equal_degree(F, fmonic(F, h), d, rng):
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

