"""Quadratic Hensel lifting of coprime factorizations in Z[t].

Each step follows the textbook scheme in two halves: given f = g*h
(mod m) with Bezout cofactors s*g + t*h = 1 (mod m), _lift_factors lifts
the factors to f = G*H (mod m^2), then _lift_bezout the Bezout pair to
S*G + T*H = 1 (mod m^2).  Lifting to p^k takes ceil(log2 k) steps, and
the last one lifts only the factors, since no later step reads the Bezout
pair; a multifactor lift splits the factor list in halves on a binary
tree.  Products over Z are polynomial._mul's and the arithmetic mod p is
fpoly's.  The lifted product is checked against f mod p^k, so a bad seed
fails loudly rather than corrupting results.
"""

from __future__ import annotations

from .errors import ExactnessError
from .fpoly import PrimeField, fdeg, fgcd, fmul, fdivmod, fmonic, fsub, ftrim
from .polynomial import IntPoly, _divmod_monic, _mul


def _trunc(f: list[int], m: int) -> list[int]:
    """Symmetric residue truncation, coefficients in (-m/2, m/2]."""
    out = []
    for c in f:
        c %= m
        if 2 * c > m:
            c -= m
        out.append(c)
    n = len(out)
    while n and out[n - 1] == 0:
        n -= 1
    return out[:n]


def _add(f, g):
    n = max(len(f), len(g))
    return [
        (f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0) for i in range(n)
    ]


def _sub(f, g):
    n = max(len(f), len(g))
    return [
        (f[i] if i < len(f) else 0) - (g[i] if i < len(g) else 0) for i in range(n)
    ]


def _lift_factors(m: int, f, g, h, s, t):
    """Lift f = g*h (mod m), with h monic and s*g + t*h = 1 (mod m), to
    f = G*H (mod m^2): (G, H) mod m^2, H monic."""
    M = m * m
    e = _trunc(_sub(f, _mul(g, h)), M)
    q, r = _divmod_monic(_trunc(_mul(s, e), M), h)
    q = _trunc(q, M)
    r = _trunc(r, M)
    u = _add(_mul(t, e), _mul(q, g))
    return _trunc(_add(g, u), M), _trunc(_add(h, r), M)


def _lift_bezout(M: int, s, t, G, H):
    """Lift the Bezout pair: (S, T) with S*G + T*H = 1 mod M = m^2, from
    the pair (s, t) mod m and the factors (G, H) that _lift_factors lifted
    to M, H monic."""
    b = _trunc(_sub(_add(_mul(s, G), _mul(t, H)), [1]), M)
    c, d = _divmod_monic(_trunc(_mul(s, b), M), H)
    c = _trunc(c, M)
    d = _trunc(d, M)
    u = _add(_mul(t, b), _mul(c, G))
    return _trunc(_sub(s, d), M), _trunc(_sub(t, u), M)


def hensel_lift_pair(f: IntPoly, g0: list[int], h0: list[int], p: int, k: int):
    """Lift the coprime split f = g0*h0 (mod p) to modulus p^k.

    g0, h0 are monic F_p coefficient lists with deg g0 + deg h0 = deg f and f
    monic.  Returns (g, h) as IntPoly with coefficients reduced mod p^k.
    Raises ValueError if k < 1, if the seed factors are not coprime mod p
    or their product is not f mod p, and ExactnessError if the lifted
    product fails to reproduce f.
    """
    _check_precision(k)
    F = PrimeField(p)
    g0 = fmonic(F, ftrim(F, [c % p for c in g0]))
    h0 = fmonic(F, ftrim(F, [c % p for c in h0]))
    if fdeg(fgcd(F, g0, h0)) != 0:
        raise ValueError("seed factors are not coprime mod p")
    prod = ftrim(F, [c % p for c in fmul(F, g0, h0)])
    fp = ftrim(F, [c % p for c in f.coeffs])
    if prod != fp:
        raise ValueError("seed factorization does not match f mod p")
    # Bezout cofactors mod p by the extended Euclidean algorithm
    s, t = _gcdex(F, g0, h0)
    g, h = list(g0), list(h0)
    m, mod = p, p ** k
    fl = list(f.coeffs)
    while m < mod:
        g, h = _lift_factors(m, fl, g, h, s, t)
        m = m * m
        if m < mod:
            s, t = _lift_bezout(m, s, t, g, h)
    g = _trunc(g, mod)
    h = _trunc(h, mod)
    check = _trunc(_sub(fl, _mul(g, h)), mod)
    if check:
        raise ExactnessError("Hensel lift failed verification")
    return IntPoly(g), IntPoly(h)


def _check_precision(k: int) -> None:
    """Mod p^0 every split verifies, so a lift needs k >= 1."""
    if k < 1:
        raise ValueError(f"Hensel lifting needs a precision k >= 1, got {k}")


def _gcdex(F, a, b):
    """(s, t) with s*a + t*b = 1 for coprime monic a, b over F_p."""
    r0, r1 = list(a), list(b)
    s0, s1 = [F.one], []
    t0, t1 = [], [F.one]
    while r1:
        q, r = fdivmod(F, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, fsub(F, s0, fmul(F, q, s1))
        t0, t1 = t1, fsub(F, t0, fmul(F, q, t1))
    # r0 is a nonzero constant; normalize to 1
    inv = F.inv(r0[0])
    s = [F.mul(c, inv) for c in s0]
    t = [F.mul(c, inv) for c in t0]
    return s, t


def hensel_lift_multi(f: IntPoly, factors: list[list[int]], p: int, k: int) -> list[IntPoly]:
    """Lift pairwise-coprime monic factors of monic f mod p to mod p^k.

    Binary-tree strategy: split the list in half, lift the two products as a
    pair, recurse into each half.  Raises ValueError if k < 1.
    """
    _check_precision(k)
    if len(factors) == 1:
        return [IntPoly(_trunc(list(f.coeffs), p ** k))]
    F = PrimeField(p)
    half = len(factors) // 2
    g0 = [F.one]
    for fac in factors[:half]:
        g0 = fmul(F, g0, fac)
    h0 = [F.one]
    for fac in factors[half:]:
        h0 = fmul(F, h0, fac)
    g, h = hensel_lift_pair(f, g0, h0, p, k)
    return hensel_lift_multi(g, factors[:half], p, k) + hensel_lift_multi(
        h, factors[half:], p, k
    )
