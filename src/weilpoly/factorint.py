"""Irreducible factorization in Z[t] by the Zassenhaus method.

Pipeline: content/primitive split, Yun squarefree decomposition over Q,
reduction modulo the smallest odd prime keeping f squarefree (equivalently,
not dividing disc(f)*lc(f)), Cantor-Zassenhaus factorization there, Hensel
lifting past the Mignotte bound, and subset recombination by increasing
cardinality.  Degrees in this package stay <= 14, so recombination scans at
most 2^14 subsets.

Non-monic primitive polynomials are monicized by t -> t/lc scaling and the
factors mapped back, which keeps the Hensel machinery monic-only.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd, isqrt

from .arith import is_prime
from .errors import ExactnessError
from .fpoly import PrimeField, factor as fp_factor_raw, fdeg, fgcd, fdiff, ftrim
from .hensel import hensel_lift_multi, _trunc
from .polynomial import IntPoly, _div_exact, _mul, _prem, _prs


def poly_gcd(f: IntPoly, g: IntPoly) -> IntPoly:
    """Primitive gcd in Z[t] (positive leading coefficient), by the
    primitive pseudo-remainder sequence."""
    a, b = f.coeffs, g.coeffs
    if len(a) < len(b):
        a, b = b, a
    return IntPoly(_prs(a, b)[-1]).primitive()[1]


def squarefree_decomposition(f: IntPoly) -> list[tuple[IntPoly, int]]:
    """Yun's algorithm over Z for primitive f: [(g_i, i)] with f = +-prod g_i^i."""
    if f.degree <= 0:
        return []
    out = []
    g = poly_gcd(f, f.derivative())
    w = _exact_div(f, g)
    c = _exact_div(f.derivative(), g) - w.derivative()
    i = 1
    while w.degree > 0:
        y = poly_gcd(w, c)
        if y.degree > 0:
            out.append((y, i))
        w = _exact_div(w, y)
        c = _exact_div(c, y) - w.derivative()
        i += 1
    return out


def _exact_div(f: IntPoly, g: IntPoly) -> IntPoly:
    """f / g when g divides f in Z[t]; raises ExactnessError otherwise."""
    if g.is_zero():
        raise ZeroDivisionError
    return IntPoly(_div_exact(f.coeffs, g.coeffs))


def discriminant(f: IntPoly) -> int:
    """disc(f) = (-1)^(n(n-1)/2) Res(f, f') / lc(f), an exact integer."""
    lc = f.lc()
    n = f.degree
    if n == 0:
        return 0
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * _resultant(f.coeffs, f.derivative().coeffs) // lc


def _resultant(a, b) -> int:
    """Res(a, b) for nonzero integer coefficient sequences, by Collins'
    subresultant pseudo-remainder sequence (Cohen, Algorithm 3.3.7): each
    division by g * h^delta and by h^(delta - 1) is exact in Z."""
    da, db = len(a) - 1, len(b) - 1
    ca, cb = gcd(*a), gcd(*b)
    t = ca ** db * cb ** da
    a = [x // ca for x in a]
    b = [x // cb for x in b]
    s = 1
    if da < db:
        a, b, da, db = b, a, db, da
        if da % 2 and db % 2:
            s = -1
    g = h = 1
    while db > 0:
        delta = da - db
        if da % 2 and db % 2:
            s = -s
        r = _prem(a, b)
        if not r:
            return 0
        div = g * h ** delta
        a, b = b, [x // div for x in r]
        da, db = db, len(r) - 1
        g = a[-1]
        if delta:
            h = g ** delta // h ** (delta - 1)
    if da == 0:
        return s * t
    return s * t * (b[0] ** da // h ** (da - 1))


def _mignotte_bound(f: IntPoly) -> int:
    n = f.degree
    norm2 = isqrt(sum(c * c for c in f.coeffs)) + 1
    return (isqrt(n + 1) + 1) * (1 << n) * norm2 * abs(f.lc())


def _choose_prime(f: IntPoly) -> int:
    """Smallest prime not dividing disc(f) * lc(f); keeps f squarefree mod p."""
    p = 2
    lc = abs(f.lc())
    while True:
        p = _next_prime(p)
        if lc % p == 0:
            continue
        F = PrimeField(p)
        fp = ftrim(F, [c % p for c in f.coeffs])
        if fdeg(fp) != f.degree:
            continue
        if fdeg(fgcd(F, fp, fdiff(F, fp))) == 0:
            return p


def _next_prime(n: int) -> int:
    n += 1
    while not is_prime(n):
        n += 1
    return n


def _zassenhaus_squarefree_monic(f: IntPoly) -> list[IntPoly]:
    """Irreducible factors of a monic squarefree f over Z."""
    n = f.degree
    if n <= 1:
        return [f]
    p = _choose_prime(f)
    F = PrimeField(p)
    _, modular = fp_factor_raw(F, [c % p for c in f.coeffs])
    factors_mod = [g for g, _ in modular]
    if len(factors_mod) == 1:
        return [f]
    B = 2 * _mignotte_bound(f) + 1
    k = 1
    while p ** k < B:
        k += 1
    lifted = hensel_lift_multi(f, factors_mod, p, k)
    pl = p ** k

    remaining = list(range(len(lifted)))
    out: list[IntPoly] = []
    current = f
    s = 1
    while 2 * s <= len(remaining):
        found = False
        for S in combinations(remaining, s):
            # trial factor: symmetric-residue product of the chosen lifts
            prod = [1]
            for i in S:
                prod = _trunc(_mul(prod, list(lifted[i].coeffs)), pl)
            cand = IntPoly(prod)
            if not cand.is_monic():
                continue
            if cand[0] != 0 and current[0] % cand[0] != 0:
                continue
            quot, rem = current.divmod_monic(cand)
            if not rem.is_zero():
                continue
            out.append(cand)
            current = quot
            remaining = [i for i in remaining if i not in S]
            found = True
            break
        if not found:
            s += 1
    if current.degree > 0:
        out.append(current)
    prod = IntPoly.one()
    for g in out:
        prod = prod * g
    if prod != f:
        raise ExactnessError("Zassenhaus recombination failed verification")
    return out


def _factor_squarefree_primitive(f: IntPoly) -> list[IntPoly]:
    if f.degree <= 0:
        return []
    if f.is_monic():
        return _zassenhaus_squarefree_monic(f)
    # monicize: F(x) = lc^(n-1) f(x/lc) is monic over Z
    b = f.lc()
    n = f.degree
    mon = IntPoly([c * b ** (n - 1 - i) for i, c in enumerate(f.coeffs)])
    parts = _zassenhaus_squarefree_monic(mon)
    out = []
    for g in parts:
        mapped = IntPoly([c * b ** i for i, c in enumerate(g.coeffs)])
        out.append(mapped.primitive()[1])
    return out


def factor_over_integers(f: IntPoly) -> tuple[int, list[tuple[IntPoly, int]]]:
    """Complete factorization over Z.

    Returns (content, [(irreducible primitive factor, multiplicity)]) with
    content carrying the sign, factors sorted by (degree, coefficients), and
    content * prod factor^mult == f exactly (verified before returning).
    """
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    cont, prim = f.primitive()
    out: list[tuple[IntPoly, int]] = []
    for sqf, mult in squarefree_decomposition(prim):
        for irr in _factor_squarefree_primitive(sqf):
            out.append((irr, mult))
    out.sort(key=lambda t: (t[0].degree, t[0].coeffs))
    check = IntPoly([cont])
    for g, m in out:
        check = check * g ** m
    if check != f:
        raise ExactnessError("factorization failed to reconstruct the input")
    return cont, out


def is_irreducible_over_z(f: IntPoly) -> bool:
    if f.degree <= 0:
        return False
    _, fac = factor_over_integers(f)
    return len(fac) == 1 and fac[0][1] == 1 and fac[0][0].degree == f.degree
