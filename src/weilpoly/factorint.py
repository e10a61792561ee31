"""Irreducible factorization in Z[t] by the Zassenhaus method.

Pipeline for the primitive part f, monicized by t -> t/lc scaling (factors
mapped back), which keeps the Hensel machinery monic-only:

  * a degree sieve (Musser, J. ACM 25, 1978): at up to _SIEVE_PRIMES (three)
    odd primes p not dividing lc(f) that keep f squarefree mod p,
    distinct-degree factorization mod p, and the intersection of the subset
    sums of the factor degrees.  An empty intersection inside 1..n-1 proves f
    irreducible, with no further work;
  * otherwise equal-degree splitting at the sieve prime with the fewest
    factors, Hensel lifting past the Mignotte bound, and subset
    recombination by increasing cardinality, skipping subsets whose degree
    the sieve excluded.  Degrees in this package stay <= 14, so
    recombination scans at most 2^14 subsets.

A squarefree reduction mod p proves f squarefree over Q.  Only when none of
the first three primes gives one does Yun's squarefree decomposition over Q
run, and each of its parts goes through the pipeline above.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import gcd, isqrt

from .arith import is_prime
from .errors import ExactnessError
from .fpoly import (
    DEFAULT_SEED,
    PrimeField,
    distinct_degree,
    equal_degree,
    fdeg,
    fdiff,
    fgcd,
)
from .hensel import hensel_lift_multi, _trunc
from .polynomial import IntPoly, _div_exact, _mul, _prem, _prs

# Odd primes the degree sieve reads (three measured best of 1-5 on the
# degree-7 companions of the q=2 box); also how many an input not yet proven
# squarefree may try for a squarefree reduction before Yun's decomposition.
_SIEVE_PRIMES = 3


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


def _next_prime(n: int) -> int:
    n += 1
    while not is_prime(n):
        n += 1
    return n


def _sieve(f: IntPoly, lc: int, proven: bool):
    """Distinct-degree data of monic f at up to _SIEVE_PRIMES odd primes
    p that keep f squarefree mod p and do not divide lc, the leading
    coefficient f was monicized from, with the set of degrees a proper
    factor of f over Z can have.

    A monic factor of f over Z reduces mod p to a product of irreducible
    factors of f mod p, so its degree is a subset sum of their degrees at
    every such prime; the returned bitmask (bit d for degree d) is the
    intersection of those subset sums with 1..n-1, and 0 proves f
    irreducible.  The walk stops there.  A squarefree reduction proves f
    squarefree over Q; unless proven, a walk whose first _SIEVE_PRIMES
    primes give none returns None.
    """
    n = f.degree
    allowed = (1 << n) - 2
    reductions = []
    tried = 0
    p = 2
    while allowed and len(reductions) < _SIEVE_PRIMES:
        if tried == _SIEVE_PRIMES and not (reductions or proven):
            return None
        p = _next_prime(p)
        if lc % p == 0:
            continue
        tried += 1
        F = PrimeField(p)
        fp = [c % p for c in f.coeffs]
        if fdeg(fgcd(F, fp, fdiff(F, fp))) > 0:
            continue
        parts = distinct_degree(F, fp)
        sums = 1
        for g, d in parts:
            for _ in range(fdeg(g) // d):
                sums |= sums << d
        allowed &= sums
        reductions.append((p, parts))
    return allowed, reductions


def _zassenhaus_monic(f: IntPoly, lc: int, proven: bool) -> list[IntPoly] | None:
    """Irreducible factors of a monic f over Z, which must be squarefree
    when proven; None when _sieve finds no squarefree reduction."""
    n = f.degree
    if n <= 1:
        return [f]
    sieve = _sieve(f, lc, proven)
    if sieve is None:
        return None
    allowed, reductions = sieve
    if not allowed:
        return [f]
    # split and lift at the prime with the fewest factors
    p, parts = min(reductions, key=lambda r: sum(fdeg(g) // d for g, d in r[1]))
    F = PrimeField(p)
    rng = random.Random(DEFAULT_SEED)
    factors_mod = [irr for g, d in parts for irr in equal_degree(F, g, d, rng)]
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
            if not (allowed >> sum(lifted[i].degree for i in S)) & 1:
                continue
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


def _factor_primitive(f: IntPoly, proven: bool) -> list[IntPoly] | None:
    """Irreducible factors of a primitive f of positive degree, which must
    be squarefree when proven; None when f is not proven and _sieve finds
    no squarefree reduction."""
    if f.is_monic():
        return _zassenhaus_monic(f, 1, proven)
    # monicize: F(x) = lc^(n-1) f(x/lc) is monic over Z
    b = f.lc()
    n = f.degree
    mon = IntPoly([c * b ** (n - 1 - i) for i, c in enumerate(f.coeffs)])
    parts = _zassenhaus_monic(mon, b, proven)
    if parts is None:
        return None
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
    if prim.degree > 0:
        parts = _factor_primitive(prim, False)
        if parts is not None:
            out = [(irr, 1) for irr in parts]
        else:
            for sqf, mult in squarefree_decomposition(prim):
                for irr in _factor_primitive(sqf, True):
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
