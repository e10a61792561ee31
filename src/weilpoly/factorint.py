"""Irreducible factorization in Z[t] by the Zassenhaus method.

Pipeline for the primitive part f, monicized by t -> t/lc scaling (factors
mapped back), which keeps the Hensel machinery monic-only:

  * integer roots first: at the first prime p not dividing lc(f) that
    keeps f squarefree mod p, 2 when it qualifies, each root of f mod p is
    Newton-lifted until p^k > 2|c|, c the lowest nonzero coefficient of f,
    and its symmetric residue is divided out when f vanishes there exactly.
    Every integer root is a simple root mod p with one p-adic lift, so none
    is missed, and the cost does not grow with the size of a root;
  * a degree sieve (Musser, J. ACM 25, 1978) on the cofactor, which has no
    factor of degree 1 or n - 1: at 2 when it qualifies, the cheapest prime
    for distinct-degree work, and at up to _SIEVE_PRIMES (five) odd such
    primes, distinct-degree factorization mod p, and the intersection of
    the subset sums of the factor degrees.  At 2 the split is read off
    fpoly.factor's memo, which the Q_p engine fills with the same residues.
    An empty intersection inside 2..n-2 proves the cofactor irreducible,
    with no further work;
  * inside the sieve, after the read at 2 and before the first odd read,
    one prime value (_prime_value): when |f(x)| / d is a prime for an x
    beyond every root by more than 1 + d, d the fixed divisor of the
    cofactor f, f is irreducible (Brillhart, Filaseta and Odlyzko, 1981),
    and the walk ends there.  It settles 86% of the irreducible cofactors
    of scan14's companions that reach it, and no reducible one can pass;
  * otherwise equal-degree splitting at the sieve prime with the fewest
    factors, Hensel lifting past the Mignotte bound, and subset
    recombination by increasing cardinality, skipping subsets whose degree
    the sieve excluded.  Degrees in this package stay <= 14, so
    recombination scans at most 2^14 subsets.

The pipeline needs f squarefree over Q; factor_over_integers decides it
once, by the discriminant.  When disc(f) != 0, f goes through the pipeline
as it is, and the sieve skips each prime that divides lc(f) or disc(f):
for any other p, f mod p keeps its degree and disc(f mod p) = disc(f)
mod p, so those are exactly the primes that keep f squarefree mod p.  Past
the root step the sieve reads the cofactor's discriminant instead.  Only
when disc(f) = 0 does Yun's squarefree decomposition over Q run, and each
of its parts goes through the pipeline with its own discriminant.  The
discriminant is memoized, so a companion that padic profiles after it is
factored has its discriminant computed once.
"""

from __future__ import annotations

import functools
import operator
import random
from itertools import combinations
from math import gcd, isqrt

from .arith import _MR_EXACT_BELOW, is_prime
from .errors import ExactnessError
from . import fpoly
from .fpoly import DEFAULT_SEED, PrimeField, equal_degree, fdeg, fmul
from .hensel import hensel_lift_multi, _trunc
from .polynomial import IntPoly, _div_exact, _homogeneous_horner, _mul, _prem, _prs

# Odd primes the degree sieve reads, besides 2.  A walk the sieve cannot
# settle splits, Hensel-lifts and recombines: on one core of a 2-core
# x86-64 host (Python 3.11) that took 0.8-1.0 ms, a settled walk 0.11-0.15
# ms and one odd read 0.04-0.13 ms (10th to 90th percentile).  On the 3,474
# companions that scan14 seeds 1-6 factor, with _prime_value tried before
# the odd reads, 3, 4, 5 and 6 odd primes lift 96, 71, 56 and 52 walks, of
# which 44, 19, 4 and 0 find the cofactor irreducible after all, for 729,
# 825, 896 and 952 odd reads; the other 52 are the reducible cofactors,
# which every count lifts.  Without the certificate they lifted 280, 146,
# 103 and 74 walks for 4,064 to 4,593 odd reads.  On the 1,595 Weil
# candidates of the q=2 box, 3 to 6 lift 44, 34, 28 and 26 walks.
# Factoring those 3,474 companions, as the ratio of a pass to perfbench's
# calibration kernel timed around it (median of 15 interleaved passes),
# gave 389, 407 and 416 at 4, 5 and 6, inside each other's quartiles
# (about +-10%), and 580 at 5 without the certificate, so five, the
# middle, stays.
_SIEVE_PRIMES = 5

# Values _prime_value tries at each sign.  Of those 3,474 walks, 2,282
# reach it: 52 reducible cofactors, which it cannot certify, and 2,230
# irreducible ones, of which 8, 16 and 32 tries certify 1,502, 1,922 and
# 2,119 (67%, 86% and 95%).  A certificate took 56-64 us on average,
# mostly the Miller-Rabin rounds that prove its prime, and a failure 40,
# 62 and 103 us.  The factoring ratio above was 436, 407 and 406 at 8, 16
# and 32, and scan14 seeds 3201-3206 had a median op_ms_p90 of 0.533 ms
# without the certificate and 0.478, 0.456 and 0.454 ms at 8, 16 and 32:
# 32 gains nothing measurable on 16 and doubles the cost of a failure.
_PRIME_VALUE_TRIES = 16


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
    """disc(f) = (-1)^(n(n-1)/2) Res(f, f') / lc(f), an exact integer.

    The value is memoized on f's coefficients."""
    f.lc()  # raises for the zero polynomial, which has none
    return _discriminant(f.coeffs)


# A Weil candidate's companion h is factored (factor_over_integers(h), via
# weil.factor_weil) and then profiled (padic.qp_factor_profile(h)), and both
# need disc(h).  Between the two calls the sieve computes one discriminant
# more at most, its cofactor's past the integer roots: classify profiles only
# an irreducible h, which has none, but factor_weil then profile_weil on a
# reducible squarefree chi meets it (15 of the 638 Weil candidates that
# test_factorint profiles that way).  So two entries serve both routes.
_DISC_MEMO_SIZE = 2


@functools.lru_cache(maxsize=_DISC_MEMO_SIZE)
def _discriminant(coeffs: tuple[int, ...]) -> int:
    """discriminant, computed, for nonzero trimmed coefficients."""
    n = len(coeffs) - 1
    if n == 0:
        return 0
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    derivative = [i * coeffs[i] for i in range(1, n + 1)]
    return sign * _resultant(coeffs, derivative) // coeffs[-1]


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


def _integer_roots(f: IntPoly, fp: list[int], p: int) -> tuple[list[IntPoly], IntPoly]:
    """The factors t - r of a monic f for its integer roots r, and the
    cofactor, when fp = f mod p is squarefree.

    An integer root r of f reduces to a root of fp, a simple one, which has
    exactly one p-adic lift.  Each root of fp is Newton-lifted until
    p^k > 2|c|, c the lowest nonzero coefficient of f: a nonzero integer
    root divides c, so it is then the symmetric residue of the lift.  The
    residue is kept when f vanishes there exactly.
    """
    coeffs = f.coeffs
    df = f.derivative().coeffs
    bound = 2 * abs(next(c for c in coeffs if c))
    linear, cofactor = [], coeffs
    for root_mod_p in range(p):
        if _homogeneous_horner(fp, root_mod_p, 1) % p:
            continue
        r, m = root_mod_p, p
        while m <= bound:
            m *= m
            r -= _homogeneous_horner(coeffs, r, 1) * pow(_homogeneous_horner(df, r, 1), -1, m)
            r %= m
        if 2 * r > m:
            r -= m
        if not _homogeneous_horner(coeffs, r, 1):
            linear.append(IntPoly([-r, 1]))
            cofactor = _div_exact(cofactor, [-r, 1])
    return linear, IntPoly(cofactor)


def distinct_degree(F: PrimeField, f: list[int]) -> list[tuple[list[int], int]]:
    """fpoly.distinct_degree(F, f) for the sieve's monic f, squarefree mod p.

    At p = 2 the answer is read off fpoly.factor(F, f) instead, whose memo
    already holds the residues mod 2 that the Q_p engine factors: a monic
    f of degree 7 has at most 128 values over F_2.  Its irreducible factors
    come sorted by degree, each once, and those of one degree are
    multiplied back into that degree's part.  At odd primes the sieve's
    inputs are nearly all distinct, so they run fpoly.distinct_degree.
    """
    if F.p != 2:
        return fpoly.distinct_degree(F, f)
    parts: list[tuple[list[int], int]] = []
    for g, _ in fpoly.factor(F, f)[1]:
        d = fdeg(g)
        if parts and parts[-1][1] == d:
            parts[-1] = (fmul(F, parts[-1][0], g), d)
        else:
            parts.append((g, d))
    return parts


def _root_bound(coeffs) -> int:
    """R = 2 * max_k 2^ceil(bitlen(a_(m-k)) / k), k = 1..m, for the
    coefficients of a monic polynomial of degree m >= 1.  Each |a_(m-k)| <
    (R/2)^k, so sum_(i<m) |a_i| R^i < R^m sum_k 2^-k < R^m: every root z
    has |z| < R."""
    m = len(coeffs) - 1
    return 2 << max(-(-abs(coeffs[m - k]).bit_length() // k) for k in range(1, m + 1))


def _prime_value(f: IntPoly) -> bool:
    """True when one value of the monic f, of degree m >= 1, proves f
    irreducible over Z (Brillhart, Filaseta and Odlyzko, Canad. J. Math. 33,
    1981; Murty, Amer. Math. Monthly 109, 2002); False decides nothing.

    Every root z of f has |z| < R = _root_bound(f), and d = gcd(f(0), ...,
    f(m)) is f's fixed divisor, which divides f(x) at every integer x.  The
    values tried are at x = +-(R + 1 + d + i), i < _PRIME_VALUE_TRIES, and
    one proves f irreducible when P = |f(x)| / d is a prime below
    arith._MR_EXACT_BELOW, where is_prime is exact and never raises; larger
    values are skipped.

    Proof.  Suppose f = g h with g, h monic of positive degree.  Every root
    z of g has |x - z| > |x| - R >= 1 + d, so |g(x)| > (1 + d)^(deg g) > d,
    and likewise |h(x)| > d.  The prime P divides g(x) h(x) = +-d P, so it
    divides one of them, say g(x) = +-u P with u >= 1; then |h(x)| = d / u
    <= d, a contradiction.
    """
    d = gcd(*(f.evaluate(x) for x in range(f.degree + 1)))
    start = _root_bound(f.coeffs) + 1 + d
    for x in range(start, start + _PRIME_VALUE_TRIES):
        for value in (f.evaluate(x), f.evaluate(-x)):
            P = abs(value) // d
            if P < _MR_EXACT_BELOW and is_prime(P):
                return True
    return False


def _sieve(f: IntPoly, lc: int, disc: int):
    """f's integer roots, then distinct-degree data of the cofactor at the
    primes p that keep f squarefree mod p, with the set of degrees a proper
    factor of the cofactor over Z can have.  f was monicized from an input
    of leading coefficient lc and nonzero discriminant disc; the walk skips
    each p dividing lc or disc, since for any other p the input keeps its
    degree mod p and disc mod p is its discriminant there.  The primes read
    are 2 when it qualifies, the cheapest for distinct-degree work, then
    _SIEVE_PRIMES odd ones.

    The roots are found at the first such prime (_integer_roots), and disc
    becomes the discriminant of the monic cofactor, so a later prime needs
    only the cofactor squarefree mod p.  The split at each prime is
    distinct_degree's: at p = 2 it comes from fpoly.factor's memo, at odd
    primes it is computed.  The cofactor has no factor of degree 1, so
    none of degree n - 1 either, n its degree.  A monic factor of it over Z
    reduces mod p to a product of irreducible factors of it mod p, so its
    degree is a subset sum of their degrees at every such prime; the
    returned bitmask (bit d for degree d) is the intersection of those
    subset sums with 2..n-2, and 0 proves the cofactor irreducible (or 1).
    The walk stops there.  Once, past the roots and the read at 2 and before
    the first odd read, _prime_value tries to prove the cofactor
    irreducible by one prime value; when it does, the walk stops with the
    bitmask 0.  It returns the linear factors, the cofactor, the bitmask and
    the reductions.
    """
    linear: list[IntPoly] = []
    allowed = -1  # no bit is cleared before the roots are divided out
    reductions = []
    wanted = _SIEVE_PRIMES  # reductions; one more when p = 2 gives one
    p = 1
    while allowed and len(reductions) < wanted:
        p = _next_prime(p)
        if lc % p == 0 or disc % p == 0:
            continue
        F = PrimeField(p)
        fp = [c % p for c in f.coeffs]
        if p == 2:
            wanted += 1
        if not reductions:
            linear, f = _integer_roots(f, fp, p)
            n = f.degree
            allowed = (1 << n - 1) - 4 if n > 3 else 0  # bits 2..n-2
            if not allowed:
                break
            if linear:
                disc = discriminant(f)
            fp = [c % p for c in f.coeffs]
        # no odd prime is read yet exactly when the reads to come are all
        # _SIEVE_PRIMES of them
        if p != 2 and len(reductions) + _SIEVE_PRIMES == wanted and _prime_value(f):
            allowed = 0
            break
        parts = distinct_degree(F, fp)
        sums = 1
        for g, d in parts:
            for _ in range(fdeg(g) // d):
                sums |= sums << d
        allowed &= sums
        reductions.append((p, parts))
    return linear, f, allowed, reductions


def _zassenhaus_monic(f: IntPoly, lc: int, disc: int) -> list[IntPoly]:
    """Irreducible factors of a squarefree monic f over Z; lc and disc as
    in _sieve."""
    if f.degree <= 1:
        return [f]
    out, cofactor, allowed, reductions = _sieve(f, lc, disc)
    if not allowed:
        return out + [cofactor] if cofactor.degree else out
    # split and lift at the prime with the fewest factors
    p, parts = min(reductions, key=lambda r: sum(fdeg(g) // d for g, d in r[1]))
    F = PrimeField(p)
    rng = random.Random(DEFAULT_SEED)
    factors_mod = [irr for g, d in parts for irr in equal_degree(F, g, d, rng)]
    B = 2 * _mignotte_bound(cofactor) + 1
    k = 1
    while p ** k < B:
        k += 1
    lifted = hensel_lift_multi(cofactor, factors_mod, p, k)
    pl = p ** k

    remaining = list(range(len(lifted)))
    current = cofactor
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
    if functools.reduce(operator.mul, out) != f:
        raise ExactnessError("Zassenhaus recombination failed verification")
    return out


def _monicize(f: IntPoly) -> IntPoly:
    """lc^(n-1) f(t/lc), monic over Z: its roots are lc times f's.  A monic
    f is returned as it is."""
    b, n = f.lc(), f.degree
    if b == 1:
        return f
    return IntPoly([c * b ** (n - 1 - i) for i, c in enumerate(f.coeffs[:-1])] + [1])


def _factor_primitive(f: IntPoly, disc: int) -> list[IntPoly]:
    """Irreducible factors of a primitive f of positive degree and nonzero
    discriminant disc."""
    if f.is_monic():
        return _zassenhaus_monic(f, 1, disc)
    b = f.lc()
    parts = _zassenhaus_monic(_monicize(f), b, disc)
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
        disc = discriminant(prim)
        if disc:
            out = [(irr, 1) for irr in _factor_primitive(prim, disc)]
        else:
            for sqf, mult in squarefree_decomposition(prim):
                for irr in _factor_primitive(sqf, discriminant(sqf)):
                    out.append((irr, mult))
    out.sort(key=lambda t: (t[0].degree, t[0].coeffs))
    # the factors alone, each repeated by its multiplicity, multiplied back,
    # then scaled by the content; only a constant f has none
    factors = [g for g, m in out for _ in range(m)]
    check = functools.reduce(operator.mul, factors) if factors else IntPoly.one()
    if cont * check != f:
        raise ExactnessError("factorization failed to reconstruct the input")
    return cont, out


def is_irreducible_over_z(f: IntPoly) -> bool:
    if f.degree <= 0:
        return False
    _, fac = factor_over_integers(f)
    return len(fac) == 1 and fac[0][1] == 1 and fac[0][0].degree == f.degree
