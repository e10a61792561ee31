"""Sturm-sequence machinery over Q(sqrt(q)), for the real-root isolation of
bounds12.lemma_check.  (The Weil predicate and the degree-12 corollary build
their chains over Z, in weil.)

A chain is the primitive pseudo-remainder sequence (polynomial._prs) of the
squarefree part's numerators in Z[sqrt(q)] and their derivative: each member
is a positive multiple of minus the remainder of the two before it, so the
numerators stay integral.  Counting uses the half-open convention:
sturm_count(p, lo, hi) is the number of distinct real roots in (lo, hi].
That convention makes the composition law count(a,b] + count(b,c] =
count(a,c] hold exactly, including when an endpoint is a root: the sign of a
vanishing first chain entry at x is replaced by its sign just right of x
(which equals the sign of the second entry for a squarefree chain).

Every sign at a rational point is decided with integers alone
(QuadPoly.sign_at, homogeneous Horner on the polynomial's integer form), and
refine_interval bisects integer numerators over one common denominator that
doubles at each step, converting back to Fraction only on return.  Squarefree
parts are memoised on the QuadPoly, so the chain, the isolation and the
callers share one.
"""

from __future__ import annotations

from fractions import Fraction

from .polynomial import _common_numerators, _prs, _variations_right
from .quadreal import QuadPoly

INF = object()
NEG_INF = object()


def sturm_chain(p: QuadPoly) -> list[QuadPoly]:
    """Sturm chain of the squarefree part of p."""
    p = p.squarefree_part()
    seq = _prs(p.numerators(), p.derivative().numerators())
    return [p, *(QuadPoly(c, q=p.q) for c in seq[1:])]


def _sign_at(p: QuadPoly, x) -> int:
    if x is INF:
        return p.lc().sign() if not p.is_zero() else 0
    if x is NEG_INF:
        if p.is_zero():
            return 0
        s = p.lc().sign()
        return s if p.degree % 2 == 0 else -s
    return p.sign_at(x)


def sturm_count(p: QuadPoly, lo=NEG_INF, hi=INF, chain: list[QuadPoly] | None = None) -> int:
    """Distinct real roots of p in (lo, hi]; multiplicities collapsed.

    lo/hi are QuadReal, Fraction, int, or the NEG_INF / INF sentinels.
    """
    if p.is_zero():
        raise ValueError("sturm_count of the zero polynomial")
    if chain is None:
        chain = sturm_chain(p)
    return _variations_right([_sign_at(c, lo) for c in chain]) - _variations_right(
        [_sign_at(c, hi) for c in chain]
    )


def all_roots_real_positive(p: QuadPoly) -> bool:
    """True iff every root of p is real and strictly positive."""
    if p.is_zero():
        raise ValueError("zero polynomial rejected")
    if p.degree == 0:
        return True
    if p[0].is_zero():  # root at 0
        return False
    sf = p.squarefree_part()
    chain = sturm_chain(sf)
    n_pos = sturm_count(sf, 0, INF, chain=chain)
    if n_pos != sf.degree:
        return False
    return sturm_count(sf, NEG_INF, 0, chain=chain) == 0


def root_bound(p: QuadPoly) -> Fraction:
    """Cauchy bound: all real roots lie in (-M, M)."""
    if p.degree <= 0:
        return Fraction(1)
    inv = p.lc().inverse()
    m = Fraction(0)
    for c in p.coeffs[:-1]:
        lo, hi = (c * inv).interval(16)
        m = max(m, abs(lo), abs(hi))
    return m + 1


def isolate_real_roots(p: QuadPoly) -> list[tuple[Fraction, Fraction, int]]:
    """Disjoint isolating intervals for the distinct real roots of p.

    Returns [(lo, hi, multiplicity)] sorted increasingly, where each root lies
    in (lo, hi] and the endpoints are rational.  Exact rational roots may come
    back as degenerate intervals with lo == hi.
    """
    if p.is_zero():
        raise ValueError("cannot isolate roots of the zero polynomial")
    if p.degree == 0:
        return []
    sf = p.squarefree_part()
    chain = sturm_chain(sf)
    m = root_bound(sf)
    total = sturm_count(sf, -m, m, chain=chain)
    out: list[tuple[Fraction, Fraction]] = []

    def split(lo: Fraction, hi: Fraction, count: int):
        if count == 0:
            return
        if count == 1:
            out.append((lo, hi))
            return
        mid = (lo + hi) / 2
        if sf.sign_at(mid) == 0:
            out_mid = (mid, mid)
            left = sturm_count(sf, lo, mid, chain=chain) - 1
            right = sturm_count(sf, mid, hi, chain=chain)
            # shrink both halves off the exact root before recursing
            eps = (hi - lo) / 4
            l_hi = mid - eps
            while sturm_count(sf, lo, l_hi, chain=chain) != left:
                eps /= 2
                l_hi = mid - eps
            split(lo, l_hi, left)
            out.append(out_mid)
            r_lo = mid + eps
            while sturm_count(sf, r_lo, hi, chain=chain) != right:
                eps /= 2
                r_lo = mid + eps
            split(r_lo, hi, right)
        else:
            left = sturm_count(sf, lo, mid, chain=chain)
            split(lo, mid, left)
            split(mid, hi, count - left)

    split(-m, m, total)
    out.sort(key=lambda iv: iv[0])
    # multiplicities: deflate by gcd chain
    mults = []
    for lo, hi in out:
        mults.append(_multiplicity(p, sf, lo, hi))
    return [(lo, hi, k) for (lo, hi), k in zip(out, mults)]


def _multiplicity(p: QuadPoly, sf: QuadPoly, lo: Fraction, hi: Fraction) -> int:
    """Multiplicity in p of the single sf-root inside (lo, hi]."""
    if p.degree == sf.degree:
        return 1
    k = 1
    # a root has multiplicity > k in p iff it survives k rounds of
    # g <- gcd(g, g'); count its presence in each round's squarefree part
    g = p
    while True:
        g = g.gcd(g.derivative())
        if g.degree <= 0:
            return k
        gsf = g.squarefree_part()
        if lo == hi:
            present = gsf.sign_at(lo) == 0
        else:
            present = sturm_count(gsf, lo, hi) > 0
        if not present:
            return k
        k += 1


def refine_interval(
    p: QuadPoly, lo: Fraction, hi: Fraction, width: Fraction
) -> tuple[Fraction, Fraction]:
    """Shrink an isolating interval (lo, hi] of squarefree p below width."""
    if lo == hi:
        return lo, hi
    # the bracket is (ln/den, hn/den]; every midpoint doubles den
    ln, hn, den = _common_numerators(lo, hi)
    s_hi = p.sign_at_ratio(hn, den)
    if s_hi == 0:
        # root is exactly hi; keep a tiny bracket for interval evaluation
        return hi, hi
    if p.sign_at_ratio(ln, den) == 0:
        # root strictly inside (lo, hi]; nudge lo upward off the root
        step = hn - ln
        while True:
            ln, hn, den = 2 * ln, 2 * hn, 2 * den
            cand = ln + step
            s = p.sign_at_ratio(cand, den)
            if s == 0:
                return Fraction(cand, den), Fraction(cand, den)
            if s != s_hi:
                ln = cand
                break
    w_num, w_den = width.numerator, width.denominator
    while (hn - ln) * w_den > w_num * den:
        mid = ln + hn
        ln, hn, den = 2 * ln, 2 * hn, 2 * den
        s = p.sign_at_ratio(mid, den)
        if s == 0:
            return Fraction(mid, den), Fraction(mid, den)
        if s == s_hi:
            hn = mid
        else:
            ln = mid
    return Fraction(ln, den), Fraction(hn, den)
