"""Integer enclosures of a QuadPoly over a rational bracket.

eval_poly_interval runs interval Horner on the polynomial's integer form
(coeffs[i] = (A[i] + B[i]*sqrt(q)) / D) at the homogeneous integer numerators
of the bracket, so every step is an integer product and sum; the B part is
scaled by one integer sqrt(q) bracket of 2^-bits width.  Only the two
endpoints of the result are Fractions.  This is the evaluation backend for
the certified comparisons of bounds12.lemma_check.
"""

from __future__ import annotations

from fractions import Fraction

from .polynomial import _common_numerators
from .quadreal import QuadPoly, sqrt_bracket


def _horner_box(coeffs: list[int], ln: int, hn: int, den: int) -> tuple[int, int]:
    """Integer bounds on den^deg * f(x) over ln/den <= x <= hn/den."""
    lo = hi = coeffs[-1]
    dpow = 1
    for c in reversed(coeffs[:-1]):
        dpow *= den
        prods = (lo * ln, lo * hn, hi * ln, hi * hn)
        lo = min(prods) + c * dpow
        hi = max(prods) + c * dpow
    return lo, hi


def eval_poly_interval(
    p: QuadPoly, lo: Fraction, hi: Fraction, bits: int
) -> tuple[Fraction, Fraction]:
    """Rational (elo, ehi) with elo <= p(x) <= ehi for every x in [lo, hi].

    The enclosure only tightens as bits grows or the bracket shrinks.
    """
    if p.is_zero():
        return Fraction(0), Fraction(0)
    a, b, d = p.integer_form()
    ln, hn, den = _common_numerators(lo, hi)
    elo, ehi = _horner_box(a, ln, hn, den)
    scale = d * den ** p.degree
    if b is not None:
        s, t = sqrt_bracket(p.q, bits)
        blo, bhi = _horner_box(b, ln, hn, den)
        elo = (elo << bits) + min(blo * s, blo * t)
        ehi = (ehi << bits) + max(bhi * s, bhi * t)
        scale <<= bits
    return Fraction(elo, scale), Fraction(ehi, scale)
