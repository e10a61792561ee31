"""Independent oracles used to cross-check the main decision paths.

Nothing here shares code with the Sturm-based Weil predicate: real roots are
isolated by Descartes bisection, and the modulus oracle decides the Weil
property factor-by-factor over Z, with explicit discriminant case analysis
for degrees 1 and 2 and, for an even-degree factor beyond them, Descartes
counts of its companion's real roots and of those beyond +-2 sqrt(q).  The
sampled numeric modulus check used by the census finds chi's complex roots
by Durand-Kerner iteration and certifies a disk around each; it reports None
whenever the disks overlap, and callers fall back to the exact oracle.
"""

from __future__ import annotations

import cmath
from fractions import Fraction

from .factorint import factor_over_integers
from .arith import is_square
from .polynomial import IntPoly
from .quadreal import QuadPoly, QuadReal
from .weil import WeilParams, check_symmetry, companion_poly


def descartes_variations(coeffs) -> int:
    var = 0
    prev = 0
    for c in coeffs:
        s = c.sign() if isinstance(c, QuadReal) else (c > 0) - (c < 0)
        if s == 0:
            continue
        if prev != 0 and s != prev:
            var += 1
        prev = s
    return var


def _affine(p: QuadPoly, a: Fraction, b: Fraction) -> QuadPoly:
    """p(a*t + b)."""
    return p.compose_linear(QuadReal(a), QuadReal(b))


def _variations_on_interval(p: QuadPoly, lo: Fraction, hi: Fraction) -> int:
    """Descartes bound for roots in (lo, hi): variations of the Moebius image."""
    q = _affine(p, hi - lo, lo)  # roots in (0, 1)
    rev = QuadPoly(list(reversed(q.coeffs)), q=q.q)  # roots inverted to (1, inf)
    shifted = rev.compose_linear(QuadReal(1), QuadReal(1))  # roots to (0, inf)
    return descartes_variations(shifted.coeffs)


def descartes_isolate(p: QuadPoly) -> list[tuple[Fraction, Fraction]]:
    """Isolating intervals for the distinct real roots of squarefree p.

    Independent of the Sturm machinery: pure bisection driven by Descartes'
    rule of signs on Moebius-transformed coefficients.  Exact rational roots
    come back as degenerate intervals.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    if p.degree == 0:
        return []
    from .sturm import root_bound

    m = root_bound(p)
    out: list[tuple[Fraction, Fraction]] = []

    def rec(lo: Fraction, hi: Fraction):
        v = _variations_on_interval(p, lo, hi)
        if v == 0:
            return
        if v == 1:
            out.append((lo, hi))
            return
        mid = (lo + hi) / 2
        if p.evaluate(mid).sign() == 0:
            out.append((mid, mid))
            eps = (hi - lo) / 4
            while (
                _variations_on_interval(p, mid - eps, mid + eps) > 1
                or p.evaluate(mid - eps).sign() == 0
                or p.evaluate(mid + eps).sign() == 0
            ):
                eps /= 2
            rec(lo, mid - eps)
            rec(mid + eps, hi)
        else:
            rec(lo, mid)
            rec(mid, hi)

    rec(-m, m)  # Cauchy bound is strict, so +-m are never roots
    out.sort(key=lambda iv: iv[0])
    return out


def count_real_roots_descartes(p: QuadPoly) -> int:
    return len(descartes_isolate(p.squarefree_part()))


# -- exact modulus oracle --------------------------------------------------------


def weil_oracle(chi: IntPoly, params: WeilParams) -> bool:
    """Decide the q-Weil property factor-by-factor over Z.

    Each irreducible factor must have all roots of modulus sqrt(q): linear
    factors force q square with root +-sqrt(q) at even total multiplicity;
    quadratics are either complex with constant q, or t^2 - q (again with
    even multiplicity); odd-degree irreducibles of degree > 1 are
    impossible.  A factor g of even degree >= 4 must be q-palindromic with
    all companion roots real in [-2 sqrt q, 2 sqrt q].  Its companion h is
    irreducible, since a split of h would split g, so h's roots are simple
    and irrational, and none is +-2 sqrt(q), where g would be a square.
    The Descartes oracle counts them all real; Descartes' rule of signs,
    exact once they are, finds none beyond +-2 sqrt(q).
    """
    q = params.q
    if chi.is_zero() or not chi.is_monic():
        return False
    if chi.degree % 2:
        return False
    _, factors = factor_over_integers(chi)
    sqrt_mult = {1: 0, -1: 0}
    for g, mult in factors:
        d = g.degree
        if d == 1:
            root = -g[0]
            if root * root != q:
                return False
            sqrt_mult[1 if root > 0 else -1] += mult
        elif d == 2:
            b, c = g[1], g[0]
            if b * b < 4 * c:
                if c != q:
                    return False
            elif b == 0 and c == -q:
                sqrt_mult[1] += mult
                sqrt_mult[-1] += mult
            else:
                return False
        elif d % 2:
            return False
        else:
            if not check_symmetry(g, params):
                return False
            h = companion_poly(g, params).to_quad(None if is_square(q) else q)
            if len(descartes_isolate(h)) != h.degree:
                return False
            # every root is real, so Descartes' rule is exact: the
            # variations of h(x + 2 sqrt q) and h(-x - 2 sqrt q) count the
            # roots beyond 2 sqrt q and below -2 sqrt q
            two_rq = QuadReal.sqrt(q) * 2
            for sign in (1, -1):
                beyond = h.compose_linear(QuadReal(sign), two_rq * sign)
                if descartes_variations(beyond.coeffs):
                    return False
    return sqrt_mult[1] % 2 == 0 and sqrt_mult[-1] % 2 == 0


# -- numeric certified modulus check ---------------------------------------------


DURAND_KERNER_ITERATIONS = 200


def _correction(coeffs: list[complex], roots: list[complex], i: int):
    """The Durand-Kerner correction chi(z_i) / prod_{j != i} (z_i - z_j) at
    root i, as its numerator and denominator."""
    z = roots[i]
    value = 0j
    for c in reversed(coeffs):
        value = value * z + c
    denom = 1 + 0j
    for j, w in enumerate(roots):
        if j != i:
            denom *= z - w
    return value, denom


def numeric_modulus_verdict(chi: IntPoly, params: WeilParams) -> bool | None:
    """Certified numeric Weil check; None when nothing can be certified.

    Works on the exact squarefree part (repeated roots ruin Durand-Kerner
    convergence and the disk bounds).  Smith-style certification: the union
    of disks D(z_i, n * |chi(z_i) / prod (z_i - z_j)|), n times the
    Durand-Kerner correction at each z_i, contains all roots, one per disk
    when the disks are pairwise disjoint.
    """
    from .factorint import poly_gcd, _exact_div

    g = poly_gcd(chi, chi.derivative())
    if g.degree > 0:
        chi = _exact_div(chi, g).primitive()[1]
    n = chi.degree
    if n == 0:
        return None
    coeffs = [complex(c) for c in chi.coeffs]
    roots = [cmath.rect(1 + abs(chi[0]) ** (1 / n), 2 * cmath.pi * k / n + 0.4) for k in range(n)]
    for _ in range(DURAND_KERNER_ITERATIONS):
        moved = 0.0
        for i in range(n):
            value, denom = _correction(coeffs, roots, i)
            if denom == 0:
                denom = 1e-300
            delta = value / denom
            roots[i] -= delta
            moved = max(moved, abs(delta))
        if moved < 1e-14:
            break
    radii = []
    for i in range(n):
        value, denom = _correction(coeffs, roots, i)
        if denom == 0:
            return None
        radii.append(n * abs(value / denom))
    # disjointness makes each disk contain exactly one root
    for i in range(n):
        for j in range(i + 1, n):
            if abs(roots[i] - roots[j]) <= radii[i] + radii[j]:
                return None
    # one-sided semantics: False is certified (a root provably off the
    # circle); True means every disk is consistent with |z| = sqrt(q)
    target = params.q ** 0.5
    for z, r in zip(roots, radii):
        lo, hi = abs(z) - r, abs(z) + r
        if hi < target - 1e-12 or lo > target + 1e-12:
            return False
    return True
