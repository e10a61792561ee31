"""The independent Weil oracle used to cross-check the main decision path.

weil_oracle shares no decision with the Sturm-based Weil predicate: it
builds no Sturm chain, evaluates nothing at +-2 sqrt(q) and decides no surd
sign.  It decides the Weil property factor-by-factor over Z, with explicit
case analysis for degrees 1 and 2 and, for an even-degree factor beyond
them, a Descartes count of the real roots of an integer polynomial H built
from its companion.  Real roots are counted by Vincent-Collins-Akritas
bisection on coefficient lists, with ring operations and sign tests alone,
so the same counter runs on integers and on numerators in Z[sqrt(q)].
"""

from __future__ import annotations

from .factorint import factor_over_integers, poly_gcd
from .polynomial import IntPoly, _compose_linear
from .weil import WeilParams, check_symmetry, companion_poly


def descartes_variations(coeffs) -> int:
    """Sign changes along coeffs, zeros skipped."""
    signs = [s for s in ((c > 0) - (c < 0) for c in coeffs) if s]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _unit_roots(c) -> int:
    """Roots in (0, 1) of the squarefree polynomial with coefficients c.

    The variations of (x + 1)^d p(1/(x + 1)) bound them and are exact at 0
    or 1; beyond that the interval is halved: 2^d p(x/2) carries (0, 1/2)
    onto (0, 1), and its shift by 1 carries (1/2, 1) there, with a root at
    1/2 left at 0.
    """
    if not c[0]:
        c = c[1:]
    v = descartes_variations(_compose_linear(c[::-1], 1, 1))
    if v < 2:
        return v
    d = len(c) - 1
    left = [x * (1 << (d - i)) for i, x in enumerate(c)]
    right = _compose_linear(left, 1, 1)
    return _unit_roots(left) + (not right[0]) + _unit_roots(right)


def roots_in_closed_interval(c, b: int) -> int:
    """Distinct roots in [0, b] of a squarefree polynomial, for an integer
    b > 0: those of p(b x) in [0, 1]."""
    scaled = [x * b**i for i, x in enumerate(c)]
    return (not scaled[0]) + (not sum(scaled)) + _unit_roots(scaled)


def count_real_roots(c) -> int:
    """Distinct real roots of a squarefree polynomial: 0 and the positive
    roots of p(x) and p(-x), each split at 1, where reversal carries
    (1, inf) onto (0, 1)."""
    total = not c[0]
    for p in (c, [-x if i % 2 else x for i, x in enumerate(c)]):
        if not p[0]:
            p = p[1:]
        total += _unit_roots(p) + (not sum(p)) + _unit_roots(p[::-1])
    return total


def count_real_roots_descartes(p) -> int:
    """Distinct real roots of a QuadPoly, counted on the numerators of its
    squarefree part in Z[sqrt(q)]."""
    return count_real_roots(p.squarefree_part().numerators())


# -- exact modulus oracle --------------------------------------------------------


def weil_oracle(chi: IntPoly, params: WeilParams) -> bool:
    """Decide the q-Weil property factor-by-factor over Z.

    Each irreducible factor must have all roots of modulus sqrt(q): linear
    factors force q square with root +-sqrt(q) at even total multiplicity;
    quadratics are either complex with constant q, or t^2 - q (again with
    even multiplicity); odd-degree irreducibles of degree > 1 are
    impossible.  A factor g of even degree >= 4 must be q-palindromic with
    all companion roots real in [-2 sqrt q, 2 sqrt q].  For the companion
    h = E(x^2) + x O(x^2), H(u) = E(u)^2 - u O(u)^2 satisfies
    H(x^2) = h(x) h(-x), so that holds exactly when every root of H is real
    and in [0, 4q]: when H's squarefree part has as many roots there as its
    degree.
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
            h = companion_poly(g, params).coeffs
            even, odd = IntPoly(h[0::2]), IntPoly(h[1::2])
            big_h = even * even - IntPoly([0, 1]) * odd * odd
            # H's leading coefficient is +-1, so its primitive gcd is monic
            big_h = big_h.divmod_monic(poly_gcd(big_h, big_h.derivative()))[0]
            if roots_in_closed_interval(big_h.coeffs, 4 * q) != big_h.degree:
                return False
    return sqrt_mult[1] % 2 == 0 and sqrt_mult[-1] % 2 == 0
