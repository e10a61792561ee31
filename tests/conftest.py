import random
from fractions import Fraction

import pytest

from weilpoly.newton import CaseRecord
from weilpoly.polynomial import IntPoly


def expand_from_roots(roots):
    """Monic polynomial with the given roots, exact coefficient arithmetic."""
    coeffs = [Fraction(1)]
    for r in roots:
        r = Fraction(r)
        coeffs = [Fraction(0)] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] -= r * coeffs[i + 1]
    return coeffs  # constant term first


def r_vector_from_roots(roots):
    """r_1..r_6 of the monic sextic with the given roots (leading term dropped)."""
    coeffs = expand_from_roots(roots)
    return list(reversed(coeffs))[1:]


def synthetic_valuations(rec: CaseRecord, n: int) -> list[int]:
    """A valuation vector (v_p(a_1)..v_p(a_7)) whose polygon realizes the case.

    Vertex equalities are taken exactly; everything else sits at the
    smallest integer valuation strictly compatible with the hull (ceil,
    +1 when the hull value is an exact integer at a non-vertex index so the
    point cannot create a vertex or collinear tie at fractional-height
    positions).
    """
    verts = [(0, 7 * n)] + [(i, h * n) for i, h in rec.vertices]
    if verts[-1][0] != 7:
        # complete to the midpoint: the hull runs straight from the last left
        # vertex to its mirror (14-i, y+(i-7)n), and 7 is their midpoint
        i_last, y_last = verts[-1]
        mirror_y = y_last + (i_last - 7) * n
        verts.append((7, Fraction(y_last + mirror_y, 2)))

    def hull_height(i: int) -> Fraction:
        for (x1, y1), (x2, y2) in zip(verts, verts[1:]):
            if x1 <= i <= x2:
                return Fraction(y1) + Fraction(y2 - y1, x2 - x1) * (i - x1)
        return Fraction(verts[-1][1])

    vertex_idx = {i for i, _ in rec.vertices}
    out = []
    for k in range(1, 8):
        h = hull_height(k)
        if k in vertex_idx:
            coeff_v = int(h) - (7 - k) * n
        else:
            # strictly above the hull keeps the vertex set canonical
            floor_h = h.numerator // h.denominator
            coeff_v = floor_h + 1 - (7 - k) * n
        out.append(max(coeff_v, 0))
    return out


def weil_product(q, xs):
    """prod (t^2 + x t + q) as an IntPoly."""
    chi = IntPoly([1])
    for x in xs:
        chi = chi * IntPoly([q, x, 1])
    return chi


@pytest.fixture
def rng():
    return random.Random(20240814)
