"""The exact Weil oracle and its Descartes root counter, pinned over a fixed
corpus."""

import collections
import hashlib
import itertools
import math
import random

import pytest

from weilpoly.factorint import is_irreducible_over_z
from weilpoly.oracle import count_real_roots, roots_in_closed_interval, weil_oracle
from weilpoly.polynomial import IntPoly
from weilpoly.weil import WeilParams, _from_companion, chi_from_a, is_weil


def weil14_corpus(q, count=150):
    """count distinct irreducible degree-14 q-Weil chi.  The companion is
    prod (x - r_i) over seven seeded roots, one in each seventh of
    (-2 sqrt q, 2 sqrt q), with its coefficients rounded to integers; a draw
    is kept when is_weil accepts chi and chi is irreducible."""
    rng = random.Random(f"weil14/{q}")
    edge = 2 * math.sqrt(q)
    P = WeilParams.from_q(q)
    out = {}
    while len(out) < count:
        h = [1.0]
        for i in range(7):
            r = edge * (2 * (i + rng.uniform(0.2, 0.8)) / 7 - 1)
            h = [a - r * b for a, b in zip([0.0] + h, h + [0.0])]
        chi = _from_companion(IntPoly([round(c) for c in h]), q)
        if chi not in out and is_weil(chi, P).is_weil and is_irreducible_over_z(chi):
            out[chi] = None
    return [(q, chi) for chi in out]


def oracle_corpus():
    """(q, chi) rows: every a of the degree-2, -4 and -6 boxes |a_i| <= 12,
    6, 3 at q in {2, 3, 4, 5, 9}; 400 seeded draws at degrees 8-14; the
    Mignotte polynomials t^n - 2 (a t - 1)^2, which have two close roots;
    and weil14_corpus at q = 2 and q = 9."""
    for q in (2, 3, 4, 5, 9):
        P = WeilParams.from_q(q)
        for g, r in ((1, 12), (2, 6), (3, 3)):
            for a in itertools.product(range(-r, r + 1), repeat=g):
                yield q, chi_from_a(a, P)
    rng = random.Random("numeric-oracle")
    for _ in range(400):
        q = rng.choice((2, 3, 4, 5, 9))
        g = rng.randint(4, 7)
        a = [rng.randint(-1, 1) * rng.randint(0, q) for _ in range(g)]
        yield q, chi_from_a(a, WeilParams.from_q(q))
    for n in (6, 8, 10, 14):
        for a in (10, 30, 100, 1000):
            yield 2, IntPoly([0] * n + [1]) - IntPoly([2]) * IntPoly([1, -a]) ** 2
    yield from weil14_corpus(2)
    yield from weil14_corpus(9)


def test_weil_oracle_verdicts_match_the_pinned_digest():
    """Every verdict of weil_oracle on oracle_corpus(), pinned as one digest
    computed with the Descartes bisection over Q(sqrt q) that the integer
    route on H replaced, and each one equal to is_weil's."""
    digest = hashlib.sha256()
    verdicts = collections.Counter()
    for q, chi in oracle_corpus():
        P = WeilParams.from_q(q)
        verdict = weil_oracle(chi, P)
        assert verdict == is_weil(chi, P).is_weil, (q, chi)
        verdicts[verdict] += 1
        digest.update(f"{q}|{list(chi.coeffs)}|{verdict}\n".encode())
    assert verdicts == PINNED_COUNTS
    assert digest.hexdigest() == PINNED_DIGEST


PINNED_COUNTS = {False: 1602, True: 1799}
PINNED_DIGEST = "658ef532dd5dd3f0008f9483a5f3645942b6412dde6a1eb364a181b51798608e"


@pytest.mark.parametrize(
    "coeffs, b, count",
    [
        ([-28, 1], 28, 1),  # H = u - 28 of h = x^2 - 28 at q = 7: a root at 4q
        ([0, 1], 28, 1),  # a root at 0
        ([0, -28, 1], 28, 2),  # both ends
        ([-29, 1], 28, 0),  # just past 4q
        ([1, 1], 28, 0),  # just below 0
        ([-14, 1], 28, 1),  # the midpoint
    ],
)
def test_closed_interval_counts_roots_at_its_ends(coeffs, b, count):
    assert roots_in_closed_interval(coeffs, b) == count


def test_oracle_on_a_companion_with_roots_at_the_edges():
    """h = x^2 - 28 has its roots at +-2 sqrt 7, and chi = (t^2 - 7)^2."""
    P = WeilParams.from_q(7)
    chi = IntPoly([-7, 0, 1]) ** 2
    assert weil_oracle(chi, P) == is_weil(chi, P).is_weil


def test_count_real_roots_at_zero_one_and_a_half():
    """x (x - 1) (x + 1) (2x - 1) (x^2 + 1): the roots 0, +-1 and 1/2 sit
    where the counter splits its intervals."""
    p = IntPoly([0, 1]) * IntPoly([-1, 1]) * IntPoly([1, 1]) * IntPoly([-1, 2]) * IntPoly([1, 0, 1])
    assert count_real_roots(list(p.coeffs)) == 4
