"""The certified numeric modulus check, pinned over a fixed corpus."""

import collections
import hashlib
import itertools
import random

from weilpoly.oracle import numeric_modulus_verdict
from weilpoly.polynomial import IntPoly
from weilpoly.weil import WeilParams, chi_from_a


def numeric_corpus():
    """(q, chi) rows: every a of the degree-2, -4 and -6 boxes |a_i| <= 12,
    6, 3 at q in {2, 3, 4, 5, 9}; 400 seeded draws at degrees 8-14; and the
    Mignotte polynomials t^n - 2 (a t - 1)^2, whose two close roots make
    some disks overlap (verdict None)."""
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


def test_numeric_modulus_verdicts_match_the_pinned_digest():
    """Every verdict of numeric_modulus_verdict on numeric_corpus(), pinned
    as one digest computed before the Durand-Kerner iteration and the disk
    radii came to share one correction routine."""
    digest = hashlib.sha256()
    verdicts = collections.Counter()
    for q, chi in numeric_corpus():
        verdict = numeric_modulus_verdict(chi, WeilParams.from_q(q))
        verdicts[verdict] += 1
        digest.update(f"{q}|{list(chi.coeffs)}|{verdict}\n".encode())
    assert verdicts == PINNED_COUNTS
    assert digest.hexdigest() == PINNED_DIGEST


PINNED_COUNTS = {False: 1599, True: 1499, None: 3}
PINNED_DIGEST = "50dc1accb787329fdcb2f65edf29864f31206ade86bb6a774b05451b13f1e13d"
