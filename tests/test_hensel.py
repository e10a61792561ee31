import hashlib
import random

import pytest

from weilpoly import fpoly, hensel
from weilpoly.fpoly import PrimeField
from weilpoly.hensel import hensel_lift_multi, hensel_lift_pair
from weilpoly.polynomial import IntPoly

LIFT_PRIMES = (2, 3, 5, 7, 13)


def coprime_split(rng, p: int, degrees: list[int]) -> list[list[int]] | None:
    """Random monic pairwise-coprime polynomials over F_p of the given
    degrees, or None when a draw shares a factor with an earlier one."""
    F = PrimeField(p)
    out = []
    for d in degrees:
        g = [rng.randrange(p) for _ in range(d)] + [1]
        if any(fpoly.fdeg(fpoly.fgcd(F, g, h)) > 0 for h in out):
            return None
        out.append(g)
    return out


def lift_corpus(seed: int):
    """(f, factors mod p, p, k): a monic f of degree 2..14 congruent mod p
    to the product of 2..5 monic pairwise-coprime factors, for every k in
    1..40 (so every k = 2^j up to 32) at each prime of LIFT_PRIMES."""
    rng = random.Random(seed)
    out = []
    for k in range(1, 41):
        for p in LIFT_PRIMES:
            while True:
                n = rng.randint(2, 14)
                r = rng.randint(2, min(5, n))
                cuts = sorted(rng.sample(range(1, n), r - 1))
                degrees = [b - a for a, b in zip([0] + cuts, cuts + [n])]
                factors = coprime_split(rng, p, degrees)
                if factors is not None:
                    break
            F = PrimeField(p)
            prod = [1]
            for g in factors:
                prod = fpoly.fmul(F, prod, g)
            # a lift of prod to Z, moved by p times a random lower part
            f = [c + p * rng.randint(-50, 50) for c in prod[:-1]] + [1]
            out.append((IntPoly(f), factors, p, k))
    return out


def test_lifts_match_the_pinned_digest():
    """hensel_lift_pair on the split of each corpus entry into its first
    factor and the rest, and hensel_lift_multi on all its factors, pinned
    as one digest computed while every step also updated the Bezout pair.
    A lift of a monic coprime split mod p to p^k is unique."""
    corpus = lift_corpus(20261020)
    assert {f.degree for f, *_ in corpus} == set(range(2, 15))
    assert {len(factors) for _, factors, *_ in corpus} == {2, 3, 4, 5}
    digest = hashlib.sha256()
    for f, factors, p, k in corpus:
        F = PrimeField(p)
        rest = [1]
        for g in factors[1:]:
            rest = fpoly.fmul(F, rest, g)
        g, h = hensel_lift_pair(f, factors[0], rest, p, k)
        lifted = hensel_lift_multi(f, factors, p, k)
        digest.update(f"{p}|{k}|{f.coeffs}|{g.coeffs}|{h.coeffs}|{[u.coeffs for u in lifted]}\n".encode())
    assert digest.hexdigest() == "e13dd76ee73e051d888a0bf4fd4bf4d865ef28862a0c989f8fa29dc3a3dde4a1"


@pytest.mark.parametrize("k", [0, -1, -3])
def test_a_precision_below_one_is_rejected(k):
    """Mod p^0 every split verifies, and a negative k would lift to a float
    modulus: both lifts refuse k < 1 instead of answering."""
    f = IntPoly([-1, 0, 1])
    with pytest.raises(ValueError, match="k >= 1"):
        hensel_lift_pair(f, [2, 1], [1, 1], 3, k)
    with pytest.raises(ValueError, match="k >= 1"):
        hensel_lift_multi(f, [[2, 1], [1, 1]], 3, k)
    with pytest.raises(ValueError, match="k >= 1"):
        hensel_lift_multi(f, [[2, 0, 1]], 3, k)


def test_the_last_step_lifts_no_bezout_pair(monkeypatch):
    """Lifting to p^k takes ceil(log2 k) steps, and every one but the last
    also lifts the Bezout pair."""
    calls = []

    def spy(*args, _orig=hensel._lift_bezout):
        calls.append(args[0])
        return _orig(*args)

    monkeypatch.setattr(hensel, "_lift_bezout", spy)
    f = IntPoly([-2, 0, 1])
    for k, steps in ((1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (32, 5), (33, 6)):
        calls.clear()
        g, h = hensel_lift_pair(f, [4, 1], [3, 1], 7, k)
        assert all(c % 7 ** k == 0 for c in (g * h - f).coeffs)
        assert len(calls) == max(steps - 1, 0), k
        assert all(m < 7 ** k for m in calls)
