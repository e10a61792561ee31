import collections
import hashlib
import random
from fractions import Fraction
from math import gcd

import pytest

from weilpoly import fpoly, padic
from weilpoly.arith import vp
from weilpoly.classify7 import _count_scoped, classify
from weilpoly.cli import main
from weilpoly.errors import ExactnessError, StructuralError, UncertifiedProfileError
from weilpoly.factorint import discriminant, poly_gcd
from weilpoly.fpoly import PrimeField, is_irreducible
from weilpoly.hensel import hensel_lift_pair
from weilpoly.padic import (
    FactorRecord,
    PadicFactorProfile,
    profile_has_root_of_valuation,
    profile_weil,
    qp_factor_profile,
    tate_condition_profile,
)
from weilpoly.polynomial import IntPoly
from weilpoly.weil import WeilParams, chi_from_a, factor_weil, is_weil

P2 = WeilParams.from_q(2)

# inputs (q, a) of profile_weil, the route each takes and a record it must hold
PINNED_ROUTES = {
    (2, (-1, -1, 0, 0, 1, 0, 1)): ("companion", None),
    (2, (-1, -1, 0, 0, 1, 1, 0)): ("companion", None),
    # an uncertified middle block, as chi's engine leaves it
    (2, (-1, -1, 0, 1, 1, 0, 0)): (
        "companion",
        FactorRecord(4, Fraction(1, 2), 2, None, False, 2),
    ),
    # n even: a certified middle record
    (4, (-1, 0, 0, -6, 0, 16, -16)): (
        "companion",
        FactorRecord(6, Fraction(1), 6, 6, True),
    ),
    # certifies blocks chi's engine leaves open
    (2, (-1, -1, 1, 1, -1, 1, 1)): ("companion", None),
    # every root of h = (x^2-2)(x^2-6)(x-2)(x^2+2x-2) has valuation >= 1/2,
    # so h's engine is skipped
    (2, (0, 0, 4, 4, 0, 8, 16)): (
        "companion",
        FactorRecord(2, Fraction(1, 2), 1, 1, True),
    ),
    # n even: a repeated middle residual
    (4, (2, 2, -2, -4, -12, 8, 0)): ("fallback", None),
    # h's profile below slope n/2 is not fully certified
    (2, (-1, 0, 1, -1, -1, 0, 1)): ("fallback", None),
}


def records(profile):
    return sorted((r.degree, r.slope, r.const_valuation) for r in profile.factors)


def fp_parts(f: IntPoly, p: int):
    """fpoly.factor's monic irreducible factors of f mod p."""
    return fpoly.factor(PrimeField(p), [c % p for c in f.coeffs])[1]


def test_fp_factor_examples():
    assert fp_parts(IntPoly([1, 1, 1]), 2) == [([1, 1, 1], 1)]
    parts = fp_parts(IntPoly([1, 0, 1]), 5)
    assert sorted(g for g, _ in parts) == [[2, 1], [3, 1]]
    parts = fp_parts(IntPoly([4, 0, 3, 0, 1]), 2)
    assert sorted((g, e) for g, e in parts) == [([0, 1], 2), ([1, 1], 2)]


def test_hensel_exact_split():
    g, h = hensel_lift_pair(IntPoly([-1, 0, 1]), [2, 1], [1, 1], 3, 4)
    assert {g, h} == {IntPoly([-1, 1]), IntPoly([1, 1])}


def test_hensel_spec_examples():
    g, h = hensel_lift_pair(IntPoly([2, 3, 1]), [1, 1], [2, 1], 5, 6)
    assert {g, h} == {IntPoly([1, 1]), IntPoly([2, 1])}
    g, h = hensel_lift_pair(IntPoly([-2, 0, 1]), [-3 % 7, 1], [3, 1], 7, 3)
    root = -g[0] % 343
    assert root * root % 343 == 2
    assert root == 108 or (343 - root) == 108


def test_hensel_non_coprime_seed_rejected():
    with pytest.raises(ValueError):
        hensel_lift_pair(IntPoly([1, 2, 1]), [1, 1], [1, 1], 3, 4)


def test_profile_worked_examples():
    for p in (3, 5, 7):
        prof = qp_factor_profile(IntPoly([p, 0, 0, 1]), p)
        assert records(prof) == [(3, Fraction(1, 3), 1)]
        assert prof.fully_certified
    p = 5
    prof = qp_factor_profile(IntPoly([-p, 0, 1]) * IntPoly([-1, 1]), p)
    assert records(prof) == [(1, Fraction(0), 0), (2, Fraction(1, 2), 1)]


def test_profile_t4_corrected_example():
    """t^4+3t^2+4 at p=2: both residuals are (z+1)^2 and both quadratic
    factors split over Q_2 (disc -7 is a 2-adic square), so the true profile
    is four linear factors with slopes 0,0,1,1."""
    prof = qp_factor_profile(IntPoly([4, 0, 3, 0, 1]), 2)
    assert records(prof) == [
        (1, Fraction(0), 0),
        (1, Fraction(0), 0),
        (1, Fraction(1), 1),
        (1, Fraction(1), 1),
    ]
    assert prof.fully_certified
    # independent digit-search oracle: count roots of f mod 2^k that lift
    f = IntPoly([4, 0, 3, 0, 1])
    k = 12
    roots = [c for c in range(2 ** k) if f.evaluate(c) % 2 ** k == 0]
    # four 2-adic roots means 4 residues mod 2^(k-2) at least
    assert len({r % 2 ** (k - 2) for r in roots}) >= 4


def test_profile_invariants(rng):
    from weilpoly.arith import vp
    from weilpoly.newton import newton_polygon

    done = 0
    while done < 50:
        p = rng.choice([2, 3, 5])
        deg = rng.randint(1, 9)
        f = IntPoly(
            [rng.choice([1, 2, 3, 5]) * p ** rng.randint(0, 3) for _ in range(deg)]
            + [1]
        )
        if f[0] == 0 or poly_gcd(f, f.derivative()).degree > 0:
            continue
        prof = qp_factor_profile(f, p)
        assert sum(r.degree for r in prof.factors) == f.degree
        assert sum(r.const_valuation for r in prof.factors) == vp(f[0], p)
        for r in prof.factors:
            assert r.const_valuation == r.degree * r.slope
            assert r.degree % r.slope.denominator == 0
        assert prof.slope_multiset() == newton_polygon(f, p).valuation_multiset()
        done += 1


def test_composition_oracle(rng):
    """Random pairwise-coprime products of Eisenstein, unramified and linear
    blocks: the profile equals the known union exactly."""
    done = mismatches = 0
    while done < 150:
        p = rng.choice([2, 3, 5])
        f, expected = _random_blocks(p, rng)
        if f.degree < 1 or poly_gcd(f, f.derivative()).degree > 0:
            continue
        prof = qp_factor_profile(f, p)
        assert prof.fully_certified, (p, f)
        got = sorted((r.degree, r.slope) for r in prof.factors)
        assert got == sorted(expected), (p, f)
        done += 1


def _random_blocks(p, rng):
    used = {}
    f = IntPoly([1])
    expected = []
    total = 0
    for _ in range(rng.randint(1, 4)):
        kind = rng.random()
        if kind < 0.4:
            d = rng.randint(1, 5)
            if total + d > 14:
                continue
            sl = Fraction(1, d)
            c = rng.randrange(1, p)
            marker = (-c) % p  # residual root of the Eisenstein segment
            if marker in used.get(sl, set()):
                continue
            used.setdefault(sl, set()).add(marker)
            coeffs = [p * rng.randint(0, 3) for _ in range(d)] + [1]
            coeffs[0] = p * c
            f = f * IntPoly(coeffs)
            expected.append((d, sl))
            total += d
        elif kind < 0.7:
            d = rng.randint(1, 4)
            if total + d > 14:
                continue
            F = PrimeField(p)
            for _ in range(60):
                fb = tuple([rng.randrange(p) for _ in range(d)] + [1])
                if fb[0] == 0 or not is_irreducible(F, list(fb)):
                    continue
                if fb in used.get(Fraction(0), set()):
                    continue
                used.setdefault(Fraction(0), set()).add(fb)
                f = f * IntPoly([c + p * rng.randint(0, 2) for c in fb[:-1]] + [1])
                expected.append((d, Fraction(0)))
                total += d
                break
        else:
            k = rng.randint(1, 3)
            if total + 1 > 14:
                continue
            sl = Fraction(k)
            c = rng.randrange(1, p)
            if c in used.get(sl, set()):
                continue
            used.setdefault(sl, set()).add(c)
            f = f * IntPoly([-(c + p * rng.randint(0, 2)) * p ** k, 1])
            expected.append((1, sl))
            total += 1
    return f, expected


def test_phi_adic_ramified_quartic():
    # g = (t^2+t+1)^2 + 2 is phi-Eisenstein: one ramified quartic over Q_2
    f = IntPoly([3, 2, 3, 2, 1])
    prof = qp_factor_profile(f, 2)
    assert records(prof) == [(4, Fraction(0), 0)]
    assert prof.factors[0].residual_degree == 2
    assert prof.fully_certified


def test_root_of_valuation():
    p = 5

    def has_root(f, v):
        return profile_has_root_of_valuation(qp_factor_profile(f, p), v)

    assert not has_root(IntPoly([-p, 0, 1]), Fraction(1, 2))
    f = IntPoly([-p, 1]) * IntPoly([-1, 1])
    assert has_root(f, 1)
    g = IntPoly([-p, 0, 1]) * IntPoly([-p, 1])
    assert has_root(g, 1)
    assert not has_root(g, Fraction(1, 2))


def test_count_factors():
    # factors whose roots have valuation 0 or n are never counted
    p = 3
    prof = qp_factor_profile(IntPoly([p, 0, 0, 1]), p)
    assert _count_scoped(prof, 3, 1) == 1
    assert _count_scoped(prof, 1, 1) == 0
    prof = qp_factor_profile(IntPoly([-p, 0, 1]) * IntPoly([-1, 1]), p)
    assert _count_scoped(prof, 2, 1) == 1
    assert _count_scoped(prof, 1, 1) == 0  # the slope-0 root
    prof = qp_factor_profile(IntPoly([4, 0, 3, 0, 1]), 2)
    assert _count_scoped(prof, 1, 2) == 2  # the two slope-1 roots
    assert _count_scoped(prof, 1, 1) == 0  # slope 1 == n
    # an unresolved block whose granularity divides d may hide degree-d factors
    block = FactorRecord(4, Fraction(1, 2), 2, None, False, granularity=2)
    prof = PadicFactorProfile(2, 4, 2, (block,))
    assert _count_scoped(prof, 1, 1) == 0
    with pytest.raises(UncertifiedProfileError):
        _count_scoped(prof, 2, 1)


def test_tate_condition_examples():
    def tate_ok(f, params):
        return tate_condition_profile(qp_factor_profile(f, params.p), params.n)

    P2 = WeilParams.from_q(2)
    assert tate_ok(IntPoly([2, 0, 1]), P2)
    assert tate_ok(IntPoly([2, 1, 1]), P2)
    # ordinary with p not dividing a: valuations 0 and 1, both divisible at n=1
    P4 = WeilParams(2, 2)
    assert tate_ok(IntPoly([4, 2, 1]), P4)  # one factor, v = 2 = n
    assert not tate_ok(IntPoly([2, 1, 1]), P4)  # v = 1 not divisible by 2


def test_a_block_of_fractional_valuation_granularity_is_inconclusive(monkeypatch):
    """Planted: the engine never builds an uncertified block whose factor
    degrees could carry a fractional constant valuation, since _records
    gives every block the granularity e d deg psi, a multiple of its slope
    denominator e.  A=(-1,-1,0,1,1,0,0) at q=2 holds such a block of slope
    1/2 and granularity 2 and is accepted; with the granularity planted as
    1, tate_condition_profile raises, and classify reports it as
    inconclusive instead of a verdict."""
    chi = chi_from_a((-1, -1, 0, 1, 1, 0, 0), P2)
    verdict = is_weil(chi, P2)
    profile = profile_weil(chi, verdict, P2)
    assert FactorRecord(4, Fraction(1, 2), 2, None, False, 2) in profile.factors
    assert tate_condition_profile(profile, P2.n)
    assert classify(chi, P2).verdict == "accepted"
    records = padic._records

    def planted(parts, slope, e, d):
        return [
            r if r.certified else padic._rec(r.degree, slope, None, False, r.granularity // e)
            for r in records(parts, slope, e, d)
        ]

    monkeypatch.setattr(padic, "_records", planted)
    message = "^unresolved block with fractional valuation granularity$"
    with pytest.raises(UncertifiedProfileError, match=message):
        tate_condition_profile(profile_weil(chi, verdict, P2), P2.n)
    c = classify(chi, P2)
    assert (c.verdict, c.detail) == ("inconclusive", message[1:-1])


def test_not_squarefree_rejected():
    f = IntPoly([1, 1]) ** 2
    with pytest.raises(StructuralError, match="squarefree"):
        qp_factor_profile(f, 2)
    with pytest.raises(StructuralError, match="constant term"):
        qp_factor_profile(IntPoly([0, 1, 1]), 2)


@pytest.mark.parametrize("p", [4, 1, 0])
def test_p_must_be_prime(p):
    with pytest.raises(StructuralError, match="not a prime"):
        qp_factor_profile(IntPoly([3, 0, 1]), p)


def test_eisenstein_law(rng):
    for _ in range(30):
        p = rng.choice([2, 3, 5])
        d = rng.randint(1, 7)
        coeffs = [p * rng.randint(0, 4) for _ in range(d)] + [1]
        coeffs[0] = p * rng.choice([1, 2, 3, 4, 5, 6])
        while coeffs[0] % (p * p) == 0:
            coeffs[0] += p
        prof = qp_factor_profile(IntPoly(coeffs), p)
        assert records(prof) == [(d, Fraction(1, d), 1)]


def test_unit_root_count_matches_digit_search(rng):
    """Independent oracle: certified degree-1 slope-0 records agree with a
    Hensel-liftable residue search mod p^k."""
    from weilpoly.factorint import discriminant
    from weilpoly.arith import vp

    done = 0
    while done < 30:
        p = rng.choice([2, 3])
        deg = rng.randint(2, 6)
        f = IntPoly([rng.randint(-40, 40) for _ in range(deg)] + [1])
        if f[0] == 0 or poly_gcd(f, f.derivative()).degree > 0:
            continue
        disc = discriminant(f)
        vd = vp(int(disc), p) if int(disc) == disc and disc != 0 else 0
        k = max(2 * vd + 3, 6)
        if p ** k > 4_000_000:
            continue
        prof = qp_factor_profile(f, p)
        if not prof.fully_certified:
            continue
        want = sum(
            1
            for r in prof.factors
            if r.degree == 1 and r.slope == 0
        )
        # Newton-certified unit residues: f(r) = 0 mod p^k with unit r and
        # v(f(r)) > 2 v(f'(r)) guarantees a unique Q_p root near r
        roots = set()
        mod = p ** k
        for r in range(mod):
            if r % p == 0:
                continue
            fr = f.evaluate(r) % mod
            if fr != 0:
                continue
            dfr = f.derivative().evaluate(r)
            w = vp(dfr, p) if dfr % mod else k
            if k > 2 * w:
                # distinct roots separate below p^(vd+1), so this dedupe is exact
                roots.add(r % p ** (vd + 1))
        assert len(roots) == want, (p, f, sorted(roots), want)
        done += 1


T = IntPoly


def counting_lifts(monkeypatch):
    """The seeds of each Hensel lift the engine starts, as they start."""
    lifts = []
    pair = padic.hensel_lift_pair

    def counting(g, g0, h0, p, k):
        lifts.append([list(g0), list(h0)])
        return pair(g, g0, h0, p, k)

    monkeypatch.setattr(padic, "hensel_lift_pair", counting)
    return lifts


@pytest.mark.parametrize(
    "f, expected",
    [
        # (t-2)(t-1)(t^2+2) mod 5: simple factors only
        (
            T([-2, 1]) * T([-1, 1]) * T([2, 0, 1]) + T([0, 5]),
            [(1, 0, 0, 1, True, 1), (1, 0, 0, 1, True, 1), (2, 0, 0, 2, True, 1)],
        ),
        # (t-2)(t-3)(t-1)^2(t^2+2)^2 mod 5: both squares are refined on f
        # itself
        (
            (T([-1, 1]) ** 2 + T([-5])) * (T([2, 0, 1]) ** 2 + T([0, -5]))
            * T([-2, 1]) * T([-3, 1]),
            [
                (1, 0, 0, 1, True, 1),
                (1, 0, 0, 1, True, 1),
                (2, 0, 0, 1, True, 1),
                (4, 0, 0, 2, True, 1),
            ],
        ),
        # (t^2+2)^2 mod 5: one repeated factor
        (T([2, 0, 1]) ** 2 + T([0, 5]), [(4, 0, 0, 2, True, 1)]),
    ],
    ids=["simple", "simple-and-repeated", "repeated"],
)
def test_unit_residual_records_are_pinned(f, expected, monkeypatch):
    """Pinned records of the three shapes of a unit residual mod 5.  A
    repeated residue class is read off f itself, so no Hensel lift runs."""
    lifts = counting_lifts(monkeypatch)
    got = [
        (r.degree, r.slope, r.const_valuation, r.residual_degree, r.certified, r.granularity)
        for r in qp_factor_profile(f, 5).factors
    ]
    assert got == expected
    assert lifts == []


@pytest.mark.parametrize(
    "f, lifted, expected",
    [
        # (t^2-5)(t-50)(t-1)(t-2): sides of slope 2 and 1/2 with simple
        # residuals are read off f, and the unit roots are simple
        (
            T([-5, 0, 1]) * T([-50, 1]) * T([-1, 1]) * T([-2, 1]),
            [],
            [
                (1, 0, 0, 1, True, 1),
                (1, 0, 0, 1, True, 1),
                (2, Fraction(1, 2), 1, 1, True, 1),
                (1, 2, 2, 1, True, 1),
            ],
        ),
        # (t-5)(t^2-5)((t-1)^2-5)(t-2): the block (t-1)^2 is read off f
        # itself, shifted by 1
        (
            T([-5, 1]) * T([-5, 0, 1]) * (T([-1, 1]) ** 2 + T([-5])) * T([-2, 1]),
            [],
            [
                (1, 0, 0, 1, True, 1),
                (2, 0, 0, 1, True, 1),
                (2, Fraction(1, 2), 1, 1, True, 1),
                (1, 1, 1, 1, True, 1),
            ],
        ),
        # (t-5)(t-30)(t-2)(t-3): the slope-1 residual (y-1)^2 is repeated,
        # so the positive part is split off and refined after t -> 5t
        (
            T([-5, 1]) * T([-30, 1]) * T([-2, 1]) * T([-3, 1]),
            [[[0, 0, 1], [1, 0, 1]]],
            [
                (1, 0, 0, 1, True, 1),
                (1, 0, 0, 1, True, 1),
                (1, 1, 1, 1, True, 1),
                (1, 1, 1, 1, True, 1),
            ],
        ),
    ],
    ids=["simple-positive-sides", "repeated-unit-block", "repeated-integer-slope"],
)
def test_mixed_valuation_records_are_pinned(f, lifted, expected, monkeypatch):
    """Pinned records of inputs with unit and positive-valuation roots mod 5;
    `lifted` holds the seeds of each Hensel lift the engine starts: the
    positive-slope sides are read off f unless one of integer slope has a
    repeated residual."""
    lifts = counting_lifts(monkeypatch)
    got = [
        (r.degree, r.slope, r.const_valuation, r.residual_degree, r.certified, r.granularity)
        for r in qp_factor_profile(f, 5).factors
    ]
    assert got == expected
    assert lifts == lifted


def _digit_cluster(k):
    """(t - r)^2 - 5^(2k+1) with r = 1 + 5 + ... + 5^(k-1): shifting the
    class of r to 0 and scaling t -> 5t leaves the same shape with k - 1
    digits, so its two roots take k shifts to separate."""
    return T([-(5**k - 1) // 4, 1]) ** 2 - T([5 ** (2 * k + 1)])


def _phi_digit_cluster(k):
    """(t^2 + 2 + 5 + ... + 5^k)^2 - 5^(2k+1): each phi-adic polygon of the
    class (t^2+2)^2 mod 5 has the residual (y+1)^2 until k refinements of
    phi = t^2 + 2 have been made."""
    return T([2 + 5 * (5**k - 1) // 4, 0, 1]) ** 2 - T([5 ** (2 * k + 1)])


@pytest.mark.parametrize(
    "f, expected",
    [
        # 8 shifts separate the roots, within the depth of 8
        (_digit_cluster(8), [(2, 0, 1, True, 1)]),
        # 9 are needed: the depth runs out on a block of the class's degree
        (_digit_cluster(9), [(2, 0, None, False, 1)]),
        (
            _digit_cluster(9) * T([3, 1]) * T([-2, 1]),
            [(1, 0, 1, True, 1), (1, 0, 1, True, 1), (2, 0, None, False, 1)],
        ),
        # 8 refinements of phi separate the roots, 9 exhaust the budget
        (_phi_digit_cluster(8), [(4, 0, 2, True, 1)]),
        (_phi_digit_cluster(9), [(4, 0, None, False, 2)]),
        (
            _phi_digit_cluster(9) * T([3, 1]) * T([-2, 1]) * T([-5, 1]),
            [
                (1, 0, 1, True, 1),
                (1, 0, 1, True, 1),
                (4, 0, None, False, 2),
                (1, 1, 1, True, 1),
            ],
        ),
    ],
    ids=["shifts-8", "shifts-9", "shifts-9-cofactor", "phi-8", "phi-9", "phi-9-cofactor"],
)
def test_refinement_depth_is_pinned(f, expected):
    """Clusters at p = 5 that need k refinement steps: within the depth of 8
    they certify, past it they leave one uncertified block of the cluster's
    own degree, also when f has other roots."""
    got = [
        (r.degree, r.slope, r.residual_degree, r.certified, r.granularity)
        for r in qp_factor_profile(f, 5).factors
    ]
    assert got == expected


def mixed_valuation_corpus(size=3000, seed="mixed-valuation"):
    """Seeded monic inputs of degree 2 to 9 at p in {2, 3, 5, 7}, each with
    p | f(0).  Half have random coefficients whose m lowest are divisible by
    p, so m roots have positive valuation (1 <= m <= n).  Half are a
    positive part (roots +-p^k or 2p^k, or Eisenstein-like blocks) times a
    unit part holding a square, perturbed by multiples of p^s."""
    rng = random.Random(seed)
    for i in range(size):
        p = (2, 3, 5, 7)[i % 4]
        if i % 8 < 4:
            n = rng.randint(2, 9)
            m = rng.randint(1, n)
            coeffs = []
            for j in range(n):
                c = rng.randint(-2 * p, 2 * p)
                if j < m:
                    c *= p ** rng.randint(1, 3)
                elif j == m and c % p == 0:
                    c += 1
                coeffs.append(c)
            if coeffs[0] == 0:
                coeffs[0] = p
            yield p, IntPoly(coeffs + [1])
            continue
        pos = IntPoly([1])
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.6:
                root = rng.choice((1, -1, 2)) * p ** rng.randint(1, 2)
                pos = pos * IntPoly([-root, 1])
            else:
                e = rng.randint(2, 3)
                const = p * rng.choice((1, -1, 2, -2))
                low = [p * rng.randint(-1, 1) for _ in range(e - 1)]
                pos = pos * IntPoly([const, *low, 1])
        if rng.random() < 0.7:
            phi = IntPoly([rng.randint(-p, p) or 1, 1])
        else:
            phi = IntPoly([rng.randint(1, p), rng.randint(-1, 1), 1])
        unit = phi * phi
        for _ in range(rng.randint(0, 2)):
            unit = unit * IntPoly([rng.randint(-p, p), 1])
        f = pos * unit
        if f.degree > 9:
            f = pos * phi * phi
        if f.degree > 9:
            f = pos * IntPoly([1, 1])
        s = rng.randint(1, 3)
        noise = [p**s * rng.randint(-1, 1) for _ in range(f.degree)]
        f = IntPoly([c + d for c, d in zip(f.coeffs, noise + [0])])
        if f[0] == 0:
            f = IntPoly([p**4, *f.coeffs[1:]])
        yield p, f


def profile_digest(corpus):
    """Outcome counts, and one digest of every record of qp_factor_profile
    or the error it raises, over the (p, f) of a corpus."""
    digest = hashlib.sha256()
    outcomes = collections.Counter()
    for p, f in corpus:
        try:
            profile = qp_factor_profile(f, p)
        except (StructuralError, UncertifiedProfileError) as exc:
            row = f"{type(exc).__name__}: {exc}"
            outcomes[type(exc).__name__] += 1
        else:
            row = [
                (r.degree, str(r.slope), r.const_valuation, r.residual_degree, r.certified, r.granularity)
                for r in profile.factors
            ]
            outcomes["certified" if profile.fully_certified else "partial"] += 1
        digest.update(f"{p}|{list(f.coeffs)}|{row}\n".encode())
    return outcomes, digest.hexdigest()


def test_mixed_valuation_profiles_match_the_pinned_digest():
    """Every record of qp_factor_profile, or the error it raises, over the
    mixed-valuation corpus, pinned as one digest.  The digest was computed
    before the engine stopped lifting the unit/positive split."""
    outcomes, digest = profile_digest(mixed_valuation_corpus())
    assert outcomes == {"certified": 2805, "partial": 178, "StructuralError": 17}
    assert digest == "a32237ee6a1d28117841240cd4e29bd926850f60431b6521e73c66a62d1f7f25"


def repeated_class_corpus(size=3000, seed="repeated-class"):
    """Seeded monic inputs at p in {2, 3, 5, 7}: a unit residue class phi^e
    (deg phi 1 to 3, e = 2 or 3) perturbed by multiples of p^s, times a
    perturbed t^m (0 <= m <= 2) and up to two linear factors in other unit
    classes."""
    rng = random.Random(seed)
    for i in range(size):
        p = (2, 3, 5, 7)[i % 4]
        d = rng.randint(1, 3)
        phi = [rng.randint(-p, p) for _ in range(d)] + [1]
        if phi[0] % p == 0:
            phi[0] += 1
        phi = IntPoly(phi)
        e = rng.randint(2, 3)
        s = rng.randint(1, 4)
        f = phi**e + IntPoly([p**s * rng.randint(-2, 2) for _ in range(e * d)])
        m = rng.randint(0, 2)
        if m:
            low = [p ** rng.randint(1, 3) * rng.randint(-2, 2) for _ in range(m)]
            low[0] = low[0] or p
            f = f * IntPoly(low + [1])
        used = {0}
        for _ in range(rng.randint(0, 2)):
            c = rng.randrange(p)
            if c in used or phi.evaluate(c) % p == 0:
                continue
            used.add(c)
            f = f * IntPoly([-(c + p * rng.randint(-1, 1)), 1])
        yield p, f


def test_repeated_class_profiles_match_the_pinned_digest():
    """As for the mixed-valuation corpus.  The digest was re-pinned when the
    phi-adic refinement learned to peel a refined phi that divides f to full
    working precision: exactly the 4 rows that had run out of precision
    retries changed, each to the merged profiles of its factors over Z."""
    outcomes, digest = profile_digest(repeated_class_corpus())
    assert outcomes == {"certified": 2748, "partial": 185, "StructuralError": 67}
    assert digest == "0a7abf0cdf6ef69ec087ce5f3af1ca6c8436b8d2e5256826485cbce8087bb2a2"


def test_refined_phi_dividing_f_is_peeled():
    """t^4 - 2t^3 - 5t^2 + 6t - 7 = (t^2 - t + 1)(t^2 - t - 7) at p = 2: both
    factors reduce to t^2 + t + 1, whose first refinement t^2 - t + 1
    divides f exactly.  The profile is the merged profiles of the factors."""
    f = IntPoly([-7, 6, -5, -2, 1])
    parts = [IntPoly([1, -1, 1]), IntPoly([-7, -1, 1])]
    assert parts[0] * parts[1] == f
    merged = sorted(
        (r for g in parts for r in qp_factor_profile(g, 2).factors),
        key=lambda r: (r.slope, r.degree, not r.certified),
    )
    profile = qp_factor_profile(f, 2)
    assert profile.fully_certified
    assert list(profile.factors) == merged


@pytest.mark.parametrize(
    "f, p, expected",
    [
        # t^2 + 49 mod 2 is (t + 1)^2, and Q_2(sqrt(-1)) is ramified
        (T([1, 0, 49]), 2, [(2, 0, 0, 1, True, 1)]),
        # -1/7 and the two square roots of -1/7 in Q_2, since -7 = 1 mod 8
        (T([1, 7]) * T([1, 0, 7]), 2, [(1, 0, 0, 1, True, 1)] * 3),
        # 7t^2 + 1 = t^2 + 1 mod 3 is irreducible: an unramified quadratic
        (T([1, 7]) * T([1, 0, 7]), 3, [(1, 0, 0, 1, True, 1), (2, 0, 0, 2, True, 1)]),
        # Eisenstein after scaling: one totally ramified cubic
        (T([5, 0, 0, 49]), 5, [(3, Fraction(1, 3), 1, 1, True, 1)]),
    ],
    ids=["49t2+1@2", "lc-49@2", "lc-49@3", "49t3+5@5"],
)
def test_non_monic_records_are_pinned(f, p, expected):
    """f is profiled through lc^(n-1) f(t/lc), whose roots have the
    valuations of f's when lc is a unit at p."""
    got = [
        (r.degree, r.slope, r.const_valuation, r.residual_degree, r.certified, r.granularity)
        for r in qp_factor_profile(f, p).factors
    ]
    assert got == expected


def test_profile_slopes_must_match_the_newton_polygon(monkeypatch):
    # (t - 1)(t - 5) at p = 5 has root valuations 0 and 1; a fake engine
    # reports one quadratic of slope 1/2, which keeps v_p(f(0)) = 1
    def fake(self, g, depth):
        return [padic.FactorRecord(2, Fraction(1, 2), 1, 1, True)]

    monkeypatch.setattr(padic._Engine, "analyze", fake)
    with pytest.raises(ExactnessError, match="Newton polygon"):
        qp_factor_profile(IntPoly([-1, 1]) * IntPoly([-5, 1]), 5)


def _slope_key(r):
    return (r.slope, r.degree, not r.certified)


@pytest.mark.parametrize("order", ["engine", "reversed", "shuffled"])
def test_close_slopes_sort_as_fractions(order, monkeypatch):
    """Slopes 0 < 1/17 < 3/50 < 2/33 < 1/16 < 1 < 2, with large and close
    denominators, and unit records of degrees 1 and 2 tied on slope: the
    profile orders them as a Fraction key orders them, whatever order the
    engine returns its records in, and every slope is a Fraction in lowest
    terms."""
    f = (
        T([-1, 1]) * T([1, 1, 1]) * T([-2, 1]) * T([-4, 1])
        * T([-2] + [0] * 16 + [1]) * T([-2] + [0] * 15 + [1])
        * T([-4] + [0] * 32 + [1]) * T([-8] + [0] * 49 + [1])
    )
    engine = padic._Engine.analyze
    rng = random.Random(order)

    def reordered(self, g, depth):
        recs = engine(self, g, depth)
        if order == "reversed":
            recs.reverse()
        elif order == "shuffled":
            rng.shuffle(recs)
        given.append(list(recs))
        return recs

    given = []
    monkeypatch.setattr(padic._Engine, "analyze", reordered)
    profile = qp_factor_profile(f, 2)
    assert list(profile.factors) == sorted(given[0], key=_slope_key)
    assert [(r.slope, r.degree) for r in profile.factors] == [
        (Fraction(0), 1),
        (Fraction(0), 2),
        (Fraction(1, 17), 17),
        (Fraction(3, 50), 50),
        (Fraction(2, 33), 33),
        (Fraction(1, 16), 16),
        (Fraction(1), 1),
        (Fraction(2), 1),
    ]
    for r in profile.factors:
        assert type(r.slope) is Fraction
        assert r.slope.denominator > 0 and gcd(r.slope.numerator, r.slope.denominator) == 1


class _Degree:
    """A stand-in for f in padic._profile, which reads only f's degree and
    constant term."""

    def __init__(self, degree, const):
        self.degree, self.const = degree, const

    def __getitem__(self, i):
        assert i == 0
        return self.const


def test_profile_order_is_exact_past_float_precision():
    """1/(b + 1) < 1/b for b = 10^18, although both are the same float:
    _profile orders them exactly, and its walk meets the vertices."""
    b = 10**18
    recs = [
        FactorRecord(b, Fraction(1, b), 1, 1, True),
        FactorRecord(b + 1, Fraction(1, b + 1), 1, 1, True),
    ]
    assert float(recs[0].slope) == float(recs[1].slope)
    vertices = ((0, 2), (b, 1), (2 * b + 1, 0))
    profile = padic._profile(_Degree(2 * b + 1, 4), 2, recs, vertices)
    assert list(profile.factors) == recs[::-1]


def test_exhausted_precision_names_the_last_k_tried(monkeypatch, capsys):
    def short(self, g, depth):
        raise padic._PrecisionShort

    monkeypatch.setattr(padic._Engine, "analyze", short)
    a = (-1, -1, 0, 0, 1, 0, 1)  # h's profile falls short, then chi's: both engines run
    chi = chi_from_a(a, P2)
    first = 2 * vp(discriminant(chi), 2) + vp(chi[0], 2) + 4
    with pytest.raises(UncertifiedProfileError) as exc:
        qp_factor_profile(chi, 2)
    assert str(exc.value) == (
        f"precision retries exhausted after 4 attempts, the last at K={8 * first}"
    )
    out = classify(chi, P2)
    assert out.verdict == "inconclusive" and f"K={8 * first}" in out.detail
    assert main(["classify14", f"q=2; a={','.join(map(str, a))}"]) == 3
    capsys.readouterr()


def _weil_corpus(seed, per_q, qs=(3, 4, 8, 9, 25, 27)):
    """Irreducible degree-14 Weil polynomials with no real root.  a_i is
    drawn as u p^v with |a_i| below q^(i/2)/4, so the companion stays close
    to that of t^14 + q^7, whose roots are well inside (-2 sqrt q, 2 sqrt q),
    and the random p-powers give slopes on both sides of n/2."""
    rng = random.Random(seed)
    out = []
    for q in qs:
        params = WeilParams.from_q(q)
        p = params.p
        found = 0
        while found < per_q:
            a = []
            for i in range(1, 8):
                bound = max(1, int(q ** (i / 2) / 4))
                v = rng.randint(0, bound.bit_length() // p.bit_length())
                top = max(1, bound // p ** v)
                a.append(rng.randint(-top, top) * p ** v)
            chi = chi_from_a(tuple(a), params)
            verdict = is_weil(chi, params)
            if not verdict.is_weil or verdict.real_roots:
                continue
            _, parts = factor_weil(chi, verdict, params)
            if len(parts) == 1 and parts[0][1] == 1:
                out.append((params, chi, verdict))
                found += 1
    return out


def _fits(extra, blocks):
    """Can the records in extra fill the blocks exactly, each record inside
    a block of its slope whose granularity divides its degree?"""
    room = [b.degree for b in blocks]

    def place(i):
        if i == len(extra):
            return not any(room)
        r = extra[i]
        for j, b in enumerate(blocks):
            if (
                b.slope == r.slope
                and r.degree % b.granularity == 0
                and room[j] >= r.degree
            ):
                room[j] -= r.degree
                if place(i + 1):
                    return True
                room[j] += r.degree
        return False

    return place(0)


def test_profile_weil_keeps_every_record_of_chis_engine(monkeypatch):
    """On pinned inputs and a seeded corpus: every certified record of
    qp_factor_profile(chi) is in profile_weil's profile, and the rest of it
    fills chi's uncertified blocks; for odd n the records of slope n/2 are
    chi's engine's.  Both routes are reached, the companion route never runs
    the engine on chi, and it skips h's engine when h has no root of
    valuation below n/2."""
    calls = []
    engine = padic.qp_factor_profile

    def spy(f, p, **kw):
        calls.append(f.degree)
        return engine(f, p, **kw)

    monkeypatch.setattr(padic, "qp_factor_profile", spy)
    inputs = []
    for (q, a), (route, record) in PINNED_ROUTES.items():
        params = WeilParams.from_q(q)
        chi = chi_from_a(a, params)
        inputs.append((params, chi, is_weil(chi, params), route, record))
    corpus = _weil_corpus("profile_weil", 20, qs=(2, 3, 4, 8, 9, 25, 27, 32))
    inputs += [(*row, None, None) for row in corpus]
    seen = collections.Counter()
    for params, chi, verdict, pinned, record in inputs:
        calls.clear()
        profile = profile_weil(chi, verdict, params)
        route = "fallback" if 14 in calls else "companion"
        assert pinned in (None, route), (chi, route)
        assert record is None or record in profile.factors, (chi, profile)
        assert calls in ([], [7], [14], [7, 14]), calls
        reference = engine(chi, params.p)
        if route == "fallback":
            assert profile == reference
            assert (
                params.n % 2 == 0
                or verdict.companion[0] == 0
                or not engine(verdict.companion, params.p).fully_certified
            )
        middle = Fraction(params.n, 2)
        if params.n % 2:
            assert collections.Counter(
                r for r in profile.factors if r.slope == middle
            ) == collections.Counter(r for r in reference.factors if r.slope == middle)
        rest = collections.Counter(profile.factors)
        for r in reference.factors:
            if r.certified:
                assert rest[r] > 0, (params, chi, r)
                rest[r] -= 1
        blocks = [r for r in reference.factors if not r.certified]
        assert _fits(list(rest.elements()), blocks), (params, chi)
        seen[route] += 1
        seen["h's engine skipped"] += not calls
        seen["certified beyond chi's engine"] += (
            profile.fully_certified and not reference.fully_certified
        )
    assert all(seen[k] for k in ("companion", "fallback", "h's engine skipped")), seen
    assert seen["certified beyond chi's engine"], seen


def test_profile_weil_needs_a_weil_verdict():
    chi = chi_from_a((40, 0, 0, 0, 0, 0, 0), P2)
    verdict = is_weil(chi, P2)
    assert not verdict.is_weil
    with pytest.raises(StructuralError):
        profile_weil(chi, verdict, P2)
