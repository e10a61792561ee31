import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weilpoly.oracle import count_real_roots_descartes
from weilpoly.quadreal import QuadPoly, QuadReal
from weilpoly.sturm import (
    INF,
    NEG_INF,
    all_roots_real_positive,
    isolate_real_roots,
    refine_interval,
    sturm_chain,
    sturm_count,
)

from conftest import expand_from_roots

# isolation_digest(isolation_corpus()) on the Q(sqrt q) field-Euclid chains
PINNED_ISOLATION_DIGEST = "873030f84dbd6344fc25e4fa086c286a5a3e5b6878815604a8a14ec5bb6e5fb5"


def qpoly(coeffs, q=None):
    return QuadPoly(coeffs, q=q)


def test_spec_examples():
    assert sturm_count(qpoly([-2, 0, 1], q=2), 0, 2) == 1
    assert sturm_count(qpoly([-3, 7, -5, 1]), 0, 4) == 2  # (x-1)^2 (x-3)
    six = list(reversed([1, -21, 175, -735, 1624, -1764, 720]))
    assert sturm_count(qpoly(six), 0, INF) == 6


def test_all_roots_real_positive_examples():
    assert all_roots_real_positive(qpoly([-2, 5, -4, 1]))  # (x-1)^2 (x-2)
    assert not all_roots_real_positive(qpoly([1, 0, 1]))  # x^2 + 1
    assert not all_roots_real_positive(qpoly([0, 3, -3, 1]))  # root at 0
    with pytest.raises(ValueError):
        all_roots_real_positive(QuadPoly([]))


def test_half_open_convention_and_composition():
    p = qpoly([-2, 1])  # root at 2
    assert sturm_count(p, 0, 2) == 1  # hi endpoint included
    assert sturm_count(p, 2, 5) == 0  # lo endpoint excluded
    p2 = qpoly(expand_from_roots([1, 2, 5]))
    for a, b, c in [(0, 2, 6), (1, 2, 3), (-1, 1, 5)]:
        assert sturm_count(p2, a, b) + sturm_count(p2, b, c) == sturm_count(p2, a, c)


@settings(max_examples=120, deadline=None)
@given(
    st.lists(st.integers(-9, 9), min_size=2, max_size=7),
    st.sampled_from([None, 2, 3, 5]),
)
def test_count_matches_descartes_oracle(coeffs, q):
    p = QuadPoly(coeffs, q=q)
    if p.degree < 1:
        return
    assert sturm_count(p) == count_real_roots_descartes(p)


def vanishing_order(f: QuadPoly, r: Fraction) -> int:
    """How many of f, f', f'', ... vanish at r, by exact evaluation."""
    k = 0
    while not f.is_zero() and f.evaluate(r).is_zero():
        f, k = f.derivative(), k + 1
    return k


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=1, max_size=5),
    st.sampled_from([2, 3, 5, 7]),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3)),
)
def test_surd_chain_counts_match_descartes_oracle(parts, q, r):
    """Chains over Z[sqrt q]: a planted double root r on sqrt(q) coefficients."""
    f = QuadPoly([QuadReal(a, b, q) for a, b in parts], q=q)
    if f.is_zero():
        return
    lin = QuadPoly([-r, 1])
    p = f * lin * lin
    n = count_real_roots_descartes(p)
    assert sturm_count(p) == n
    iso = isolate_real_roots(p)
    assert len(iso) == n
    f_total = sum(m for *_, m in isolate_real_roots(f)) if f.degree > 0 else 0
    assert sum(m for *_, m in iso) == f_total + 2
    [m] = [m for lo, hi, m in iso if lo < r <= hi or lo == r == hi]
    assert m == 2 + vanishing_order(f, r)


def test_surd_chain_growth_stays_bounded():
    """The primitive pseudo-remainder sequence over Z[sqrt q] keeps the chain
    of a degree-10 polynomial with sqrt(q) coefficients below 2^14 bits (at
    most 12,199 bits here); the chains built by field division reached
    0.9 to 1.25 million bits on these inputs."""
    rng = random.Random(3)
    for q in (2, 3, 5, 7):
        coeffs = [QuadReal(rng.randint(-9, 9), rng.randint(-9, 9), q) for _ in range(10)]
        lc = QuadReal(rng.randint(1, 3), rng.randint(-3, 3), q)
        chain = sturm_chain(QuadPoly([*coeffs, lc], q=q))
        assert len(chain) == 11
        for member in chain:
            a, b, d = member.integer_form()
            assert max(abs(x).bit_length() for x in (*a, *(b or ()), d)) < 16384


def test_count_with_quadreal_endpoints():
    # roots of x^2 - 2 are exactly +-sqrt(2)
    p = qpoly([-2, 0, 1], q=2)
    s2 = QuadReal.sqrt(2)
    assert sturm_count(p, 0, s2) == 1  # sqrt(2) included
    assert sturm_count(p, s2, INF) == 0
    assert sturm_count(p, NEG_INF, -s2) == 1


def test_isolation_brackets_single_roots(rng):
    for _ in range(40):
        roots = sorted(rng.sample(range(-12, 13), rng.randint(1, 5)))
        p = qpoly(expand_from_roots(roots))
        iso = isolate_real_roots(p)
        assert len(iso) == len(roots)
        for (lo, hi, mult), r in zip(iso, roots):
            assert lo <= r <= hi
            assert mult == 1


def test_isolation_multiplicities():
    p = qpoly(expand_from_roots([2, 2, 2, -1]))
    iso = isolate_real_roots(p)
    assert [m for _, _, m in iso] == [1, 3]


def test_refine_interval_narrows():
    p = qpoly([-2, 0, 1], q=2).squarefree_part()
    for lo, hi in [(Fraction(1), Fraction(2)), (Fraction(1, 3), Fraction(5, 3))]:
        width = Fraction(1, 1 << 30)
        lo2, hi2 = refine_interval(p, lo, hi, width)
        assert type(lo2) is Fraction and type(hi2) is Fraction
        assert 0 < hi2 - lo2 <= width
        assert lo2 * lo2 < 2 < hi2 * hi2  # sqrt(2) lies strictly inside
    # lo = 1 is itself a root, excluded from the half-open bracket (1, 5/2]
    p3 = qpoly(expand_from_roots([1, 2, 3]))
    lo2, hi2 = refine_interval(p3, Fraction(1), Fraction(5, 2), Fraction(1, 1 << 20))
    assert type(lo2) is Fraction and type(hi2) is Fraction
    assert 1 < lo2 <= 2 <= hi2 and hi2 - lo2 <= Fraction(1, 1 << 20)


def isolation_corpus():
    """A seeded corpus of (q, p): 12 polynomials of degree 1 to 8 for each of
    no radicand, non-square q and square q; every third has a planted
    double rational root."""
    rng = random.Random(17)
    for q in (None, 2, 3, 4, 5, 9):
        for n in range(12):
            deg = rng.randint(1, 6)
            coeffs = [
                QuadReal(rng.randint(-9, 9), rng.randint(-3, 3) if q else 0, q)
                for _ in range(deg)
            ]
            p = QuadPoly([*coeffs, rng.choice((1, 2, 3))], q=q)
            if n % 3 == 0:
                lin = QuadPoly([Fraction(-rng.randint(-6, 6), rng.randint(1, 3)), 1])
                p = p * lin * lin
            yield q, p


def isolation_digest(corpus) -> tuple[int, str]:
    """(number of inputs, sha256 of every isolation, refinement and count)."""
    h = hashlib.sha256()
    n = 0
    width = Fraction(1, 1 << 40)
    ranges = ((NEG_INF, INF), (Fraction(-3, 2), Fraction(2)), (0, INF))
    for q, p in corpus:
        iso = isolate_real_roots(p)
        sf = p.squarefree_part()
        refined = [refine_interval(sf, lo, hi, width) for lo, hi, _ in iso]
        counts = [sturm_count(p, lo, hi) for lo, hi in ranges]
        h.update(f"{q}|{iso}|{refined}|{counts}\n".encode())
        n += 1
    return n, h.hexdigest()


def test_isolation_matches_parent_digest():
    """Brackets, multiplicities, refinements and counts, bit for bit."""
    assert isolation_digest(isolation_corpus()) == (72, PINNED_ISOLATION_DIGEST)
