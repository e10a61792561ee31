from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weilpoly.oracle import count_real_roots_descartes
from weilpoly.polynomial import QuadPoly
from weilpoly.quadreal import QuadReal
from weilpoly.sturm import (
    INF,
    NEG_INF,
    all_roots_real_positive,
    isolate_real_roots,
    refine_interval,
    sturm_count,
)

from conftest import expand_from_roots


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
