from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from weilpoly.intervals import eval_poly_interval
from weilpoly.quadreal import QuadPoly, QuadReal

small_fractions = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 6))


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 4, 9, None]),  # non-square, square, no radicand
    st.lists(st.tuples(small_fractions, small_fractions), min_size=0, max_size=6),
    small_fractions,
    st.builds(Fraction, st.integers(1, 40), st.integers(1, 12)),
    st.builds(Fraction, st.integers(0, 8), st.just(8)),
    st.integers(1, 48),
)
def test_enclosure_contains_values_and_nests(q, parts, lo, width, t, bits):
    p = QuadPoly([QuadReal(a, b if q else 0, q) for a, b in parts], q=q)
    hi = lo + width
    mid = lo + t * width
    elo, ehi = eval_poly_interval(p, lo, hi, bits)
    for x in (lo, mid, hi):
        v = p.evaluate(x)
        assert v >= elo and v <= ehi, (x, v, elo, ehi)
    # tighter as bits grows, and on a sub-bracket
    for sub in ((lo, hi, bits + 7), (lo, mid, bits), (mid, hi, 2 * bits)):
        slo, shi = eval_poly_interval(p, *sub)
        assert elo <= slo <= shi <= ehi, (sub, slo, shi, elo, ehi)


def test_point_enclosure_of_rational_poly_is_exact():
    p = QuadPoly([Fraction(1, 3), -2, Fraction(5, 7)])
    x = Fraction(-3, 4)
    v = p.evaluate(x).to_fraction()
    assert eval_poly_interval(p, x, x, 8) == (v, v)
    assert eval_poly_interval(QuadPoly([]), x, x, 8) == (0, 0)
