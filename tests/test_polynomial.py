from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weilpoly.errors import StructuralError
from weilpoly.polynomial import (
    IntPoly,
    QuadPoly,
    poly_from_string,
    poly_to_string,
)
from weilpoly.quadreal import QuadReal

ints = st.lists(st.integers(-20, 20), min_size=0, max_size=8)


def test_spec_arithmetic_examples():
    # (t^2+1)(t-1) = t^3 - t^2 + t - 1
    assert IntPoly([1, 0, 1]) * IntPoly([-1, 1]) == IntPoly([-1, 1, -1, 1])
    assert IntPoly([0, 0, 0, 0, 0, 0, 1]).derivative() == IntPoly([0, 0, 0, 0, 0, 6])
    # evaluate t^2 - 2 at 1 + sqrt(2)
    val = IntPoly([-2, 0, 1]).evaluate(QuadReal(1, 1, 2))
    assert val == QuadReal(1, 2, 2)


@settings(max_examples=100, deadline=None)
@given(ints, ints, ints)
def test_ring_axioms(a, b, c):
    pa, pb, pc = IntPoly(a), IntPoly(b), IntPoly(c)
    assert pa + pb == pb + pa
    assert pa * pb == pb * pa
    assert pa * (pb + pc) == pa * pb + pa * pc
    assert (pa - pa).is_zero()


@settings(max_examples=60, deadline=None)
@given(ints, st.integers(-5, 5), st.integers(-5, 5))
def test_compose_linear_matches_evaluation(a, alpha, beta):
    p = IntPoly(a)
    comp = p.compose_linear(alpha, beta)
    for x in (-2, 0, 3):
        assert comp.evaluate(x) == p.evaluate(alpha * x + beta)


def test_derivative_degree():
    p = IntPoly([1, 2, 3, 4])
    assert p.derivative().degree == p.degree - 1
    assert IntPoly([5]).derivative().is_zero()


def test_divmod_monic_roundtrip():
    f = IntPoly([3, -2, 0, 7, 1])
    g = IntPoly([4, 1, 1])
    q, r = f.divmod_monic(g)
    assert q * g + r == f
    assert r.degree < g.degree


def test_quadpoly_gcd_and_squarefree():
    x_minus_1 = QuadPoly([-1, 1])
    p = x_minus_1 * x_minus_1 * QuadPoly([3, 1])
    sf = p.squarefree_part()
    assert sf.degree == 2
    assert sf.evaluate(1).is_zero() and sf.evaluate(-3).is_zero()
    # memoised on the instance; the result is its own squarefree part
    assert p.squarefree_part() is sf
    assert sf.squarefree_part() is sf


small_fractions = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 6))


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 4, 9, None]),  # non-square, square, no radicand
    st.lists(st.tuples(small_fractions, small_fractions), min_size=1, max_size=6),
    small_fractions,
    st.integers(-9, 9),
    st.builds(Fraction, st.integers(-30, -1), st.integers(2, 7)),
)
def test_sign_at_matches_evaluate(q, parts, root, x_int, x_neg):
    p = QuadPoly([QuadReal(a, b if q else 0, q) for a, b in parts], q=q)
    with_root = p * QuadPoly([-root, 1])
    for poly in (p, with_root):
        for x in (x_int, x_neg, root, QuadReal(root)):
            assert poly.sign_at(x) == poly.evaluate(x).sign()
    assert with_root.sign_at(root) == 0


def test_parser_roundtrip():
    p = IntPoly([2, 0, -1, 7])
    assert poly_from_string(poly_to_string(p)) == p
    assert poly_to_string(poly_from_string("2, 0, 1")) == "2,0,1"


def test_parser_diagnostics_carry_position():
    with pytest.raises(StructuralError, match="position 4"):
        poly_from_string("2,0,x,1")
    with pytest.raises(StructuralError, match="position 0"):
        poly_from_string("")


def test_content_primitive():
    c, prim = IntPoly([6, -12, 18]).primitive()
    assert c == 6 and prim == IntPoly([1, -2, 3])
    c, prim = IntPoly([-4, -8]).primitive()
    assert c == -4 and prim.lc() > 0
