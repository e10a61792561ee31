import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weilpoly.errors import DomainMismatchError
from weilpoly.quadreal import QuadReal, sign_with_radical, sqrt_bounds, surd_sign


def test_arithmetic_example():
    s2 = QuadReal.sqrt(2)
    assert (1 + s2) * (1 + s2) - 2 == QuadReal(1, 2, 2)


def test_square_radicand_folds():
    assert QuadReal.sqrt(4) == QuadReal(2)
    assert QuadReal(1, Fraction(1, 2), 9) == QuadReal(Fraction(5, 2))
    assert QuadReal(0, 3, 1) == QuadReal(3)


def test_sign_close_calls():
    s2 = QuadReal.sqrt(2)
    assert (QuadReal(7) - 5 * s2).sign() == -1  # 49 < 50
    assert (QuadReal(8) - 5 * s2).sign() == 1
    assert (s2 * s2 - 2).sign() == 0


def test_division_and_inverse():
    s5 = QuadReal.sqrt(5)
    x = QuadReal(3, 2, 5)
    assert x * x.inverse() == QuadReal(1)
    assert (s5 / s5) == QuadReal(1)
    with pytest.raises(ZeroDivisionError):
        QuadReal(0).inverse()


def test_mixed_radicands_rejected():
    with pytest.raises(DomainMismatchError):
        QuadReal.sqrt(2) + QuadReal.sqrt(3)
    # rational values mix freely
    assert QuadReal(2) + QuadReal.sqrt(3) == QuadReal(2, 1, 3)


def test_comparisons():
    s3 = QuadReal.sqrt(3)
    assert QuadReal(1) < s3 < QuadReal(2)
    assert s3 <= s3
    vals = sorted([QuadReal(2), s3, QuadReal(0), -s3])
    assert vals[0] == -s3 and vals[-1] == QuadReal(2)


def test_sqrt_bounds_tight():
    lo, hi = sqrt_bounds(2, 40)
    assert lo * lo <= 2 <= hi * hi
    assert hi - lo <= Fraction(1, 2 ** 40)


@settings(max_examples=150, deadline=None)
@given(
    a=st.fractions(min_value=-50, max_value=50),
    b=st.fractions(min_value=-50, max_value=50),
    q=st.sampled_from([2, 3, 5, 7, 10]),
)
def test_sign_matches_float(a, b, q):
    v = QuadReal(a, b, q)
    approx = float(a) + float(b) * math.sqrt(q)
    if abs(approx) > 1e-9:
        assert v.sign() == (1 if approx > 0 else -1)


@settings(max_examples=100, deadline=None)
@given(
    a=st.integers(-30, 30),
    b=st.integers(-30, 30),
    c=st.integers(-30, 30),
    w=st.integers(0, 60),
    q=st.sampled_from([2, 3, 5]),
)
def test_sign_with_radical_matches_float(a, b, c, w, q):
    base = QuadReal(a, b, q)
    coeff = QuadReal(c)
    approx = float(base) + c * math.sqrt(w)
    got = sign_with_radical(base, coeff, QuadReal(w))
    if abs(approx) > 1e-6:
        assert got == (1 if approx > 0 else -1)


@settings(max_examples=150, deadline=None)
@given(
    a1=st.fractions(min_value=-99, max_value=99),
    b1=st.fractions(min_value=-99, max_value=99),
    a2=st.fractions(min_value=-99, max_value=99),
    b2=st.fractions(min_value=-99, max_value=99),
    q=st.sampled_from([2, 3, 5, 7]),
)
def test_difference_sign_agrees_with_200bit_interval(a1, b1, a2, b2, q):
    u = QuadReal(a1, b1, q)
    v = QuadReal(a2, b2, q)
    lo, hi = (u - v).interval(200)
    if lo > 0:
        assert (u - v).sign() == 1
    elif hi < 0:
        assert (u - v).sign() == -1


def test_interval_encloses_value():
    v = QuadReal(Fraction(1, 3), Fraction(-2, 7), 3)
    lo, hi = v.interval(50)
    assert lo <= Fraction(float(v)) + Fraction(1, 10**6)
    assert hi - lo <= Fraction(2, 7) * Fraction(1, 2 ** 50) * 2
    assert float(lo) <= float(v) <= float(hi)


def test_surd_sign_exact():
    for q in (2, 3, 4, 8, 9, 25):
        r = math.isqrt(q)
        for a in range(-12, 13):
            for b in range(-6, 7):
                if r * r == q:
                    v = a + b * r
                    expected = (v > 0) - (v < 0)
                else:
                    expected = QuadReal(a, b, q).sign()
                assert surd_sign(a, b, q) == expected, (a, b, q)


# -- differential test against a (Fraction a, Fraction b) reference model -----

RADICANDS = [None, 2, 3, 5, 12, 4, 9]  # no radicand, non-square, square


def ref(a, b, q):
    """Reference value a + b*sqrt(q) as (a, b, q): a square q folded into a,
    and q None when b == 0."""
    if b and math.isqrt(q) ** 2 == q:
        a, b = a + b * math.isqrt(q), Fraction(0)
    return (a, b, q if b else None)


def ref_join(x, y):
    if x[2] is not None and y[2] is not None and x[2] != y[2]:
        return "mismatch"
    return x[2] if x[2] is not None else y[2]


def ref_sign(x):
    # t -> t|t| is increasing, so a + b sqrt(q) has the sign of a|a| + b|b|q
    a, b, q = x
    v = a * abs(a) + (b * abs(b) * q if b else 0)
    return (v > 0) - (v < 0)


def ref_mul(x, y, q):
    (a, b, _), (c, e, _) = x, y
    return ref(a * c + (b * e * q if b and e else 0), a * e + b * c, q)


def ref_inverse(x):
    a, b, q = x
    n = a * a - (b * b * q if b else 0)
    return ref(a / n, -b / n, q)


def check_matches(v, x):
    """v is the QuadReal of the reference value x, in canonical form."""
    assert (v.a, v.b, v.q) == x
    assert v.d > 0 and math.gcd(v.na, v.nb, v.d) == 1
    assert v.sign() == ref_sign(x)
    if x[1] == 0:
        assert v == x[0] and hash(v) == hash(x[0])
        if x[0].denominator == 1:
            assert v == int(x[0]) and hash(v) == hash(int(x[0]))


fracs = st.fractions(min_value=-60, max_value=60, max_denominator=40)


@st.composite
def quadreals(draw):
    q = draw(st.sampled_from(RADICANDS))
    a = draw(fracs)
    b = draw(fracs) if q is not None else Fraction(0)
    return QuadReal(a, b, q), ref(a, b, q)


@settings(max_examples=400, deadline=None)
@given(u=quadreals(), v=quadreals(), k=st.integers(-3, 4))
def test_matches_fraction_pair_model(u, v, k):
    (x, rx), (y, ry) = u, v
    check_matches(x, rx)
    q = ref_join(rx, ry)
    if q == "mismatch":
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            with pytest.raises(DomainMismatchError):
                op(x, y)
        assert x != y
        return
    check_matches(x + y, ref(rx[0] + ry[0], rx[1] + ry[1], q))
    check_matches(x - y, ref(rx[0] - ry[0], rx[1] - ry[1], q))
    check_matches(x * y, ref_mul(rx, ry, q))
    assert (x == y) == (rx == ry)
    if x == y:
        assert hash(x) == hash(y)
    if ry[0] == ry[1] == 0:
        with pytest.raises(ZeroDivisionError):
            y.inverse()
        with pytest.raises(ZeroDivisionError):
            x / y
    else:
        check_matches(y.inverse(), ref_inverse(ry))
        check_matches(x / y, ref_mul(rx, ref_inverse(ry), q))
    if k < 0 and rx[0] == rx[1] == 0:
        with pytest.raises(ZeroDivisionError):
            x ** k
    else:
        expected = ref(Fraction(1), Fraction(0), None)
        for _ in range(abs(k)):
            expected = ref_mul(expected, rx if k > 0 else ref_inverse(rx), rx[2])
        check_matches(x ** k, expected)
