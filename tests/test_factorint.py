
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weilpoly.factorint import (
    discriminant,
    factor_over_integers,
    is_irreducible_over_z,
    poly_gcd,
    squarefree_decomposition,
)
from weilpoly.polynomial import IntPoly


def names(factors):
    return sorted((str(g), m) for g, m in factors)


def test_spec_examples():
    _, fac = factor_over_integers(IntPoly([4, 0, 3, 0, 1]))
    assert names(fac) == sorted([("t^2-t+2", 1), ("t^2+t+2", 1)])
    _, fac = factor_over_integers(IntPoly([1, 0, 1]))
    assert names(fac) == [("t^2+1", 1)]
    p = IntPoly([-1, 1]) ** 2 * IntPoly([2, 1])
    _, fac = factor_over_integers(p)
    assert names(fac) == [("t+2", 1), ("t-1", 2)]


def test_factors_multiply_back_exactly(rng):
    for _ in range(60):
        f = IntPoly([rng.choice([1, 2, 3, -1])])
        for _ in range(rng.randint(1, 3)):
            d = rng.randint(1, 4)
            g = IntPoly([rng.randint(-5, 5) for _ in range(d)] + [rng.choice([1, 1, 2, -1])])
            if g.degree >= 1:
                f = f * g ** rng.randint(1, 2)
        if f.degree < 1:
            continue
        c, fac = factor_over_integers(f)
        back = IntPoly([c])
        for g, m in fac:
            back = back * g ** m
        assert back == f


def test_irreducibility_calls():
    assert is_irreducible_over_z(IntPoly([2, 1, 1]))
    assert not is_irreducible_over_z(IntPoly([64] + [0] * 11 + [1]))
    # t^14 + 128 = (t^2+2) * (degree 12)
    assert not is_irreducible_over_z(IntPoly([128] + [0] * 13 + [1]))


def test_cyclotomic_like_degree_14():
    # irreducible degree-14 Weil polynomial (ordinary at q=2)
    from weilpoly.weil import WeilParams, chi_from_a

    chi = chi_from_a((0, 0, -1, 0, 0, 0, 0), WeilParams.from_q(2))
    assert is_irreducible_over_z(chi)


def test_squarefree_decomposition_structure():
    f = IntPoly([-1, 1]) ** 3 * IntPoly([1, 1]) * IntPoly([2, 0, 1]) ** 2
    parts = squarefree_decomposition(f)
    assert sorted((str(g), m) for g, m in parts) == [
        ("t+1", 1),
        ("t-1", 3),
        ("t^2+2", 2),
    ]


def test_gcd_and_discriminant():
    f = IntPoly([-1, 1]) * IntPoly([2, 1])
    g = IntPoly([-1, 1]) * IntPoly([5, 1])
    assert poly_gcd(f, g) == IntPoly([-1, 1])
    assert discriminant(IntPoly([-2, 0, 1])) == 8
    assert discriminant(IntPoly([1, 1, 1])) == -3


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=2, max_size=6))
def test_random_factorizations_verify(coeffs):
    f = IntPoly(coeffs + [1])
    if f.degree < 1:
        return
    c, fac = factor_over_integers(f)
    back = IntPoly([c])
    for g, m in fac:
        back = back * g ** m
    assert back == f
    for g, _ in fac:
        assert g.degree >= 1


small_polys = st.lists(st.integers(-6, 6), min_size=1, max_size=5).map(IntPoly)


@settings(max_examples=80, deadline=None)
@given(a=small_polys, b=small_polys, c=small_polys)
def test_poly_gcd_divides_and_matches_sympy(a, b, c):
    sympy = pytest.importorskip("sympy")
    f, g = a * c, b * c
    d = poly_gcd(f, g)
    x = sympy.Symbol("x")

    def expr(p):
        return sum(coef * x**i for i, coef in enumerate(p.coeffs))

    if f.is_zero() and g.is_zero():
        assert d.is_zero()
        return
    assert d.lc() > 0 and d.content() == 1
    for p in (f, g):
        assert sympy.rem(expr(p), expr(d), x) == 0
    ref = sympy.Poly(sympy.gcd(expr(f), expr(g)), x)
    _, ref_primitive = ref.primitive()
    if ref_primitive.LC() < 0:
        ref_primitive = -ref_primitive
    assert sympy.Poly(expr(d), x) == ref_primitive


@pytest.mark.parametrize(
    "coeffs, disc",
    [
        ([3, 2], 1),
        ([2, 0, 0, 1], -108),
        ([1] + [0] * 13 + [1], -11112006825558016),
        ([128] + [0] * 13 + [1], -27511996332341408172722630646177877005959168),
        ([-1, 1, 0, 1, -1, 5, 3], 162111273),
        ([6, -5, 0, 4, 0, 0, -12], 96993639247104),
        ([1, -1, 0, 0, -1, 1], 0),  # (t - 1)^2 (t + 1) (t^2 + 1)
    ],
)
def test_discriminant_pinned(coeffs, disc):
    got = discriminant(IntPoly(coeffs))
    assert type(got) is int and got == disc


@settings(max_examples=120, deadline=None)
@given(
    body=st.lists(st.integers(-9, 9), min_size=1, max_size=14),
    lc=st.sampled_from([1, -1, 2, -3, 6, 7]),
    square=st.lists(st.integers(-3, 3), min_size=0, max_size=2),
)
def test_discriminant_matches_sympy(body, lc, square):
    """Degrees 1..14 (up to 18 with a square factor), monic or not."""
    sympy = pytest.importorskip("sympy")
    f = IntPoly(body + [lc])
    if square:
        f = f * IntPoly(square + [1]) ** 2
    x = sympy.Symbol("x")
    expected = sympy.discriminant(sympy.Poly(list(reversed(f.coeffs)), x))
    got = discriminant(f)
    assert type(got) is int and got == int(expected)
