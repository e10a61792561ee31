
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weilpoly import factorint
from weilpoly.factorint import (
    discriminant,
    factor_over_integers,
    is_irreducible_over_z,
    poly_gcd,
    squarefree_decomposition,
)
from weilpoly.polynomial import IntPoly
from weilpoly.weil import WeilParams, chi_from_a, companion_poly


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


def sympy_factorization(f: IntPoly):
    """sympy.factor_list of f as (content, [(coefficients, multiplicity)]),
    factors with positive leading coefficient, sorted like ours."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    cont, parts = sympy.factor_list(sympy.Poly(list(reversed(f.coeffs)), x))
    cont, out = int(cont), []
    for g, m in parts:
        coeffs = tuple(int(c) for c in reversed(g.all_coeffs()))
        if coeffs[-1] < 0:
            coeffs, cont = tuple(-c for c in coeffs), cont * (-1) ** m
        out.append((coeffs, m))
    return cont, sorted(out, key=lambda t: (len(t[0]), t[0]))


def ours(f: IntPoly):
    cont, parts = factor_over_integers(f)
    return cont, [(tuple(g.coeffs), m) for g, m in parts]


def cyclotomic(n: int) -> IntPoly:
    """Phi_n as t^n - 1 divided by Phi_d for the proper divisors d of n."""
    f = IntPoly([-1] + [0] * (n - 1) + [1])
    for d in range(1, n):
        if n % d == 0:
            f = f.divmod_monic(cyclotomic(d))[0]
    return f


T = IntPoly
P2 = WeilParams.from_q(2)


def _product(*fs):
    out = IntPoly.one()
    for f in fs:
        out = out * f
    return out


@pytest.mark.parametrize(
    "f, exit_",
    [
        # a q=2 scan companion: degrees {1,2,4} mod 3, {3,4} mod 5 and
        # {2,5} mod 7 share no proper subset sum
        (companion_poly(chi_from_a((0, 0, -1, 0, 0, 0, 0), P2), P2), "sieve"),
        # Swinnerton-Dyer polynomials split at every prime
        (T([1, 0, -10, 0, 1]), "lift"),
        (T([576, 0, -960, 0, 352, 0, -40, 0, 1]), "lift"),
        (_product(*(T([-k, 1]) for k in range(1, 8))), "lift"),
        (_product(cyclotomic(4), cyclotomic(8), cyclotomic(11)), "lift"),
        # squarefree, but not mod 3, 5 or 7 (each divides some n)
        (_product(cyclotomic(5), cyclotomic(7), cyclotomic(12)), "yun"),
        (T([-2, 0, 1]) ** 2 * T([3, 1, 0, 1]), "yun"),
        (T([-6]) * T([-1, 3, 2]) * T([5, -1, 0, 3]) * T([-2, 5]), "lift"),
    ],
    ids=["sieve", "sd4", "sd8", "linear7", "cyclotomic", "cyclotomic-ramified", "yun", "non-monic"],
)
def test_each_exit_matches_sympy(f, exit_, monkeypatch):
    """factor_over_integers equals sympy.factor_list, and f leaves by the
    named exit: proven irreducible by the degree sieve, split by Hensel
    lifting and recombination, or first split by Yun's decomposition."""
    seen = set()
    for name, label in (("hensel_lift_multi", "lift"), ("squarefree_decomposition", "yun")):
        orig = getattr(factorint, name)

        def spy(*args, _orig=orig, _label=label):
            seen.add(_label)
            return _orig(*args)

        monkeypatch.setattr(factorint, name, spy)
    assert ours(f) == sympy_factorization(f)
    assert seen == ({"yun", "lift"} if exit_ == "yun" else {exit_} - {"sieve"})


def test_non_squarefree_inputs_try_few_primes(monkeypatch):
    """Without a squarefree reduction at the first _SIEVE_PRIMES odd primes
    the search stops, and Yun's decomposition takes over."""
    tried = []
    orig = factorint.PrimeField

    def spy(p):
        tried.append(p)
        return orig(p)

    monkeypatch.setattr(factorint, "PrimeField", spy)
    f = T([-2, 0, 1]) ** 2 * T([3, 1, 0, 1])
    assert factorint._factor_primitive(f, False) is None
    assert len(tried) == factorint._SIEVE_PRIMES and tried[0] == 3


@pytest.mark.slow
def test_every_q2_box_companion_matches_sympy():
    """All 3^7 companions of the q=2 box |a_i| <= 1 against sympy."""
    for a in itertools.product((-1, 0, 1), repeat=7):
        h = companion_poly(chi_from_a(a, P2), P2)
        assert ours(h) == sympy_factorization(h), a
