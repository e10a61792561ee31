
import hashlib
import itertools
import random
import sys
import time
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weilpoly import arith, factorint, fpoly, padic, weil
from weilpoly.classify7 import classify
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


def test_monicize_returns_a_monic_input_itself():
    """The Q_p profile monicizes every input, and on the degree-14 path every
    input is monic already."""
    f = IntPoly([2, 0, 3, 1])
    assert factorint._monicize(f) is f
    # 2t^2 + 3t + 1 has roots -1/2 and -1; the monic scaling has -1 and -2
    assert factorint._monicize(IntPoly([1, 3, 2])) == IntPoly([2, 3, 1])


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


# (f, the stages it passes through), with their ids below
EXITS = [
    # a q=2 scan companion: degrees {1,2,4} mod 3, {3,4} mod 5 and
    # {2,5} mod 7 share no proper subset sum
    (companion_poly(chi_from_a((0, 0, -1, 0, 0, 0, 0), P2), P2), set()),
    # Swinnerton-Dyer polynomials split at every prime, so the sieve
    # cannot settle them; a prime value proves them irreducible instead
    (T([1, 0, -10, 0, 1]), set()),
    (T([576, 0, -960, 0, 352, 0, -40, 0, 1]), set()),
    (_product(*(T([-k, 1]) for k in range(1, 8))), {"roots"}),
    (_product(cyclotomic(4), cyclotomic(8), cyclotomic(11)), {"lift"}),
    # squarefree, but not mod 3, 5 or 7 (each divides some n, so the
    # discriminant): the sieve walks past them to 11, 13 and 17
    (_product(cyclotomic(5), cyclotomic(7), cyclotomic(12)), {"lift"}),
    # Yun's parts t^2-2 and t^3+t+3 have no integer root, so degrees 1
    # and n-1 go and the sieve proves each irreducible
    (T([-2, 0, 1]) ** 2 * T([3, 1, 0, 1]), {"yun"}),
    # the rational root 2/5 goes first, the cubic and quadratic are lifted
    (T([-6]) * T([-1, 3, 2]) * T([5, -1, 0, 3]) * T([-2, 5]), {"roots", "lift"}),
    # 0 among the roots: the others are read off the t coefficient
    (T([0, 1]) * T([-1, 1]) * T([2, 1]) * T([3, 1, 1]), {"roots"}),
    (T([0, 1]) * T([-1, 1]) * T([-17, 1]) * T([22, 1]) * T([7, 0, 1]), {"roots"}),
    # a repeated integer root: no prime keeps f squarefree, so Yun runs
    (T([-2, 1]) ** 2 * T([3, 1]) * T([1, 0, 1]), {"yun", "roots"}),
    (T([0, 1]) ** 3 * T([-1, 1]) * T([5, 0, 1]), {"yun", "roots"}),
    # squarefree, but not mod 3, 5 or 7: the sieve walks past the primes
    # dividing the discriminant, and the roots must still be divided out
    # before degrees 1 and n-1 leave the sieve; (t-2)(t^2-105) has only
    # those degrees, so without the root step it would be called
    # irreducible
    (T([-2, 1]) * T([-105, 0, 1]), {"roots"}),
    (_product(cyclotomic(5), cyclotomic(7), cyclotomic(12), T([-2, 1])), {"roots", "lift"}),
    # non-monic, with rational roots 2/3 and -4/5
    (T([-2, 3]) * T([4, 5]) * T([1, 0, 2]), {"roots"}),
    (T([12]) * T([-2, 3]) * T([1, 1, 0, 7]), {"roots"}),
    # lc 49: the monic scaling's leading coefficient is the integer 1
    (T([1, 0, 49]), set()),
    (T([1, 7]) * T([1, 0, 7]), {"roots"}),
]
EXIT_IDS = [
    "sieve", "sd4", "sd8", "linear7", "cyclotomic", "cyclotomic-ramified", "yun", "non-monic",
    "root-zero", "root-zero-wide", "root-repeated", "root-zero-repeated", "root-ramified-trap",
    "root-ramified-cyclotomic", "root-non-monic", "root-non-monic-content", "lc-49",
    "root-lc-49",
]


@pytest.mark.parametrize("f, stages", EXITS, ids=EXIT_IDS)
def test_each_exit_matches_sympy(f, stages, monkeypatch):
    """factor_over_integers equals sympy.factor_list, and f passes through
    the named stages: integer roots divided out first ("roots"), Hensel
    lifting and recombination ("lift"), Yun's decomposition first ("yun");
    none of them when the degree sieve or a prime value proves f
    irreducible."""
    got, seen = ours_with_stages(f, monkeypatch)
    assert got == sympy_factorization(f)
    assert seen == stages


def ours_with_stages(f: IntPoly, monkeypatch):
    """ours(f) and the stages it passed through: "roots" when _integer_roots
    divided out a linear factor, "lift" and "yun" when hensel_lift_multi and
    squarefree_decomposition ran."""
    seen = set()
    for name, label in (("hensel_lift_multi", "lift"), ("squarefree_decomposition", "yun")):
        orig = getattr(factorint, name)

        def spy(*args, _orig=orig, _label=label):
            seen.add(_label)
            return _orig(*args)

        monkeypatch.setattr(factorint, name, spy)
    roots = factorint._integer_roots

    def roots_spy(*args):
        linear, cofactor = roots(*args)
        if linear:
            seen.add("roots")
        return linear, cofactor

    monkeypatch.setattr(factorint, "_integer_roots", roots_spy)
    return ours(f), seen


P8 = WeilParams.from_q(8)


@pytest.mark.parametrize(
    "roots, rest",
    [
        ((-5, 5), T([1, 0, -30, 0, 1])),  # roots +-sqrt(15 +- sqrt 224), inside
        ((-5, -4, 0, 3, 5), T([-2, 0, 1])),
        ((1, 2, 5), T([1, -3, 0, 1])),  # the cubic's roots lie in (-2, 2)
        ((-5, -3, -1, 1, 3, 5), T([-30, 0, 1])),
        ((-2,), T([1, -3, 1]) * T([-3, 0, 1]) * T([1, -3, 0, 1])),
    ],
)
def test_q8_companions_with_integer_roots(roots, rest, monkeypatch):
    """Degree-7 companions at q=8 (roots in [-2 sqrt 8, 2 sqrt 8], so up to
    +-5) with integer roots, through the Weil chi they come from."""
    h = _product(*(T([-r, 1]) for r in roots), rest)
    chi = weil._from_companion(h, P8.q)
    verdict = weil.is_weil(chi, P8)
    assert verdict.is_weil and verdict.companion == h
    got, seen = ours_with_stages(h, monkeypatch)
    assert got == sympy_factorization(h)
    assert "roots" in seen
    _, parts = weil.factor_weil(chi, verdict, P8)
    assert [(g.degree, m) for g, m in parts][: len(roots)] == [(2, 1)] * len(roots)


@pytest.mark.parametrize(
    "f",
    [T([-(10**30), 0, 1]), T([-(10**15), 1]) * T([1, 0, 1]), T([-(10**150), 1]) * T([1, 0, 1])],
    ids=["square-1e30", "root-1e15", "root-1e150"],
)
def test_root_step_cost_does_not_grow_with_the_root(f):
    """Newton lifting reaches a root r in O(log log r) steps: no divisor of
    f(0) is ever tried."""
    ours(f)  # warm
    best = min(_timed(ours, f) for _ in range(3))
    assert ours(f) == sympy_factorization(f)
    assert best < 0.05, best


def _timed(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def primes_tried(monkeypatch) -> list[int]:
    """The primes factorint makes a PrimeField of, in order, from now on."""
    tried = []
    orig = factorint.PrimeField

    def spy(p):
        tried.append(p)
        return orig(p)

    monkeypatch.setattr(factorint, "PrimeField", spy)
    return tried


def sieve_reads(monkeypatch) -> list[int]:
    """The primes of the degree sieve's reads, in order, from now on: the
    (prime, degrees) pairs factorint._sieve returns, which it reads at
    p = 2 off fpoly.factor's memo and computes at the odd primes."""
    read = []
    orig = factorint._sieve

    def spy(*args):
        out = orig(*args)
        read.extend(p for p, _ in out[3])
        return out

    monkeypatch.setattr(factorint, "_sieve", spy)
    return read


def test_a_zero_discriminant_input_goes_to_yun_before_any_prime(monkeypatch):
    """disc(f) = 0 decides that f is not squarefree: Yun's decomposition
    runs before the sieve tries a prime, and its parts are then factored."""
    events = primes_tried(monkeypatch)
    orig = factorint.squarefree_decomposition

    def spy(f):
        events.append("yun")
        return orig(f)

    monkeypatch.setattr(factorint, "squarefree_decomposition", spy)
    f = T([-2, 0, 1]) ** 2 * T([3, 1, 0, 1])
    assert discriminant(f) == 0
    assert ours(f) == sympy_factorization(f)
    assert events[0] == "yun" and events.count("yun") == 1 and len(events) > 1


def test_sieve_proves_an_irreducible_mod_2_input_at_2_alone(monkeypatch):
    """t^7 + t + 1 is irreducible mod 2: one distinct-degree split there
    proves it irreducible over Z."""
    tried, read = primes_tried(monkeypatch), sieve_reads(monkeypatch)
    f = T([1, 1, 0, 0, 0, 0, 0, 1])
    assert ours(f) == (1, [(tuple(f.coeffs), 1)])
    assert tried == [2] and read == [2]


def test_even_leading_coefficient_skips_2(monkeypatch):
    """2 divides the leading coefficient the monic scaling came from, so
    the sieve starts at 3."""
    tried = primes_tried(monkeypatch)
    f = T([1, 1, 0, 0, 2])
    assert ours(f) == sympy_factorization(f)
    assert tried[0] == 3 and 2 not in tried


def test_input_not_squarefree_mod_2_still_reads_five_odd_primes(monkeypatch):
    """(t^2 + 1)(t^2 + 2) is t^2 (t + 1)^2 mod 2 and squarefree mod 3, 5,
    7, 11 and 13; its factors of degree 2 keep every sieve read open."""
    read = sieve_reads(monkeypatch)
    f = T([1, 0, 1]) * T([2, 0, 1])
    assert ours(f) == sympy_factorization(f)
    assert factorint._SIEVE_PRIMES == 5
    assert read == [3, 5, 7, 11, 13]


def test_the_q2_box_lifts_only_walks_the_sieve_left_open(monkeypatch):
    """The companions of the 1,595 Weil candidates in the q=2 box
    |a_i| <= 1 make 1,595 sieve walks; 28 of them reach Hensel lifting
    (47 without the prime-value certificate, 124 without it at three odd
    primes), and each of those read all _SIEVE_PRIMES odd primes first, so
    no walk lifts early."""
    walks = []

    def sieve_spy(*args, _orig=factorint._sieve):
        out = _orig(*args)
        walks.append([sum(p != 2 for p, _ in out[3]), False])
        return out

    def lift_spy(*args, _orig=factorint.hensel_lift_multi):
        walks[-1][1] = True
        return _orig(*args)

    monkeypatch.setattr(factorint, "_sieve", sieve_spy)
    monkeypatch.setattr(factorint, "hensel_lift_multi", lift_spy)
    for a in itertools.product((-1, 0, 1), repeat=7):
        verdict = weil.is_weil(chi_from_a(a, P2), P2)
        if verdict.is_weil:
            factor_over_integers(verdict.companion)
    lifted = [reads for reads, lift in walks if lift]
    assert len(walks) == 1595 and len(lifted) == 28
    assert set(lifted) == {factorint._SIEVE_PRIMES}


def test_the_lift_takes_fpoly_factors_irreducibles(monkeypatch):
    """On the q=2 box, every walk that reaches Hensel lifting hands it
    exactly fpoly.factor's irreducible factors of the cofactor at the lift
    prime, and factorint never runs an equal-degree split of its own."""
    lifts = []

    def lift_spy(f, factors, p, k, _orig=factorint.hensel_lift_multi):
        lifts.append((f, factors, p))
        return _orig(f, factors, p, k)

    def equal_degree_spy(*args, _orig=fpoly.equal_degree):
        assert sys._getframe(1).f_globals["__name__"] != factorint.__name__
        return _orig(*args)

    monkeypatch.setattr(factorint, "hensel_lift_multi", lift_spy)
    monkeypatch.setattr(fpoly, "equal_degree", equal_degree_spy)
    monkeypatch.setattr(factorint, "equal_degree", equal_degree_spy, raising=False)
    for a in itertools.product((-1, 0, 1), repeat=7):
        verdict = weil.is_weil(chi_from_a(a, P2), P2)
        if verdict.is_weil:
            factor_over_integers(verdict.companion)
    assert len(lifts) == 28
    for f, factors, p in lifts:
        irreducibles = fpoly.factor(fpoly.PrimeField(p), f.coeffs)[1]
        assert factors == [g for g, _ in irreducibles], (f, p)
        assert {e for _, e in irreducibles} == {1}


def prime_value_of(f: IntPoly) -> bool:
    """_prime_value on f as the sieve sees it: primitive and monicized."""
    return factorint._prime_value(factorint._monicize(f.primitive()[1]))


def is_prime_args(monkeypatch) -> list[int]:
    """Every n factorint passes to is_prime, from now on."""
    args = []

    def spy(n, _orig=factorint.is_prime):
        args.append(n)
        return _orig(n)

    monkeypatch.setattr(factorint, "is_prime", spy)
    return args


def random_factor(rng, degree: int, monic: bool) -> IntPoly:
    lc = 1 if monic else rng.choice([2, 3, -5, 6])
    return IntPoly([rng.randint(-9, 9) for _ in range(degree)] + [lc])


def test_a_prime_value_never_certifies_a_reducible_input(monkeypatch):
    """Seeded products g k of degrees 1-7, monic and not, and products
    with a fixed divisor (every value of t(t+1) and of t^2+t+2 is even):
    none is certified, and is_prime never sees a number the certificate
    cannot prove.  With the root bound taken as 0, the values tried come
    near the roots, and the same products do give false certificates."""
    rng = random.Random(20261021)
    fixed = [T([0, 1, 1]), T([2, 1, 1]), T([0, 1]) * T([2, 1, 1])]
    products = []
    for _ in range(300):
        monic = rng.random() < 0.5
        g = random_factor(rng, rng.randint(1, 7), monic)
        k = random_factor(rng, rng.randint(1, 7), monic)
        products += [g * k, rng.choice(fixed) * g]
    args = is_prime_args(monkeypatch)
    for f in products:
        assert not prime_value_of(f), f
    assert args and max(args) < arith._MR_EXACT_BELOW
    monkeypatch.setattr(factorint, "_root_bound", lambda coeffs: 0)
    assert sum(map(prime_value_of, products)) > 10


@pytest.mark.parametrize(
    "f",
    [T([1, 0, -10, 0, 1]), T([576, 0, -960, 0, 352, 0, -40, 0, 1])],
    ids=["sd4", "sd8"],
)
def test_a_prime_value_proves_the_swinnerton_dyer_rows_irreducible(f, monkeypatch):
    """t^4 - 10t^2 + 1 and its degree-8 sibling split mod every prime, so no
    degree sieve settles them; one prime value does, before the first odd
    read, and the walk reads no prime at all past the root step (2 divides
    both discriminants)."""
    assert factorint._prime_value(f)
    read = sieve_reads(monkeypatch)
    assert ours(f) == (1, [(tuple(f.coeffs), 1)])
    assert read == []


def test_a_prime_value_divides_out_the_fixed_divisor():
    """Every value of t^2 + t + 2 is even, so no value is prime: the
    certificate proves it irreducible by a value over its fixed divisor 2."""
    f = T([2, 1, 1])
    assert all(f.evaluate(x) % 2 == 0 for x in range(-50, 50))
    assert factorint._prime_value(f)


def test_a_prime_value_is_tried_only_past_the_proofs_margin(monkeypatch):
    """After f(0), ..., f(m), which give the fixed divisor d, every point x
    that _prime_value evaluates has |x| >= R + 1 + d, R = _root_bound: the
    margin its proof needs.  The inputs have fixed divisors 1 and 2, and
    the last has no prime value, so every point is tried."""
    points = []

    def evaluate_spy(self, x, _orig=IntPoly.evaluate):
        points.append(x)
        return _orig(self, x)

    monkeypatch.setattr(IntPoly, "evaluate", evaluate_spy)
    for f in (T([1, 0, -10, 0, 1]), T([2, 1, 1]), T([1, 0, 0, 0, 0, 0, 10**4, 1])):
        points.clear()
        factorint._prime_value(f)
        m = f.degree
        fixed, tried = points[: m + 1], points[m + 1 :]
        assert fixed == list(range(m + 1))
        d = gcd(*(f.evaluate(x) for x in fixed))
        margin = factorint._root_bound(f.coeffs) + 1 + d
        assert tried and all(abs(x) >= margin for x in tried), (f, margin, tried)


def test_the_root_bound_dominates_the_coefficients(rng):
    """sum_(i<m) |a_i| R^i < R^m on random monic inputs of degree 1-14,
    with coefficients up to 2^40, so every root z has |z| < R."""
    for _ in range(500):
        m = rng.randint(1, 14)
        bits = rng.randint(0, 40)
        coeffs = [rng.randint(-(1 << bits), 1 << bits) for _ in range(m)] + [1]
        R = factorint._root_bound(coeffs)
        assert sum(abs(a) * R ** i for i, a in enumerate(coeffs[:-1])) < R ** m, coeffs


def test_a_prime_value_declines_values_past_the_exact_primality_bound(monkeypatch):
    """t^7 + 10^4 t^6 + 1 has root bound 2^15, so every value tried is above
    arith._MR_EXACT_BELOW: the certificate declines without asking is_prime
    about any of them (which could raise UnprovenPrimeError), and the
    degree sieve then decides the input."""
    f = T([1, 0, 0, 0, 0, 0, 10**4, 1])
    R = factorint._root_bound(f.coeffs)
    assert R == 1 << 15 and (R + 1) ** 6 > arith._MR_EXACT_BELOW
    args = is_prime_args(monkeypatch)
    assert not factorint._prime_value(f)
    assert args == []
    read = sieve_reads(monkeypatch)
    assert ours(f) == sympy_factorization(f)
    assert [p for p in read if p != 2]
    assert max(args) < arith._MR_EXACT_BELOW  # only the sieve's primes


def squarefree_mod(f: IntPoly, p: int) -> bool:
    """f mod p is squarefree: gcd(f, f') is a constant over F_p."""
    F = fpoly.PrimeField(p)
    fp = [c % p for c in f.coeffs]
    return fpoly.fdeg(fpoly.fgcd(F, fp, fpoly.fdiff(F, fp))) == 0


def test_the_sieve_reads_exactly_the_primes_that_keep_f_squarefree(monkeypatch):
    """Skipping the primes that divide lc or disc(f) reads what a squarefree
    test at each prime read: one sieve walk reads, in order, every prime up
    to its last read that does not divide lc and keeps the monic f
    squarefree mod p, by gcd(f, f') over F_p.  Past the integer roots its
    cofactor is squarefree at each of them too."""
    walks = []

    def walk_spy(f, disc, _orig=factorint._factor_primitive):
        walks.append([f, None, []])
        return _orig(f, disc)

    def sieve_spy(*args, _orig=factorint._sieve):
        out = _orig(*args)
        walks[-1][1] = out[1]
        walks[-1][2] = [p for p, _ in out[3]]
        return out

    monkeypatch.setattr(factorint, "_factor_primitive", walk_spy)
    monkeypatch.setattr(factorint, "_sieve", sieve_spy)
    inputs = integer_factor_corpus(20261020) + [f for f, _ in EXITS] + [T([1, 1, 0, 0, 2])]
    for f in inputs:
        ours(f)
    skipped = 0
    for f, cofactor, read in walks:
        if not read:
            continue
        monic = f if f.is_monic() else factorint._monicize(f)
        primes = [p for p in range(2, read[-1] + 1) if arith.is_prime(p) and f.lc() % p]
        kept = [p for p in primes if squarefree_mod(monic, p)]
        assert read == kept, (f, read, kept)
        assert all(squarefree_mod(cofactor, p) for p in read), (f, read)
        skipped += len(primes) - len(kept)
    # primes are skipped for the squarefree test, not only for dividing lc
    assert skipped > 100


def test_the_sieve_split_at_2_is_distinct_degrees(monkeypatch):
    """At p = 2 the sieve's degrees are read off fpoly.factor's memo: on
    every companion of the q=2 box they are the degrees of
    fpoly.distinct_degree's split of the cofactor, one per factor."""
    reads = []

    def spy(*args, _orig=factorint._sieve):
        out = _orig(*args)
        reads.extend((out[1], degrees) for p, degrees in out[3] if p == 2)
        return out

    monkeypatch.setattr(factorint, "_sieve", spy)
    for a in itertools.product((-1, 0, 1), repeat=7):
        factor_over_integers(companion_poly(chi_from_a(a, P2), P2))
    F = fpoly.PrimeField(2)
    assert len(reads) > 1000
    for cofactor, degrees in reads:
        parts = fpoly.distinct_degree(F, [c % 2 for c in cofactor.coeffs])
        assert degrees == [d for g, d in parts for _ in range(fpoly.fdeg(g) // d)], cofactor


def test_a_repeated_read_at_2_splits_nothing(monkeypatch):
    """t^7 + t + 1 is irreducible mod 2, so the sieve reads 2 alone; the
    second time, that read is a hit in fpoly.factor's memo."""
    f = T([1, 1, 0, 0, 0, 0, 0, 1])
    ours(f)
    splits = []

    def spy(F, g, _orig=fpoly.distinct_degree):
        splits.append(F.p)
        return _orig(F, g)

    monkeypatch.setattr(fpoly, "distinct_degree", spy)
    read = sieve_reads(monkeypatch)
    assert ours(f) == (1, [(tuple(f.coeffs), 1)])
    assert read == [2] and splits == []


def test_a_factored_companion_is_profiled_on_its_memoized_discriminant(monkeypatch):
    """Each Weil candidate's companion h is factored and then profiled, and
    both need disc(h).  On the classify route, and on the route that
    profiles a squarefree chi with factor_weil and then profile_weil,
    where the sieve divides out h's integer roots, every discriminant is
    computed once, counted as _resultant calls, and none is computed for
    h's cofactor past its integer roots."""
    computed = []

    def resultant_spy(a, b, _orig=factorint._resultant):
        computed.append(tuple(a))
        return _orig(a, b)

    profiled = []

    def profile_spy(f, p, _orig=padic.qp_factor_profile):
        profiled.append(f.coeffs)
        return _orig(f, p)

    monkeypatch.setattr(factorint, "_resultant", resultant_spy)
    monkeypatch.setattr(padic, "qp_factor_profile", profile_spy)
    rng = random.Random(20261020)
    corpus = [(chi_from_a(a, P2), P2) for a in itertools.product((-1, 0, 1), repeat=7) if sum(a) % 3 == 0]
    corpus += [(chi_from_a(tuple(rng.randint(-3, 3) for _ in range(7)), P8), P8) for _ in range(150)]

    def classify_route(chi, verdict, params):
        classify(chi, params)

    rooted = []

    def profile_route(chi, verdict, params):
        _, parts = weil.factor_weil(chi, verdict, params)
        if all(m == 1 for _, m in parts):
            # a factor t^2 - r t + q of chi is a factor x - r of h
            rooted.append(any(g.degree == 2 for g, _ in parts))
            padic.profile_weil(chi, verdict, params)

    shared = {}
    for route in (classify_route, profile_route):
        shared[route.__name__] = [0, 0]
        for chi, params in corpus:
            verdict = weil.is_weil(chi, params)
            if not verdict.is_weil:
                continue
            factorint._discriminant.cache_clear()
            weil._factor_weil.cache_clear()
            computed.clear()
            profiled.clear()
            route(chi, verdict, params)
            assert len(computed) == len(set(computed)), (route.__name__, chi)
            h = verdict.companion.coeffs
            if h in profiled:
                assert h in computed, (route.__name__, chi)
                counts = shared[route.__name__]
                counts[0] += 1
                counts[1] += len(set(computed) - {h, chi.coeffs}) > 0
    # the classify route profiles only irreducible candidates, whose
    # companion has no integer root; the other route meets companions with
    # integer roots, and neither computes a cofactor's discriminant
    assert shared["classify_route"][0] > 300 and shared["profile_route"][0] > 300, shared
    assert shared["classify_route"][1] == shared["profile_route"][1] == 0, shared
    assert sum(rooted) > 10, sum(rooted)


def integer_factor_corpus(seed):
    """All 3^7 companions of the q=2 box |a_i| <= 1, then seeded draws at
    q = 8 with |a_i| <= 3: each one's companion and the degree-14 chi."""
    out = [companion_poly(chi_from_a(a, P2), P2) for a in itertools.product((-1, 0, 1), repeat=7)]
    rng = random.Random(seed)
    for _ in range(150):
        chi = chi_from_a(tuple(rng.randint(-3, 3) for _ in range(7)), P8)
        out += [companion_poly(chi, P8), chi]
    return out


def test_factorizations_match_the_pinned_digest():
    """factor_over_integers on integer_factor_corpus, pinned as one digest
    computed before the degree sieve read p = 2."""
    digest = hashlib.sha256()
    for f in integer_factor_corpus(20261020):
        digest.update(f"{list(f.coeffs)}|{ours(f)}\n".encode())
    assert digest.hexdigest() == "d410f674c4f814f3b16f491abeef5315587c947eb6930829b3ef7317761df184"


@pytest.mark.slow
def test_every_q2_box_companion_matches_sympy():
    """All 3^7 companions of the q=2 box |a_i| <= 1 against sympy."""
    for a in itertools.product((-1, 0, 1), repeat=7):
        h = companion_poly(chi_from_a(a, P2), P2)
        assert ours(h) == sympy_factorization(h), a
