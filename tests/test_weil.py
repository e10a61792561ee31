import collections
import hashlib
import itertools
import random
from math import comb, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weilpoly import factorint, weil
from weilpoly.census import EnumerationSpec, cross_check
from weilpoly.classify7 import classify
from weilpoly.errors import ExactnessError, StructuralError
from weilpoly.factorint import factor_over_integers
from weilpoly.oracle import weil_oracle
from weilpoly.polynomial import IntPoly
from weilpoly.quadreal import QuadPoly, QuadReal
from weilpoly.weil import (
    WeilParams,
    build_f_ftilde,
    check_symmetry,
    chi_from_a,
    companion_poly,
    factor_weil,
    is_weil,
    r_coefficients,
    real_root_reduction,
    symmetric_v,
)

P2 = WeilParams.from_q(2)
P4 = WeilParams.from_q(4)

T12_PLUS_64 = IntPoly([64] + [0] * 11 + [1])


def test_params_validation():
    assert WeilParams.from_q(8) == WeilParams(2, 3)
    with pytest.raises(StructuralError):
        WeilParams.from_q(6)
    with pytest.raises(StructuralError):
        WeilParams(4, 1)


def test_check_symmetry_examples():
    assert check_symmetry(IntPoly([2, 3, 1]), P2)
    assert not check_symmetry(IntPoly([4, 1, 0, 1, 1]), P2)
    assert check_symmetry(T12_PLUS_64, P2)
    with pytest.raises(StructuralError):
        check_symmetry(IntPoly([1, 1]), P2)  # odd degree


def test_companion_examples():
    assert companion_poly(IntPoly([2, 5, 1]), P2) == IntPoly([5, 1])
    assert companion_poly(IntPoly([4, 0, 3, 0, 1]), P2) == IntPoly([-1, 0, 1])
    h = companion_poly(T12_PLUS_64, P2)
    # verified by resubstitution inside companion_poly; freeze the value
    assert h == IntPoly([-16, 0, 36, 0, -12, 0, 1])


def test_is_weil_examples():
    assert is_weil(IntPoly([2, 0, 1]), P2).is_weil
    assert not is_weil(IntPoly([2, 3, 1]), P2).is_weil
    assert is_weil(IntPoly([4, 0, 3, 0, 1]), P2).is_weil
    assert is_weil(T12_PLUS_64, P2).is_weil
    v = is_weil(IntPoly([4, -4, 1]), P4)  # (t-2)^2
    assert v.is_weil and v.real_roots == ((1, 2),)


def test_degree2_law():
    for q in (2, 3, 4, 5):
        P = WeilParams.from_q(q)
        for a in range(-10, 11):
            assert is_weil(chi_from_a((a,), P), P).is_weil == (a * a <= 4 * q)


def test_symmetric_v_examples():
    assert symmetric_v((0, 0, 0, 0, 0, 0), P2) == (0, -12, 0, 36, 0, -16)
    # v_3 = a_3 - 5 q a_1
    assert symmetric_v((1, 0, 0, 0, 0, 0), WeilParams.from_q(2))[2] == -10
    assert symmetric_v((1, 0, 5, 0, 0, 0), P2)[2] == 5 - 10


@pytest.mark.parametrize(
    "q", [2, 3, 4, 5, 7, 8, 9, 25, 27, 49, 121, 125, 243, 343, 512, 529, 729, 961, 1013, 1024]
)
def test_symmetric_v_is_the_companion(q):
    """symmetric_v lists h's coefficients, top down: the closed form agrees
    with companion_poly, which solves for h and certifies it on chi."""
    P = WeilParams.from_q(q)
    rng = random.Random(q)
    for _ in range(50):
        a = tuple(rng.randint(-(10 ** i), 10 ** i) for i in range(1, 7))
        assert IntPoly([*reversed(symmetric_v(a, P)), 1]) == companion_poly(chi_from_a(a, P), P)


def test_r_coefficients_zero_vector():
    r = r_coefficients((0,) * 6, P2)
    q = 2
    rq = QuadReal.sqrt(q)
    assert r[0] == -12 * rq
    assert r[1] == QuadReal(54 * q)
    assert r[2] == -112 * q * rq
    assert r[3] == QuadReal(105 * q * q)
    assert r[4] == -36 * q * q * rq
    assert r[5] == QuadReal(2 * q ** 3)


def test_r1_perfect_square_folds():
    f, _ = build_f_ftilde((1, 0, 0, 0, 0, 0), P4)
    assert f[5] == QuadReal(-25)


def test_tilde_is_sign_flip():
    a = (3, -1, 2, 0, -2, 5)
    flipped = tuple((-1) ** i * ai for i, ai in enumerate(a, start=1))
    assert r_coefficients(a, P2, tilde=True) == r_coefficients(flipped, P2, tilde=False)


@settings(max_examples=80, deadline=None)
@given(
    a=st.tuples(*[st.integers(-6, 6)] * 6),
    q=st.sampled_from([2, 3, 4, 5, 9]),
)
def test_transform_identity(a, q):
    P = WeilParams.from_q(q)
    h = companion_poly(chi_from_a(a, P), P)
    f, ft = build_f_ftilde(a, P)
    hq = QuadPoly(h.coeffs, q=f.q)
    two = QuadReal.sqrt(q) * 2
    assert hq.compose_linear(QuadReal(-1), two) == f
    assert hq.compose_linear(QuadReal(1), -two) == ft


@st.composite
def symmetric_inputs(draw):
    """A symmetric chi of degree 2..8, sometimes times a factor with the real
    roots +-sqrt(q) (so its companion has roots at +-2 sqrt(q))."""
    q = draw(st.sampled_from([2, 3, 4, 5, 8, 9, 25]))
    P = WeilParams.from_q(q)
    r = isqrt(q)
    extras = [IntPoly([1]), IntPoly([-q, 0, 1]) ** 2]
    if r * r == q:
        extras += [IntPoly([-r, 1]) ** 2, IntPoly([r, 1]) ** 2]
    extra = draw(st.sampled_from(extras))
    g = draw(st.integers(1, 4 - extra.degree // 2))
    # |a_i| <= C(2g, i) q^(i/2) holds for every Weil polynomial; go a bit past it
    a = tuple(
        draw(st.integers(-(comb(2 * g, i) * isqrt(q**i) + 2), comb(2 * g, i) * isqrt(q**i) + 2))
        for i in range(1, g + 1)
    )
    return chi_from_a(a, P) * extra, P


@settings(max_examples=150, deadline=None)
@given(case=symmetric_inputs())
def test_is_weil_agrees_with_factor_oracle(case):
    chi, P = case
    assert is_weil(chi, P).is_weil == weil_oracle(chi, P)


def _t2q(q):
    return IntPoly([-q, 0, 1])


@pytest.mark.parametrize(
    "chi, q, expected",
    [
        # h = x^2 - 4q: companion roots exactly at +-2 sqrt(q)
        (_t2q(2) ** 2, 2, (True, ((1, 2), (-1, 2)), [-8, 0, 1], "")),
        (_t2q(9) ** 2, 9, (True, ((1, 2), (-1, 2)), [-36, 0, 1], "")),
        # repeated companion roots at +-2 sqrt(q)
        (_t2q(2) ** 4, 2, (True, ((1, 4), (-1, 4)), [64, 0, -16, 0, 1], "")),
        (_t2q(4) ** 4, 4, (True, ((1, 4), (-1, 4)), [256, 0, -32, 0, 1], "")),
        # t^2 - q is not of the palindromic shape (its constant term is -q,
        # not q), so it stops at the symmetry test.  A symmetric input always
        # has even multiplicity at +sqrt(q): under t -> q/t the factor
        # t - sqrt(q) picks up the sign -1 and t + sqrt(q) picks up +1.
        (_t2q(3), 3, (False, (), None, "not symmetric")),
        (_t2q(4), 4, (False, (), None, "not symmetric")),
        # square q = r^2
        (IntPoly([-2, 1]) ** 4, 4, (True, ((1, 4),), [16, -8, 1], "")),
        (IntPoly([3, 1]) ** 2, 9, (True, ((-1, 2),), [6, 1], "")),
        # companion t + 3: its root -3 lies just below -2 sqrt(2)
        (IntPoly([2, 3, 1]), 2, (False, (), [3, 1], "companion root outside [-2 sqrt(q), 2 sqrt(q)]")),
        # companion t^2 - 13: roots +-sqrt(13), just outside +-sqrt(8)
        (IntPoly([4, 0, -9, 0, 1]), 2, (False, (), [-13, 0, 1], "companion root outside [-2 sqrt(q), 2 sqrt(q)]")),
        # companion t^2 + t + 1 has non-real roots
        (IntPoly([4, 2, 5, 1, 1]), 2, (False, (), [1, 1, 1], "companion has non-real roots")),
    ],
)
def test_is_weil_verdict_table(chi, q, expected):
    P = WeilParams.from_q(q)
    assert check_symmetry(chi, P) == (expected[3] != "not symmetric")
    v = is_weil(chi, P)
    companion = None if v.companion is None else list(v.companion.coeffs)
    assert (v.is_weil, v.real_roots, companion, v.reason) == expected
    assert weil_oracle(chi, P) == v.is_weil


def test_is_weil_implies_symmetry():
    # root-inversion invariance: is_weil implies the palindromic shape
    for a in itertools.product(range(-3, 4), repeat=2):
        chi = chi_from_a(a, P2)
        if is_weil(chi, P2).is_weil:
            assert check_symmetry(chi, P2)


def test_real_root_reduction_cases():
    chi = IntPoly([-2, 0, 1]) ** 2 * IntPoly([2, 0, 1]) ** 4
    red = real_root_reduction(chi, P2)
    assert red.kind == "non_square_q"
    assert red.quotient == IntPoly([2, 0, 1]) ** 4
    assert red.quotient.degree == 8

    w10 = chi_from_a((0, 0, 0, 0, 0), P4)
    chi2 = IntPoly([-2, 1]) ** 2 * w10
    red2 = real_root_reduction(chi2, P4)
    assert red2.kind == "square_q"
    assert red2.factor == IntPoly([-2, 1])
    assert red2.quotient == w10 and red2.quotient.degree == 10
    assert is_weil(red2.quotient, P4).is_weil

    assert real_root_reduction(T12_PLUS_64, P2).kind == "no_real_root"


def test_real_root_reduction_preconditions():
    with pytest.raises(StructuralError):
        real_root_reduction(IntPoly([2, 0, 1]), P2)
    with pytest.raises(StructuralError):
        real_root_reduction(IntPoly([1] + [0] * 11 + [1]), P2)


# -- factorization through the companion ---------------------------------------

# monic integer cubics with three real roots in (-2, 2), irreducible over Q
TOTALLY_REAL_CUBICS = (IntPoly([-1, -2, 1, 1]), IntPoly([1, -3, 0, 1]), IntPoly([1, -2, -1, 1]))


def chi_of_companion(h, q):
    """t^g h(t + q/t) = sum h_k (t^2 + q)^k t^(g - k), by IntPoly products."""
    g = h.degree
    chi = IntPoly([0])
    for k, c in enumerate(h.coeffs):
        chi = chi + IntPoly([c]) * IntPoly([q, 0, 1]) ** k * IntPoly([0] * (g - k) + [1])
    return chi


def companion_piece(rng, q, room):
    """A monic factor of degree <= room with all roots real in [-2 sqrt q, 2 sqrt q]."""
    edge = isqrt(4 * q)
    kind = rng.choice(["linear", "linear", "quadratic", "edge", "cubic"])
    if kind == "quadratic" and room >= 2:
        while True:
            s, c = rng.randint(-2 * edge, 2 * edge), rng.randint(-4 * q, 4 * q)
            h = IntPoly([c, -s, 1])
            # both roots real and inside: disc >= 0, h(+-2 sqrt q) >= 0, vertex inside
            if s * s >= 4 * c and 4 * q + c >= 0 and (4 * q + c) ** 2 >= 4 * q * s * s and s * s <= 16 * q:
                return h
    if kind == "edge" and room >= 2:
        return IntPoly([-4 * q, 0, 1])  # roots +-2 sqrt q: chi gets the real roots +-sqrt q
    if kind == "cubic" and room >= 3:
        return rng.choice(TOTALLY_REAL_CUBICS)
    return IntPoly([-rng.randint(-edge, edge), 1])


def weil_corpus(seed):
    """Seeded Weil polynomials of degree 4..14: companion products (real
    roots, repeated and irreducible pieces), small-box hits whose companion
    is often irreducible, seventh powers of quadratics, and six fixed cases
    (large q, t^14 + 128, real roots beside a fifth power)."""
    rng = random.Random(seed)
    out = []
    for q in (2, 3, 4, 5, 8, 9, 16, 25):
        P = WeilParams.from_q(q)
        for g in range(2, 8):
            for _ in range(12):
                h = IntPoly([1])
                while h.degree < g:
                    h = h * companion_piece(rng, q, g - h.degree)
                out.append((chi_of_companion(h, q), P))
            hits = 0
            for _ in range(400):
                a = tuple(rng.randint(-1, 1) * rng.randint(0, isqrt(q ** i)) for i in range(1, g + 1))
                chi = chi_from_a(a, P)
                if is_weil(chi, P).is_weil:
                    out.append((chi, P))
                    hits += 1
                    if hits == 6:
                        break
        edge = isqrt(4 * q)
        for a in (0, 1, -edge, edge):
            out.append((IntPoly([q, a, 1]) ** 7, P))
    for chi, q in (
        (IntPoly([2, 1, 1]) ** 7, 2),
        (IntPoly([128, 2, 1]) ** 7, 128),
        (IntPoly([3**35, 243, 1]) ** 7, 3**35),
        (IntPoly([128] + [0] * 13 + [1]), 2),
        (IntPoly([-2, 0, 1]) ** 2 * IntPoly([2, 1, 1]) ** 5, 2),
        (IntPoly([-3, 1]) ** 4 * IntPoly([9, 1, 1]) ** 5, 9),
    ):
        out.append((chi, WeilParams.from_q(q)))
    return out


def test_factor_weil_equals_factor_over_integers_on_a_corpus():
    seen = {"reducible": 0, "repeated": 0, "real_root": 0, "power": 0, "irreducible_14": 0}
    for chi, P in weil_corpus(20261018):
        verdict = is_weil(chi, P)
        assert verdict.is_weil, chi
        expected = factor_over_integers(chi)
        assert factor_weil(chi, verdict, P) == expected, (chi, P.q)
        factors = expected[1]
        seen["reducible"] += len(factors) > 1
        seen["repeated"] += any(m > 1 for _, m in factors)
        seen["real_root"] += bool(verdict.real_roots)
        seen["power"] += all(m % 7 == 0 for _, m in factors)
        seen["irreducible_14"] += chi.degree == 14 and factors[0][1] == 1 and len(factors) == 1
    assert all(n >= 5 for n in seen.values()), seen


@st.composite
def weil_by_companion(draw):
    """A q-Weil chi of degree 4..14 built from a companion of real-rooted pieces."""
    q = draw(st.sampled_from([2, 3, 4, 5, 8, 9, 16, 25, 27, 49]))
    g = draw(st.integers(2, 7))
    rng = random.Random(draw(st.integers(0, 2**32)))
    h = IntPoly([1])
    while h.degree < g:
        h = h * companion_piece(rng, q, g - h.degree)
    return chi_of_companion(h, q), WeilParams.from_q(q)


@settings(max_examples=60, deadline=None)
@given(case=weil_by_companion())
def test_factor_weil_matches_sympy(case):
    sympy = pytest.importorskip("sympy")
    chi, P = case
    t = sympy.Symbol("t")
    coeff, parts = sympy.factor_list(sympy.Poly(list(reversed(chi.coeffs)), t))
    expected = sorted(
        ((IntPoly(reversed(sympy.Poly(f, t).all_coeffs())), m) for f, m in parts),
        key=lambda fm: (fm[0].degree, fm[0].coeffs),
    )
    assert factor_weil(chi, is_weil(chi, P), P) == (coeff, expected)


OUTSIDE = "companion root outside [-2 sqrt(q), 2 sqrt(q)]"


@pytest.mark.parametrize(
    "q, h, reason",
    [
        # degree 4: h = x^2 - c, both roots just inside (c = 4q - 1) or just
        # outside +-2 sqrt(q).  Outside, c = 4q + 1 splits chi into
        # (t^2 - t - q)(t^2 + t - q), so c is the next value that keeps chi
        # irreducible: c, c - 4q and c (c - 4q) are not squares
        (3, [-11, 0, 1], ""),
        (3, [-14, 0, 1], OUTSIDE),
        (4, [-15, 0, 1], ""),
        (4, [-19, 0, 1], OUTSIDE),
        # degree 6: the top root of h within 0.03 of 2 sqrt(q), the others
        # well inside
        (3, [3, 1, -4, 1], ""),
        (3, [-7, -10, 0, 1], OUTSIDE),
        (4, [-11, -13, 0, 1], ""),
        (4, [-13, -13, 0, 1], OUTSIDE),
        (4, [13, -13, 0, 1], OUTSIDE),  # h(-x): the bottom root past -4
        # degree 8: the top root within 0.008 of 2 sqrt(q)
        (3, [1, 8, -4, -3, 1], ""),
        (3, [9, -1, -9, -1, 1], OUTSIDE),
        (3, [9, 1, -9, 1, 1], OUTSIDE),  # h(-x)
        (4, [1, -12, -13, 0, 1], ""),
        (4, [-1, -12, -13, 0, 1], OUTSIDE),
    ],
)
def test_oracle_and_is_weil_at_the_edge(q, h, reason):
    """Irreducible symmetric chi whose real-rooted companion has an extreme
    root just inside or just outside [-2 sqrt q, 2 sqrt q]."""
    P = WeilParams.from_q(q)
    chi = chi_of_companion(IntPoly(h), q)
    assert factor_over_integers(chi) == (1, [(chi, 1)])
    v = is_weil(chi, P)
    companion = list(v.companion.coeffs)
    assert (v.is_weil, v.real_roots, companion, v.reason) == (not reason, (), h, reason)
    assert weil_oracle(chi, P) == v.is_weil


@pytest.mark.parametrize(
    "q, extra, real_roots, factors",
    [
        # chi = (t^2 + t + q) * extra; t^2 + t + q is Weil with companion x + 1
        (3, [([-3, 0, 1], 2)], ((1, 2), (-1, 2)), [([-3, 0, 1], 2), ([3, 1, 1], 1)]),
        (2, [([-2, 0, 1], 4)], ((1, 4), (-1, 4)), [([-2, 0, 1], 4), ([2, 1, 1], 1)]),
        (9, [([-3, 1], 2)], ((1, 2),), [([-3, 1], 2), ([9, 1, 1], 1)]),
        (9, [([-3, 1], 4)], ((1, 4),), [([-3, 1], 4), ([9, 1, 1], 1)]),
        (9, [([3, 1], 2)], ((-1, 2),), [([3, 1], 2), ([9, 1, 1], 1)]),
        (4, [([2, 1], 4)], ((-1, 4),), [([2, 1], 4), ([4, 1, 1], 1)]),
        (9, [([-9, 0, 1], 2)], ((1, 2), (-1, 2)), [([-3, 1], 2), ([3, 1], 2), ([9, 1, 1], 1)]),
        (4, [([-4, 0, 1], 4)], ((1, 4), (-1, 4)), [([-2, 1], 4), ([2, 1], 4), ([4, 1, 1], 1)]),
        (9, [([-3, 1], 2), ([3, 1], 4)], ((1, 2), (-1, 4)), [([-3, 1], 2), ([3, 1], 4), ([9, 1, 1], 1)]),
    ],
)
def test_real_roots_and_square_factors(q, extra, real_roots, factors):
    """chi times (t -+ sqrt q)^(2k) or (t^2 - q)^(2k): the multiplicities
    read off the companion, and the square factors in factor_weil."""
    P = WeilParams.from_q(q)
    chi = IntPoly([q, 1, 1])
    for f, m in extra:
        chi = chi * IntPoly(f) ** m
    v = is_weil(chi, P)
    assert v.is_weil and v.real_roots == real_roots
    assert factor_weil(chi, v, P) == (1, [(IntPoly(f), m) for f, m in factors])


def test_factor_weil_needs_a_weil_verdict():
    chi = IntPoly([2, 3, 1])  # companion x + 3, root below -2 sqrt 2
    verdict = is_weil(chi, P2)
    assert not verdict.is_weil
    with pytest.raises(StructuralError):
        factor_weil(chi, verdict, P2)


def test_factor_weil_checks_the_verdict_belongs_to_chi():
    chi, other = chi_from_a((1, 0, 0), P2), chi_from_a((0, 0, 0), P2)
    verdict = is_weil(other, P2)
    assert verdict.is_weil and is_weil(chi, P2).is_weil
    with pytest.raises(ExactnessError, match="^companion factors do not multiply back to chi$"):
        factor_weil(chi, verdict, P2)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_lacunary_degree14_is_weil_exactly_when_c_squared_is_at_most_4_q7(q):
    """t^14 + c t^7 + q^7 is q-Weil iff c^2 <= 4 q^7: t^7 is then a root of
    x^2 + c x + q^7, of absolute value q^(7/2) exactly when those roots are
    non-real or equal."""
    P = WeilParams.from_q(q)
    edge = isqrt(4 * q**7)
    for c in range(-edge - 1, edge + 2):
        chi = IntPoly([q**7] + [0] * 6 + [c] + [0] * 6 + [1])
        assert is_weil(chi, P).is_weil == (abs(c) <= edge), c


def edge_corpus(seed):
    """Seeded symmetric inputs of degree 2..14 at square and non-square q.
    Companions carry the roots +-2 sqrt q with multiplicity 1-3 (x -+ 2 sqrt q
    for square q, x^2 - 4q otherwise) beside real-rooted pieces, a root
    outside [-2 sqrt q, 2 sqrt q] or a pair off the real line; small-box
    chi_from_a draws, Weil or not, and the same with one coefficient moved
    so that the shape breaks."""
    rng = random.Random(seed)
    out = []
    for q in (2, 3, 4, 5, 8, 9, 16, 25, 27):
        P = WeilParams.from_q(q)
        r = isqrt(q)
        edges = [IntPoly([-2 * r, 1]), IntPoly([2 * r, 1])] if r * r == q else [IntPoly([-4 * q, 0, 1])]
        for _ in range(120):
            g = rng.randint(1, 7)
            h = IntPoly([1])
            for edge in edges:
                h = h * edge ** rng.randint(0 if len(edges) > 1 else 1, 3)
            if h.degree > g:
                h = edges[0]
            spoil = rng.choice([None, None, "outside", "complex"])
            if spoil == "outside" and h.degree < g:
                h = h * IntPoly([rng.choice([-1, 1]) * (2 * r + 1 + rng.randint(0, 2)), 1])
            elif spoil == "complex" and h.degree + 2 <= g:
                h = h * IntPoly([rng.randint(1, 3), 0, 1])
            while h.degree < g:
                h = h * companion_piece(rng, q, g - h.degree)
            out.append((chi_of_companion(h, q), P))
        for _ in range(120):
            g = rng.randint(1, 7)
            a = tuple(rng.randint(-2, 2) * rng.randint(0, isqrt(q ** i)) for i in range(1, g + 1))
            chi = chi_from_a(a, P)
            if rng.random() < 0.2:
                coeffs = list(chi.coeffs)
                coeffs[rng.randrange(len(coeffs) - 1)] += rng.choice([-1, 1])
                chi = IntPoly(coeffs)
            out.append((chi, P))
    return out


def test_is_weil_verdicts_match_the_pinned_digest():
    """Every field of every is_weil verdict on edge_corpus, pinned as one
    digest.  The digest was computed before is_weil moved to coefficient
    tuples and read the roots +-sqrt q off h's value at +-2 sqrt q."""
    digest = hashlib.sha256()
    seen = collections.Counter()
    for chi, P in edge_corpus(20261019):
        v = is_weil(chi, P)
        companion = None if v.companion is None else list(v.companion.coeffs)
        digest.update(f"{P.q}|{list(chi.coeffs)}|{v.is_weil}|{v.real_roots}|{companion}|{v.reason}\n".encode())
        square = isqrt(P.q) ** 2 == P.q
        for _, m in v.real_roots:
            seen[square, v.is_weil, m] += 1
    for square in (False, True):
        for m in (2, 4, 6):
            assert seen[square, True, m] > 0 and seen[square, False, m] > 0, (square, m, seen)
    assert digest.hexdigest() == "850e526cef6eb8ff5496ada1bdfcbae5cd7dcb56cddfffc6c140f2d8bad53a49"


def test_equal_inputs_get_the_identical_verdict():
    chi = chi_from_a((0, 0, -1, 0, 0, 0, 0), P2)
    first = is_weil(chi, P2)
    assert is_weil(IntPoly(list(chi.coeffs)), WeilParams(2, 1)) is first


@pytest.mark.parametrize("chi", [IntPoly([2, 0, 2]), IntPoly([2, 3, 0, 1])], ids=["non-monic", "odd-degree"])
def test_a_structural_error_raises_on_every_call(chi):
    for _ in range(3):
        with pytest.raises(StructuralError):
            is_weil(chi, P2)


def companions_computed(monkeypatch) -> collections.Counter:
    """How often weil._companion runs on each chi from now on, with the
    verdict memo emptied first."""
    counts = collections.Counter()
    orig = weil._companion

    def spy(chi, q):
        counts[chi] += 1
        return orig(chi, q)

    monkeypatch.setattr(weil, "_companion", spy)
    weil._is_weil.cache_clear()
    return counts


def test_classify_after_is_weil_computes_the_companion_once(monkeypatch):
    counts = companions_computed(monkeypatch)
    chi = chi_from_a((0, 0, -1, 0, 0, 0, 0), P2)
    assert is_weil(chi, P2).is_weil
    assert classify(chi, P2).verdict == "accepted"
    assert counts == {chi.coeffs: 1}


def test_degree14_cross_check_computes_each_companion_once(monkeypatch):
    counts = companions_computed(monkeypatch)
    spec = EnumerationSpec(degree=14, params=P2, box=tuple(((0, 0),) * 4 + ((-1, 1),) * 3))
    report = cross_check(spec)
    assert report["ok"], report["violations"]
    assert report["counts"]["records"] == 27
    assert len(counts) == 27 and set(counts.values()) == {1}


def test_degree14_cross_check_factors_each_companion_once(monkeypatch):
    """With the degree-14 filters of the cross-check command, census's
    irreducible filter and then classify factor each Weil candidate
    through its companion, which is factored once."""
    factored = collections.Counter()

    def spy(f, _orig=factorint.factor_over_integers):
        factored[f.coeffs] += 1
        return _orig(f)

    monkeypatch.setattr(factorint, "factor_over_integers", spy)
    weil._factor_weil.cache_clear()
    box = ((-1, 1), (0, 0), (0, 0), (-1, 1), (0, 0), (0, 0), (-1, 1))
    spec = EnumerationSpec(degree=14, params=P2, box=box, weil_only=True, irreducible_only=True)
    report = cross_check(spec)
    assert report["ok"], report["violations"]
    # 25 Weil candidates, 20 of them irreducible and then classified
    assert report["counts"] == {"records": 20, "accepted": 20}
    assert len(factored) == 25 and set(factored.values()) == {1}


def test_factor_weil_returns_a_fresh_list_each_call():
    chi = chi_from_a((0, 0, -1, 0, 0, 0, 0), P2)
    verdict = is_weil(chi, P2)
    _, first = factor_weil(chi, verdict, P2)
    first.clear()
    _, again = factor_weil(chi, verdict, P2)
    assert again and again == factor_over_integers(chi)[1]


def direct_expansion(h: list[int], q: int) -> list[int]:
    """t^d h(t + q/t) by math.comb, term by term: h_k C(k, j) q^j at
    t^(d + k - 2j)."""
    d = len(h) - 1
    out = [0] * (2 * d + 1)
    for k, c in enumerate(h):
        for j in range(k + 1):
            out[d + k - 2 * j] += c * comb(k, j) * q ** j
    return out


@pytest.mark.parametrize("q", [2, 3, 4, 8, 2**7, 2**161])
def test_expand_and_companion_read_the_binomial_table(q):
    """_expand and _companion read C(k, j) q^j off one table per (degree,
    q), and agree with the direct expansion by math.comb on random h."""
    rng = random.Random(q)
    for _ in range(40):
        d = rng.randint(0, 8)
        h = [rng.randint(-5 * q, 5 * q) for _ in range(d)] + [1]
        chi = direct_expansion(h, q)
        assert weil._expand(h, q) == chi
        assert weil._companion(tuple(chi), q) == h
    assert weil._binomial_table.cache_info().maxsize == weil._BINOMIAL_TABLE_SIZE
