import collections
import random
from fractions import Fraction

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


def test_not_squarefree_rejected():
    f = IntPoly([1, 1]) ** 2
    with pytest.raises(StructuralError, match="squarefree"):
        qp_factor_profile(f, 2)
    with pytest.raises(StructuralError, match="constant term"):
        qp_factor_profile(IntPoly([0, 1, 1]), 2)


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


@pytest.mark.parametrize(
    "f, lifted, expected",
    [
        # (t-2)(t-1)(t^2+2) mod 5: simple factors only, nothing is lifted
        (
            T([-2, 1]) * T([-1, 1]) * T([2, 0, 1]) + T([0, 5]),
            [],
            [(1, 0, 0, 1, True, 1), (1, 0, 0, 1, True, 1), (2, 0, 0, 2, True, 1)],
        ),
        # (t-2)(t-3)(t-1)^2(t^2+2)^2 mod 5: the two squares are lifted
        # against the product of the simple factors
        (
            (T([-1, 1]) ** 2 + T([-5])) * (T([2, 0, 1]) ** 2 + T([0, -5]))
            * T([-2, 1]) * T([-3, 1]),
            [3],
            [
                (1, 0, 0, 1, True, 1),
                (1, 0, 0, 1, True, 1),
                (2, 0, 0, 1, True, 1),
                (4, 0, 0, 2, True, 1),
            ],
        ),
        # (t^2+2)^2 mod 5: one repeated factor, refined without a lift
        (T([2, 0, 1]) ** 2 + T([0, 5]), [], [(4, 0, 0, 2, True, 1)]),
    ],
    ids=["simple", "simple-and-repeated", "repeated"],
)
def test_unit_residual_records_are_pinned(f, lifted, expected, monkeypatch):
    """Pinned records of the three shapes of a unit residual mod 5; `lifted`
    holds the number of seeds of each Hensel lift, which only repeated
    factors get."""
    seeds = []
    lift = padic.hensel_lift_multi

    def counting(g, factors, p, k):
        seeds.append(len(factors))
        return lift(g, factors, p, k)

    monkeypatch.setattr(padic, "hensel_lift_multi", counting)
    got = [
        (r.degree, r.slope, r.const_valuation, r.residual_degree, r.certified, r.granularity)
        for r in qp_factor_profile(f, 5).factors
    ]
    assert got == expected
    assert seeds == lifted


def test_profile_slopes_must_match_the_newton_polygon(monkeypatch):
    # (t - 1)(t - 5) at p = 5 has root valuations 0 and 1; a fake engine
    # reports one quadratic of slope 1/2, which keeps v_p(f(0)) = 1
    def fake(self, g, depth):
        return [padic._Rec(2, Fraction(1, 2), 1, True, 1)]

    monkeypatch.setattr(padic._Engine, "analyze", fake)
    with pytest.raises(ExactnessError, match="Newton polygon"):
        qp_factor_profile(IntPoly([-1, 1]) * IntPoly([-5, 1]), 5)


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
