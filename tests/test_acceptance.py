"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance and instance count is pinned here; nothing defers to later
calibration.  Criteria with stated runtime limits assert them.
"""

import itertools
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from weilpoly.bounds12 import corollary_bounds, trivial_bounds
from weilpoly.census import count_degree2_weil, sample_weil12_no_real_roots
from weilpoly.classify7 import classify, power_case
from weilpoly.cli import main as cli_main
from weilpoly.factorint import poly_gcd
from weilpoly.lmfdb import lmfdb_reconcile
from weilpoly.newton import newton_polygon
from weilpoly.oracle import numeric_modulus_verdict, weil_oracle
from weilpoly.padic import qp_factor_profile
from weilpoly.polynomial import IntPoly
from weilpoly.quadreal import QuadReal
from weilpoly.weil import (
    WeilParams,
    build_f_ftilde,
    chi_from_a,
    companion_poly,
    is_weil,
)


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS - {detail}")


def test_criterion_01_weil_oracle_equivalence():
    """Exhaustive agreement between is_weil and the independent certified
    modulus oracle on monic symmetric polynomials of degree 2 and 4 with
    |a_i| <= 10, q in {2,3,4,5}; zero disagreements; under 2 minutes."""
    t0 = time.monotonic()
    n = disagreements = numeric_contradictions = 0
    rng = random.Random(1)
    for q in (2, 3, 4, 5):
        params = WeilParams.from_q(q)
        for a1 in range(-10, 11):
            for avec in [(a1,)] + [(a1, a2) for a2 in range(-10, 11)]:
                chi = chi_from_a(avec, params)
                main = is_weil(chi, params).is_weil
                if main != weil_oracle(chi, params):
                    disagreements += 1
                if rng.random() < 0.05:
                    numeric = numeric_modulus_verdict(chi, params)
                    if main and numeric is False:
                        numeric_contradictions += 1
                    if not main and numeric is True:
                        # one-sided check cannot certify truth; consistent
                        pass
                n += 1
    elapsed = time.monotonic() - t0
    assert disagreements == 0
    assert numeric_contradictions == 0
    assert elapsed < 120, f"runtime {elapsed:.1f}s over the 2-minute budget"
    report(1, f"{n} instances, 0 disagreements, {elapsed:.1f}s")


def test_criterion_02_degree2_counts():
    """Degree-2 Weil counts: q=2 -> 5, q=3 -> 7, q=4 -> 9."""
    got = (
        count_degree2_weil(WeilParams.from_q(2), 3),
        count_degree2_weil(WeilParams.from_q(3), 4),
        count_degree2_weil(WeilParams.from_q(4), 4),
    )
    assert got == (5, 7, 9)
    report(2, f"counts {got} match (5, 7, 9)")


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_criterion_03_necessity(q):
    """>= 10^4 sampled degree-12 Weil polynomials without real roots (2000
    per ground field) all pass every decisive condition of the corollary and
    the trivial bounds; zero violations; indeterminate rate < 1%."""
    params = WeilParams.from_q(q)
    count = 2000
    violations = indeterminate = 0
    t0 = time.monotonic()
    for a in sample_weil12_no_real_roots(params, count, seed=1000 + q):
        rep = corollary_bounds(a, params)
        triv = trivial_bounds(a, params)
        if rep.failures or triv.failures:
            violations += 1
        if rep.indeterminates:
            indeterminate += 1
    assert violations == 0
    assert indeterminate / count < 0.01
    report(
        3,
        f"q={q}: {count} Weil samples, 0 violations, "
        f"indeterminate rate {indeterminate / count:.2%} "
        f"({time.monotonic() - t0:.0f}s)",
    )


def test_criterion_04_transform_identity():
    """f(t) = h(2 sqrt q - t) and ftilde(t) = h(t - 2 sqrt q) bit-exactly for
    10^4 random a-vectors."""
    rng = random.Random(4)
    n = 10_000
    for _ in range(n):
        q = rng.choice([2, 3, 4, 5, 7, 9, 16, 25])
        params = WeilParams.from_q(q)
        a = tuple(rng.randint(-30, 30) for _ in range(6))
        h = companion_poly(chi_from_a(a, params), params)
        f, ft = build_f_ftilde(a, params)
        hq = h.to_quad(f.q)
        two = QuadReal.sqrt(q) * 2
        assert hq.compose_linear(QuadReal(-1), two) == f
        assert hq.compose_linear(QuadReal(1), -two) == ft
    report(4, f"{n} random a-vectors, both identities bit-exact")


def test_criterion_05_polygon_duality():
    """For 10^3 random squarefree integer polynomials with planted
    valuations (degree <= 14, p in {2,3,5}), the Newton-polygon segment
    multiset equals the profile's (slope, length) multiset exactly."""
    rng = random.Random(5)
    done = 0
    while done < 1000:
        p = rng.choice([2, 3, 5])
        deg = rng.randint(2, 14)
        coeffs = [
            rng.choice([1, 2, 3, 5, 7, 11]) * p ** rng.randint(0, 5)
            for _ in range(deg)
        ] + [1]
        f = IntPoly(coeffs)
        if f[0] == 0 or poly_gcd(f, f.derivative()).degree > 0:
            continue
        prof = qp_factor_profile(f, p)
        np_ = newton_polygon(f, p)
        assert prof.slope_multiset() == np_.valuation_multiset(), (p, f)
        done += 1
    report(5, "1000 planted-valuation polynomials, exact multiset equality")


def test_criterion_06_composition_oracle():
    """10^3 random coprime products of Eisenstein/unramified/linear blocks
    yield profiles exactly equal to the known union, plus the worked
    examples; under 5 minutes."""
    from weilpoly.fpoly import PrimeField, is_irreducible

    t0 = time.monotonic()
    for p in (2, 3, 5):
        prof = qp_factor_profile(IntPoly([p, 0, 0, 1]), p)
        assert [(r.degree, r.slope, r.const_valuation) for r in prof.factors] == [
            (3, Fraction(1, 3), 1)
        ]
    prof = qp_factor_profile(IntPoly([-5, 0, 1]) * IntPoly([-1, 1]), 5)
    assert sorted((r.degree, r.slope) for r in prof.factors) == [
        (1, Fraction(0)),
        (2, Fraction(1, 2)),
    ]
    prof = qp_factor_profile(IntPoly([4, 0, 3, 0, 1]), 2)
    assert sorted((r.degree, r.slope) for r in prof.factors) == [
        (1, Fraction(0)),
        (1, Fraction(0)),
        (1, Fraction(1)),
        (1, Fraction(1)),
    ]

    rng = random.Random(6)
    done = 0
    while done < 1000:
        p = rng.choice([2, 3, 5])
        f, expected = _blocks(p, rng)
        if f.degree < 1 or poly_gcd(f, f.derivative()).degree > 0:
            continue
        prof = qp_factor_profile(f, p)
        assert prof.fully_certified, (p, f)
        assert sorted((r.degree, r.slope) for r in prof.factors) == sorted(expected)
        done += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 300, f"runtime {elapsed:.1f}s over the 5-minute budget"
    report(6, f"1000 block products + worked examples, {elapsed:.1f}s")


def _blocks(p, rng):
    from weilpoly.fpoly import PrimeField, is_irreducible

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


@pytest.mark.slow
def test_criterion_07_table_tate_agreement():
    """Exhaustive scan of symmetric degree-14 polynomials over q=2 with
    |a_i| <= 1 (3^7 = 2187 candidates), filtered to irreducible Weil
    polynomials: every unflagged case verdict equals the Tate criterion;
    flagged instances are listed, not failed; under 10 minutes."""
    params = WeilParams.from_q(2)
    t0 = time.monotonic()
    candidates = scanned = accepted = 0
    disagreements = []
    flagged = []
    inconclusive = []
    for a in itertools.product((-1, 0, 1), repeat=7):
        candidates += 1
        chi = chi_from_a(a, params)
        if not is_weil(chi, params).is_weil:
            continue
        out = classify(chi, params)
        if out.verdict == "reducible":
            continue
        scanned += 1
        if out.verdict == "accepted":
            accepted += 1
        elif out.verdict == "table_tate_disagreement":
            disagreements.append((a, out.case_id))
        elif out.verdict == "text_ambiguous":
            flagged.append((a, out.candidate_cases))
        elif out.verdict == "inconclusive":
            inconclusive.append(a)
    elapsed = time.monotonic() - t0
    assert candidates == 3 ** 7 == 2187
    assert disagreements == [], disagreements
    assert elapsed < 600, f"runtime {elapsed:.1f}s over the 10-minute budget"
    report(
        7,
        f"2187 candidates, {scanned} irreducible Weil, {accepted} accepted, "
        f"0 unflagged disagreements, {len(flagged)} flagged listed, "
        f"{len(inconclusive)} inconclusive, {elapsed:.0f}s",
    )


def test_criterion_08_power_case_instances():
    """(t^2+2t+2^7)^7 accepted at q=2^7; (t^2+t+2)^7 rejected at q=2."""
    p128 = WeilParams.from_q(128)
    p2 = WeilParams.from_q(2)
    assert power_case(2, 128, 7, p128) is True
    assert power_case(1, 2, 7, p2) is False
    out = classify(IntPoly([128, 2, 1]) ** 7, p128)
    assert out.verdict == "power_case" and out.tate_ok is True
    out = classify(IntPoly([2, 1, 1]) ** 7, p2)
    assert out.verdict == "power_case" and out.tate_ok is False
    report(8, "power-case instances decided exactly as stated")


def test_criterion_09_cli_golden_files(capsys):
    """Every command's output matches the frozen goldens byte-for-byte."""
    import shutil

    golden_dir = Path(__file__).parent / "golden"
    manifest = json.loads((golden_dir / "manifest.json").read_text())
    for name in sorted(manifest):
        entry = manifest[name]
        if name == "lmfdb_cold":
            shutil.rmtree("/tmp/weilpoly-cold-cache-test", ignore_errors=True)
        code = cli_main(list(entry["argv"]))
        out = capsys.readouterr().out
        expected = (golden_dir / f"{name}.golden").read_text()
        assert out == expected, f"{name} drifted"
        assert code == entry["exit"], f"{name} exit code drifted"
    with capsys.disabled():
        report(9, f"{len(manifest)} golden invocations byte-identical")


def test_criterion_10_lmfdb_gated(tmp_path):
    """Offline with a cold cache: explicit Skipped, never a failure.  With a
    warm cache the fetched classes must pass the predicates (exercised on a
    bundled fixture in test_lmfdb.py)."""
    for q in (2, 3):
        for g in (1, 2):
            rep = lmfdb_reconcile(
                WeilParams.from_q(q), g, tmp_path, allow_network=False
            )
            assert rep["status"] == "skipped"
    report(10, "network-gated reconciliation skips cleanly offline")
