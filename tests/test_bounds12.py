import hashlib
import random
from fractions import Fraction

import pytest

from weilpoly import bounds12
from weilpoly.bounds12 import (
    BoundsReport,
    Status,
    _condition_r4,
    _condition_r5,
    corollary_bounds,
    lemma_check,
    lemma_quantities,
    trivial_bounds,
)
from weilpoly.census import sample_weil12_no_real_roots
from weilpoly.cli import main
from weilpoly.quadreal import QuadReal
from weilpoly.polynomial import IntPoly
from weilpoly.weil import WeilParams, _from_companion, r_coefficients

from conftest import r_vector_from_roots

P2 = WeilParams.from_q(2)

SIX_POSITIVE = r_vector_from_roots([1, 2, 3, 4, 5, 6])

PINNED_REPORT_DIGEST = "dbbd5c7f552ef9ffcd4ce5df7b69121dba977dd875f445685d4691d6972c1714"


def statuses(report):
    return [(c.cond, c.status) for c in report.conditions]


def test_lemma_all_pass_on_distinct_positive_roots():
    rep = lemma_check(SIX_POSITIVE)
    assert rep.all_pass, statuses(rep)


def test_lemma_condition1_fails_on_positive_r1():
    rep = lemma_check([1, 0, 0, 0, 0, 1])
    assert "1" in rep.failures


def test_lemma_fails_with_negative_root():
    rep = lemma_check(r_vector_from_roots([-1, 1, 2, 3, 4, 5]))
    assert not rep.all_pass


def test_lemma_boundary_equalities_pass():
    # (x-1)^6: every comparison is an exact boundary tie
    rep = lemma_check(r_vector_from_roots([1, 1, 1, 1, 1, 1]))
    assert rep.all_pass, statuses(rep)
    # r_2 = (5/12) r_1^2 exactly for r_1=-6, r_2=15
    rep2 = lemma_check([-6, 15, -20, 15, -6, 1])
    assert rep2.conditions[1].status is Status.PASS


def test_lemma_quantities_degenerate():
    lq = lemma_quantities(r_vector_from_roots([1, 1, 1, 1, 1, 1]))
    assert lq.u2.is_zero() and lq.u3.is_zero() and lq.u4.is_zero()
    assert lq.delta.is_zero()
    assert lq.cubic_all_real and lq.quartic_all_real
    assert len(lq.betas) == 4


def test_lemma_quantities_u_formulas():
    lq = lemma_quantities(SIX_POSITIVE)
    r1, r2, r3, r4 = Fraction(-21), Fraction(175), Fraction(-735), Fraction(1624)
    assert lq.u2.to_fraction() == -r1 * r1 / 12 + r2 / 5
    assert lq.u3.to_fraction() == r1 ** 3 / 108 - r1 * r2 / 30 + r3 / 20
    assert lq.u4.to_fraction() == -(r1 ** 4) / 432 + r1 * r1 * r2 / 90 - r1 * r3 / 30 + r4 / 15


def test_theta_values_sorted_and_real():
    lq = lemma_quantities(SIX_POSITIVE)
    vals = sorted(sum(th.enclosure(40)) / 2 for th in lq.thetas)
    assert len(vals) == 3
    assert vals[0] <= vals[1] <= vals[2]


def test_lemma_necessity_randomized(rng):
    for _ in range(25):
        roots = [Fraction(rng.randint(1, 400), rng.randint(1, 40)) for _ in range(6)]
        if rng.random() < 0.3:
            roots[1] = roots[0]
        rep = lemma_check(r_vector_from_roots(roots))
        assert rep.all_pass, (roots, statuses(rep))


def test_enclosure_soundness_is_refinement_stable():
    lq = lemma_quantities(SIX_POSITIVE)
    for th in lq.thetas:
        lo1, hi1 = th.enclosure(24)
        lo2, hi2 = th.enclosure(96)
        assert lo1 <= lo2 <= hi2 <= hi1


def test_corollary_all_pass_on_t12_plus_64():
    rep = corollary_bounds((0, 0, 0, 0, 0, 0), P2)
    assert rep.all_pass, statuses(rep)


def test_corollary_item1_boundary():
    rep = corollary_bounds((17, 0, 0, 0, 0, 0), P2)
    assert "1" in rep.failures


def test_corollary_item9_value():
    # q = 2: |a_6| < 7392
    assert "9" in corollary_bounds((0, 0, 0, 0, 0, 7392), P2).failures
    assert "9" not in corollary_bounds((0, 0, 0, 0, 0, 7391), P2).failures


NONREAL_QUARTIC = "critical points of g are not all real"

# (q, a, failing conditions, note of condition 8).  Conditions 6 and 8 are
# decided by certified comparisons here (real critical points), except where
# the note says the quartic has non-real roots.
COROLLARY_TABLE = [
    (5, (-5, 23, -60, 193, -456, 1246), [], ""),
    (2, (-5, 19, -49, 108, -192, 296), ["8"], ""),
    (3, (3, -6, -28, -22, -26, 126), ["7", "8"], ""),
    (2, (1, 6, 5, 9, 14, 14), ["6", "8"], NONREAL_QUARTIC),
    (2, (3, 10, 18, 28, 48, 80), ["6", "8"], NONREAL_QUARTIC),
]


@pytest.mark.parametrize("q, a, failing, note8", COROLLARY_TABLE)
def test_corollary_table(q, a, failing, note8):
    rep = corollary_bounds(a, WeilParams.from_q(q))
    assert rep.failures == failing and not rep.indeterminates
    notes = {c.cond: c.note for c in rep.conditions}
    assert notes == {**{str(i): "" for i in range(1, 10)}, "8": note8}


S2 = QuadReal.sqrt(2)
# roots 1..5 and 3 + sqrt(2): irrational coefficients, so conditions 4 and 5
# are decided on enclosures that carry a sqrt(2) part
IRRATIONAL_R = [-18 - S2, 130 + 15 * S2, -480 - 85 * S2, 949 + 225 * S2, -942 - 274 * S2, 360 + 120 * S2]


@pytest.mark.parametrize(
    "index, shift, status5",
    [(None, 0, Status.PASS), (3, 1, Status.FAIL), (4, -1, Status.PASS), (4, 5, Status.FAIL)],
)
def test_lemma_irrational_coefficients(index, shift, status5):
    r = list(IRRATIONAL_R)
    if index is not None:
        r[index] = r[index] + shift * S2
    rep = lemma_check(r)
    assert [c.status for c in rep.conditions[:4]] == [Status.PASS] * 4
    assert rep.conditions[4].status is status5 and rep.conditions[4].note == ""


def test_precision_cap_is_indeterminate(monkeypatch, capsys):
    """Below START_BITS no comparison can be decided: lemma_check reports
    conditions 4 and 5 as indeterminate, while the corollary, which decides
    conditions 6 and 8 by exact real-root counts, needs no comparison."""
    q, a = COROLLARY_TABLE[0][:2]
    argv = ["bounds12", "--q", str(q), "--a", ",".join(map(str, a))]
    uncapped = main(argv)
    capsys.readouterr()
    monkeypatch.setattr(bounds12, "MAX_BITS", bounds12.START_BITS // 2)
    cap_note = f"comparison undecided at {bounds12.MAX_BITS} bits (value straddles the target)"
    rep = lemma_check(IRRATIONAL_R)
    assert rep.indeterminates == ["4", "5"] and not rep.failures
    assert {c.note for c in rep.conditions if c.cond in ("4", "5")} == {cap_note}
    rep = corollary_bounds(a, WeilParams.from_q(q))
    assert len(rep.conditions) == 9 and not rep.indeterminates
    assert main(argv) == uncapped
    assert '"status": "indeterminate"' not in capsys.readouterr().out


def test_corollary_necessity_sampled():
    for q in (2, 3, 4, 5, 9):
        P = WeilParams.from_q(q)
        for a in sample_weil12_no_real_roots(P, 25, seed=q):
            rep = corollary_bounds(a, P)
            assert not rep.failures, (q, a, statuses(rep))


def test_trivial_bounds_examples():
    assert "a1" in trivial_bounds((17, 0, 0, 0, 0, 0), P2).failures
    assert trivial_bounds((16, 0, 0, 0, 0, 0), P2).conditions[0].status is Status.PASS
    # closed boundary fails: equality needs all-real roots
    assert "a6" in trivial_bounds((0, 0, 0, 0, 0, 924 * 8), P2).failures


def test_u4_cross_check_identity():
    """The corollary's printed u4 equals the lemma u4 on both transforms."""
    from weilpoly.bounds12 import _as_quad
    from weilpoly.weil import r_coefficients

    rng = random.Random(3)
    for _ in range(20):
        q = rng.choice([2, 3, 5])
        P = WeilParams.from_q(q)
        a = tuple(rng.randint(-8, 8) for _ in range(6))
        a1, a2, a3, a4 = a[0], a[1], a[2], a[3]
        printed = (
            Fraction(-(a1 ** 4), 432)
            + Fraction(a1 * a1 * a2, 90)
            + Fraction(q * a1 * a1, 10)
            - Fraction(a1 * a3, 30)
            - Fraction(4 * q * a2, 15)
            + Fraction(a4, 15)
            + Fraction(3 * q * q, 5)
        )
        for tilde in (False, True):
            lq = lemma_quantities(r_coefficients(a, P, tilde=tilde))
            assert lq.u4 == _as_quad(printed)


def test_lemma_necessity_irrational_roots(rng):
    """Necessity holds for products of quadratics with positive real
    (generally irrational) roots, not just rational-rooted sextics."""
    done = 0
    while done < 40:
        poly = [Fraction(1)]
        ok = True
        for _ in range(3):
            s = Fraction(rng.randint(1, 40), rng.randint(1, 6))
            c = Fraction(rng.randint(1, 40), rng.randint(1, 6))
            if s * s < 4 * c:
                ok = False
                break
            new = [Fraction(0)] * (len(poly) + 2)
            for i, co in enumerate(poly):
                new[i] += co * c
                new[i + 1] += co * (-s)
                new[i + 2] += co
            poly = new
        if not ok:
            continue
        rep = lemma_check(list(reversed(poly))[1:])
        assert not rep.failures, (poly, statuses(rep))
        done += 1


def report_corpus(scale: int = 1):
    """A seeded corpus of bounds inputs, (kind, input) pairs.

    Per scale unit: 120 corollary inputs (Weil samples and near-misses on
    one a_i, q in {2, 3, 4, 5, 9}), 90 rational lemma vectors (positive
    rational roots, with r_4 or r_5 nudged) and 120 lemma vectors with
    sqrt(q) coefficients (r_coefficients of Weil samples on both
    transforms, with r_4 or r_5 nudged by 1 or sqrt(q)).
    """
    rng = random.Random(8)
    for q in (2, 3, 4, 5, 9):
        P = WeilParams.from_q(q)
        for n, a in enumerate(sample_weil12_no_real_roots(P, 18 * scale, seed=500 + q)):
            if n % 3 == 2:
                for tilde in (False, True):
                    r = r_coefficients(a, P, tilde=tilde)
                    yield "lemma", r
                    i = rng.choice((3, 4))
                    k = rng.choice((-2, -1, 1, 2))
                    nudge = k * rng.choice((QuadReal(1), QuadReal.sqrt(q)))
                    yield "lemma", (*r[:i], r[i] + nudge, *r[i + 1 :])
                continue
            yield "corollary", (q, a)
            i = rng.choice((0, 1, 2, 2, 3, 3, 4, 4, 5, 5))
            step = rng.choice((1, 2)) * rng.choice((1, q ** ((i + 2) // 2)))
            b = list(a)
            b[i] += rng.choice((-1, 1)) * step
            yield "corollary", (q, tuple(b))
    for _ in range(30 * scale):
        roots = [Fraction(rng.randint(1, 40), rng.randint(1, 4)) for _ in range(6)]
        r = r_vector_from_roots(roots)
        yield "lemma", r
        for i in (3, 4):
            s = list(r)
            s[i] += Fraction(rng.choice((-3, -1, 1, 3)), rng.choice((1, 2, 8)))
            yield "lemma", s


def report_digest(corpus) -> tuple[int, str]:
    """(number of inputs, sha256 of every report's statuses and notes)."""
    h = hashlib.sha256()
    n = 0
    for kind, x in corpus:
        if kind == "corollary":
            q, a = x
            rep = corollary_bounds(a, WeilParams.from_q(q))
        else:
            rep = lemma_check(x)
        line = ";".join(f"{c.cond}:{c.status.value}:{c.note}" for c in rep.conditions)
        h.update(f"{kind}|{line}\n".encode())
        n += 1
    return n, h.hexdigest()


def test_reports_match_parent_digest():
    """Statuses and notes of every report over the seeded corpus, pinned
    from the Fraction-based QuadReal implementation."""
    assert report_digest(report_corpus()) == (330, PINNED_REPORT_DIGEST)


NONREAL_CUBIC = "critical-point cubic has non-real roots"


def lemma_route(a, P):
    """(status, note) of corollary conditions 6 and 8 as lemma conditions
    (4) and (5) on both transforms: both sides must pass, an Indeterminate
    side makes the pair Indeterminate, and a failure carries the note of
    the first failing side."""
    rs = [r_coefficients(a, P, tilde=tilde) for tilde in (False, True)]
    sides = [(r, lemma_quantities(r)) for r in rs]
    out = []
    for checker in (_condition_r4, _condition_r5):
        sub = BoundsReport()
        for r, lq in sides:
            checker(r, sub, lq)
        f, t = sub.conditions
        if Status.INDETERMINATE in (f.status, t.status):
            out.append((Status.INDETERMINATE, f.note or t.note))
        elif f.status is Status.PASS and t.status is Status.PASS:
            out.append((Status.PASS, ""))
        else:
            out.append((Status.FAIL, f.note if f.status is Status.FAIL else t.note))
    return out


def repeated_root_companions(rng, n):
    """(q, a) of n degree-12 chi = t^6 h(t + q/t), each h a product of
    random integer linear and quadratic factors with multiplicities 1-3."""
    out = []
    while len(out) < n:
        h = IntPoly.one()
        while h.degree < 6:
            if rng.random() < 0.5:
                factor = IntPoly([rng.randint(-6, 6), 1])
            else:
                factor = IntPoly([rng.randint(-6, 12), rng.randint(-6, 6), 1])
            h = h * factor ** rng.randint(1, 3)
        if h.degree == 6:
            q = rng.choice((2, 3, 4, 5))
            chi = _from_companion(h, q)
            out.append((q, tuple(chi[12 - i] for i in range(1, 7))))
    return out


def test_corollary_6_and_8_match_the_lemma_route():
    """Corollary conditions 6 and 8, decided by real-root counts on the
    companion's derivatives, give the status and note of the certified
    comparisons on both transforms, on Weil samples, near-misses and
    companions with repeated roots."""
    corpus = [x for kind, x in report_corpus(2) if kind == "corollary"]
    corpus += repeated_root_companions(random.Random(11), 300)
    outcomes = set()
    for q, a in corpus:
        P = WeilParams.from_q(q)
        rep = corollary_bounds(a, P)
        got = [(c.status, c.note) for c in rep.conditions if c.cond in ("6", "8")]
        assert got == lemma_route(a, P), (q, a)
        outcomes.add(tuple(got))
    fail, ok = Status.FAIL, Status.PASS
    assert ((fail, NONREAL_CUBIC), (fail, NONREAL_QUARTIC)) in outcomes  # h''' not real-rooted
    assert ((fail, ""), (fail, NONREAL_QUARTIC)) in outcomes  # h'' not, h''' real-rooted
    assert ((ok, ""), (fail, "")) in outcomes  # h' not, h'' real-rooted
    assert ((ok, ""), (ok, "")) in outcomes
