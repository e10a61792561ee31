import random
from fractions import Fraction

import pytest

from weilpoly import bounds12
from weilpoly.bounds12 import (
    Status,
    corollary_bounds,
    lemma_check,
    lemma_quantities,
    trivial_bounds,
)
from weilpoly.census import sample_weil12_no_real_roots
from weilpoly.cli import main
from weilpoly.quadreal import QuadReal
from weilpoly.weil import WeilParams

from conftest import r_vector_from_roots

P2 = WeilParams.from_q(2)

SIX_POSITIVE = r_vector_from_roots([1, 2, 3, 4, 5, 6])


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
    monkeypatch.setattr(bounds12, "MAX_BITS", bounds12.START_BITS // 2)
    q, a = COROLLARY_TABLE[0][:2]
    rep = corollary_bounds(a, WeilParams.from_q(q))
    assert rep.indeterminates == ["6", "8"] and not rep.failures
    cap_note = f"comparison undecided at {bounds12.MAX_BITS} bits (value straddles the target)"
    assert {c.note for c in rep.conditions if c.cond in ("6", "8")} == {cap_note}
    assert main(["bounds12", "--q", str(q), "--a", ",".join(map(str, a))]) == 3
    assert '"status": "indeterminate"' in capsys.readouterr().out


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
