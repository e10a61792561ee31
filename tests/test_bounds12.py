import hashlib
import json
import random
from fractions import Fraction
from math import isqrt
from pathlib import Path

import pytest

from weilpoly import bounds12, weil
from weilpoly.bounds12 import (
    BoundsReport,
    ConditionResult,
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
from weilpoly.oracle import count_real_roots_descartes
from weilpoly.polynomial import IntPoly, _prem
from weilpoly.quadreal import QuadPoly, QuadReal
from weilpoly.weil import (
    WeilParams,
    _from_companion,
    _sturm_chain,
    chi_from_a,
    is_weil,
    r_coefficients,
    symmetric_v,
)

from conftest import r_vector_from_roots

P2 = WeilParams.from_q(2)

SIX_POSITIVE = r_vector_from_roots([1, 2, 3, 4, 5, 6])

PINNED_REPORT_DIGEST = "dbbd5c7f552ef9ffcd4ce5df7b69121dba977dd875f445685d4691d6972c1714"
PINNED_STURM_DIGEST = "9b5196c19454f875723798423517cbf4b0646a2b4b8bed0f8ca13cc6f2045a05"
PINNED_BOUNDS_DIGEST = "1b3976e0cf1d3736b8f79c4a06860f402ce2e0cd9442af247e4a18c6176551d4"


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
NONREAL_CUBIC = "critical-point cubic has non-real roots"
RADICAND_NEGATIVE = "radicand negative (condition 2 already fails)"

# (q, a, failing conditions, note of condition 8).  Conditions 6 and 8 are
# decided by certified comparisons here (real critical points), except where
# the note says the quartic has non-real roots.  The rows after the first
# five sit on the boundary of one squared-out radical condition.
COROLLARY_TABLE = [
    (5, (-5, 23, -60, 193, -456, 1246), [], ""),
    (2, (-5, 19, -49, 108, -192, 296), ["8"], ""),
    (3, (3, -6, -28, -22, -26, 126), ["7", "8"], ""),
    (2, (1, 6, 5, 9, 14, 14), ["6", "8"], NONREAL_QUARTIC),
    (2, (3, 10, 18, 28, 48, 80), ["6", "8"], NONREAL_QUARTIC),
    # condition 4 passes at W = 0 with B = 0, then at 25 B^2 = W^3 with W > 0
    (2, (0, 12, 0, 0, 0, 0), ["6", "8"], NONREAL_QUARTIC),
    (2, (-8, -3, 280, 0, 0, 0), ["2", "5", "6", "7", "8"], NONREAL_QUARTIC),
    # conditions 2, 5 and 7 at equality (fail), then one step inside
    (4, (12, 24, 0, 0, 0, 0), ["2", "3", "5", "7"], ""),
    (4, (12, 25, 0, 0, 0, 0), ["3", "5", "7"], ""),
    (9, (0, 0, 10, -8325, 0, 0), ["5", "6", "7", "8"], NONREAL_QUARTIC),
    (9, (0, 0, 10, -8324, 0, 0), ["6", "7", "8"], NONREAL_QUARTIC),
    (4, (0, 0, 0, 0, 1152, 0), ["7", "8"], ""),
    (4, (0, 0, 0, 0, 1151, 0), ["8"], ""),
]


@pytest.mark.parametrize("q, a, failing, note8", COROLLARY_TABLE)
def test_corollary_table(q, a, failing, note8):
    rep = corollary_bounds(a, WeilParams.from_q(q))
    assert rep.failures == failing and not rep.indeterminates
    notes = {c.cond: c.note for c in rep.conditions}
    assert notes == {**{str(i): "" for i in range(1, 10)}, "8": note8}


def test_corollary_condition3_equality():
    """b sqrt(q) = |c| at square q: condition 3 fails, as do 4 to 8."""
    rep = corollary_bounds((0, 0, 896, 0, 0, 0), WeilParams.from_q(4))
    assert rep.failures == ["3", "4", "5", "6", "7", "8"]
    notes = {c.cond: c.note for c in rep.conditions if c.note}
    assert notes == {"6": NONREAL_CUBIC, "8": NONREAL_QUARTIC}


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


DIGEST_QS = (2, 3, 4, 5, 7, 8, 9, 16, 25)


def bounds_digest_corpus(rng: random.Random, per_q: int):
    """(q, a) for every q in DIGEST_QS, per_q of each, in turn:
      - the a_1..a_6 of chi = t^6 h(t + q/t), h a product of integer linear
        factors x - u with u^2 <= 4q (a Weil block, with roots +-sqrt(q)
        when u^2 = 4q) and monic integer quadratics;
      - the same with one a_i moved by 1 or 2 times q^ceil(i/2);
      - a vector drawn in the acceptance sampler's rejection box (|a_i| up
        to 12r, 60q, 160qr, 240q^2, 192q^2 r, 64q^3 with r = isqrt(q) + 1).
    """
    for q in DIGEST_QS:
        s, r = isqrt(4 * q), isqrt(q) + 1
        box = (12 * r, 60 * q, 160 * q * r, 240 * q * q, 192 * q * q * r, 64 * q ** 3)
        for k in range(per_q):
            if k % 3 == 2:
                yield q, tuple(rng.randint(-b, b) for b in box)
                continue
            h = IntPoly.one()
            while h.degree < 6:
                if h.degree == 5 or rng.random() < 0.7:
                    h = h * IntPoly([rng.randint(-s, s), 1])
                else:
                    h = h * IntPoly([rng.randint(-2 * q, 4 * q), rng.randint(-s, s), 1])
            chi = _from_companion(h, q)
            a = [chi[12 - i] for i in range(1, 7)]
            if k % 3 == 1:
                i = rng.randrange(6)
                a[i] += rng.choice((-2, -1, 1, 2)) * q ** ((i + 2) // 2)
            yield q, tuple(a)


def test_bounds_and_verdicts_match_the_pinned_digest():
    """corollary_bounds and trivial_bounds as JSON, and is_weil's verdict, on
    a seeded corpus at nine q, pinned as one digest computed before the
    reports shared their rows and before _sturm_chain took its steps in
    closed form."""
    digest = hashlib.sha256()
    notes, verdicts = set(), set()
    for q, a in bounds_digest_corpus(random.Random(39), 90):
        P = WeilParams.from_q(q)
        cor = corollary_bounds(a, P).to_dict()
        triv = trivial_bounds(a, P).to_dict()
        v = is_weil(chi_from_a(a, P), P)
        row = [q, a, cor, triv, v.is_weil, v.real_roots, v.companion.coeffs, v.reason]
        digest.update((json.dumps(row, sort_keys=True) + "\n").encode())
        notes.update(c["note"] for c in cor["conditions"])
        verdicts.add((v.is_weil, bool(v.real_roots)))
    assert notes == {"", NONREAL_CUBIC, NONREAL_QUARTIC, RADICAND_NEGATIVE}
    assert verdicts == {(True, True), (True, False), (False, True), (False, False)}
    assert digest.hexdigest() == PINNED_BOUNDS_DIGEST


OK_OF = {Status.PASS: True, Status.FAIL: False, Status.INDETERMINATE: None}


def test_note_less_rows_are_shared():
    """Two reports on one input hold the same row instances, those of the
    row table."""
    for bounds in (corollary_bounds, trivial_bounds):
        first, second = bounds((0, 0, 0, 0, 0, 0), P2), bounds((0, 0, 0, 0, 0, 0), P2)
        assert len(first.conditions) in (6, 9)
        for x, y in zip(first.conditions, second.conditions, strict=True):
            assert x is y is bounds12._ROWS[(x.cond, True)]


@pytest.mark.parametrize(
    "a, cond, note",
    [
        ((0, 12, 0, 0, 0, 0), "8", NONREAL_QUARTIC),
        ((0, 8, -6, 31, 10, 76), "6", NONREAL_CUBIC),
        ((0, 40, 0, 0, 0, 0), "4", RADICAND_NEGATIVE),
    ],
)
def test_rows_with_a_note_are_built_per_call(a, cond, note):
    first, second = (
        next(c for c in corollary_bounds(a, P2).conditions if c.cond == cond) for _ in range(2)
    )
    assert first == second == ConditionResult(cond, Status.FAIL, note)
    assert first is not second
    assert all(first is not row for row in bounds12._ROWS.values())


def test_the_row_table_never_grows(monkeypatch, capsys):
    """10,000 mixed calls leave the row table as it was: corollary_bounds,
    trivial_bounds, lemma_check (some with the precision cap below
    START_BITS, so that its notes carry the exception's text) and add() with
    ids outside the table.  Every note-less row of a table id is the
    table's, every row with a note a fresh one.  The bounds12_zero golden
    output stays byte-identical before and after."""
    golden = (Path(__file__).parent / "golden" / "bounds12_zero.golden").read_text()
    argv = ["bounds12", "--q", "2", "--a", "0,0,0,0,0,0"]
    assert main(argv) == 0 and capsys.readouterr().out == golden
    rows = dict(bounds12._ROWS)
    corpus = list(bounds_digest_corpus(random.Random(40), 30))
    full, capped = bounds12.MAX_BITS, bounds12.START_BITS // 2
    capped_notes = 0
    for k in range(10_000):
        q, a = corpus[k % len(corpus)]
        P = WeilParams.from_q(q)
        if k % 100 == 0:
            monkeypatch.setattr(bounds12, "MAX_BITS", capped if k % 200 else full)
            rep = lemma_check(r_coefficients(a, P, tilde=k % 300 == 0))
        elif k % 100 == 1:
            rep = BoundsReport()
            rep.add(f"x{k}", k % 3 == 0)
            rep.add("1", True, f"note {k}")
        else:
            rep = (corollary_bounds if k % 2 else trivial_bounds)(a, P)
        for c in rep.conditions:
            shared = rows.get((c.cond, OK_OF[c.status]))
            if c.note or shared is None:
                assert c is not shared and c == ConditionResult(c.cond, c.status, c.note)
            else:
                assert c is shared
            capped_notes += c.note.startswith(f"comparison undecided at {capped} bits")
    assert capped_notes > 0
    assert bounds12._ROWS == rows
    assert main(argv) == 0 and capsys.readouterr().out == golden


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


def descartes_real_rooted(p: IntPoly) -> bool:
    """Whether p has only real roots, by the Descartes oracle: its distinct
    real roots number the degree of its squarefree part."""
    qp = QuadPoly(p.coeffs)
    return count_real_roots_descartes(qp) == qp.squarefree_part().degree


def test_corollary_6_and_8_match_descartes_bisection():
    """Corollary conditions 6 and 8 against real-root counts of h''', h''
    and h' by Descartes bisection (no Sturm chain, no discriminant)."""
    corpus = [x for kind, x in report_corpus(2) if kind == "corollary"]
    corpus += repeated_root_companions(random.Random(11), 300)
    for q, a in corpus:
        P = WeilParams.from_q(q)
        h1 = IntPoly([*reversed(symmetric_v(a, P)), 1]).derivative()
        h2 = h1.derivative()
        real1, real2, real3 = (descartes_real_rooted(p) for p in (h1, h2, h2.derivative()))
        want6 = (Status.FAIL, NONREAL_CUBIC) if not real3 else (Status.PASS if real2 else Status.FAIL, "")
        want8 = (Status.FAIL, NONREAL_QUARTIC) if not real2 else (Status.PASS if real1 else Status.FAIL, "")
        rep = corollary_bounds(a, P)
        got = [(c.status, c.note) for c in rep.conditions if c.cond in ("6", "8")]
        assert got == [want6, want8], (q, a)


def _cubic(*factors) -> IntPoly:
    out = IntPoly.one()
    for f in factors:
        out = out * IntPoly(f)
    return out


# (integer cubic built from factors, real-rooted?)
CUBICS = [
    (_cubic([-1, 1], [-2, 1], [3, 1]), True),  # distinct real roots
    (_cubic([120], [1, 2], [-3, 5], [7, 1]), True),
    (_cubic([-1, 1], [-1, 1], [2, 1]), True),  # a double root
    (_cubic([120], [3, 2], [3, 2], [-1, 4]), True),
    (_cubic([-2, 1], [-2, 1], [-2, 1]), True),  # a triple root
    (_cubic([120], [5, 3], [5, 3], [5, 3]), True),
    (_cubic([0, 1], [0, 1], [0, 1]), True),
    (_cubic([-1, 1], [1, 1, 1]), False),  # a real root times a non-real pair
    (_cubic([120], [4, 3], [5, -2, 1]), False),
    (_cubic([0, 1], [1, 0, 1]), False),
    (_cubic([-1, 1], [1, -2, 2]), False),  # the pair's real part at the real root
]


@pytest.mark.parametrize("cubic, real", CUBICS)
def test_cubic_discriminant_criterion(cubic, real):
    assert cubic.degree == 3
    assert bounds12._cubic_real_rooted(cubic.coeffs) is real
    assert (_sturm_chain(cubic.coeffs) is not None) is real
    assert descartes_real_rooted(cubic) is real


def sturm_kernel_corpus(rng: random.Random, n: int) -> list[list[int]]:
    """Integer polynomials of degree 0-8 with either sign of the leading
    coefficient: products of integer linear factors (a small root pool, so
    roots repeat), some times an irreducible quadratic, and real-rooted
    products nudged by +-1 in one coefficient."""
    out = []
    for _ in range(n):
        d = rng.randint(0, 8)
        p = IntPoly([rng.choice([-6, -2, -1, 1, 1, 1, 3])])
        kind = rng.choice(["real", "real", "complex", "nudged"])
        if kind == "complex" and d >= 2:
            p = p * IntPoly([rng.randint(1, 5), rng.randint(-2, 2), 1])
            d -= 2
        for _ in range(d):
            p = p * IntPoly([rng.choice([-3, -1, 0, 1, 2, 5]), rng.choice([1, 1, 2])])
        c = list(p.coeffs)
        if kind == "nudged":
            c[rng.randrange(len(c))] += rng.choice([-1, 1])
        if c[-1] == 0:  # the nudge cleared the leading coefficient
            c = list(IntPoly(c).coeffs) or [1]
        out.append(c)
    return out


def test_sturm_chain_kernel_matches_descartes_bisection():
    """The kernel's verdict against the Descartes oracle; a real-rooted input
    of positive degree gets the whole chain of its squarefree part: one
    member per degree down to the constant 1, every leading coefficient
    positive."""
    seen = set()
    for c in sturm_kernel_corpus(random.Random(32), 600):
        chain = _sturm_chain(c)
        real = descartes_real_rooted(IntPoly(c))
        assert (chain is not None) is real, c
        seen.add((len(c) - 1, c[-1] > 0, real))
        if real:
            assert [len(p) for p in chain] == list(range(len(chain[0]), 0, -1)), c
            assert all(p[-1] > 0 for p in chain) and (len(chain) == 1 or chain[-1] == [1]), c
    assert {d for d, _, _ in seen} == set(range(9))
    assert {(pos, real) for _, pos, real in seen} == {(s, r) for s in (True, False) for r in (True, False)}


@pytest.mark.parametrize("c", [(-2, 3, -1), (0, -1), (1, 0, -1)], ids=["-(x-1)(x-2)", "-x", "1-x^2"])
def test_sturm_chain_keeps_the_roots_of_a_negative_leading_coefficient(c):
    chain = _sturm_chain(c)
    assert chain is not None
    assert chain[0] == [-x for x in c]
    assert descartes_real_rooted(IntPoly(c))


def test_sturm_chain_stops_at_the_first_member_that_breaks_real_rootedness(monkeypatch):
    calls, prem = [], weil._sturm_step

    def counting(a, b):
        calls.append((a, b))
        return prem(a, b)

    monkeypatch.setattr(weil, "_sturm_step", counting)
    assert _sturm_chain((0, 1, 0, 1)) is None  # x^3 + x: its third member is -x
    assert len(calls) == 1
    del calls[:]
    quintic = (IntPoly([-1, 1]) * IntPoly([-2, 1]) * IntPoly([1, 1]) * IntPoly([3, 1]) * IntPoly([-5, 2])).coeffs
    assert len(_sturm_chain(quintic)) == 6
    assert len(calls) == 4


def sturm_digest_corpus(rng: random.Random, n: int) -> list[list[int]]:
    """Integer polynomials of degree 1-9 with either sign of the leading
    coefficient: products of integer linear and quadratic factors, each to
    the power 1-3 (so roots repeat), and dense polynomials with coefficients
    up to 1000 in absolute value."""
    out = []
    while len(out) < n:
        d = rng.randint(1, 9)
        if rng.random() < 0.25:
            lead = rng.choice((-1, 1)) * rng.randint(1, 50)
            out.append([rng.randint(-1000, 1000) for _ in range(d)] + [lead])
            continue
        p = IntPoly([rng.choice((-6, -2, -1, 1, 1, 3))])
        while p.degree < d:
            if rng.random() < 0.6:
                factor = IntPoly([rng.randint(-5, 5), rng.choice((1, 1, 2, 3))])
            else:
                factor = IntPoly([rng.randint(-3, 9), rng.randint(-6, 6), 1])
            p = p * factor ** rng.randint(1, 3)
        if p.degree <= 9:
            out.append(list(p.coeffs))
    return out


def test_sturm_chains_match_the_pinned_digest():
    """_sturm_chain on a seeded corpus, pinned as one digest computed with the
    general pseudo-remainder loop, before the chain took its steps in closed
    form."""
    digest = hashlib.sha256()
    degrees, signs, outcomes = set(), set(), set()
    for c in sturm_digest_corpus(random.Random(37), 3000):
        chain = _sturm_chain(c)
        digest.update(f"{c}|{chain}\n".encode())
        degrees.add(len(c) - 1)
        signs.add(c[-1] > 0)
        # None, real-rooted and squarefree, or real-rooted with repeated roots
        outcomes.add(None if chain is None else len(chain[0]) == len(c))
    assert degrees == set(range(1, 10)) and signs == {True, False}
    assert outcomes == {None, True, False}
    assert digest.hexdigest() == PINNED_STURM_DIGEST


def test_sturm_step_is_the_pseudo_remainder():
    """The chain's closed-form step against polynomial._prem on seeded pairs
    with deg a = deg b + 1 >= 2, among them pairs where b divides a."""
    rng = random.Random(38)
    zero = 0
    for _ in range(3000):
        n = rng.randint(1, 8)
        b = [rng.randint(-30, 30) for _ in range(n)] + [rng.choice((-1, 1)) * rng.randint(1, 9)]
        if rng.random() < 0.2:
            a = list((IntPoly(b) * IntPoly([rng.randint(-9, 9), rng.randint(1, 5)])).coeffs)
        else:
            a = [rng.randint(-30, 30) for _ in range(n + 1)] + [rng.choice((-1, 1)) * rng.randint(1, 9)]
        want = _prem(a, b)
        assert weil._sturm_step(a, b) == want, (a, b)
        zero += not want
    assert zero > 500


# One input per outcome class of conditions 6 and 8, with the Sturm chains
# corollary_bounds builds for it: the cubic is decided by its discriminant,
# h' by a chain, and h'' by a chain only when h' fails.
CHAIN_CASES = [
    (2, (3, 8, 13, 25, 38, 64), ((Status.PASS, ""), (Status.PASS, "")), 1),
    (2, (-2, 9, -13, 32, -32, 72), ((Status.PASS, ""), (Status.FAIL, "")), 2),
    (2, (3, 8, 5, 25, 38, 64), ((Status.FAIL, ""), (Status.FAIL, NONREAL_QUARTIC)), 2),
    (2, (0, 8, -6, 31, 10, 76), ((Status.FAIL, NONREAL_CUBIC), (Status.FAIL, NONREAL_QUARTIC)), 0),
]


def count_sturm_chains(monkeypatch) -> list:
    """Every h that corollary_bounds builds a Sturm chain for, from now on."""
    calls = []

    def counting(h):
        calls.append(h)
        return _sturm_chain(h)

    monkeypatch.setattr(bounds12, "_sturm_chain", counting)
    return calls


@pytest.mark.parametrize("q, a, outcome, chains", CHAIN_CASES)
def test_corollary_sturm_chain_count(monkeypatch, q, a, outcome, chains):
    calls = count_sturm_chains(monkeypatch)
    rep = corollary_bounds(a, WeilParams.from_q(q))
    assert tuple((c.status, c.note) for c in rep.conditions if c.cond in ("6", "8")) == outcome
    assert len(calls) == chains


def test_weil_inputs_cost_one_sturm_chain(monkeypatch):
    calls = count_sturm_chains(monkeypatch)
    for q in (2, 3, 4, 5, 9):
        P = WeilParams.from_q(q)
        for a in sample_weil12_no_real_roots(P, 10, seed=q):
            del calls[:]
            assert corollary_bounds(a, P).all_pass
            assert len(calls) == 1, (q, a)


@pytest.mark.parametrize("bad", [1.5, 1.0, Fraction(3, 2), Fraction(1), "7", None])
def test_bounds_reject_non_integer_coefficients(bad):
    a = (bad, 0, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        corollary_bounds(a, P2)
    with pytest.raises(ValueError):
        trivial_bounds(a, P2)
