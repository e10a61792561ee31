"""Planted disagreements: each route that reports a disagreement, an
ambiguity or a failed side condition does so, with its JSON and exit code.

No real input is known to reach these branches (ROADMAP item 10 expects the
case table to agree with Tate's criterion wherever it is unflagged), so
every test plants one wrong answer by monkeypatch or builds the planted
record directly, on an input whose unplanted run is checked first.
"""

import json
from fractions import Fraction

import pytest

from weilpoly import bounds12, classify7
from weilpoly.bounds12 import ConditionResult, Status
from weilpoly.classify7 import classify
from weilpoly.cli import main
from weilpoly.errors import UncertifiedProfileError
from weilpoly.padic import (
    FactorRecord,
    PadicFactorProfile,
    _has_root_of_valuation,
    tate_condition_profile,
)
from weilpoly.weil import WeilParams, chi_from_a

P2 = WeilParams.from_q(2)

# q=2 witnesses from tests/data/g7_witnesses.txt, all accepted: case 2 is
# unflagged, case 25 is a duplicate_pair (printed like case 28) and case 21
# is reconstructed
CASE_2 = (-1, 0, 0, 0, 0, 0, 0)
CASE_25 = (-2, 0, 1, -1, 2, -1, 2)
CASE_21 = (-2, 0, 1, 1, 0, -2, 2)
# q=25 witness of case 6, unflagged, rejected by both routes
CASE_6_REJECTED = (3, 0, -10, -250, -50, 50, 0)


def plant_side_conditions(monkeypatch, answer):
    """evaluate_side_conditions answers `answer` on every case record."""
    monkeypatch.setattr(classify7, "evaluate_side_conditions", lambda profile, rec, n: answer)


def run(argv, capsys) -> tuple[int, dict]:
    code = main(argv)
    out, err = capsys.readouterr()
    assert err == ""
    return code, json.loads(out)


def compact(q: int, a) -> str:
    return f"q={q}; a=" + ",".join(map(str, a))


def point_box(a) -> str:
    return ",".join(f"{x}:{x}" for x in a)


@pytest.mark.parametrize(
    "q, a, case, tate, answer",
    [
        (2, CASE_2, 2, True, (False, ["planted"])),
        (25, CASE_6_REJECTED, 6, False, (True, [])),
    ],
    ids=["table-rejects-a-tate-accept", "table-accepts-a-tate-reject"],
)
def test_a_side_condition_that_contradicts_tate_is_a_disagreement(q, a, case, tate, answer, monkeypatch, capsys):
    """On an unflagged case, a table answer that contradicts Tate is a
    table_tate_disagreement: both answers and the failed conditions are
    reported, and classify14 exits 1."""
    params = WeilParams.from_q(q)
    chi = chi_from_a(a, params)
    before = classify(chi, params)
    assert (before.case_id, before.tate_ok, before.table_ok) == (case, tate, tate)
    plant_side_conditions(monkeypatch, answer)
    c = classify(chi, params)
    expected = {"verdict": "table_tate_disagreement", "case_id": case, "tate_ok": tate, "table_ok": not tate}
    if answer[1]:
        expected["failed_conditions"] = answer[1]
    assert c.to_dict() == expected
    code, doc = run(["classify14", compact(q, a)], capsys)
    assert (code, doc) == (1, {"schema_version": "1", "q": q, "classification": expected})


@pytest.mark.parametrize(
    "a, case, candidates",
    [(CASE_25, 25, [25, 28]), (CASE_21, 21, [21])],
    ids=["duplicate_pair", "reconstructed"],
)
def test_a_flagged_case_that_contradicts_tate_is_text_ambiguous(a, case, candidates, monkeypatch, capsys):
    """On a flagged case the same contradiction is text_ambiguous: the JSON
    lists every case printed like it (a duplicate_pair record's twins, or a
    reconstructed record alone), and classify14 exits 3."""
    chi = chi_from_a(a, P2)
    before = classify(chi, P2)
    assert (before.verdict, before.case_id) == ("accepted", case)
    plant_side_conditions(monkeypatch, (False, ["planted"]))
    expected = {
        "verdict": "text_ambiguous",
        "case_id": case,
        "tate_ok": True,
        "table_ok": False,
        "candidate_cases": candidates,
        "failed_conditions": ["planted"],
    }
    assert classify(chi, P2).to_dict() == expected
    code, doc = run(["classify14", compact(2, a)], capsys)
    assert (code, doc["classification"]) == (3, expected)


def test_cross_check_lists_a_planted_disagreement_as_a_violation(monkeypatch, capsys):
    """A degree-14 cross-check over a point box whose record the planted
    table rejects: a table-tate agreement violation, ok false, exit 1."""
    plant_side_conditions(monkeypatch, (False, ["planted"]))
    code, doc = run(["cross-check", "--degree", "14", "--q", "2", "--box", point_box(CASE_2)], capsys)
    report = doc["report"]
    assert code == 1 and report["ok"] is False
    assert report["violations"] == [
        {"a": list(CASE_2), "property": "table-tate agreement", "case": 2, "failed": ["planted"]}
    ]
    assert report["counts"] == {"records": 1, "table_tate_disagreement": 1}
    assert report["ambiguous"] == report["indeterminate"] == []


def test_cross_check_lists_a_planted_ambiguity_without_failing(monkeypatch, capsys):
    """The same plant on a duplicate_pair case is listed under ambiguous
    with its candidate cases; an ambiguity is not a violation, so the
    report stays ok and the command exits 0."""
    plant_side_conditions(monkeypatch, (False, ["planted"]))
    code, doc = run(["cross-check", "--degree", "14", "--q", "2", "--box", point_box(CASE_25)], capsys)
    report = doc["report"]
    assert code == 0 and report["ok"] is True
    assert report["ambiguous"] == [{"a": list(CASE_25), "candidates": [25, 28]}]
    assert report["counts"] == {"records": 1, "text_ambiguous": 1}
    assert report["violations"] == report["indeterminate"] == []


def test_cross_check_lists_a_planted_corollary_failure_as_a_violation(monkeypatch, capsys):
    """At degree 12, t^12 + 2^6 is Weil with no real root and passes every
    bound; a corollary report that fails condition 3 on it is a corollary
    necessity violation, ok false, exit 1."""
    argv = ["cross-check", "--degree", "12", "--q", "2", "--box", "0:0"]
    code, doc = run(argv, capsys)
    assert code == 0 and doc["report"]["counts"] == {"records": 1}
    orig = bounds12.corollary_bounds

    def planted(a, params):
        rep = orig(a, params)
        rep.conditions[2] = ConditionResult("3", Status.FAIL, "planted")
        return rep

    monkeypatch.setattr(bounds12, "corollary_bounds", planted)
    code, doc = run(argv, capsys)
    report = doc["report"]
    assert code == 1 and report["ok"] is False
    assert report["violations"] == [{"a": [0] * 6, "property": "corollary necessity", "failed": ["3"]}]


def test_an_unresolved_block_at_the_queried_valuation_is_inconclusive():
    """A planted uncertified block of slope 1/2 and granularity 1 could
    hold a root of valuation 1/2, so the query raises, and a root of
    another valuation is simply absent.  A certified root of the queried
    valuation answers before any block is asked."""
    block = FactorRecord(2, Fraction(1, 2), 1, None, False, 1)
    profile = PadicFactorProfile(2, 2, 1, (block,))
    with pytest.raises(UncertifiedProfileError, match="^an unresolved block could contain the queried root$"):
        _has_root_of_valuation(profile, 1, 2)
    assert _has_root_of_valuation(profile, 0, 1) is False
    unit_root = FactorRecord(1, Fraction(0), 0, 1, True)
    unit_block = FactorRecord(2, Fraction(0), 0, None, False, 1)
    with_root = PadicFactorProfile(2, 3, 0, (unit_block, unit_root))
    assert _has_root_of_valuation(with_root, 0, 1) is True
    with pytest.raises(UncertifiedProfileError):
        _has_root_of_valuation(PadicFactorProfile(2, 2, 0, (unit_block,)), 0, 1)


def test_an_unresolved_block_whose_unsplit_valuation_fails_tate_fails_it():
    """At q = 4 (n = 2), a planted uncertified block of degree 2 and slope
    1/2 with granularity 2 has constant valuation 1.  A factor of degree 2
    inside it would have that odd valuation too, so no split can pass: the
    profile fails Tate with no UncertifiedProfileError.  The same block
    with granularity 4 would pass whatever its split."""
    block = FactorRecord(2, Fraction(1, 2), 1, None, False, 2)
    assert tate_condition_profile(PadicFactorProfile(2, 2, 1, (block,)), 2) is False
    wide = FactorRecord(4, Fraction(1, 2), 2, None, False, 4)
    assert tate_condition_profile(PadicFactorProfile(2, 4, 2, (wide,)), 2) is True
