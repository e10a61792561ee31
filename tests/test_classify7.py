import collections
import hashlib
import itertools
import json
import random
from pathlib import Path

import pytest

from weilpoly.cli import main
from weilpoly.classify7 import _candidate_cases, classify, multiplicity_options, power_case
from weilpoly.errors import StructuralError
from weilpoly.newton import case_by_id, load_case_table
from weilpoly.padic import qp_factor_profile, tate_condition_profile
from weilpoly.polynomial import IntPoly
from weilpoly.weil import WeilParams, chi_from_a, is_weil

P2 = WeilParams.from_q(2)
P128 = WeilParams.from_q(128)


def test_multiplicity_options():
    assert multiplicity_options(7) == {1, 7}
    assert multiplicity_options(5) == {1, 5}
    with pytest.raises(StructuralError):
        multiplicity_options(4)


def test_power_case_instances():
    assert power_case(2, 128, 7, P128)
    assert power_case(-2, 128, 7, P128)  # symmetric in the sign of a
    assert not power_case(0, 128, 7, P128)
    assert not power_case(1, 2, 7, P2)  # 7 does not divide 1
    assert not power_case(2, 64, 7, P128)  # b must be q
    # |a| < 2 sqrt q fails
    assert not power_case(23, 128, 7, P128)


def test_power_case_sign_monotonicity():
    for a in range(-22, 23):
        assert power_case(a, 128, 7, P128) == power_case(-a, 128, 7, P128)


def test_classify_power_cases():
    out = classify(IntPoly([2, 1, 1]) ** 7, P2)
    assert out.verdict == "power_case" and out.tate_ok is False
    out = classify(IntPoly([128, 2, 1]) ** 7, P128)
    assert out.verdict == "power_case" and out.tate_ok is True
    assert out.multiplicity == 7


@pytest.mark.parametrize("p, n, a", [(3, 35, 243), (5, 28, 625), (7, 21, 343)])
def test_classify_power_case_with_large_q(p, n, a):
    # q^7 is far beyond a double's exact range; the quadratic is read off the
    # factorization, not recovered from f(0)
    params = WeilParams(p, n)
    out = classify(IntPoly([params.q, a, 1]) ** 7, params)
    assert out.verdict == "power_case" and out.tate_ok is True


def test_classify_reducible():
    out = classify(IntPoly([128] + [0] * 13 + [1]), P2)
    assert out.verdict == "reducible"
    assert any("t^2+2" in f for f in out.factors)


def test_classify_rejects_malformed():
    assert classify(IntPoly([1, 1]), P2).verdict == "not_degree_14"
    bad = IntPoly([1] + [0] * 13 + [1])
    assert classify(bad, P2).verdict == "not_symmetric"


@pytest.mark.parametrize(
    "coeffs, detail",
    [
        ([], "zero polynomial"),
        ([2, 0, 1], "degree 2"),
        ([1] + [0] * 13 + [16384], "leading coefficient 16384, not monic"),
    ],
)
def test_not_degree_14_says_why(coeffs, detail):
    out = classify(IntPoly(coeffs), WeilParams.from_q(4))
    assert out.to_dict() == {"verdict": "not_degree_14", "detail": detail}


def test_cli_names_a_non_monic_degree_14_input(capsys):
    text = ",".join(["1"] + ["0"] * 13 + ["16384"])
    assert main(["classify14", "--q", "4", text]) == 1
    assert json.loads(capsys.readouterr().out)["classification"] == {
        "detail": "leading coefficient 16384, not monic",
        "verdict": "not_degree_14",
    }


def test_duplicate_pair_candidates_come_from_the_table():
    for rec in load_case_table():
        expected = (25, 28) if rec.case_id in (25, 28) else (rec.case_id,)
        assert _candidate_cases(rec) == expected


def test_classify_not_weil():
    # symmetric degree 14 with huge a_1 cannot be Weil
    chi = chi_from_a((40, 0, 0, 0, 0, 0, 0), P2)
    out = classify(chi, P2)
    assert out.verdict in ("not_weil", "reducible")
    if out.verdict == "not_weil":
        assert not is_weil(chi, P2).is_weil


def test_classify_ordinary_accepted():
    chi = chi_from_a((0, 0, -1, 0, 0, 0, 1), P2)
    if is_weil(chi, P2).is_weil:
        out = classify(chi, P2)
        if out.verdict == "accepted":
            assert out.case_id == 28 or out.tate_ok
    # a concrete ordinary accepted instance found by scan
    chi = chi_from_a((-1, -1, 0, 0, 1, 0, 1), P2)
    out = classify(chi, P2)
    assert out.verdict == "accepted" and out.case_id == 28
    assert out.tate_ok and out.table_ok


def test_accepted_implies_invariant_chain():
    from weilpoly.factorint import is_irreducible_over_z
    from weilpoly.newton import lattice_vertex_check, newton_polygon

    hits = 0
    for a in itertools.product((-1, 0, 1), repeat=4):
        chi = chi_from_a(a + (0, 0, 0), P2)
        out = classify(chi, P2)
        if out.verdict != "accepted":
            continue
        hits += 1
        verdict = is_weil(chi, P2)
        assert verdict.is_weil and not verdict.real_roots
        assert is_irreducible_over_z(chi)
        assert lattice_vertex_check(newton_polygon(chi, 2), 1)
        profile = qp_factor_profile(chi, 2)
        assert tate_condition_profile(profile, 1)
        if hits >= 8:
            break
    assert hits > 0


def test_table_tate_agreement_spot(rng):
    """Random degree-14 Weil instances at q in {2, 4}: no unflagged
    disagreement; flagged cases may disagree only via the flag path."""
    for q in (2, 4):
        P = WeilParams.from_q(q)
        edge_count = 0
        for _ in range(200):
            a = tuple(rng.randint(-2, 2) for _ in range(7))
            chi = chi_from_a(a, P)
            if not is_weil(chi, P).is_weil:
                continue
            out = classify(chi, P)
            assert out.verdict != "table_tate_disagreement", (q, a, out)
            edge_count += out.verdict == "accepted"
        assert edge_count > 0


def test_verdict_digest_of_the_degree14_scan():
    """Every field of every verdict on the Weil candidates of the q=2,
    |a_i| <= 1 box and on 60 seeded q=8 draws (the draws of
    random.Random("scan14/1"), Weil or not), pinned as one digest."""
    P8 = WeilParams.from_q(8)
    rows = []
    for a in itertools.product((-1, 0, 1), repeat=7):
        chi = chi_from_a(a, P2)
        if is_weil(chi, P2).is_weil:
            rows.append([2, list(a), classify(chi, P2).to_dict()])
    rng = random.Random("scan14/1")
    for _ in range(60):
        a = [rng.randint(-3, 3) for _ in range(7)]
        rows.append([8, a, classify(chi_from_a(a, P8), P8).to_dict()])
    verdicts = collections.Counter(row[2]["verdict"] for row in rows)
    assert verdicts == {"accepted": 1494, "reducible": 129, "rejected": 19, "not_weil": 13}
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert digest == "0ff6dde0199e2eb90614baf93658251948b64ba8805ce7e3c352137314325512"


WITNESSES = Path(__file__).parent / "data" / "g7_witnesses.txt"


def _witness_rows():
    for line in WITNESSES.read_text().splitlines():
        if line and not line.startswith("#"):
            q, a, expected, code = line.split("\t")
            yield pytest.param(q, a, json.loads(expected), int(code), id=f"q={q};a={a}")


@pytest.mark.parametrize("q, a, expected, code", _witness_rows())
def test_degree14_witnesses(q, a, expected, code, capsys):
    """Each witness row reaches a branch of the degree-14 decision: the
    acceptance of table cases 2, 3, 6, 8-12, 14-18, 20-23, 25, 26 and
    28-31, the rejection of cases 6, 8, 11, 16, 17 and 21 on their side conditions,
    and the inconclusive exit of chi's engine fallback."""
    assert main(["classify14", f"q={q}; a={a}"]) == code
    assert json.loads(capsys.readouterr().out)["classification"] == expected


# The coverage matrix of the case table: 61 cells, every case `accepted`
# and every case but 28 `rejected`, as (verdict, case ids).  The cells the
# witness rows reach are pinned here; a new witness of an open cell moves
# that cell from OPEN_CELLS to REACHED_CELLS.
REACHED_CELLS = {
    "accepted": (
        2, 3, 6, 8, 9, 10, 11, 12, 14, 15, 16, 17,
        18, 20, 21, 22, 23, 25, 26, 28, 29, 30, 31,
    ),
    "rejected": (6, 8, 11, 16, 17, 21),
}
OPEN_CELLS = {
    "accepted": (1, 4, 5, 7, 13, 19, 24, 27),
    "rejected": (
        1, 2, 3, 4, 5, 7, 9, 10, 12, 13, 14, 15, 18,
        19, 20, 22, 23, 24, 25, 26, 27, 29, 30, 31,
    ),
}


def test_case_table_coverage_matrix():
    """Every cell of the matrix is reached by a witness row or named open.
    Case 28 has no side condition, so its table verdict is always true and
    an input matching it is never `rejected`: that cell is not in the
    matrix."""
    rec28 = case_by_id(28)
    assert not rec28.forbidden_valuations and not rec28.factor_conditions
    cells = {(v, rec.case_id) for rec in load_case_table() for v in ("accepted", "rejected")}
    cells.discard(("rejected", 28))
    assert len(cells) == 61
    reached = set()
    for row in _witness_rows():
        expected = row.values[2]
        if expected["verdict"] in ("accepted", "rejected"):
            reached.add((expected["verdict"], expected["case_id"]))
    pinned = {(v, c) for v, ids in REACHED_CELLS.items() for c in ids}
    named_open = {(v, c) for v, ids in OPEN_CELLS.items() for c in ids}
    assert reached == pinned
    assert cells - reached == named_open
    assert (len(pinned), len(named_open)) == (29, 32)
