from fractions import Fraction
from pathlib import Path

import pytest

from weilpoly.errors import StructuralError
from weilpoly.newton import (
    NoMatch,
    PolygonCaseId,
    _match_vertices,
    _points_and_vertices,
    _signature,
    case_by_id,
    lattice_vertex_check,
    load_case_table,
    newton_polygon,
    polygon_case_id,
)
from weilpoly.polynomial import IntPoly
from weilpoly.weil import WeilParams, chi_from_a

from conftest import synthetic_valuations


def seg_data(np_):
    return [(s.slope, s.length) for s in np_.segments]


def test_spec_polygon_examples():
    p = 3
    np1 = newton_polygon(IntPoly([p, p, 1]), p)
    assert np1.vertices == ((0, 1), (2, 0))
    assert seg_data(np1) == [(Fraction(-1, 2), 2)]
    np2 = newton_polygon(IntPoly([-9, 0, 1]), 3)
    assert seg_data(np2) == [(Fraction(-1), 2)]
    np3 = newton_polygon(IntPoly([128] + [0] * 13 + [1]), 2)
    assert np3.vertices == ((0, 7), (14, 0))
    assert seg_data(np3) == [(Fraction(-1, 2), 14)]


def test_zero_constant_rejected():
    with pytest.raises(StructuralError):
        newton_polygon(IntPoly([0, 1, 1]), 2)


def test_collinear_points_are_not_vertices():
    # points (0,2), (1,1), (2,0) collinear
    np_ = newton_polygon(IntPoly([4, 2, 1]), 2)
    assert np_.vertices == ((0, 2), (2, 0))


def test_lattice_vertex_check():
    np3 = newton_polygon(IntPoly([128] + [0] * 13 + [1]), 2)
    assert lattice_vertex_check(np3, 1)
    assert not lattice_vertex_check(np3, 2)
    # supersingular at n=2: interior collinear midpoint is not a vertex
    chi = chi_from_a((0, 0, 0, 0, 0, 0, 0), WeilParams(2, 2))
    np4 = newton_polygon(chi, 2)
    assert np4.vertices == ((0, 14), (14, 0))
    assert lattice_vertex_check(np4, 2)


def test_hull_above_property(rng):
    for _ in range(120):
        p = rng.choice([2, 3, 5])
        deg = rng.randint(2, 14)
        coeffs = [
            rng.choice([1, 2, 3, 5, 7]) * p ** rng.randint(0, 6)
            for _ in range(deg + 1)
        ]
        np_ = newton_polygon(IntPoly(coeffs), p)
        # every point on or above every segment, exact rational arithmetic
        for x, y in np_.points:
            for s in np_.segments:
                x1, y1 = s.start
                x2, _ = s.end
                if x1 <= x <= x2:
                    assert Fraction(y) >= Fraction(y1) + s.slope * (x - x1)


def test_table_well_formed():
    table = load_case_table()
    assert len(table) == 31
    assert len({rec.vertices for rec in table}) == 31
    flagged = {rec.case_id for rec in table if rec.text_ambiguous}
    assert flagged == {17, 21, 23, 24, 25, 26, 27, 28, 29, 30, 31}
    # every record still carries seven printed constraint rows
    for rec in table:
        assert len(rec.printed) == 7


def test_table_with_repeated_signature_rejected(monkeypatch):
    from importlib import resources

    from weilpoly import newton

    text = resources.files("weilpoly.data").joinpath("g7_cases.txt").read_text()
    # give record 3 the vertices of record 2
    edited = text.replace("vertices: (1,6);(4,4) |", "vertices: (1,6) |")
    assert edited != text

    class _Files:
        def joinpath(self, name):
            return self

        def read_text(self):
            return edited

    class _Resources:
        @staticmethod
        def files(package):
            return _Files()

    monkeypatch.setattr(newton, "resources", _Resources)
    load_case_table.cache_clear()
    try:
        with pytest.raises(StructuralError, match="distinct"):
            load_case_table()
    finally:
        monkeypatch.undo()
        load_case_table.cache_clear()
    assert len(load_case_table()) == 31


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_generator_identity(n):
    params = WeilParams(2, n)
    for rec in load_case_table():
        v = synthetic_valuations(rec, n)
        a = tuple(2 ** vi for vi in v)
        chi = chi_from_a(a, params)
        np_ = newton_polygon(chi, 2)
        res = polygon_case_id(np_, params)
        assert isinstance(res, PolygonCaseId)
        assert res.case_id == rec.case_id


def test_case_matching_examples():
    P2 = WeilParams(2, 1)
    np3 = newton_polygon(IntPoly([128] + [0] * 13 + [1]), 2)
    res = polygon_case_id(np3, P2)
    assert res.case_id == 1
    # ordinary: v_2(a_7) = 0
    chi = chi_from_a((0, 0, 0, 0, 0, 0, 1), P2)
    res = polygon_case_id(newton_polygon(chi, 2), P2)
    assert res.case_id == 28 and res.text_ambiguous
    # item 2 pattern: v_2(a_1) = 0 forces the (1, 6n) vertex
    chi = chi_from_a((1, 0, 0, 0, 0, 0, 0), P2)
    res = polygon_case_id(newton_polygon(chi, 2), P2)
    assert res.case_id == 2


def test_no_match_for_off_grid_polygon():
    # vertex heights not divisible by n cannot match any case
    params = WeilParams(2, 2)
    chi = chi_from_a((2, 0, 0, 0, 0, 0, 0), params)  # v(a_1) = 1, off-grid at n=2
    np_ = newton_polygon(chi, 2)
    sig = _signature(np_.vertices, 2)
    if sig is None:
        res = polygon_case_id(np_, params)
        assert isinstance(res, NoMatch)


def test_duality_with_profile(rng):
    from weilpoly.factorint import poly_gcd
    from weilpoly.padic import qp_factor_profile

    done = 0
    while done < 40:
        p = rng.choice([2, 3, 5])
        deg = rng.randint(2, 10)
        coeffs = [
            rng.choice([1, 3, 5, 7, 11]) * p ** rng.randint(0, 4)
            for _ in range(deg + 1)
        ]
        coeffs[-1] = 1
        f = IntPoly(coeffs)
        if poly_gcd(f, f.derivative()).degree > 0:
            continue
        np_ = newton_polygon(f, p)
        prof = qp_factor_profile(f, p)
        assert prof.slope_multiset() == np_.valuation_multiset()
        done += 1


WITNESSES = Path(__file__).parent / "data" / "g7_witnesses.txt"


def _matcher_inputs():
    """(f, params) pairs: every degree-14 witness row, a synthetic polygon of
    each of the 31 cases at n = 1, 2 and 3, a polygon whose interior
    vertices match no case, and one whose heights are off the n-grid."""
    for line in WITNESSES.read_text().splitlines():
        if line and not line.startswith("#"):
            q, a = line.split("\t")[:2]
            params = WeilParams.from_q(int(q))
            yield chi_from_a(tuple(map(int, a.split(","))), params), params
    for n in (1, 2, 3):
        params = WeilParams(2, n)
        for rec in load_case_table():
            a = tuple(2**v for v in synthetic_valuations(rec, n))
            yield chi_from_a(a, params), params
    # vertices (0, 7), (3, 4), (5, 3), (14, 0): each interior vertex is some
    # case's, the pair is none's
    yield IntPoly([2**7, 0, 0, 2**4, 0, 2**3] + [0] * 8 + [1]), WeilParams(2, 1)
    # the vertex (1, 1) is off the grid of n = 2
    yield IntPoly([2**14, 2] + [0] * 12 + [1]), WeilParams(2, 2)


def test_vertex_matcher_agrees_with_polygon_case_id():
    """classify's matcher reads only the vertices, and gives polygon_case_id's
    case id, text_ambiguous flag and NoMatch.nearest on every input."""
    seen = set()
    for f, params in _matcher_inputs():
        full = polygon_case_id(newton_polygon(f, params.p), params)
        fast = _match_vertices(_points_and_vertices(f, params.p)[1], params)
        # records compare by class and every field
        assert fast == full, (f, params)
        seen.add(full.case_id if isinstance(full, PolygonCaseId) else full.nearest)
    assert seen == set(range(1, 32)) | {(4, 10, 14), ()}


def test_vertex_matcher_needs_degree_14():
    """The degree is the last vertex's abscissa minus the first's, as the sum
    of polygon_case_id's side lengths."""
    f = IntPoly([2**6] + [0] * 11 + [1])
    for match in (
        lambda: polygon_case_id(newton_polygon(f, 2), WeilParams(2, 1)),
        lambda: _match_vertices(_points_and_vertices(f, 2)[1], WeilParams(2, 1)),
    ):
        with pytest.raises(StructuralError, match="degree-14"):
            match()
