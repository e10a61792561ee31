"""Newton polygons at a prime p and the degree-14 case table.

newton_polygon computes the lower convex hull of (i, v_p(c_i)) by a
monotone-chain sweep; collinear interior points are not vertices, zero
coefficients contribute no point.  lattice_vertex_check enforces the
admissibility condition for Frobenius polygons over F_{p^n}: every hull
vertex height must be divisible by n (integral breakpoints in v_q units).

The 31-case table for symmetric degree-14 polynomials ships as a text file
(data/g7_cases.txt).  Each record carries the canonical polygon signature
(the interior hull vertices at indices 1..7, heights as multiples of n),
the valuation constraints exactly as printed in the source (including the
defective lines), the side conditions on the Q_p factorization, and a flag
for records whose printed valuation data had to be reconstructed from the
polygon geometry.  polygon_case_id matches the canonical signatures, which
load_case_table checks are pairwise distinct, so a polygon matches at most
one record.  It reads only the polygon's vertices, through _match_vertices,
which classify calls on the vertices of _points_and_vertices directly, so no
Segment is built on that path.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from importlib import resources

from .arith import _record, vp
from .errors import StructuralError
from .polynomial import IntPoly
from .weil import WeilParams


def lower_hull(pts: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Monotone-chain lower convex hull of points sorted by abscissa.

    Collinear interior points are dropped, so every returned point is a vertex.
    """
    hull: list[tuple[int, int]] = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # pop if hull turns left or goes straight at (x2, y2)
            cross = (x2 - x1) * (pt[1] - y1) - (pt[0] - x1) * (y2 - y1)
            if cross <= 0:
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


@_record
class Segment:
    slope: Fraction
    length: int
    start: tuple[int, int]
    end: tuple[int, int]


@_record
class NewtonPolygon:
    points: tuple[tuple[int, int], ...]
    vertices: tuple[tuple[int, int], ...]
    segments: tuple[Segment, ...]

    def slope_multiset(self) -> dict[Fraction, int]:
        out: dict[Fraction, int] = {}
        for s in self.segments:
            out[s.slope] = out.get(s.slope, 0) + s.length
        return out

    def valuation_multiset(self) -> dict[Fraction, int]:
        """Root valuations: negatives of the slopes."""
        return {-s: m for s, m in self.slope_multiset().items()}


def newton_polygon(f: IntPoly, p: int) -> NewtonPolygon:
    """Lower convex hull of {(i, v_p(c_i)) : c_i != 0}."""
    if f.is_zero():
        raise StructuralError("zero polynomial has no Newton polygon")
    if f[0] == 0:
        raise StructuralError("constant term vanishes; factor out t-powers first")
    pts, hull = _points_and_vertices(f, p)
    segments = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        segments.append(
            Segment(Fraction(y2 - y1, x2 - x1), x2 - x1, (x1, y1), (x2, y2))
        )
    return NewtonPolygon(pts, hull, tuple(segments))


def _points_and_vertices(f: IntPoly, p: int):
    """The points (i, v_p(c_i)) of f's nonzero coefficients and the vertices
    of their lower hull, both as tuples; f has a nonzero constant term."""
    pts = tuple((i, vp(c, p)) for i, c in enumerate(f.coeffs) if c)
    return pts, tuple(lower_hull(pts))


def lattice_vertex_check(np_: NewtonPolygon, n: int) -> bool:
    """Every hull vertex height divisible by n."""
    return all(y % n == 0 for _, y in np_.vertices)


# -- the degree-14 case table ---------------------------------------------------


@_record
class CaseRecord:
    case_id: int
    vertices: tuple[tuple[int, int], ...]  # (index, height/n) for indices 1..7
    printed: tuple[tuple[int, str, Fraction], ...]  # (k, relation, c) as printed
    forbidden_valuations: tuple[Fraction, ...]  # root valuations, units of n
    factor_conditions: tuple[tuple[int, str, int], ...]  # (degree, op, count)
    flags: tuple[str, ...]

    @property
    def text_ambiguous(self) -> bool:
        return bool(self.flags)


@_record
class PolygonCaseId:
    case_id: int
    text_ambiguous: bool


@_record
class NoMatch:
    nearest: tuple[int, ...]


@lru_cache(maxsize=1)
def load_case_table() -> tuple[CaseRecord, ...]:
    text = resources.files("weilpoly.data").joinpath("g7_cases.txt").read_text()
    records = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = {}
        for part in line.split("|"):
            key, _, val = part.partition(":")
            fields[key.strip()] = val.strip()
        case_id = int(fields["case"])
        verts = []
        if fields.get("vertices"):
            for chunk in fields["vertices"].split(";"):
                i, h = chunk.strip("() ").split(",")
                verts.append((int(i), int(h)))
        printed = []
        if fields.get("printed"):
            for chunk in fields["printed"].split(";"):
                k, rel, c = chunk.split()
                printed.append((int(k.lstrip("a")), rel, Fraction(c)))
        forb = []
        if fields.get("noroot"):
            forb = [Fraction(x) for x in fields["noroot"].split(",")]
        fconds = []
        if fields.get("factors"):
            for chunk in fields["factors"].split(";"):
                d, op, c = chunk.split()
                fconds.append((int(d), op, int(c)))
        flags = tuple(x for x in fields.get("flags", "").split(",") if x)
        records.append(
            CaseRecord(
                case_id,
                tuple(verts),
                tuple(printed),
                tuple(forb),
                tuple(fconds),
                flags,
            )
        )
    if len(records) != 31:
        raise StructuralError(f"case table must have 31 records, found {len(records)}")
    if len({rec.vertices for rec in records}) != len(records):
        raise StructuralError("case table records must have distinct vertex signatures")
    return tuple(records)


def case_by_id(case_id: int) -> CaseRecord:
    for rec in load_case_table():
        if rec.case_id == case_id:
            return rec
    raise KeyError(case_id)


def _signature(vertices, n: int) -> tuple | None:
    """A polygon's vertices with index 1..7 as (index, height/n); None if
    some height is not divisible by n (no Frobenius case can match)."""
    sig = []
    for i, y in vertices:
        if 1 <= i <= 7:
            if y % n != 0:
                return None
            sig.append((i, y // n))
    return tuple(sig)


def polygon_case_id(np_: NewtonPolygon, params: WeilParams):
    """Match a symmetric degree-14 polygon against the 31 canonical cases."""
    return _match_vertices(np_.vertices, params)


def _match_vertices(vertices, params: WeilParams):
    """polygon_case_id, given the polygon's vertices: only they are read, and
    the polygon's degree (the sum of its side lengths) is the last vertex's
    abscissa minus the first's."""
    if not vertices or vertices[-1][0] - vertices[0][0] != 14:
        raise StructuralError("case matching needs a degree-14 polygon")
    sig = _signature(vertices, params.n)
    table = load_case_table()
    if sig is None:
        return NoMatch(())
    for rec in table:
        if rec.vertices == sig:
            return PolygonCaseId(rec.case_id, rec.text_ambiguous)
    # nearest: cases sharing the most vertices
    scored = sorted(
        table,
        key=lambda rec: -len(set(rec.vertices) & set(sig)),
    )
    return NoMatch(tuple(r.case_id for r in scored[:3]))
