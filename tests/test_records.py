"""The behaviour of the package's 16 record types, pinned field by field.

Each record builds __init__, __repr__, __eq__ and __hash__ from its class
annotations.  These tests pin what callers see of that: positional and
keyword construction with defaults, equality only between records of the
same type, equal hashes for equal immutable records, the exact repr,
refused assignment, and every refusal of a record's own validation.
"""

from fractions import Fraction

import pytest

from weilpoly.bounds12 import BoundsReport, ConditionResult, LemmaQuantities, Status
from weilpoly.census import CensusRecord, EnumerationSpec
from weilpoly.classify7 import Classification
from weilpoly.errors import StructuralError
from weilpoly.newton import CaseRecord, NewtonPolygon, NoMatch, PolygonCaseId, Segment
from weilpoly.padic import FactorRecord, PadicFactorProfile
from weilpoly.polynomial import IntPoly
from weilpoly.weil import RealRootReduction, WeilParams, WeilVerdict

P2 = WeilParams(2, 1)
SEG = Segment(Fraction(-1, 2), 2, (0, 1), (2, 0))

# (record type, every field by name, the repr of that record)
RECORDS = [
    (
        ConditionResult,
        {"cond": "2", "status": Status.FAIL, "note": "why"},
        "ConditionResult(cond='2', status=<Status.FAIL: 'fail'>, note='why')",
    ),
    (
        BoundsReport,
        {"conditions": [ConditionResult("1", Status.PASS)]},
        "BoundsReport(conditions=[ConditionResult(cond='1', "
        "status=<Status.PASS: 'pass'>, note='')])",
    ),
    (
        LemmaQuantities,
        {
            "u2": 1,
            "u3": 2,
            "u4": 3,
            "delta": 4,
            "poly_part": 5,
            "cubic": IntPoly([1, 0, 0, 1]),
            "quartic": IntPoly([1, 0, 0, 0, 1]),
            "cubic_all_real": True,
            "quartic_all_real": False,
            "thetas": [],
            "betas": [],
            "g1": 6,
        },
        "LemmaQuantities(u2=1, u3=2, u4=3, delta=4, poly_part=5, "
        "cubic=IntPoly([1, 0, 0, 1]), quartic=IntPoly([1, 0, 0, 0, 1]), "
        "cubic_all_real=True, quartic_all_real=False, thetas=[], betas=[], g1=6)",
    ),
    (
        EnumerationSpec,
        {
            "degree": 2,
            "params": P2,
            "box": ((-2, 2),),
            "weil_only": True,
            "irreducible_only": False,
            "no_real_roots": True,
        },
        "EnumerationSpec(degree=2, params=WeilParams(p=2, n=1), box=((-2, 2),), "
        "weil_only=True, irreducible_only=False, no_real_roots=True)",
    ),
    (
        CensusRecord,
        {"a": (1, -1), "is_weil": True, "real_roots": False},
        "CensusRecord(a=(1, -1), is_weil=True, real_roots=False)",
    ),
    (
        Classification,
        {
            "verdict": "rejected",
            "case_id": 17,
            "tate_ok": False,
            "table_ok": False,
            "candidate_cases": (17,),
            "failed_conditions": ("x",),
            "factors": ("t+1",),
            "detail": "d",
            "multiplicity": 7,
        },
        "Classification(verdict='rejected', case_id=17, tate_ok=False, "
        "table_ok=False, candidate_cases=(17,), failed_conditions=('x',), "
        "factors=('t+1',), detail='d', multiplicity=7)",
    ),
    (
        Segment,
        {"slope": Fraction(-1, 2), "length": 2, "start": (0, 1), "end": (2, 0)},
        "Segment(slope=Fraction(-1, 2), length=2, start=(0, 1), end=(2, 0))",
    ),
    (
        NewtonPolygon,
        {"points": ((0, 1), (2, 0)), "vertices": ((0, 1), (2, 0)), "segments": (SEG,)},
        "NewtonPolygon(points=((0, 1), (2, 0)), vertices=((0, 1), (2, 0)), "
        "segments=(Segment(slope=Fraction(-1, 2), length=2, start=(0, 1), "
        "end=(2, 0)),))",
    ),
    (
        CaseRecord,
        {
            "case_id": 3,
            "vertices": ((1, 0),),
            "printed": ((1, "<", Fraction(1, 2)),),
            "forbidden_valuations": (Fraction(1, 3),),
            "factor_conditions": ((2, "==", 1),),
            "flags": ("duplicate_pair",),
        },
        "CaseRecord(case_id=3, vertices=((1, 0),), "
        "printed=((1, '<', Fraction(1, 2)),), "
        "forbidden_valuations=(Fraction(1, 3),), "
        "factor_conditions=((2, '==', 1),), flags=('duplicate_pair',))",
    ),
    (
        PolygonCaseId,
        {"case_id": 28, "text_ambiguous": False},
        "PolygonCaseId(case_id=28, text_ambiguous=False)",
    ),
    (NoMatch, {"nearest": (1, 2)}, "NoMatch(nearest=(1, 2))"),
    (
        FactorRecord,
        {
            "degree": 2,
            "slope": Fraction(1, 2),
            "const_valuation": 1,
            "residual_degree": None,
            "certified": False,
            "granularity": 2,
        },
        "FactorRecord(degree=2, slope=Fraction(1, 2), const_valuation=1, "
        "residual_degree=None, certified=False, granularity=2)",
    ),
    (
        PadicFactorProfile,
        {
            "p": 2,
            "degree": 2,
            "const_valuation": 1,
            "factors": (FactorRecord(2, Fraction(1, 2), 1, 1, True),),
        },
        "PadicFactorProfile(p=2, degree=2, const_valuation=1, "
        "factors=(FactorRecord(degree=2, slope=Fraction(1, 2), const_valuation=1, "
        "residual_degree=1, certified=True, granularity=1),))",
    ),
    (WeilParams, {"p": 3, "n": 2}, "WeilParams(p=3, n=2)"),
    (
        WeilVerdict,
        {"is_weil": True, "real_roots": ((1, 2),), "companion": IntPoly([-8, 0, 1]), "reason": "r"},
        "WeilVerdict(is_weil=True, real_roots=((1, 2),), "
        "companion=IntPoly([-8, 0, 1]), reason='r')",
    ),
    (
        RealRootReduction,
        {"kind": "square_q", "factor": IntPoly([-2, 1]), "quotient": IntPoly([1])},
        "RealRootReduction(kind='square_q', factor=IntPoly([-2, 1]), "
        "quotient=IntPoly([1]))",
    ),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]
# immutable and hashable; BoundsReport is mutable, and LemmaQuantities holds
# lists, so neither hashes
FROZEN = [row for row in RECORDS if row[0] not in (BoundsReport, LemmaQuantities)]
FROZEN_IDS = [cls.__name__ for cls, _, _ in FROZEN]

# (record type, the required fields, the defaults of the others)
DEFAULTS = [
    (ConditionResult, {"cond": "1", "status": Status.PASS}, {"note": ""}),
    (BoundsReport, {}, {"conditions": []}),
    (
        EnumerationSpec,
        {"degree": 2, "params": P2},
        {"box": (), "weil_only": False, "irreducible_only": False, "no_real_roots": False},
    ),
    (
        Classification,
        {"verdict": "accepted"},
        {
            "case_id": None,
            "tate_ok": None,
            "table_ok": None,
            "candidate_cases": (),
            "failed_conditions": (),
            "factors": (),
            "detail": "",
            "multiplicity": None,
        },
    ),
    (
        FactorRecord,
        {
            "degree": 1,
            "slope": Fraction(0),
            "const_valuation": 0,
            "residual_degree": 1,
            "certified": True,
        },
        {"granularity": 1},
    ),
    (
        WeilVerdict,
        {"is_weil": False, "real_roots": (), "companion": None},
        {"reason": ""},
    ),
    (RealRootReduction, {"kind": "no_real_root"}, {"factor": None, "quotient": None}),
]


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, fields, text):
    by_name = cls(**fields)
    by_position = cls(*fields.values())
    assert by_name == by_position
    assert all(getattr(by_position, k) == v for k, v in fields.items())


@pytest.mark.parametrize("cls, required, defaults", DEFAULTS, ids=[r[0].__name__ for r in DEFAULTS])
def test_defaults(cls, required, defaults):
    rec = cls(**required)
    assert {k: getattr(rec, k) for k in defaults} == defaults
    assert rec == cls(*required.values(), *defaults.values())


def test_bounds_report_defaults_are_not_shared():
    one, two = BoundsReport(), BoundsReport()
    one.add("1", True)
    assert two.conditions == [] and len(one.conditions) == 1


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=IDS)
def test_repr(cls, fields, text):
    assert repr(cls(**fields)) == text


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=IDS)
def test_equality_is_fieldwise_within_one_type(cls, fields, text):
    rec = cls(**fields)
    assert rec == cls(**fields) and not rec != cls(**fields)

    class Other(cls):
        pass

    # a different type with equal fields is never equal, either way round
    other = Other(**fields)
    assert rec != other and other != rec and not rec == other
    assert rec != tuple(fields.values())
    assert (rec == None) is False  # noqa: E711


@pytest.mark.parametrize(
    "rec, changed",
    [
        (ConditionResult("1", Status.PASS), ConditionResult("1", Status.FAIL)),
        (BoundsReport(), BoundsReport([ConditionResult("1", Status.PASS)])),
        (Classification("accepted"), Classification("accepted", detail="x")),
        (NoMatch((1,)), NoMatch((2,))),
        (WeilParams(2, 1), WeilParams(2, 2)),
        (Segment(Fraction(0), 1, (0, 0), (1, 0)), Segment(Fraction(0), 2, (0, 0), (2, 0))),
    ],
    ids=lambda r: type(r).__name__,
)
def test_a_changed_field_breaks_equality(rec, changed):
    assert rec != changed and not rec == changed


@pytest.mark.parametrize("cls, fields, text", FROZEN, ids=FROZEN_IDS)
def test_equal_records_hash_equal(cls, fields, text):
    one, two = cls(**fields), cls(*fields.values())
    assert one is not two and hash(one) == hash(two)
    assert len({one, two}) == 1


def test_a_bounds_report_does_not_hash():
    with pytest.raises(TypeError):
        hash(BoundsReport())


@pytest.mark.parametrize("cls, fields, text", FROZEN, ids=FROZEN_IDS)
def test_assignment_is_refused(cls, fields, text):
    rec = cls(**fields)
    name = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(rec, name, getattr(rec, name))
    with pytest.raises(AttributeError):
        rec.unknown_field = 1
    with pytest.raises(AttributeError):
        delattr(rec, name)
    assert getattr(rec, name) == fields[name]


def test_a_bounds_report_is_mutable():
    rep = BoundsReport()
    rep.conditions = [ConditionResult("1", Status.PASS)]
    assert rep.all_pass and rep == BoundsReport([ConditionResult("1", Status.PASS)])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: WeilParams(4, 1), "4 is not prime"),
        (lambda: WeilParams(2, 0), "n must be positive"),
        (
            lambda: FactorRecord(3, Fraction(1, 2), 1, None, True),
            "degree not divisible by the slope denominator",
        ),
        (
            lambda: FactorRecord(2, Fraction(1, 2), 2, None, True),
            "constant valuation must be degree \\* slope",
        ),
        (
            lambda: PadicFactorProfile(2, 3, 1, (FactorRecord(2, Fraction(1, 2), 1, 1, True),)),
            "factor degrees do not sum to deg f",
        ),
        (
            lambda: PadicFactorProfile(2, 2, 0, (FactorRecord(2, Fraction(1, 2), 1, 1, True),)),
            "constant valuations do not sum",
        ),
    ],
)
def test_structural_refusals(build, message):
    with pytest.raises(StructuralError, match=message):
        build()


@pytest.mark.parametrize(
    "box, message",
    [
        (((4, -4),), "lo > hi \\+ 1"),
        (((0, 0), (0, 0)), "box has 2 ranges, degree 2 needs 1"),
    ],
)
def test_enumeration_spec_refusals(box, message):
    with pytest.raises(ValueError, match=message):
        EnumerationSpec(degree=2, params=P2, box=box)
    # an empty range (lo, lo - 1) is allowed
    assert EnumerationSpec(degree=2, params=P2, box=((3, 2),)).size() == 0


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: WeilParams(2.0, 1), "p must be an integer, got 2.0"),
        (lambda: WeilParams("2", 1), "p must be an integer, got '2'"),
        (lambda: WeilParams(2, 1.0), "n must be an integer, got 1.0"),
        (lambda: WeilParams(Fraction(2), 1), "p must be an integer, got Fraction\\(2, 1\\)"),
        (lambda: WeilParams.from_q(2.0), "q must be an integer, got 2.0"),
        (lambda: WeilParams.from_q(Fraction(4)), "q must be an integer, got Fraction\\(4, 1\\)"),
        (lambda: WeilParams.from_q("4"), "q must be an integer, got '4'"),
    ],
)
def test_weil_params_takes_integers_only(build, message):
    with pytest.raises(StructuralError, match=message):
        build()


def test_weil_params_stores_plain_ints():
    class Small(int):
        pass

    params = WeilParams(Small(2), Small(3))
    assert type(params.p) is int and type(params.n) is int
    assert params == WeilParams(2, 3) and params.q == 8
    assert WeilParams.from_q(Small(8)) == params
