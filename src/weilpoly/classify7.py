"""The degree-14 decision procedure: is f the characteristic polynomial of
Frobenius of a simple 7-dimensional abelian variety over F_q?

Pipeline: degree and symmetry checks, the Weil predicate, then the
factorization over Z.  A Weil input is factored through its degree-7
companion (weil.factor_weil), any other input by Zassenhaus on f itself.
The verdicts keep their order: when every multiplicity is divisible by 7, f
is the seventh power of the quadratic prod g^(m/7) read off the
factorization and routes to the multiplicity-7 criterion; any other
reducible input is terminal; only then is a non-Weil input rejected.  That
routing rests on the theorem that the Frobenius polynomial of a simple
abelian variety of prime dimension g >= 3 is m^e, m irreducible, with e in
{1, g}: at g = 7 a simple variety's f is irreducible or the seventh power
of a quadratic, so any other factorization gets the verdict reducible.  The
irreducible Weil f left has no real root.  Last come the Newton-polygon
case table, matched from the polygon's vertices alone, and the Tate
divisibility criterion, evaluated independently and cross-checked.  Both
read the Q_p factor profile, which padic.profile_weil takes from the
companion too: it mirrors h's profile below slope n/2 and reads f's Newton
side of slope n/2 by Ore's residual polynomial, and runs the engine on f
only when h's profile there is uncertified, h(0) = 0, or n is even and that
side's residual polynomial is not squarefree.  The Tate criterion is ground
truth; the table's role is explanatory, and disagreements are first-class
outcomes (the printed table has known transcription defects, flagged in the
table file).
"""

from __future__ import annotations

from math import gcd

from .arith import _record, vp
from .errors import StructuralError, UncertifiedProfileError
from .factorint import factor_over_integers
from .newton import (
    CaseRecord,
    NoMatch,
    _match_vertices,
    _points_and_vertices,
    case_by_id,
    load_case_table,
)
from .padic import _has_root_of_valuation, _profile_weil, tate_condition_profile
from .polynomial import IntPoly
from .weil import WeilParams, check_symmetry, factor_weil, is_weil


@_record
class Classification:
    verdict: str
    case_id: int | None = None
    tate_ok: bool | None = None
    table_ok: bool | None = None
    candidate_cases: tuple[int, ...] = ()
    failed_conditions: tuple[str, ...] = ()
    factors: tuple[str, ...] = ()
    detail: str = ""
    multiplicity: int | None = None

    def to_dict(self) -> dict:
        out = {"verdict": self.verdict}
        for key in (
            "case_id",
            "tate_ok",
            "table_ok",
            "multiplicity",
        ):
            val = getattr(self, key)
            if val is not None:
                out[key] = val
        if self.candidate_cases:
            out["candidate_cases"] = list(self.candidate_cases)
        if self.failed_conditions:
            out["failed_conditions"] = list(self.failed_conditions)
        if self.factors:
            out["factors"] = list(self.factors)
        if self.detail:
            out["detail"] = self.detail
        return out


def power_case(a: int, b: int, g: int, params: WeilParams) -> bool:
    """Is (t^2 + a t + b)^g Frobenius for a simple g-dimensional variety?

    Requires g | n, b = q, a^2 < 4q, and a = k q^(s/g) with gcd(k, p) = 1,
    gcd(s, g) = 1 and 1 <= s < g/2; the (k, s) witness is decided through
    the p-adic valuation of a.
    """
    if g <= 2:
        raise StructuralError("power criterion applies to g > 2")
    q, p, n = params.q, params.p, params.n
    if n % g or b != q or a * a >= 4 * q:
        return False
    if a == 0:
        return False
    v = vp(a, p)
    # a = k * p^v with p coprime to k; need v = n*s/g for an admissible s
    if (v * g) % n:
        return False
    s = v * g // n
    if s < 1 or 2 * s >= g:
        return False
    return gcd(s, g) == 1


def _count_scoped(profile, d: int, n: int) -> int:
    """Factors of exact degree d with root valuation strictly between 0 and n.

    The per-case factor-degree conditions constrain the blocks whose slopes
    are not the extreme ordinary values: a factor with all roots of valuation
    0 or n has constant-term valuation 0 or n*deg and can never violate the
    Tate divisibility, and the source's case-by-case factor lists never
    constrain those blocks.
    """
    count = 0
    for r in profile.factors:
        h, e = r.slope.numerator, r.slope.denominator
        if h == 0 or (e == 1 and h == n):
            continue
        if r.certified:
            if r.degree == d:
                count += 1
        elif d % r.granularity == 0 and r.degree >= d:
            raise UncertifiedProfileError(
                f"an unresolved block could contain degree-{d} factors"
            )
    return count


def _candidate_cases(rec: CaseRecord) -> tuple[int, ...]:
    """The record's id, or for a duplicate_pair record every duplicate_pair
    record printed with the same valuation constraints."""
    if "duplicate_pair" not in rec.flags:
        return (rec.case_id,)
    return tuple(
        r.case_id
        for r in load_case_table()
        if "duplicate_pair" in r.flags and r.printed == rec.printed
    )


def evaluate_side_conditions(profile, rec, n: int) -> tuple[bool, list[str]]:
    """Evaluate a case record's root and factor-degree conditions on a profile."""
    failed = []
    for val in rec.forbidden_valuations:
        if _has_root_of_valuation(profile, val.numerator * n, val.denominator):
            failed.append(f"root of valuation {val}n present")
    for d, op, c in rec.factor_conditions:
        count = _count_scoped(profile, d, n)
        ok = count == c if op == "==" else count <= c
        if not ok:
            failed.append(f"degree-{d} factor count {count} violates {op} {c}")
    return not failed, failed


def classify(f: IntPoly, params: WeilParams) -> Classification:
    """Full decision for degree-14 inputs; malformed inputs get rejecting
    verdicts, and not_degree_14 says in its detail what is wrong."""
    if f.is_zero():
        return Classification("not_degree_14", detail="zero polynomial")
    if f.degree != 14:
        return Classification("not_degree_14", detail=f"degree {f.degree}")
    if not f.is_monic():
        return Classification(
            "not_degree_14", detail=f"leading coefficient {f.lc()}, not monic"
        )
    if not check_symmetry(f, params):
        return Classification("not_symmetric")

    verdict = is_weil(f, params)
    if verdict.is_weil:
        _, factors = factor_weil(f, verdict, params)
    else:
        _, factors = factor_over_integers(f)
    if len(factors) > 1 or factors[0][1] > 1:
        if all(m % 7 == 0 for _, m in factors):
            # f = root^7 with root monic of degree 2
            root = IntPoly.one()
            for g, m in factors:
                root = root * g ** (m // 7)
            a, b = root[1], root[0]
            ok = power_case(a, b, 7, params)
            return Classification(
                "power_case",
                multiplicity=7,
                tate_ok=ok,
                detail=f"(t^2 + {a} t + {b})^7 " + ("accepted" if ok else "rejected"),
            )
        return Classification(
            "reducible",
            factors=tuple(f"{g}^{m}" if m > 1 else str(g) for g, m in factors),
        )

    if not verdict.is_weil:
        return Classification("not_weil", detail=verdict.reason)
    # f is irreducible of degree 14, so it has no factor t -+ sqrt(q) or
    # t^2 - q: no real roots at all

    # the case and the profile read only the vertices of f's Newton polygon
    _, vertices = _points_and_vertices(f, params.p)
    match = _match_vertices(vertices, params)
    try:
        profile = _profile_weil(f, verdict, params, vertices)
        tate = tate_condition_profile(profile, params.n)
    except UncertifiedProfileError as exc:
        return Classification("inconclusive", detail=str(exc))

    if isinstance(match, NoMatch):
        return Classification(
            "table_tate_disagreement" if tate else "rejected",
            tate_ok=tate,
            table_ok=False,
            failed_conditions=("no Newton-polygon case matches",),
            detail=f"nearest cases {list(match.nearest)}",
        )
    rec = case_by_id(match.case_id)
    try:
        table_ok, failed = evaluate_side_conditions(profile, rec, params.n)
    except UncertifiedProfileError as exc:
        return Classification(
            "inconclusive", case_id=match.case_id, tate_ok=tate, detail=str(exc)
        )

    if table_ok == tate:
        if tate:
            return Classification(
                "accepted", case_id=match.case_id, tate_ok=True, table_ok=True
            )
        return Classification(
            "rejected",
            case_id=match.case_id,
            tate_ok=False,
            table_ok=False,
            failed_conditions=tuple(failed),
        )
    if match.text_ambiguous:
        return Classification(
            "text_ambiguous",
            case_id=match.case_id,
            tate_ok=tate,
            table_ok=table_ok,
            candidate_cases=_candidate_cases(rec),
            failed_conditions=tuple(failed),
        )
    return Classification(
        "table_tate_disagreement",
        case_id=match.case_id,
        tate_ok=tate,
        table_ok=table_ok,
        failed_conditions=tuple(failed),
    )
