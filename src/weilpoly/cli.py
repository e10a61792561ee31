"""Command-line surface: every checker behind one executable.

Commands emit a single JSON document on stdout (CSV rows for enumerate with
--format csv), with a schema_version field and keys sorted, so outputs are
byte-stable.  Exit status contract: 0 affirmative, 1 definite negative,
2 usage or parse error, 3 inconclusive (precision cap or uncertified
profile).  Polynomials are written constant term first: "2,0,1" is t^2 + 2.
The compact symmetric form "q=2^3; a=1,0,2" carries its own ground field.

Each command runs in a fresh interpreter, so the module loads only what
every command needs (parsing, the Weil predicate) and each cmd_* imports
its own checker.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from .arith import is_prime
from .errors import StructuralError, WeilpolyError
from .polynomial import IntPoly, int_list_from_string, poly_from_string
from .weil import WeilParams, chi_from_a, is_weil

SCHEMA_VERSION = "1"


class UsageError(Exception):
    pass


def parse_q(text: str) -> WeilParams:
    """Accept 'p^n' or a plain prime-power integer."""
    text = text.strip()
    if "^" in text:
        base, _, exp = text.partition("^")
        try:
            p, n = int(base), int(exp)
        except ValueError:
            raise UsageError(f"cannot parse prime power {text!r}") from None
        try:
            return WeilParams(p, n)
        except StructuralError as exc:
            raise UsageError(str(exc)) from None
    try:
        q = int(text)
    except ValueError:
        raise UsageError(f"cannot parse prime power {text!r}") from None
    try:
        return WeilParams.from_q(q)
    except StructuralError as exc:
        raise UsageError(str(exc)) from None


def parse_int_list(text: str) -> tuple[int, ...]:
    """polynomial.int_list_from_string, its diagnostic as a UsageError."""
    try:
        return int_list_from_string(text)
    except StructuralError as exc:
        raise UsageError(str(exc)) from None


def parse_poly_input(text: str, q: str | None):
    """Parse coefficient-list or compact symmetric input and its ground field.

    Returns (IntPoly, WeilParams).  q, the --q flag, is parsed first; the
    compact form 'q=<p>^<n>; a=<a_1,...,a_g>' carries its own ground field,
    which overrides it.  UsageError when neither gives one.
    """
    params = parse_q(q) if q else None
    stripped = text.strip()
    if stripped.startswith("q="):
        head, sep, tail = stripped.partition(";")
        if not sep:
            raise UsageError(
                f"missing ';' separating q from a at position {len(head)}"
            )
        params = parse_q(head[2:])
        tail = tail.strip()
        if not tail.startswith("a="):
            raise UsageError(
                f"expected 'a=' after ';' in the compact form"
            )
        return chi_from_a(parse_int_list(tail[2:]), params), params
    poly = IntPoly(parse_int_list(stripped))
    if params is None:
        raise UsageError("no ground field: pass --q or use the compact input form")
    return poly, params


def _dumps(doc: dict) -> str:
    """doc as one line of sorted-key JSON.  An integer of any size is written
    in full: the interpreter's limit on int-to-str digits (4,300 by default,
    where sys has set_int_max_str_digits) is lifted while json.dumps runs
    and restored after.  Input parsing keeps the limit, so a coefficient
    of more digits is still a usage error."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return json.dumps(doc, sort_keys=True) + "\n"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return json.dumps(doc, sort_keys=True) + "\n"
    finally:
        sys.set_int_max_str_digits(limit)


def emit(doc: dict) -> None:
    sys.stdout.write(_dumps({"schema_version": SCHEMA_VERSION, **doc}))


def cmd_check_weil(args) -> int:
    poly, params = parse_poly_input(args.poly, args.q)
    try:
        verdict = is_weil(poly, params)
    except StructuralError as exc:
        emit({"is_weil": False, "error": str(exc), "q": params.q})
        return 1
    doc = {
        "q": params.q,
        "is_weil": verdict.is_weil,
        "companion_coefficients": list(verdict.companion.coeffs)
        if verdict.companion
        else None,
        "real_roots": [
            {"root": f"{s}*sqrt({params.q})", "multiplicity": m}
            for s, m in verdict.real_roots
        ],
    }
    if verdict.reason:
        doc["reason"] = verdict.reason
    emit(doc)
    return 0 if verdict.is_weil else 1


def cmd_bounds12(args) -> int:
    from .bounds12 import corollary_bounds, trivial_bounds

    params = parse_q(args.q)
    a = parse_int_list(args.a)
    if len(a) != 6:
        raise UsageError("bounds12 needs exactly six coefficients a_1..a_6")
    rep = corollary_bounds(a, params)
    triv = trivial_bounds(a, params)
    doc = {
        "q": params.q,
        "a": list(a),
        "corollary": rep.to_dict(),
        "trivial": triv.to_dict(),
        "all_pass": rep.all_pass and triv.all_pass,
    }
    emit(doc)
    return 0 if doc["all_pass"] else 1


def cmd_classify14(args) -> int:
    from .classify7 import classify

    poly, params = parse_poly_input(args.poly, args.q)
    result = classify(poly, params)
    doc = {"q": params.q, "classification": result.to_dict()}
    emit(doc)
    if result.verdict == "accepted" or (
        result.verdict == "power_case" and result.tate_ok
    ):
        return 0
    if result.verdict in ("inconclusive", "text_ambiguous"):
        return 3
    return 1


def cmd_polygon(args) -> int:
    from .newton import PolygonCaseId, newton_polygon, polygon_case_id

    if not is_prime(args.p):
        raise UsageError(f"--p {args.p} is not a prime")
    params = parse_q(args.q) if args.q else None
    if params is not None and params.p != args.p:
        raise UsageError(f"--q {args.q} is not a power of --p {args.p}")
    try:
        poly = poly_from_string(args.poly)
        np_ = newton_polygon(poly, args.p)
    except StructuralError as exc:
        raise UsageError(str(exc)) from None
    doc = {
        "p": args.p,
        "vertices": [[i, v] for i, v in np_.vertices],
        "segments": [
            {"slope": str(s.slope), "length": s.length} for s in np_.segments
        ],
    }
    if params is not None and poly.degree == 14:
        match = polygon_case_id(np_, params)
        if isinstance(match, PolygonCaseId):
            doc["case"] = match.case_id
            doc["text_ambiguous"] = match.text_ambiguous
        else:
            doc["case"] = None
            doc["nearest_cases"] = list(match.nearest)
    emit(doc)
    return 0


def _parse_box(text: str, g: int):
    parts = [chunk for chunk in text.split(",") if chunk.strip()]
    out = []
    for part in parts:
        lo, sep, hi = part.partition(":")
        if not sep:
            raise UsageError(f"box range {part!r} must be lo:hi")
        try:
            lo, hi = int(lo), int(hi)
        except ValueError:
            raise UsageError(f"bad box range {part!r}") from None
        if lo > hi:
            raise UsageError(f"box range {part!r} has lo > hi")
        out.append((lo, hi))
    if len(out) == 1:
        out = out * g
    if len(out) != g:
        raise UsageError(f"box needs 1 or {g} ranges, found {len(out)}")
    return tuple(out)


def _half_degree(degree: int) -> int:
    """g = degree / 2 for a positive even degree; UsageError otherwise."""
    if degree % 2 or degree < 2:
        raise UsageError("degree must be a positive even integer")
    return degree // 2


def _enumeration_spec(args, **filters):
    """The EnumerationSpec of --degree, --q and --box; UsageError for a box
    beyond census.RECORD_CAP, raised before any output is opened."""
    from .census import RECORD_CAP, EnumerationSpec

    params = parse_q(args.q)
    g = _half_degree(args.degree)
    box = _parse_box(args.box, g) if args.box else ()
    spec = EnumerationSpec(degree=args.degree, params=params, box=box, **filters)
    if spec.size() > RECORD_CAP:
        raise UsageError(
            f"box holds {spec.size()} candidates, beyond the record cap "
            f"{RECORD_CAP}; narrow it with --box"
        )
    return spec


def cmd_enumerate(args) -> int:
    from .census import enumerate_weil

    filters = set((args.filter or "").split(",")) - {""}
    unknown = filters - {"weil", "irreducible", "no-real-roots"}
    if unknown:
        raise UsageError(f"unknown filters: {sorted(unknown)}")
    spec = _enumeration_spec(
        args,
        weil_only="weil" in filters,
        irreducible_only="irreducible" in filters,
        no_real_roots="no-real-roots" in filters,
    )
    try:
        out = open(args.out, "w") if args.out else sys.stdout
    except OSError as exc:
        raise UsageError(f"cannot open --out {args.out!r}: {exc.strerror}") from None
    try:
        rows = list(enumerate_weil(spec))
        if args.format == "csv":
            names = (f"a{i}" for i in range(1, args.degree // 2 + 1))
            out.write(",".join(names) + ",is_weil\n")
            for rec in rows:
                out.write(
                    ",".join(str(v) for v in rec.a)
                    + f",{str(rec.is_weil).lower()}\n"
                )
        else:
            doc = {
                "schema_version": SCHEMA_VERSION,
                "q": spec.params.q,
                "degree": args.degree,
                "count": len(rows),
                "rows": [{"a": list(r.a), "is_weil": r.is_weil} for r in rows],
            }
            out.write(_dumps(doc))
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def cmd_cross_check(args) -> int:
    from .census import cross_check

    spec = _enumeration_spec(
        args,
        weil_only=True,
        irreducible_only=args.degree == 14,
        no_real_roots=args.degree == 12,
    )
    report = cross_check(spec, seed=args.seed)
    emit({"report": report})
    return 0 if report["ok"] else 1


def cmd_lmfdb(args) -> int:
    from .lmfdb import lmfdb_reconcile

    if args.g < 1:
        raise UsageError(f"--g {args.g} is not a positive integer")
    params = parse_q(args.q)
    report = lmfdb_reconcile(
        params, args.g, args.cache_dir, allow_network=args.allow_network
    )
    emit({"report": report})
    if report["status"] == "mismatch":
        return 1
    return 0


class _Parser(argparse.ArgumentParser):
    """Reads every argument that starts with '-' and a digit as a value,
    never an option, wherever it stands ("-2,0,1", "-2:2").  No weilpoly
    option looks like that.  This widens argparse's private negative-number
    rule, which tests/test_cli.py pins; subparsers inherit the class."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._negative_number_matcher = re.compile(r"^-\d")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="weilpoly",
        description="Exact checkers for Weil polynomials over finite fields",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=1729,
        help="seed of the records cross-check samples for the exact Weil oracle",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pw = sub.add_parser("check-weil", help="decide the q-Weil property")
    pw.add_argument("--q", help="prime power p^n")
    pw.add_argument("poly", help="coefficients, constant first, or compact form")
    pw.set_defaults(func=cmd_check_weil)

    pb = sub.add_parser("bounds12", help="degree-12 necessary coefficient bounds")
    pb.add_argument("--q", required=True)
    pb.add_argument("--a", required=True, help="a_1,...,a_6")
    pb.set_defaults(func=cmd_bounds12)

    pc = sub.add_parser("classify14", help="degree-14 Frobenius classification")
    pc.add_argument("--q", help="prime power p^n")
    pc.add_argument("poly")
    pc.set_defaults(func=cmd_classify14)

    pp = sub.add_parser("polygon", help="Newton polygon at a prime")
    pp.add_argument("--p", type=int, required=True)
    pp.add_argument("--q", help="prime power, enables degree-14 case matching")
    pp.add_argument("poly")
    pp.set_defaults(func=cmd_polygon)

    pe = sub.add_parser("enumerate", help="scan a coefficient box")
    pe.add_argument("--degree", type=int, required=True)
    pe.add_argument("--q", required=True)
    pe.add_argument("--box", help="lo:hi[,lo:hi...] per coefficient")
    pe.add_argument("--filter", help="comma list: weil,irreducible,no-real-roots")
    pe.add_argument("--format", choices=("json", "csv"), default="json")
    pe.add_argument("--out")
    pe.set_defaults(func=cmd_enumerate)

    px = sub.add_parser("cross-check", help="enumeration-backed property checks")
    px.add_argument("--degree", type=int, required=True)
    px.add_argument("--q", required=True)
    px.add_argument("--box")
    px.set_defaults(func=cmd_cross_check)

    pl = sub.add_parser("lmfdb", help="reconcile against cached LMFDB data")
    pl.add_argument("--q", required=True)
    pl.add_argument("--g", type=int, required=True)
    pl.add_argument("--cache-dir", default=".lmfdb-cache")
    pl.add_argument("--allow-network", action="store_true")
    pl.set_defaults(func=cmd_lmfdb)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WeilpolyError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
