"""Reconciliation against the public LMFDB isogeny-class tables.

Network access is opt-in; every response is cached on disk as a JSON
document {url, timestamp, body}, keyed by the query, and a cold cache
without network permission yields an explicit Skipped status, never a
failure.  For fetched classes the Weil predicate (and the Tate criterion on
irreducible classes) is asserted and mismatches reported.  A malformed cache
ends in a report too: a cache file that is unreadable, not JSON or not an
object with a body is skipped with a reason naming the file, a body with no
list of classes (null included) is skipped, and a record whose poly is not a
list of JSON integers is an unparseable mismatch.  "fetch failed" means a
fetch ran.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from .errors import UncertifiedProfileError
from .polynomial import IntPoly
from .weil import WeilParams, factor_weil, is_weil

API_URL = (
    "https://www.lmfdb.org/api/av_fq_isog/?g=i{g}&q=i{q}"
    "&_format=json&_fields=label,poly,is_simple&_limit=1000"
)


def cache_path(cache_dir, g: int, q: int) -> Path:
    return Path(cache_dir) / f"av_fq_isog_g{g}_q{q}.json"


def _fetch(url: str) -> dict:
    from urllib.request import urlopen

    with urlopen(url, timeout=30) as resp:
        return json.loads(resp.read().decode("utf-8"))


def _load_classes(cache_dir, g: int, q: int, allow_network: bool):
    """(body, None) from the cache or a fetch, or (None, why the report is
    skipped)."""
    path = cache_path(cache_dir, g, q)
    try:
        doc = json.loads(path.read_text())
    except FileNotFoundError:
        pass
    except (OSError, ValueError) as exc:
        return None, f"cannot read cache file {path}: {exc}"
    else:
        if not isinstance(doc, dict) or "body" not in doc:
            return None, f"cache file {path} holds no body"
        return doc["body"], None
    if not allow_network:
        return None, "cache cold and network not permitted"
    url = API_URL.format(g=g, q=q)
    try:
        body = _fetch(url)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"url": url, "timestamp": time.time(), "body": body}, indent=1)
        )
    except Exception as exc:  # network failure is a skip, never an error
        return None, f"fetch failed: {exc}"
    return body, None


def _poly_from_record(rec, g: int, q: int) -> IntPoly | None:
    """The class's Weil polynomial; None unless rec is an object whose poly
    is a list of 2g + 1 JSON integers."""
    coeffs = rec.get("poly") if isinstance(rec, dict) else None
    if (
        not isinstance(coeffs, list)
        or len(coeffs) != 2 * g + 1
        or any(type(c) is not int for c in coeffs)
    ):
        return None
    # orientation: the constant term of a Weil polynomial is q^g
    if coeffs[0] == q ** g and coeffs[-1] == 1:
        return IntPoly(coeffs)
    if coeffs[-1] == q ** g and coeffs[0] == 1:
        return IntPoly(list(reversed(coeffs)))
    return None


def lmfdb_reconcile(
    params: WeilParams, g: int, cache_dir, allow_network: bool = False
) -> dict:
    """Check fetched isogeny classes for (g, q) against the local predicates."""
    report = {
        "g": g,
        "q": params.q,
        "status": "ok",
        "classes": 0,
        "checked_tate": 0,
        "mismatches": [],
    }
    body, skipped = _load_classes(cache_dir, g, params.q, allow_network)
    records = body.get("data") if isinstance(body, dict) else body
    if skipped is None and not isinstance(records, list):
        skipped = "response holds no list of classes"
    if skipped is not None:
        report["status"] = "skipped"
        report["reason"] = skipped
        return report
    for rec in records:
        poly = _poly_from_record(rec, g, params.q)
        if poly is None:
            label = rec.get("label") if isinstance(rec, dict) else None
            report["mismatches"].append({"label": label, "problem": "unparseable polynomial"})
            continue
        report["classes"] += 1
        verdict = is_weil(poly, params)
        if not verdict.is_weil:
            report["mismatches"].append(
                {"label": rec.get("label"), "problem": "fails the Weil predicate"}
            )
            continue
        if rec.get("is_simple"):
            # only the Tate check factors and profiles, so only it loads
            # the factorizer and the Q_p engine
            from .padic import profile_weil, tate_condition_profile

            _, factors = factor_weil(poly, verdict, params)
            if len(factors) == 1 and factors[0][1] == 1:
                try:
                    if not tate_condition_profile(
                        profile_weil(poly, verdict, params), params.n
                    ):
                        report["mismatches"].append(
                            {
                                "label": rec.get("label"),
                                "problem": "fails the Tate condition",
                            }
                        )
                    report["checked_tate"] += 1
                except UncertifiedProfileError:
                    pass
    if report["mismatches"]:
        report["status"] = "mismatch"
    return report
