"""One operation per input, as a user of weilpoly runs it.

Each op returns a plain dict, so the checks never touch weilpoly's types.
The conversion happens inside the timed region, which also makes sure the
result has been fully computed.
"""

from __future__ import annotations

from functools import cache

from weilpoly import bounds12, classify7, newton, weil

# Calls go through the module attributes, so a traced run sees them.


@cache
def params(q: int) -> weil.WeilParams:
    return weil.WeilParams.from_q(q)


def _statuses(report) -> dict[str, str]:
    return {c.cond: c.status.value for c in report.conditions}


def necessity12(inp: dict) -> dict:
    p = params(inp["q"])
    return {
        "corollary": _statuses(bounds12.corollary_bounds(inp["a"], p)),
        "trivial": _statuses(bounds12.trivial_bounds(inp["a"], p)),
    }


def prune12(inp: dict) -> dict:
    """The bounds as a filter; is_weil only on candidates that pass them."""
    p = params(inp["q"])
    statuses = _statuses(bounds12.corollary_bounds(inp["a"], p))
    statuses.update({"trivial " + k: v for k, v in _statuses(bounds12.trivial_bounds(inp["a"], p)).items()})
    values = set(statuses.values())
    if "indeterminate" in values:
        return {"bounds": "indeterminate", "weil": None}
    if "fail" in values:
        failed = sorted(k for k, v in statuses.items() if v == "fail")
        return {"bounds": "fail", "failed": failed, "weil": None}
    return {"bounds": "pass", "weil": weil.is_weil(weil.chi_from_a(inp["a"], p), p).is_weil}


def scan14(inp: dict) -> dict:
    """The acceptance scan's step: is_weil, then classify the Weil ones."""
    p = params(inp["q"])
    chi = weil.chi_from_a(inp["a"], p)
    if not weil.is_weil(chi, p).is_weil:
        return {"weil": False, "verdict": None}
    c = classify7.classify(chi, p)
    return {"weil": True, "verdict": c.verdict, "tate_ok": c.tate_ok}


def prepare() -> None:
    """The program's own preparation before the first op can run."""
    newton.load_case_table()
