"""Output checks, one per workload, against decisions made apart from weilpoly.

A check returns a list of problems, each (op index or None, message); an
empty list means every decided op gave a right answer.  `undecided` says
whether an op ended without a decision.  Ops that raised carry an "error"
key and are counted as failed before any check runs, so the checks skip
them.
"""

from __future__ import annotations

import json

import inputs as inp_mod
from independent import chi_from_a, is_reducible, weil_decision

COROLLARY_IDS = {str(i) for i in range(1, 10)}
TRIVIAL_IDS = {f"a{i}" for i in range(1, 7)}
# classify verdicts that take the input to be reducible over Z
REDUCIBLE_VERDICTS = {"reducible", "power_case"}
# classify verdicts possible for an irreducible degree-14 Weil polynomial
IRREDUCIBLE_VERDICTS = {"accepted", "rejected", "text_ambiguous", "inconclusive", "table_tate_disagreement"}


def undecided(workload: str, out: dict) -> bool:
    if "error" in out:
        return False
    if workload == "necessity12":
        return "indeterminate" in {*out["corollary"].values(), *out["trivial"].values()}
    if workload == "prune12":
        return out["bounds"] == "indeterminate"
    if workload == "scan14":
        return out["verdict"] in ("inconclusive", "text_ambiguous")
    if out["exit"] == 3:
        return True
    if out["stdout"].startswith(b'{"report": {"ambiguous"'):  # a cross-check report
        try:
            report = json.loads(out["stdout"])["report"]
        except (ValueError, KeyError):
            return False  # malformed output is the check's to flag
        return bool(report.get("indeterminate") or report.get("ambiguous"))
    return False


def failed_ops(workload: str, outcomes: list[dict], problems: list) -> set[int]:
    """Ops that raised, ended without a decision, or gave a wrong answer."""
    failed = {i for i, o in enumerate(outcomes) if "error" in o or undecided(workload, o)}
    return failed | {i for i, _ in problems if i is not None}


def _decided(workload, outcomes):
    for i, out in enumerate(outcomes):
        if "error" not in out and not undecided(workload, out):
            yield i, out


def necessity12(inputs: list[dict], outcomes: list[dict]) -> list:
    """Every input is Weil with no real root by construction, so the paper's
    necessity result says no condition may fail."""
    problems = []
    for i, out in _decided("necessity12", outcomes):
        where = f"q={inputs[i]['q']} a={list(inputs[i]['a'])}"
        if set(out["corollary"]) != COROLLARY_IDS or set(out["trivial"]) != TRIVIAL_IDS:
            problems.append((i, f"missing or extra conditions at {where}"))
            continue
        fails = [k for k, v in {**out["corollary"], **out["trivial"]}.items() if v != "pass"]
        if fails:
            problems.append((i, f"bounds FAIL {fails} on a Weil input {where}"))
    return problems


def prune12(inputs: list[dict], outcomes: list[dict]) -> list:
    """No independently Weil candidate without a real root may be rejected,
    and is_weil on the survivors must match the independent decision."""
    problems = []
    for i, out in _decided("prune12", outcomes):
        where = f"q={inputs[i]['q']} a={list(inputs[i]['a'])}"
        weil, real_root = weil_decision(chi_from_a(inputs[i]["a"], inputs[i]["q"]), inputs[i]["q"])
        if out["bounds"] == "fail":
            if weil and not real_root:
                problems.append((i, f"bounds rejected a Weil input {where}: {out['failed']}"))
        elif out["weil"] != weil:
            problems.append((i, f"is_weil says {out['weil']}, independent decision {weil} at {where}"))
    return problems


def scan14(inputs: list[dict], outcomes: list[dict]) -> list:
    problems = []
    if len(inp_mod.q2_box()) != 2187:
        problems.append((None, "the q=2 box does not hold 2187 candidates"))
    for i, out in _decided("scan14", outcomes):
        q, a = inputs[i]["q"], inputs[i]["a"]
        chi = chi_from_a(a, q)
        where = f"q={q} a={list(a)}"
        weil, _ = weil_decision(chi, q)
        if out["weil"] != weil:
            problems.append((i, f"is_weil says {out['weil']}, independent decision {weil} at {where}"))
            continue
        if not weil:
            continue
        verdict = out["verdict"]
        reducible = is_reducible(chi)
        allowed = REDUCIBLE_VERDICTS if reducible else IRREDUCIBLE_VERDICTS
        if verdict not in allowed:
            problems.append((i, f"verdict {verdict} but sympy finds it {'reducible' if reducible else 'irreducible'} at {where}"))
        elif verdict == "table_tate_disagreement":
            problems.append((i, f"table and Tate disagree at {where}"))
        elif q == 2 and not reducible and out["tate_ok"] is not True:
            # n = 1: every valuation is divisible by n, so Tate always holds
            problems.append((i, f"tate_ok is {out['tate_ok']} at q=2, {where}"))
    return problems


def irreducible_weil_count(candidates, q: int) -> int:
    count = 0
    for a in candidates:
        chi = chi_from_a(a, q)
        if weil_decision(chi, q)[0] and not is_reducible(chi):
            count += 1
    return count


def cli(inputs: list[dict], outcomes: list[dict]) -> list:
    """Goldens byte for byte with their exit codes; the cross-check report
    must be ok and count exactly the independently found irreducible Weil
    candidates, all accepted (Tate holds at q = 2)."""
    problems = []
    expected_records = None
    for i, out in _decided("cli", outcomes):
        cmd = inputs[i]
        if out["exit"] != cmd["exit"]:
            problems.append((i, f"{cmd['name']}: exit {out['exit']}, expected {cmd['exit']}"))
        if cmd["golden"] is not None:
            if out["stdout"] != cmd["golden"]:
                problems.append((i, f"{cmd['name']}: stdout differs from the golden file"))
            continue
        if expected_records is None:
            expected_records = irreducible_weil_count(inp_mod.cross_check_candidates(), 2)
        try:
            report = json.loads(out["stdout"])["report"]
        except (ValueError, KeyError, TypeError):
            problems.append((i, f"{cmd['name']}: output is not a cross-check report"))
            continue
        counts = report.get("counts", {})
        records = counts.get("records", 0)
        if report.get("ok") is not True or records != expected_records or counts.get("accepted", 0) != records:
            problems.append(
                (i, f"{cmd['name']}: report ok={report.get('ok')} counts={counts}, "
                    f"expected {expected_records} irreducible Weil records, all accepted")
            )
    return problems


CHECKS = {"necessity12": necessity12, "prune12": prune12, "scan14": scan14, "cli": cli}
