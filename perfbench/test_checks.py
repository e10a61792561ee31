"""Self-tests for the benchmark's checks: each must catch a planted wrong output.

    python3 -m pytest -q perfbench/test_checks.py

These run outside the repository's test suite.  Right outputs come from
running the real ops on a few inputs; wrong ones are the same outputs with
one answer changed.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import ops  # noqa: E402
import procs  # noqa: E402
from independent import chi_from_a, is_reducible, weil_decision  # noqa: E402


def _run(workload, items):
    op = getattr(ops, workload)
    return [op(item) for item in items]


def _scan14_sample():
    """Weil, non-Weil, reducible and irreducible q=2 candidates, and q=8 ones."""
    box = inputs.q2_box()
    picked = {}
    for a in box[:400]:
        chi = chi_from_a(a, 2)
        weil, _ = weil_decision(chi, 2)
        kind = (weil, weil and is_reducible(chi))
        picked.setdefault(kind, {"q": 2, "a": a})
        if len(picked) == 3:
            break
    items = list(picked.values()) + inputs.scan14(0)[-3:]
    return items, _run("scan14", items)


def test_independent_decision_on_known_polynomials():
    assert weil_decision((2, 0, 1), 2) == (True, False)  # t^2 + 2
    assert weil_decision((2, 3, 1), 2) == (False, False)  # t^2 + 3t + 2
    assert weil_decision((4, 0, -4, 0, 1), 2) == (True, True)  # (t^2 - 2)^2
    assert weil_decision((64,) + (0,) * 11 + (1,), 2) == (True, False)  # t^12 + 64
    assert is_reducible((128,) + (0,) * 13 + (1,)) and not is_reducible((2, 0, 1))


def test_block_products_are_weil_without_real_roots():
    for item in inputs.necessity12(5)[:20]:
        assert weil_decision(chi_from_a(item["a"], item["q"]), item["q"]) == (True, False)


def test_inputs_follow_the_seed_and_keep_their_shape():
    for name in ("necessity12", "prune12", "scan14"):
        build = getattr(inputs, name)
        assert build(3) == build(3)
        assert build(3) != build(4)
        assert len(build(3)) == len(build(4))
        assert [(i["q"], i.get("quartic_blocks"), i.get("kind")) for i in build(3)] == [
            (i["q"], i.get("quartic_blocks"), i.get("kind")) for i in build(4)
        ]
    assert len(inputs.q2_box()) == 2187


def test_right_outputs_pass():
    items = inputs.necessity12(1)[:5]
    assert checks.necessity12(items, _run("necessity12", items)) == []
    items = inputs.prune12(1)[:20]
    assert checks.prune12(items, _run("prune12", items)) == []
    items, outcomes = _scan14_sample()
    assert checks.scan14(items, outcomes) == []


def test_flipped_is_weil_is_caught():
    items, outcomes = _scan14_sample()
    for i, out in enumerate(outcomes):
        bad = copy.deepcopy(outcomes)
        bad[i] = {"weil": not out["weil"], "verdict": "accepted" if not out["weil"] else None, "tate_ok": True}
        assert [j for j, _ in checks.scan14(items, bad)] == [i]
    items = [item for item in inputs.prune12(1)[:40] if ops.prune12(item)["bounds"] == "pass"][:2]
    outcomes = _run("prune12", items)
    bad = copy.deepcopy(outcomes)
    bad[0]["weil"] = not bad[0]["weil"]
    assert [j for j, _ in checks.prune12(items, bad)] == [0]


def test_bounds_fail_on_constructed_weil_input_is_caught():
    items = inputs.necessity12(2)[:3]
    outcomes = _run("necessity12", items)
    bad = copy.deepcopy(outcomes)
    bad[1]["corollary"]["8"] = "fail"
    assert [j for j, _ in checks.necessity12(items, bad)] == [1]
    # the same planted fail in the filter workload, on a Weil candidate
    weil_item = {"q": items[1]["q"], "a": items[1]["a"], "kind": "shift"}
    assert checks.prune12([weil_item], [{"bounds": "fail", "failed": ["8"], "weil": None}]) != []


def test_wrong_reducibility_is_caught():
    items, outcomes = _scan14_sample()
    for i, out in enumerate(outcomes):
        if not out["weil"]:
            continue
        bad = copy.deepcopy(outcomes)
        bad[i]["verdict"] = "accepted" if out["verdict"] == "reducible" else "reducible"
        assert [j for j, _ in checks.scan14(items, bad)] == [i]


def test_table_tate_disagreement_and_q2_tate_are_caught():
    items, outcomes = _scan14_sample()
    i = next(k for k, o in enumerate(outcomes) if o["verdict"] == "accepted" and items[k]["q"] == 2)
    bad = copy.deepcopy(outcomes)
    bad[i]["verdict"] = "table_tate_disagreement"
    assert [j for j, _ in checks.scan14(items, bad)] == [i]
    bad = copy.deepcopy(outcomes)
    bad[i]["tate_ok"] = False
    assert [j for j, _ in checks.scan14(items, bad)] == [i]


def _cli_outcomes(tmp_path):
    items = inputs.cli(0, ROOT, tmp_path)[:13]
    env = procs.child_env(ROOT)
    return items, [procs.cli_command(item, env, ROOT)[0] for item in items]


def test_changed_golden_byte_and_cross_check_counts_are_caught(tmp_path):
    items, outcomes = _cli_outcomes(tmp_path)
    assert checks.cli(items, outcomes) == []
    for i, item in enumerate(items):
        bad = copy.deepcopy(outcomes)
        if item["golden"] is not None:
            pos = len(bad[i]["stdout"]) // 2
            flipped = bytes([bad[i]["stdout"][pos] ^ 1])
            bad[i]["stdout"] = bad[i]["stdout"][:pos] + flipped + bad[i]["stdout"][pos + 1 :]
        else:
            doc = json.loads(bad[i]["stdout"])
            doc["report"]["counts"]["records"] += 1
            bad[i]["stdout"] = json.dumps(doc, sort_keys=True).encode() + b"\n"
        assert [j for j, _ in checks.cli(items, bad)] == [i]
    bad = copy.deepcopy(outcomes)
    bad[0]["exit"] ^= 1
    assert [j for j, _ in checks.cli(items, bad)] == [0]


def test_indeterminate_and_errors_count_as_failed_ops():
    items = inputs.necessity12(2)[:3]
    outcomes = _run("necessity12", items)
    assert checks.failed_ops("necessity12", outcomes, []) == set()
    bad = copy.deepcopy(outcomes)
    bad[2]["corollary"]["6"] = "indeterminate"
    bad[0] = {"error": "PrecisionExhausted: planted"}
    problems = checks.necessity12(items, bad)
    assert problems == []  # undecided ops give no answer to check
    assert checks.failed_ops("necessity12", bad, problems) == {0, 2}
    assert checks.undecided("prune12", {"bounds": "indeterminate", "weil": None})
    assert checks.undecided("scan14", {"weil": True, "verdict": "inconclusive", "tate_ok": None})
    assert checks.undecided("cli", {"exit": 3, "stdout": b""})


def test_tracer_counts_calls_and_self_time():
    from tracing import Tracer, layer_totals
    from weilpoly import bounds12, weil

    original = bounds12.lemma_quantities
    tracer = Tracer()
    tracer.install()
    try:
        bounds12.corollary_bounds((0, 0, 0, 0, 0, 0), weil.WeilParams.from_q(2))
    finally:
        tracer.uninstall()
    totals = layer_totals(tracer.spans)
    assert totals["bounds12.corollary_bounds"]["calls"] == 1
    assert totals["bounds12.lemma_quantities"]["calls"] == 4
    assert totals["sturm.isolate_real_roots"]["calls"] == 8
    whole = next(end - start for layer, start, end, _, _ in tracer.spans if layer == "bounds12.corollary_bounds")
    assert abs(sum(t["self_s"] for t in totals.values()) - whole) < 1e-6
    assert bounds12.lemma_quantities is original


def test_host_speed_scale_follows_the_kernel():
    import hostspeed

    fast, slow = hostspeed.REFERENCE_S, 3 * hostspeed.REFERENCE_S
    assert hostspeed.scales([fast, fast, slow, slow], 3, hostspeed.REFERENCE_S) == pytest.approx([1.0, 0.5, 1 / 3])
    assert hostspeed.kernel() == hostspeed.kernel()
    assert hostspeed.child_sample(procs.child_env(ROOT), ROOT) > 0


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench" / path.name)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1", "--seconds", "20", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
