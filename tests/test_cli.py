import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import weilpoly
from weilpoly.cli import main, parse_poly_input, parse_q, UsageError
from weilpoly.polynomial import IntPoly
from weilpoly.weil import WeilParams

GOLDEN_DIR = Path(__file__).parent / "golden"
MANIFEST = json.loads((GOLDEN_DIR / "manifest.json").read_text())


@pytest.mark.parametrize("name", sorted(MANIFEST))
def test_golden_outputs(name, capsys):
    entry = MANIFEST[name]
    argv = list(entry["argv"])
    if name == "lmfdb_cold":
        shutil.rmtree("/tmp/weilpoly-cold-cache-test", ignore_errors=True)
    code = main(argv)
    out = capsys.readouterr().out
    expected = (GOLDEN_DIR / f"{name}.golden").read_text()
    assert out == expected, f"{name}: output drifted from the golden file"
    assert code == entry["exit"]


def test_parse_q_forms():
    assert parse_q("2^3") == WeilParams(2, 3)
    assert parse_q("8") == WeilParams(2, 3)
    assert parse_q("7") == WeilParams(7, 1)
    with pytest.raises(UsageError):
        parse_q("6")
    with pytest.raises(UsageError):
        parse_q("4^2x")


def test_parse_poly_compact_roundtrip():
    poly, params = parse_poly_input("q=2^1; a=1,-1,0,2,0,0,0", None)
    assert params.q == 2 and poly.degree == 14
    assert poly[13] == 1 and poly[12] == -1
    # trailing zeros in the a-vector are significant, not trimmed
    poly2, _ = parse_poly_input("q=2; a=0,0,0,0,0,0", None)
    assert poly2.degree == 12


def test_parse_errors_have_positions():
    with pytest.raises(UsageError, match="position"):
        parse_poly_input("q=2; a=1,x,3", None)
    with pytest.raises(UsageError):
        parse_poly_input("q=6; a=1", None)


def test_usage_errors_exit_2(capsys, tmp_path):
    assert main(["check-weil", "--q", "2", "1,,2"]) == 2
    assert main(["check-weil", "1,2,3"]) == 2  # no ground field
    assert main(["bounds12", "--q", "2", "--a", "1,2"]) == 2
    assert main(["enumerate", "--degree", "3", "--q", "2"]) == 2
    assert main(["cross-check", "--degree", "0", "--q", "2"]) == 2
    assert main(["cross-check", "--degree", "5", "--q", "2"]) == 2
    assert main(["polygon", "--p", "0", "1,0,1"]) == 2
    assert main(["polygon", "--p", "4", "1,0,1"]) == 2
    assert main(["polygon", "--p", "3", "--q", "2", "128" + ",0" * 13 + ",1"]) == 2
    missing = str(tmp_path / "missing" / "x.json")
    assert main(["enumerate", "--degree", "2", "--q", "3", "--box", "-4:4", "--out", missing]) == 2
    assert main(["enumerate", "--degree", "2", "--q", "3", "--box", "4:-4"]) == 2
    assert main(["cross-check", "--degree", "2", "--q", "3", "--box", "4:-4"]) == 2
    err = capsys.readouterr().err
    assert "error" in err


def test_polygon_p_one_exits_2_without_hanging():
    src = Path(weilpoly.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "weilpoly.cli", "polygon", "--p", "1", "1,0,1"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 2
    assert "not a prime" in proc.stderr and not proc.stdout


@pytest.mark.parametrize("power", [1, 2])
def test_large_prime_q_answers_without_hanging(power):
    q = (2**61 - 1) ** power
    src = Path(weilpoly.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "weilpoly.cli", "check-weil", "--q", str(q), f"{q},0,1"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["q"] == q and doc["is_weil"] is True


def test_large_composite_q_exits_2_without_hanging():
    # above the exact Miller-Rabin range, a witness still rejects a composite at once
    q = (2**61 - 1) * (2**89 - 1)
    src = Path(weilpoly.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "weilpoly.cli", "check-weil", "--q", str(q), f"{q},0,1"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 2
    assert "not a prime power" in proc.stderr and not proc.stdout


MERSENNE_89 = 2**89 - 1  # prime, above the range where Miller-Rabin is a proof


@pytest.mark.parametrize(
    "argv",
    [
        ["check-weil", "--q", str(MERSENNE_89), f"{MERSENNE_89},0,1"],
        ["check-weil", "--q", f"{MERSENNE_89}^2", f"{MERSENNE_89 ** 2},0,1"],
        ["polygon", "--p", str(MERSENNE_89), "1,0,1"],
    ],
)
def test_unprovable_prime_is_inconclusive_not_a_hang(argv, capsys):
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == 3 and elapsed < 2.0, (code, elapsed)
    assert err.startswith("inconclusive:") and "3317044064679887385961981" in err


def test_exit_code_negative_verdict(capsys):
    assert main(["check-weil", "--q", "2", "2,3,1"]) == 1
    capsys.readouterr()


def test_classify_power_case_with_large_q(capsys):
    q = 2**161
    coeffs = ",".join(str(c) for c in (IntPoly([q, 0, 1]) ** 7).coeffs)
    assert main(["classify14", "--q", "2^161", coeffs]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["classification"]["verdict"] == "power_case"
    assert doc["classification"]["tate_ok"] is False


def test_enumerate_out_file(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code = main(
        [
            "enumerate",
            "--degree",
            "2",
            "--q",
            "2",
            "--box",
            "-3:3",
            "--filter",
            "weil",
            "--format",
            "csv",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "a1,is_weil"
    assert len(lines) == 6


def test_cross_check_violation_exit(tmp_path, capsys):
    # degree-14 box including only reducible/accepted candidates still exits 0
    code = main(["cross-check", "--degree", "2", "--q", "2", "--box", "-2:2"])
    capsys.readouterr()
    assert code == 0


def test_classify_inconclusive_paths(capsys):
    # a non-symmetric input is a definite negative, exit 1
    coeffs = ",".join(["1"] + ["0"] * 13 + ["1"])
    assert main(["classify14", "--q", "2", coeffs]) == 1
    capsys.readouterr()


def test_exit_status_contract_randomized(capsys):
    """0 affirmative, 1 negative, 2 usage, 3 inconclusive, on random inputs."""
    import json as _json
    import random

    rng = random.Random(99)
    for _ in range(60):
        kind = rng.random()
        if kind < 0.3:
            coeffs = ",".join(
                str(rng.randint(-6, 6)) for _ in range(rng.randint(1, 4))
            ) + ",1"
            argv = ["check-weil", "--q", str(rng.choice([2, 3, 4, 5])), coeffs]
        elif kind < 0.5:
            a = ",".join(str(rng.randint(-9, 9)) for _ in range(6))
            argv = ["bounds12", "--q", str(rng.choice([2, 3])), "--a", a]
        elif kind < 0.7:
            a = ",".join(str(rng.randint(-1, 1)) for _ in range(7))
            argv = ["classify14", f"q={rng.choice([2, 3])}; a={a}"]
        elif kind < 0.85:
            argv = ["check-weil", "--q", "6", "1,1"]  # bad prime power
        else:
            argv = ["bounds12", "--q", "2", "--a", "1,2,bad"]
        code = main(argv)
        out, err = capsys.readouterr()
        assert code in (0, 1, 2, 3), argv
        if code == 2:
            assert "error" in err and not out
        else:
            doc = _json.loads(out)
            assert doc["schema_version"] == "1"
            if argv[0] == "check-weil":
                assert doc["is_weil"] == (code == 0)
