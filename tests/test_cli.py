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
    # boxes beyond census.RECORD_CAP, refused before --out is opened
    assert main(["enumerate", "--degree", "14", "--q", "2"]) == 2
    assert main(["cross-check", "--degree", "14", "--q", "2"]) == 2
    capped = tmp_path / "capped.json"
    assert main(["enumerate", "--degree", "14", "--q", "2", "--out", str(capped)]) == 2
    assert not capped.exists()
    err = capsys.readouterr().err
    assert "error" in err


@pytest.mark.parametrize("g", ["0", "-1"])
def test_lmfdb_rejects_a_genus_below_1(g, capsys, tmp_path):
    """A usage error, not a skipped report: nothing is loaded or printed."""
    assert main(["lmfdb", "--q", "2", "--g", g, "--cache-dir", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert not out and "--g" in err
    assert not any(tmp_path.iterdir())


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


BIG_Q = 2**20000  # 6,021 digits, past the default int-to-str limit of 4,300


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit"
)
@pytest.mark.parametrize(
    "argv, code",
    [
        (["check-weil", "--q", "2^20000", "1,0,1"], 1),
        (["classify14", "--q", "2^20000", ",".join(["1"] + ["0"] * 13 + ["1"])], 1),
        (["enumerate", "--degree", "2", "--q", "2^20000", "--box", "0:0"], 0),
    ],
    ids=["check-weil", "classify14", "enumerate"],
)
def test_an_integer_past_the_digit_limit_is_printed_in_full(argv, code, capsys):
    """q = 2^20000 is written to the JSON in full, with the interpreter's
    int-to-str limit as it was before and after; reading it back needs the
    limit lifted here too."""
    limit = sys.get_int_max_str_digits()
    assert main(argv) == code
    assert sys.get_int_max_str_digits() == limit
    out, err = capsys.readouterr()
    assert not err
    sys.set_int_max_str_digits(0)
    try:
        doc = json.loads(out)
    finally:
        sys.set_int_max_str_digits(limit)
    assert doc["q"] == BIG_Q


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


def test_cross_check_reports_a_planted_oracle_rejection(monkeypatch, capsys):
    """A weil_oracle that rejects every record: each Weil record of the
    degree-2 box is listed as a violation, the report is not ok, and the
    command exits 1."""
    import weilpoly.oracle

    monkeypatch.setattr(weilpoly.oracle, "weil_oracle", lambda chi, params: False)
    assert main(["cross-check", "--degree", "2", "--q", "5", "--box", "-4:4"]) == 1
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["counts"] == {"records": 9}
    assert report["violations"] == [{"a": [a], "property": "exact modulus oracle"} for a in range(-4, 5)]
    assert report["ok"] is False


@pytest.mark.parametrize(
    "argv",
    [
        ["cross-check", "--degree", "2", "--q", "2", "--box", "1"],  # no colon
        ["cross-check", "--degree", "2", "--q", "2", "--box", "a:b"],
        ["enumerate", "--degree", "6", "--q", "2", "--box", "-1:1,-1:1"],  # 2 of 3 ranges
        ["enumerate", "--degree", "2", "--q", "2", "--filter", "bogus"],
        ["enumerate", "--degree", "3", "--q", "2"],
    ],
)
def test_parse_errors_exit_2_with_no_output(argv, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error:") and not out


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["check-weil", "--q", "4^2", "1,0,1"], "4 is not prime"),
        (["check-weil", "--q", "x", "1,0,1"], "cannot parse prime power 'x'"),
        (["classify14", "q=2,a=1"], "missing ';' separating q from a at position 7"),
        (["classify14", "q=2;b=1"], "expected 'a=' after ';' in the compact form"),
        (["polygon", "--p", "2", "0,0,1"], "constant term vanishes; factor out t-powers first"),
        (["polygon", "--p", "2", "0"], "zero polynomial has no Newton polygon"),
    ],
    ids=["q-base-not-prime", "q-not-a-number", "compact-no-semicolon", "compact-no-a", "polygon-t-power", "polygon-zero"],
)
def test_bad_q_compact_form_and_polygon_input_exit_2_with_no_output(argv, reason, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert err == f"error: {reason}\n" and not out


@pytest.mark.parametrize(
    "argv, real_roots",
    [
        (["--q", "2", "4,0,-4,0,1"], [{"multiplicity": 2, "root": "1*sqrt(2)"}, {"multiplicity": 2, "root": "-1*sqrt(2)"}]),
        (["--q", "4", "4,4,1"], [{"multiplicity": 2, "root": "-1*sqrt(4)"}]),
    ],
    ids=["t2-minus-2-squared", "t-plus-2-squared"],
)
def test_check_weil_lists_real_roots_with_multiplicity(argv, real_roots, capsys):
    """(t^2 - 2)^2 at q = 2 has the roots +-sqrt(2), and (t + 2)^2 at q = 4
    the root -sqrt(4), each twice; no golden file shows real_roots."""
    assert main(["check-weil", *argv]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["is_weil"] is True and doc["real_roots"] == real_roots


def test_seed_leaves_classify14_output_unchanged(capsys):
    """--seed is accepted before any command; classify14 reads no seed."""
    assert main(["--seed", "7", "classify14", "q=2; a=0,0,-1,0,0,0,0"]) == 0
    assert capsys.readouterr().out == (GOLDEN_DIR / "classify_ordinary.golden").read_text()


def test_seed_leaves_the_cross_check_report_unchanged(capsys):
    """--seed picks the records cross-check hands to the exact Weil oracle,
    which add no output when every sampled record passes."""
    argv = ["cross-check", "--degree", "14", "--q", "2", "--box", "-1:1,0:0,0:0,-1:1,0:0,0:0,-1:1"]
    assert main(argv) == 0
    default = capsys.readouterr().out
    assert main(["--seed", "7", *argv]) == 0
    assert capsys.readouterr().out == default


def test_cross_check_lists_a_real_inconclusive_record_as_indeterminate(capsys):
    """A point box holding one real q=2 Weil input, a = -1,0,0,0,2,0,0, which
    matches case 4 with one open block that classify cannot split: cross-check
    lists it under indeterminate and counts it inconclusive, and the report
    stays ok with exit 0, while classify14 on the same input exits 3.
    ROADMAP item 13 (deciding over every shape an open block allows) is
    expected to change this verdict, and with it this test."""
    box = "-1:-1,0:0,0:0,0:0,2:2,0:0,0:0"
    assert main(["cross-check", "--degree", "14", "--q", "2", "--box", box]) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    detail = "an unresolved block could contain degree-2 factors"
    assert report["indeterminate"] == [{"a": [-1, 0, 0, 0, 2, 0, 0], "detail": detail}]
    assert report["counts"] == {"inconclusive": 1, "records": 1}
    assert report["ok"] is True
    assert main(["classify14", "q=2; a=-1,0,0,0,2,0,0"]) == 3
    classification = json.loads(capsys.readouterr().out)["classification"]
    assert (classification["verdict"], classification["detail"]) == ("inconclusive", detail)


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


def test_polygon_with_no_matching_case_names_the_nearest(capsys):
    assert main(["polygon", "--p", "2", "--q", "2", "128,2,0,0,0,0,0,0,0,0,0,0,0,0,1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["case"] is None and doc["nearest_cases"] == [1, 2, 3]


def test_a_value_starting_with_minus_and_a_digit_is_never_an_option(capsys):
    """Positional polynomials with a negative constant term, before or
    after the options; --box and --a values are read the same way.  The
    rule widens argparse's private _negative_number_matcher, so a Python
    whose argparse drops or renames it fails here."""
    assert main(["polygon", "--p", "2", "-2,0,1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["vertices"] == [[0, 1], [2, 0]]
    assert doc["segments"] == [{"slope": "-1/2", "length": 2}]
    assert main(["check-weil", "-2,0,1", "--q", "2"]) == 1
    assert json.loads(capsys.readouterr().out)["reason"] == "not symmetric"
    assert main(["classify14", "--q", "2", "-128" + ",0" * 13 + ",1"]) == 1
    assert json.loads(capsys.readouterr().out)["classification"]["verdict"] == "not_symmetric"
