import json

import pytest

from weilpoly.cli import main
from weilpoly.lmfdb import cache_path, lmfdb_reconcile
from weilpoly.weil import WeilParams


def test_cold_cache_offline_is_skipped(tmp_path):
    report = lmfdb_reconcile(WeilParams.from_q(2), 1, tmp_path, allow_network=False)
    assert report["status"] == "skipped"
    assert "cache cold" in report["reason"]


def _write_cache(tmp_path, g, q, records):
    path = cache_path(tmp_path, g, q)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps({"url": "fixture", "timestamp": 0, "body": {"data": records}})
    )


def test_warm_cache_g1_q2(tmp_path):
    # the five q=2 elliptic isogeny classes: t^2 + a t + 2, a in -2..2
    records = [
        {"label": f"1.2.a{a}", "poly": [2, a, 1], "is_simple": True}
        for a in range(-2, 3)
    ]
    _write_cache(tmp_path, 1, 2, records)
    report = lmfdb_reconcile(WeilParams.from_q(2), 1, tmp_path, allow_network=False)
    assert report["status"] == "ok"
    assert report["classes"] == 5
    assert report["mismatches"] == []
    assert report["checked_tate"] >= 3  # a = +-1, +-2 are irreducible... at least some


def test_warm_cache_reversed_orientation(tmp_path):
    records = [{"label": "1.2.x", "poly": [1, -1, 2], "is_simple": True}]
    _write_cache(tmp_path, 1, 2, records)
    report = lmfdb_reconcile(WeilParams.from_q(2), 1, tmp_path, allow_network=False)
    assert report["status"] == "ok" and report["classes"] == 1


def test_warm_cache_detects_non_weil(tmp_path):
    records = [{"label": "1.2.bad", "poly": [2, 5, 1], "is_simple": True}]
    _write_cache(tmp_path, 1, 2, records)
    report = lmfdb_reconcile(WeilParams.from_q(2), 1, tmp_path, allow_network=False)
    assert report["status"] == "mismatch"
    assert report["mismatches"][0]["problem"] == "fails the Weil predicate"


def test_warm_cache_g2(tmp_path):
    from weilpoly.weil import chi_from_a, is_weil

    P = WeilParams.from_q(2)
    records = []
    for a1 in range(-2, 3):
        for a2 in range(-3, 4):
            chi = chi_from_a((a1, a2), P)
            if is_weil(chi, P).is_weil:
                records.append(
                    {
                        "label": f"2.2.{a1}.{a2}",
                        "poly": list(chi.coeffs),
                        "is_simple": True,
                    }
                )
    _write_cache(tmp_path, 2, 2, records)
    report = lmfdb_reconcile(P, 2, tmp_path, allow_network=False)
    assert report["status"] == "ok"
    assert report["classes"] == len(records) > 10


def _write_body(tmp_path, g, q, body):
    path = cache_path(tmp_path, g, q)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"url": "fixture", "timestamp": 0, "body": body}))


def test_bare_list_body_is_read_as_the_classes(tmp_path):
    _write_body(tmp_path, 1, 2, [{"label": "1.2.a", "poly": [2, 0, 1], "is_simple": True}])
    report = lmfdb_reconcile(WeilParams.from_q(2), 1, tmp_path, allow_network=False)
    assert report["status"] == "ok" and report["classes"] == 1


@pytest.mark.parametrize(
    "rec, label",
    [
        ([2, 0, 1], None),  # not an object
        ({"label": "1.2.x", "poly": ["x", 1, 1]}, "1.2.x"),
        ({"label": "1.2.f", "poly": [2.5, 1, 1]}, "1.2.f"),  # never truncated to 2
        ({"label": "1.2.b", "poly": [2, True, 1]}, "1.2.b"),
        ({"poly": [2, 0, 1.0]}, None),
    ],
)
def test_malformed_record_is_an_unparseable_mismatch(tmp_path, rec, label):
    _write_cache(tmp_path, 1, 2, [rec])
    report = lmfdb_reconcile(WeilParams.from_q(2), 1, tmp_path, allow_network=False)
    assert report["status"] == "mismatch" and report["classes"] == 0
    assert report["mismatches"] == [{"label": label, "problem": "unparseable polynomial"}]


@pytest.mark.parametrize("body", ["text", 7, {"data": {"label": "1.2.a"}}, {}])
def test_body_without_a_list_of_classes_is_skipped(tmp_path, body):
    _write_body(tmp_path, 1, 2, body)
    report = lmfdb_reconcile(WeilParams.from_q(2), 1, tmp_path, allow_network=False)
    assert report["status"] == "skipped" and report["classes"] == 0


@pytest.mark.parametrize(
    "body, code",
    [
        ([{"poly": [2, 0, 1]}], 0),
        ([[2, 0, 1]], 1),
        ({"data": [{"poly": ["x", 1, 1]}]}, 1),
        ({"data": [{"poly": [2.5, 1, 1]}]}, 1),
        ("text", 0),
    ],
)
def test_malformed_cache_ends_in_a_report(tmp_path, capsys, body, code):
    _write_body(tmp_path, 1, 2, body)
    assert main(["lmfdb", "--q", "2", "--g", "1", "--cache-dir", str(tmp_path)]) == code
    out = capsys.readouterr()
    assert json.loads(out.out)["report"]["g"] == 1 and out.err == ""


@pytest.mark.parametrize(
    "text, names_the_file",
    [
        ('{"url": "x", "body": null}', False),
        ("not json", True),
        ('{"url": "x"}', True),
        ("[1, 2]", True),
    ],
)
def test_malformed_cache_file_is_never_a_fetch_or_a_cold_cache(tmp_path, capsys, text, names_the_file):
    path = cache_path(tmp_path, 1, 2)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    assert main(["lmfdb", "--q", "2", "--g", "1", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr()
    report = json.loads(out.out)["report"]
    assert report["status"] == "skipped" and out.err == ""
    if names_the_file:
        assert str(path) in report["reason"]
    else:
        assert report["reason"] == "response holds no list of classes"
