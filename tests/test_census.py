import pytest

from weilpoly.census import (
    EnumerationSpec,
    count_degree2_weil,
    cross_check,
    enumerate_weil,
    sample_weil12_no_real_roots,
    trivial_box,
)
from weilpoly.weil import WeilParams, chi_from_a, is_weil


def spec2(q, bound, **kw):
    return EnumerationSpec(
        degree=2, params=WeilParams.from_q(q), box=((-bound, bound),), **kw
    )


def test_degree2_counts():
    assert count_degree2_weil(WeilParams.from_q(2), 3) == 5
    assert count_degree2_weil(WeilParams.from_q(3), 4) == 7
    assert count_degree2_weil(WeilParams.from_q(4), 4) == 9


def test_enumeration_examples():
    assert len(list(enumerate_weil(spec2(2, 3, weil_only=True)))) == 5
    assert len(list(enumerate_weil(spec2(3, 4, weil_only=True)))) == 7
    assert len(list(enumerate_weil(spec2(4, 4, weil_only=True)))) == 9


def test_enumeration_deterministic_and_shardable():
    spec = EnumerationSpec(
        degree=4, params=WeilParams.from_q(2), box=((-2, 2), (-3, 3)), weil_only=True
    )
    run1 = [r.a for r in enumerate_weil(spec)]
    run2 = [r.a for r in enumerate_weil(spec)]
    assert run1 == run2
    merged = []
    for idx in range(3):
        merged.extend(r.a for r in enumerate_weil(spec, shard=(idx, 3)))
    assert merged == run1


def test_record_cap_refusal():
    spec = EnumerationSpec(degree=12, params=WeilParams.from_q(2))
    with pytest.raises(ValueError, match="record cap"):
        list(enumerate_weil(spec))


def test_empty_box_is_clean():
    spec = EnumerationSpec(
        degree=2, params=WeilParams.from_q(2), box=((1, 0),)
    )
    report = cross_check(spec)
    assert report["ok"] and report["counts"] == {}


@pytest.mark.parametrize(
    "box",
    [((4, -4), (0, 0)), ((4, -4), (9, -9)), ((0, 0),), ((0, 0),) * 3],
)
def test_spec_rejects_malformed_box(box):
    with pytest.raises(ValueError, match="box"):
        EnumerationSpec(degree=4, params=WeilParams.from_q(3), box=box)


def test_spec_empty_range_has_size_zero():
    spec = EnumerationSpec(degree=4, params=WeilParams.from_q(3), box=((1, 0), (0, 0)))
    assert spec.size() == 0 and list(enumerate_weil(spec)) == []


def test_trivial_box_values():
    box = trivial_box(6, WeilParams.from_q(2))
    assert box[0] == (-16, 16)  # 12 sqrt(2) = 16.97
    assert box[5] == (-7392, 7392)


def test_sampler_yields_weil_without_real_roots():
    P = WeilParams.from_q(3)
    for a in sample_weil12_no_real_roots(P, 15, seed=9):
        verdict = is_weil(chi_from_a(a, P), P)
        assert verdict.is_weil and not verdict.real_roots


def test_cross_check_degree12_tight_box():
    spec = EnumerationSpec(
        degree=12,
        params=WeilParams.from_q(2),
        box=tuple(((-1, 1),) * 5 + ((-2, 2),)),
        weil_only=True,
        no_real_roots=True,
    )
    report = cross_check(spec, numeric_sample_rate=0.02)
    assert report["ok"], report["violations"]
    assert report["counts"]["records"] > 0


def test_cross_check_degree14_tight_box():
    spec = EnumerationSpec(
        degree=14,
        params=WeilParams.from_q(2),
        box=tuple(((0, 0),) * 3 + ((-1, 1),) * 4),
        weil_only=True,
        irreducible_only=True,
    )
    report = cross_check(spec)
    assert report["ok"], report["violations"]
    assert report["counts"].get("accepted", 0) > 0
