"""Brute-force enumeration oracles and the cross-check harness.

enumerate_weil scans coefficient boxes lexicographically and streams records
deterministically; shards over the leading free coefficient merge to the
identical stream.  cross_check runs the module-level necessity/agreement
properties over an enumeration and reports violations (which must be empty).
The samplers generate genuine degree-12 Weil polynomials without real roots
at scale, for the necessity property: products of integer-x quadratic blocks
t^2 + x t + q and integer quartic blocks (from x-pairs with integer sum and
product), plus a rejection-sampled stream over raw coefficient vectors.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb, isqrt

from .bounds12 import corollary_bounds, trivial_bounds
from .classify7 import classify
from .factorint import is_irreducible_over_z
from .oracle import numeric_modulus_verdict, weil_oracle
from .polynomial import IntPoly
from .weil import WeilParams, chi_from_a, is_weil

RECORD_CAP = 5_000_000


def trivial_box(g: int, params: WeilParams) -> list[tuple[int, int]]:
    """Per-coefficient inclusive ranges from the trivial bound."""
    out = []
    for i in range(1, g + 1):
        # |a_i| <= C(2g, i) q^(i/2); integer bound via isqrt of the square
        bound = isqrt(comb(2 * g, i) ** 2 * params.q ** i)
        out.append((-bound, bound))
    return out


@dataclass(frozen=True)
class EnumerationSpec:
    degree: int  # 2g
    params: WeilParams
    box: tuple[tuple[int, int], ...] = ()
    weil_only: bool = False
    irreducible_only: bool = False
    no_real_roots: bool = False

    def __post_init__(self):
        """A box holds degree // 2 ranges; (lo, lo - 1) is an empty range,
        and a range with lo > hi + 1 has no meaning (its size would be
        negative)."""
        if not self.box:
            return
        if len(self.box) != self.degree // 2:
            raise ValueError(
                f"box has {len(self.box)} ranges, degree {self.degree} needs "
                f"{self.degree // 2}"
            )
        for lo, hi in self.box:
            if lo > hi + 1:
                raise ValueError(
                    f"box range ({lo}, {hi}) has lo > hi + 1; "
                    "an empty range is (lo, lo - 1)"
                )

    def resolved_box(self) -> list[tuple[int, int]]:
        if self.box:
            return list(self.box)
        return trivial_box(self.degree // 2, self.params)

    def size(self) -> int:
        n = 1
        for lo, hi in self.resolved_box():
            n *= hi - lo + 1
        return n


@dataclass(frozen=True)
class CensusRecord:
    a: tuple[int, ...]
    is_weil: bool
    real_roots: bool  # chi has a root at +-sqrt(q)


def enumerate_weil(spec: EnumerationSpec, shard: tuple[int, int] | None = None):
    """Yield CensusRecords in lexicographic a-vector order.

    shard = (index, count) restricts a_1 to its index-th chunk; concatenating
    all shards in index order reproduces the unsharded stream exactly.
    """
    size = spec.size()
    if size > RECORD_CAP:
        raise ValueError(
            f"box holds {size} candidates, beyond the record cap {RECORD_CAP}; "
            "narrow the box or raise the cap"
        )
    box = spec.resolved_box()
    lo1, hi1 = box[0]
    first_range = range(lo1, hi1 + 1)
    if shard is not None:
        idx, total = shard
        values = list(first_range)
        chunk = (len(values) + total - 1) // total
        first_range = values[idx * chunk : (idx + 1) * chunk]
    for a1 in first_range:
        yield from _scan(spec, box, (a1,))


def _scan(spec: EnumerationSpec, box, prefix):
    if len(prefix) == len(box):
        yield from _emit(spec, prefix)
        return
    lo, hi = box[len(prefix)]
    for v in range(lo, hi + 1):
        yield from _scan(spec, box, prefix + (v,))


def _emit(spec: EnumerationSpec, a):
    chi = chi_from_a(a, spec.params)
    verdict = is_weil(chi, spec.params)
    if spec.weil_only and not verdict.is_weil:
        return
    if spec.no_real_roots and verdict.real_roots:
        return
    if spec.irreducible_only and not is_irreducible_over_z(chi):
        return
    yield CensusRecord(tuple(a), verdict.is_weil, bool(verdict.real_roots))


def count_degree2_weil(params: WeilParams, bound: int) -> int:
    """Number of a in [-bound, bound] with t^2 + a t + q a Weil polynomial."""
    return sum(
        1
        for a in range(-bound, bound + 1)
        if is_weil(chi_from_a((a,), params), params).is_weil
    )


# -- samplers for the degree-12 necessity property -------------------------------


def _quadratic_block_ok(s: int, c: int, q: int) -> bool:
    """Does z^2 - s z + c have two real roots in (-2 sqrt q, 2 sqrt q)?

    The roots are the x-pair of a degree-4 block; all conditions exact.
    """
    disc = s * s - 4 * c
    if disc < 0:
        return False
    # both roots of z^2 - s z + c inside (-L, L), L = 2 sqrt q:
    # value at +-L positive and vertex inside
    # z(L) = L^2 - sL + c = 4q + c - s L > 0  <=>  (4q + c) > s L
    lhs = 4 * q + c
    if lhs <= 0:
        return False
    if lhs * lhs <= 4 * q * s * s:  # compares (4q+c)^2 with (sL)^2
        return False
    if s * s >= 16 * q:  # vertex s/2 inside (-L, L)
        return False
    return True


def sample_weil12_no_real_roots(params: WeilParams, count: int, seed: int):
    """Yield `count` a-vectors of genuine degree-12 Weil polynomials with no
    real roots: block products, re-verified by is_weil, interleaved with
    rejection-sampled hits, which is_weil has already decided."""
    rng = random.Random(seed)
    q = params.q
    edge = isqrt(4 * q)
    if edge * edge == 4 * q:
        edge -= 1  # keep |x| < 2 sqrt q strictly: no real roots
    produced = 0
    while produced < count:
        mode = rng.random()
        if mode < 0.45:
            xs = [rng.randint(-edge, edge) for _ in range(6)]
            chi = IntPoly([1])
            for x in xs:
                chi = chi * IntPoly([q, x, 1])
        elif mode < 0.85:
            # up to three quadratic x-blocks (possibly irrational x-pairs)
            chi = IntPoly([1])
            degree = 0
            while degree < 6:
                if degree <= 4 and rng.random() < 0.5:
                    s = rng.randint(-2 * edge, 2 * edge)
                    c = rng.randint(-4 * q, 4 * q)
                    if not _quadratic_block_ok(s, c, q):
                        continue
                    # quartic block prod (t^2 + x t + q) over the z-roots
                    chi = chi * IntPoly(
                        [q * q, q * s, c + 2 * q, s, 1]
                    )
                    degree += 2
                else:
                    x = rng.randint(-edge, edge)
                    chi = chi * IntPoly([q, x, 1])
                    degree += 1
        else:
            a = tuple(
                rng.randint(lo, hi)
                for lo, hi in _rejection_box(q)
            )
            verdict = is_weil(chi_from_a(a, params), params)
            if verdict.is_weil and not verdict.real_roots:
                produced += 1
                yield a
            continue
        co = chi.coeffs
        a = tuple(co[12 - i] for i in range(1, 7))
        verdict = is_weil(chi, params)
        if not verdict.is_weil or verdict.real_roots:
            continue
        produced += 1
        yield a


def _rejection_box(q: int) -> list[tuple[int, int]]:
    """A sub-box of the trivial bounds where rejection sampling has real yield."""
    r = isqrt(q) + 1
    widths = [12 * r, 60 * q, 160 * q * r, 240 * q * q, 192 * q * q * r, 64 * q ** 3]
    return [(-w, w) for w in widths]


# -- cross-check harness -----------------------------------------------------------


def cross_check(spec: EnumerationSpec, numeric_sample_rate: float = 0.01, seed: int = 1729) -> dict:
    """Run the enumeration and assert the module-level properties.

    degree 12: every Weil instance without real roots must pass the
    corollary bounds and the trivial bounds (decisively).
    degree 14: the 31-case table verdict must agree with the Tate criterion
    on every unflagged case; flagged and inconclusive instances are listed.
    Any violation lands in report["violations"], which must stay empty.
    """
    rng = random.Random(seed)
    if spec.degree <= 4:
        numeric_sample_rate = 1.0  # full numeric cross-check at small degree
    report = {
        "spec": {
            "degree": spec.degree,
            "q": spec.params.q,
            "box": spec.resolved_box(),
            "filters": {
                "weil_only": spec.weil_only,
                "irreducible_only": spec.irreducible_only,
                "no_real_roots": spec.no_real_roots,
            },
        },
        "counts": {},
        "violations": [],
        "ambiguous": [],
        "indeterminate": [],
        "skipped": [],
    }
    counts = report["counts"]
    for rec in enumerate_weil(spec):
        counts["records"] = counts.get("records", 0) + 1
        chi = chi_from_a(rec.a, spec.params)
        if rec.is_weil and (
            numeric_sample_rate >= 1.0 or rng.random() < numeric_sample_rate
        ):
            numeric = numeric_modulus_verdict(chi, spec.params)
            if numeric is False:
                report["violations"].append(
                    {"a": list(rec.a), "property": "numeric modulus oracle"}
                )
            if numeric is None and not weil_oracle(chi, spec.params):
                report["violations"].append(
                    {"a": list(rec.a), "property": "exact modulus oracle"}
                )
        if spec.degree == 12 and rec.is_weil and not rec.real_roots:
            rep = corollary_bounds(rec.a, spec.params)
            triv = trivial_bounds(rec.a, spec.params)
            if rep.indeterminates:
                report["indeterminate"].append(
                    {"a": list(rec.a), "conditions": rep.indeterminates}
                )
            if rep.failures or not triv.all_pass:
                report["violations"].append(
                    {
                        "a": list(rec.a),
                        "property": "corollary necessity",
                        "failed": rep.failures + triv.failures,
                    }
                )
        if spec.degree == 14:
            c = classify(chi, spec.params)
            counts[c.verdict] = counts.get(c.verdict, 0) + 1
            if c.verdict == "table_tate_disagreement":
                report["violations"].append(
                    {
                        "a": list(rec.a),
                        "property": "table-tate agreement",
                        "case": c.case_id,
                        "failed": list(c.failed_conditions),
                    }
                )
            elif c.verdict == "text_ambiguous":
                report["ambiguous"].append(
                    {"a": list(rec.a), "candidates": list(c.candidate_cases)}
                )
            elif c.verdict == "inconclusive":
                report["indeterminate"].append({"a": list(rec.a), "detail": c.detail})
    report["ok"] = not report["violations"]
    return report
