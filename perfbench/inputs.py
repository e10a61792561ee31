"""Seeded input lists for the four workloads.

Every list has a fixed length and a fixed mix, repeated in whole rounds;
the seed only draws the values inside each slot.  Both commits of a
comparison therefore run exactly the same operations, and two seeds differ
only in the drawn coefficients, never in how many inputs of each kind they
hold.  Nothing here imports weilpoly.
"""

from __future__ import annotations

import itertools
import json
import random
from math import isqrt
from pathlib import Path

from independent import a_from_chi, poly_mul

Q12 = (2, 3, 4, 5, 9)
QUARTIC_BLOCKS = (0, 1, 2, 3)  # quartic x-pair blocks among the six quadratic slots
NECESSITY12_ROUNDS = 10  # a round is every (q, block mode) pair once: 20 inputs
PRUNE12_KINDS = ("shift", "shift", "shift", "raw")
PRUNE12_ROUNDS = 10  # a round is every (q, kind) pair once: 20 inputs
SCAN14_Q8_COUNT = 60
CLI_ROUNDS = 8  # a round is the 12 golden invocations and one cross-check
CLI_CROSS_CHECK_BOX = "-1:1,0:0,0:0,-1:1,0:0,0:0,-1:1"
CLI_CROSS_CHECK = ["cross-check", "--degree", "14", "--q", "2", "--box", CLI_CROSS_CHECK_BOX]


def _edge(q: int) -> int:
    """Largest integer x with x^2 < 4q: t^2 + x t + q then has no real root."""
    e = isqrt(4 * q)
    return e - 1 if e * e == 4 * q else e


def x_pair_ok(s: int, c: int, q: int) -> bool:
    """Are both roots of z^2 - s z + c real and strictly inside (-2 sqrt q, 2 sqrt q)?"""
    if s * s < 4 * c:
        return False
    # p(z) = z^2 - s z + c must be positive at z = +-2 sqrt q, with its vertex inside
    return 4 * q + c > 0 and (4 * q + c) ** 2 > 4 * q * s * s and s * s < 16 * q


def weil12_chi(rng: random.Random, q: int, quartic_blocks: int) -> list[int]:
    """A degree-12 q-Weil polynomial with no real root, as a block product.

    Quadratic blocks t^2 + x t + q with x^2 < 4q; a quartic block is the
    product of two of them over a real x-pair (x1 + x2 = s, x1 x2 = c), so
    its x's may be irrational.
    """
    e = _edge(q)
    chi = [1]
    for _ in range(quartic_blocks):
        while True:
            s = rng.randint(-2 * e, 2 * e)
            c = rng.randint(-4 * q, 4 * q)
            if x_pair_ok(s, c, q):
                break
        chi = poly_mul(chi, [q * q, q * s, c + 2 * q, s, 1])
    for _ in range(6 - 2 * quartic_blocks):
        chi = poly_mul(chi, [q, rng.randint(-e, e), 1])
    return chi


def rejection_box(q: int) -> list[tuple[int, int]]:
    """The raw coefficient box of the acceptance suite's degree-12 sampler."""
    r = isqrt(q) + 1
    widths = [12 * r, 60 * q, 160 * q * r, 240 * q * q, 192 * q * q * r, 64 * q ** 3]
    return [(-w, w) for w in widths]


def necessity12(seed: int) -> list[dict]:
    rng = random.Random(f"necessity12/{seed}")
    out = []
    for _ in range(NECESSITY12_ROUNDS):
        for blocks in QUARTIC_BLOCKS:
            for q in Q12:
                a = a_from_chi(weil12_chi(rng, q, blocks))
                out.append({"q": q, "a": a, "quartic_blocks": blocks})
    return out


def prune12(seed: int) -> list[dict]:
    """Near-misses of Weil samples, and raw draws from the sampler's box.

    A shift moves one a_i by +-1 or +-2 times q^ceil(i/2), the scale of a_i.
    """
    rng = random.Random(f"prune12/{seed}")
    out = []
    for _ in range(PRUNE12_ROUNDS):
        for kind in PRUNE12_KINDS:
            for q in Q12:
                if kind == "raw":
                    a = tuple(rng.randint(lo, hi) for lo, hi in rejection_box(q))
                else:
                    a = list(a_from_chi(weil12_chi(rng, q, rng.choice(QUARTIC_BLOCKS))))
                    i = rng.randint(1, 6)
                    a[i - 1] += rng.choice((-2, -1, 1, 2)) * q ** ((i + 1) // 2)
                    a = tuple(a)
                out.append({"q": q, "a": a, "kind": kind})
    return out


def q2_box() -> list[tuple[int, ...]]:
    """Every candidate of the acceptance scan: q = 2, |a_i| <= 1."""
    return list(itertools.product((-1, 0, 1), repeat=7))


def scan14(seed: int) -> list[dict]:
    """A third of the q=2 box, then a seeded set at q = 8, |a_i| <= 3.

    The seed picks the third: the 729 candidates with a_1 + ... + a_7 = seed
    (mod 3), which spread over the whole box (for each a_1..a_6 one a_7
    lands in each class).  The q = 8 set reaches the rejected verdicts and
    the p-adic side conditions.
    """
    out = [{"q": 2, "a": a} for a in q2_box() if sum(a) % 3 == seed % 3]
    rng = random.Random(f"scan14/{seed}")
    for _ in range(SCAN14_Q8_COUNT):
        out.append({"q": 8, "a": tuple(rng.randint(-3, 3) for _ in range(7))})
    return out


def cross_check_candidates() -> list[tuple[int, ...]]:
    """The a-vectors the cli workload's cross-check command scans."""
    ranges = []
    for part in CLI_CROSS_CHECK_BOX.split(","):
        lo, hi = part.split(":")
        ranges.append(range(int(lo), int(hi) + 1))
    return list(itertools.product(*ranges))


def cli(seed: int, root: Path, scratch: Path) -> list[dict]:
    """The 12 golden invocations and a degree-14 cross-check, in rounds.

    The seed shuffles the order within each round.  The lmfdb invocation's
    cache directory is moved inside the run's scratch directory, which holds
    no cache, so the call stays cold and reads nothing outside the checkout.
    """
    golden = root / "tests" / "golden"
    manifest = json.loads((golden / "manifest.json").read_text())
    commands = []
    for name in sorted(manifest):
        argv = list(manifest[name]["argv"])
        if "--cache-dir" in argv:
            argv[argv.index("--cache-dir") + 1] = str(scratch / "lmfdb-cold-cache")
        commands.append(
            {
                "name": name,
                "argv": argv,
                "exit": manifest[name]["exit"],
                "golden": (golden / f"{name}.golden").read_bytes(),
            }
        )
    commands.append({"name": "cross_check_q2_deg14", "argv": CLI_CROSS_CHECK, "exit": 0, "golden": None})
    rng = random.Random(f"cli/{seed}")
    out = []
    for _ in range(CLI_ROUNDS):
        order = list(commands)
        rng.shuffle(order)
        out.extend(order)
    return out
