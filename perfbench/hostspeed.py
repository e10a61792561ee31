"""The host's speed, read from fixed calibration work run between ops.

The machine this benchmark was built on switches between a fast and a
slow state about 1.7x apart that last tens of seconds, and at times
starting a process alone gets 2.3x slower; two runs of the same ops could
differ by a third in wall time.  Calibration work of the same shape as
an op slows alike: over minutes of alternating samples the ratio of an
op's time to the calibration's stayed within a few percent while both
moved 1.7-2.3x.  The speed also jitters within a second, so the estimate
is local: a run times the calibration right before every op and after
the last, and scales each op's wall time by the reference time over the
mean of the two calibration times around it.  A reference millisecond is
thus a wall millisecond on a host as fast as the reference machine in
its fast state.

Two calibrations, matched to the two kinds of op:
  * in-process ops: `kernel`, timed in the process that runs the op;
  * ops that start an interpreter (cli commands, set-up probes): a fresh
    interpreter that runs this file, timed from start to exit, since
    process start-up can slow while in-process work does not.
Both use only the standard library and nothing of weilpoly, so no change
to weilpoly moves them.
"""

from __future__ import annotations

import subprocess
import sys
import time
from fractions import Fraction

# Wall times on the reference machine in its fast state (README.md): of
# one kernel call, and of one calibration interpreter.  They fix the scale
# of the reported times, not their ratios.
REFERENCE_S = 0.00088
REFERENCE_CHILD_S = 0.058
CHILD_KERNELS = 10


def kernel() -> int:
    """Exact rational sums, big-int steps and dict updates, as in weilpoly's hot paths."""
    acc = Fraction(0)
    x = 1
    seen: dict[int, int] = {}
    for i in range(1, 300):
        acc += Fraction(i * i + 1, 2 * i + 3)
        x = (x * 1103515245 + 12345) % (1 << 61)
        seen[x & 1023] = seen.get(x & 1023, 0) + 1
    return acc.numerator % 7 + len(seen)


def sample() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def child_sample(env: dict, cwd) -> float:
    """Wall time of a fresh interpreter running CHILD_KERNELS kernel calls."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, __file__], env=env, cwd=cwd, check=True)
    return time.perf_counter() - t0


def scales(samples: list[float], n_ops: int, reference: float) -> list[float]:
    """Per op i, timed between samples[i] and samples[i + 1]: the factor
    that turns its wall time into reference time.  (Wider windows were
    tried; on the reference machine they let the run-to-run spread of the
    90th percentile grow two- to four-fold.)"""
    return [2 * reference / (samples[i] + samples[i + 1]) for i in range(n_ops)]


if __name__ == "__main__":
    for _ in range(CHILD_KERNELS):
        kernel()
