"""The machine's speed, sampled during a run on a fixed pure-Python workload.

On a shared machine the CPU time of the same op moved by up to half
within minutes, as other tenants came and went.  The gated timings are
therefore scaled to a nominal machine: each CPU time is multiplied by the
run's median reference rate over ``NOMINAL_RATE``, the rate of the 2-core
sandbox where the baseline was taken.  The reference does the kind of
interpreter work the program does (walking lists of lists, small-int
tests, in-place compaction, dict stores) and never imports the program,
so a change to the program moves the scaled times and a change of machine
speed does not.
"""

from __future__ import annotations

import statistics
import time

NOMINAL_RATE = 8700.0  # reference units per CPU second
SLICE_S = 0.02


def reference_unit() -> int:
    watches = [[(i * 7 + j) % 50 for j in range(i % 6 + 2)] for i in range(60)]
    assign = [-1, 0, 1] * 17
    kept = 0
    for wl in watches:
        j = 0
        for ci in wl:
            a = assign[ci]
            if a < 0 or (a ^ (ci & 1)) == 1:
                wl[j] = ci
                j += 1
        del wl[j:]
        kept += j
    seen = {}
    for i in range(40):
        seen[i * 31 % 97] = i
    return kept + len(seen)


class Speed:
    """Reference rates sampled through a run, in units per CPU second."""

    def __init__(self):
        self.rates: list[float] = []

    def sample(self) -> None:
        done = 0
        start = time.process_time()
        while (elapsed := time.process_time() - start) < SLICE_S:
            reference_unit()
            done += 1
        self.rates.append(done / elapsed)

    @property
    def factor(self) -> float:
        """Machine speed relative to the nominal machine (1.0 = nominal)."""
        return statistics.median(self.rates) / NOMINAL_RATE
