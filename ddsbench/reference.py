"""A fixed reference workload: how fast the host runs right now.

The machine this benchmark runs on is shared, and its speed drifts by
up to 2x over minutes as other work comes and goes. Host timings are
therefore scaled to a reference host speed. The benchmark runs this
loop between every window of timed work and divides by the loop's
time, raised to ``ELASTICITY``.

The loop is a tiny discrete-event simulation written here, not the
repository's engine, so a change to the program under test cannot
change it. Its generator resumes, heap operations and scattered writes
to a 100K-cell list meet the same interference as the simulator does.
"""

from __future__ import annotations

import heapq
import random
import statistics
import time
from typing import List

__all__ = ["ELASTICITY", "NOMINAL_S", "Reference", "scaled"]

#: Host time of one reference run on the nominal host. Host numbers are
#: reported as if measured there:
#: raw time x (NOMINAL_S / reference time) ** ELASTICITY.
NOMINAL_S = 400e-6
#: How much of the reference loop's slowdown the simulator shares. On a
#: busy host the loop slows down more than the simulator does: over
#: repetitions on a shared 2-core host, the slope of log host time on
#: log reference time was 0.61 for kv-read, 0.84 for host-rw and 0.82
#: for sharded-tenants. Dividing by the whole slowdown overcorrected:
#: kv-read's host_us_per_req spread (IQR over median, ten seeds) by 7.1%
#: that way, and by 2.8% and 4.7% in two sets of ten with this exponent.
ELASTICITY = 0.75
#: Size of the list the loop writes to, events per run, and runs per
#: sample.
CELLS = 100_000
EVENTS = 300
SAMPLE_RUNS = 9


class Reference:
    """Runs the reference loop and turns its timings into a scale."""

    def __init__(self) -> None:
        self._cells = list(range(CELLS))

    def run(self) -> float:
        """One reference run (identical work every time); host seconds."""
        begin = time.perf_counter()
        rng = random.Random(7)
        cells = self._cells
        size = len(cells)

        def process():
            while True:
                cells[rng.randrange(size)] += 1
                yield rng.random()

        heap = [(0.0, seq, process()) for seq in range(32)]
        heapq.heapify(heap)
        seq = len(heap)
        for _ in range(EVENTS):
            now, _seq, proc = heapq.heappop(heap)
            heapq.heappush(heap, (now + next(proc), seq, proc))
            seq += 1
        return time.perf_counter() - begin

    def sample(self) -> float:
        """Median host seconds of SAMPLE_RUNS back-to-back runs."""
        return statistics.median(self.run() for _ in range(SAMPLE_RUNS))


def scaled(raw_seconds: float, reference_seconds: List[float]) -> float:
    """``raw_seconds`` as the nominal host would have taken it."""
    speed = NOMINAL_S * len(reference_seconds) / sum(reference_seconds)
    return raw_seconds * speed**ELASTICITY
