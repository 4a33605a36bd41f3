"""CPU speed sampling: timings expressed at one fixed reference speed.

On a shared host the code's own CPU slows down and speeds up with what
other tenants run on the same physical core: the same pure-Python loop
takes 30-45% longer in a busy spell than in a calm one, and the spells
come and go over seconds.  CPU time moves with it, so neither wall nor
CPU time of a run is steady, and a median over a run only helps when
one spell covers most of it.

A :class:`SpeedSampler` is a daemon thread that times a fixed probe
loop every ``INTERVAL_S``.  The work a stretch of time does is its
length times how fast the core ran, so a timing converts to reference
seconds as ``seconds * mean(REFERENCE_PROBE_S / probe_s)`` over the
probes taken during it: the time the same work takes on a core that
runs the probe loop in ``REFERENCE_PROBE_S``.  The process is pinned to
one CPU first, so the probes time the CPU the measured code runs on.
The sampler costs the measured code about 1% of its time, the same on
every commit.
"""

from __future__ import annotations

import bisect
import os
import threading
import time
from typing import List, Optional

#: Iterations of the probe loop.
PROBE_ITERATIONS = 2000
#: Probe loop time at the reference speed: the loop's time in a calm
#: spell on the 2-core Xeon host the benchmark was defined on.
REFERENCE_PROBE_S = 155e-6
#: Pause between probes.
INTERVAL_S = 0.03


def _probe() -> int:
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i % 7
    return total


def pin(last: bool = False) -> Optional[int]:
    """Pin the calling process to one of its CPUs (the first, or the
    last); threads and children started afterwards inherit it."""
    cpus = sorted(os.sched_getaffinity(0))
    cpu = cpus[-1] if last else cpus[0]
    os.sched_setaffinity(0, {cpu})
    return cpu


class SpeedSampler:
    """Times the probe loop in a background thread until stopped."""

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.factors: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-sampler", daemon=True)

    def start(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def __enter__(self) -> "SpeedSampler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def stop(self) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join()

    def _run(self) -> None:
        _probe()
        while not self._stop.wait(INTERVAL_S):
            start = time.perf_counter()
            cpu = time.thread_time()
            _probe()
            # The probe's own CPU time: the measured code shares the CPU
            # while it runs outside the GIL (sqlite, sockets), and that
            # must not read as a slow CPU.  Appended together under the
            # GIL: readers see equal lengths.
            self.factors.append(REFERENCE_PROBE_S / (time.thread_time() - cpu))
            self.starts.append(start)

    def factor(self, start: float, end: float) -> float:
        """Mean speed, as a share of the reference, over ``[start, end]``.

        A window too short to hold a probe takes the probe nearest to it.
        """
        count = min(len(self.starts), len(self.factors))
        if not count:
            raise RuntimeError("the speed sampler has taken no probe yet")
        starts = self.starts[:count]
        low = bisect.bisect_left(starts, start)
        high = bisect.bisect_right(starts, end)
        if high > low:
            window = self.factors[low:high]
            return sum(window) / len(window)
        nearest = min(max(low, 0), count - 1)
        return self.factors[nearest]

    def reference_s(self, seconds: float, start: float, end: float) -> float:
        """``seconds`` spent during ``[start, end]``, in reference seconds."""
        return seconds * self.factor(start, end)
