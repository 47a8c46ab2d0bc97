"""Host speed, sampled while the program runs.

The benchmark runs on small shared VMs whose speed swings by up to
1.8x from one tenth of a second to the next, as other tenants load the
same cores.  A stage's wall time then says as much about the
neighbours as about the program.  So every benchmark process, and
every ``repro serve`` child, runs a :class:`Sampler`: every
``TICK_S`` of wall time a ``SIGALRM`` handler times a short fixed
loop (a *tick*).  A measured interval is reported at reference host
speed::

    scaled = (wall - ticks inside) * mean(REFERENCE_S / tick)

The mean is over the ticks inside the interval and the nearest one on
either side; they give the host's speed while the interval ran, so a
slow tenth of a second is charged against that tenth only.  Ticks are
equally spaced in time, so the mean of their speeds is the mean speed
over the interval; a tick that lost the CPU for a while reads as one
slow sample instead of inflating a mean of times.  The sampler's own
ticks (about 2% of the time) are taken out of the wall time.  The loop
is the benchmark's own code, so no change to the program moves it.
Runs print the raw wall times next to the scaled ones.
"""

from __future__ import annotations

import json
import signal
import statistics
import time
from pathlib import Path
from typing import Optional

#: Wall time between ticks.
TICK_S = 0.02
#: Time of one tick on a quiet 2-vCPU Xeon VM (2.1 GHz).
REFERENCE_S = 0.0004

Tick = tuple[float, float]  # (start on the perf_counter clock, seconds)


def _loop() -> float:
    table: dict[int, float] = {}
    total = 0.0
    for i in range(2_000):
        key = i % 101
        table[key] = table.get(key, 0.0) + i * 0.5
        total += (i * 1.000001) % 7.3
    return total + len(table)


class Sampler:
    """Ticks of this process, from ``SIGALRM`` every ``TICK_S``.

    The handler runs in the main thread between bytecodes, so a tick
    runs on whichever CPU the program's own Python code is running on
    at that moment.  Interval timers are not inherited across
    ``fork``, so worker processes carry no sampler.
    """

    def __init__(self) -> None:
        self.ticks: list[Tick] = []
        self._busy = False
        self._previous = None

    def tick(self) -> None:
        if self._busy:  # a timer tick landing inside an explicit one
            return
        self._busy = True
        try:
            start = time.perf_counter()
            _loop()
            self.ticks.append((start, time.perf_counter() - start))
        finally:
            self._busy = False

    def start(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.tick())
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def scaled(self, lo: float, hi: float) -> float:
        return scaled(self.ticks, lo, hi)

    def write(self, path: Path) -> None:
        Path(path).write_text(json.dumps(self.ticks))


def read_ticks(path: Path) -> list[Tick]:
    return [tuple(t) for t in json.loads(Path(path).read_text())]


def scaled(ticks: list[Tick], lo: float, hi: float) -> float:
    """Wall time ``lo..hi`` at reference host speed, from the ticks
    inside it and the nearest one on either side."""
    inside = [d for t, d in ticks if lo <= t and t + d <= hi]
    before = [(t, d) for t, d in ticks if t + d <= lo]
    after = [(t, d) for t, d in ticks if t >= hi]
    near = list(inside)
    if before:
        near.append(max(before)[1])
    if after:
        near.append(min(after)[1])
    if not near:
        raise ValueError(f"no host-speed tick near {lo:.3f}..{hi:.3f}")
    return (hi - lo - sum(inside)) * statistics.fmean(REFERENCE_S / d for d in near)


#: The sampler of this process, started by :func:`start`.
SAMPLER: Optional[Sampler] = None


def start() -> Sampler:
    """Start this process's sampler (once)."""
    global SAMPLER
    if SAMPLER is None:
        SAMPLER = Sampler().start()
    return SAMPLER
