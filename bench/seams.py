"""What the benchmark plugs into ``ServeService``'s constructor seams, plus
the process accounting (CPU, RSS) read at phase edges.

* :class:`LapSource` — the benchmark-owned ``IngestSource``;
* :class:`BurstClock` — the ``chaos=`` hook (fires at the entry of each
  stage) and the duck-typed ``slo=`` probe (``close_burst`` is the last call
  of the audit stage) in one object.
"""

from __future__ import annotations

import asyncio
import math
import multiprocessing
import os
import time
from typing import Callable, Dict, Iterator, List, Optional, Sequence


class LapSource:
    """Pre-sliced bursts of one lap, replayed cyclically until ``stop_at``
    bursts have been pulled (``None``: forever)."""

    def __init__(self, lap: Sequence[list]) -> None:
        self.lap = lap
        self.pulled = 0
        self.stop_at: Optional[int] = None
        #: ``(start, end)`` of each pull once a traced run switches it on.
        self.pull_stamps: Optional[List[tuple]] = None

    def bursts(self) -> Iterator[list]:
        lap, n = self.lap, len(self.lap)
        while self.stop_at is None or self.pulled < self.stop_at:
            started = time.perf_counter()
            burst = lap[self.pulled % n]
            self.pulled += 1
            if self.pull_stamps is not None:
                self.pull_stamps.append((started, time.perf_counter()))
            yield burst


class BurstClock:
    """Paces ingest and times bursts from outside the service.

    ``gates`` maps a burst index to a callback: ingest holds that burst
    until every earlier one has left the audit stage, then runs the callback
    (a phase boundary on an empty pipeline).  Once :meth:`start_paced` ran,
    burst *k* is held until ``t0 + k * period`` — never when late — and its
    latency runs from that due time to ``close_burst``.
    """

    def __init__(self, period_s: float) -> None:
        self.period_s = period_s
        self.gates: Dict[int, Callable[[], None]] = {}
        self.paced_from = math.inf
        self.t0 = 0.0
        self.last_index = 0
        self.closed = 0
        self.latencies: List[float] = []
        self.lags: List[float] = []

    def start_paced(self) -> None:
        """Gate callback: the held burst becomes paced burst 0."""
        self.paced_from = self.last_index
        self.t0 = time.perf_counter() + self.period_s

    def due(self, index: int) -> float:
        return self.t0 + (index - self.paced_from) * self.period_s

    async def chaos(self, stage: str, index: int) -> None:
        if stage == "ingest":
            await self.hold(index)

    async def hold(self, index: int) -> None:
        self.last_index = index
        gate = self.gates.pop(index, None)
        if gate is not None:
            while self.closed < index - 1:
                await asyncio.sleep(0.001)
            gate()
        if index >= self.paced_from:
            due = self.due(index)
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            self.lags.append(time.perf_counter() - due)

    # ServeService asks ``has(name)`` before every ``observe``; declining
    # them all leaves ``close_burst`` as the only call it makes.
    def has(self, name: str) -> bool:
        return False

    def close_burst(self, index: int) -> None:
        self.closed += 1
        if index >= self.paced_from:
            self.latencies.append(time.perf_counter() - self.due(index))


def _status_kb(pid: int, field: str) -> int:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    return 0


def rss_kb() -> int:
    return _status_kb(os.getpid(), "VmRSS")


def cpu_seconds() -> float:
    """CPU seconds so far of this process plus its live worker processes.

    Workers are read from ``schedstat`` (nanoseconds on-CPU per thread; the
    10 ms ticks of ``/proc/<pid>/stat`` are too coarse for short windows).
    """
    total = time.process_time()
    for child in multiprocessing.active_children():
        tasks = f"/proc/{child.pid}/task"
        for tid in os.listdir(tasks):
            with open(f"{tasks}/{tid}/schedstat") as fh:
                total += int(fh.read().split()[0]) / 1e9
    return total


def rss_mb_above(baseline_kb: int) -> float:
    """Resident MB above ``baseline_kb``: this process now, plus each live
    worker's peak.  A forked worker starts with the parent's pages, so the
    generator's footprint is subtracted once per process."""
    total = rss_kb() - baseline_kb
    for child in multiprocessing.active_children():
        total += max(_status_kb(child.pid, "VmHWM") - baseline_kb, 0)
    return total / 1024.0
