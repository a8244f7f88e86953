"""Drive one workload through the real ``ServeService`` and measure it.

Run shape (see bench/README.md): generate -> setup (repeated, median) ->
warmup lap -> saturate (closed loop) -> paced (open loop, latency from the
due time) -> control-plane writes -> quiesce -> ``drain()``.

The only wrapper on the untraced path is the verdict check around
``backend.process_burst`` (one list comparison per burst); the timing
wrappers of bench/layers.py exist on traced runs only.
"""

from __future__ import annotations

import asyncio
import math
import multiprocessing
import os
import statistics
import time
from typing import Callable, Dict, List, Optional

from repro import obs
from repro.serve import ServeService, ServeState
from repro.util.stats import percentile

from bench import layers, oracle, probes
from bench.seams import (
    BurstClock,
    LapSource,
    cpu_seconds,
    rss_kb,
    rss_mb_above,
)
from bench.workloads import Workload, trace_digest

#: Set-up is repeated and its median reported (untraced runs only).
SETUP_REPS = 3
#: Length of one closed-loop window; the median window is the value of
#: record.  Short windows, so a burst of interference from a neighbour on
#: the host spoils a few of them instead of shifting all.
WINDOW_S = 0.5
#: Share of ``--seconds`` spent saturated; the rest is the paced phase.
SATURATE_SHARE = 0.45
#: install/remove pairs issued after the paced phase by workloads without
#: churn, so ``rule_update_p50_ms`` exists (and is bounded) on every workload.
IDLE_UPDATES = 9
#: Paced latencies are summarized per segment of this length, then by the
#: first quartile over the segments: a stall a neighbour on the host causes
#: only ever adds latency, and spoils the segments it falls in; a stall the
#: program causes every second (rule churn) is in all of them.
SEGMENT_S = 1.0
#: No phase may take longer than its nominal length plus this.
PHASE_SLACK_S = 30.0


class PhaseTimeout(RuntimeError):
    """A phase overran; its unaudited packets are booked as failed."""


async def _until(predicate: Callable[[], bool], timeout_s: float, phase: str) -> None:
    deadline = time.perf_counter() + timeout_s
    while not predicate():
        if time.perf_counter() > deadline:
            raise PhaseTimeout(phase)
        await asyncio.sleep(0.005)


class Run:
    """One workload run: builds the service, walks the phases, keeps what
    the summary needs."""

    def __init__(self, workload: Workload, seconds, traced, tamper, progress):
        self.wl = workload
        self.seconds = seconds
        self.traced = traced
        self.tamper = tamper
        self.progress = progress
        size = workload.burst
        self.lap = [
            workload.trace[i : i + size] for i in range(0, len(workload.trace), size)
        ]
        expected = oracle.expected_verdicts(workload)
        self.expected = {
            id(burst): expected[k * size : (k + 1) * size]
            for k, burst in enumerate(self.lap)
        }
        self.mismatched = 0
        self.paced_s = seconds * (1.0 - SATURATE_SHARE)
        self.paced_bursts = max(int(self.paced_s / workload.period_s), 1)
        self.update_ms: List[float] = []
        self.rss_samples: List[float] = []
        self.rss_baseline_kb = 0
        self.stop_updates = False
        self.service: Optional[ServeService] = None
        self.source: Optional[LapSource] = None
        self.clock: Optional[BurstClock] = None
        self.recorder: Optional[layers.Recorder] = None

    # -- building ----------------------------------------------------------------

    def _checked(self, inner):
        expected = self.expected

        def process_burst(burst):
            verdicts = inner(burst)
            self.mismatched += oracle.mismatches(verdicts, expected[id(burst)])
            return verdicts

        return process_burst

    async def _start(self, last: bool) -> float:
        """Backend construction -> first audited burst, in seconds."""
        # A drained shard plane merges its workers' registries into the
        # process registry; each build starts from an empty one.
        obs.set_registry(obs.MetricsRegistry())
        self.source = LapSource(self.lap)
        if not last:
            self.source.stop_at = 1
        tracing = self.traced and last
        period = self.wl.period_s
        self.clock = layers.TracingClock(period) if tracing else BurstClock(period)
        started = time.perf_counter()
        backend = self.wl.build_backend()
        if self.tamper is not None:
            backend.process_burst = self.tamper(backend.process_burst)
        if tracing:
            self.recorder = layers.Recorder(backend, self.source, self.clock)
        backend.process_burst = self._checked(backend.process_burst)
        self.service = ServeService(
            self.source, backend, chaos=self.clock.chaos, slo=self.clock
        )
        await self.service.start()
        # One worker per CPU, the coordinator floats.  Left to itself the
        # scheduler sometimes stacks both workers on one CPU for a whole
        # run, which makes the paced p50 bimodal (5.1 vs 6.9 ms).
        cpus = sorted(os.sched_getaffinity(0))
        for i, worker in enumerate(multiprocessing.active_children()):
            os.sched_setaffinity(worker.pid, {cpus[i % len(cpus)]})
        await _until(lambda: self.clock.closed >= 1, PHASE_SLACK_S, "setup")
        return time.perf_counter() - started

    async def _quiesce_and_drain(self):
        # drain() while ingest is blocked in wait_for(rx_q.put) can hang on
        # 3.11 (wait_for swallows the cancel once the put completed), so the
        # source is stopped and seen exhausted first.
        self.source.stop_at = self.source.pulled
        await _until(
            lambda: self.service._source_exhausted, PHASE_SLACK_S, "quiesce"
        )
        return await asyncio.wait_for(self.service.drain(), PHASE_SLACK_S)

    # -- phases ------------------------------------------------------------------

    def _serving(self) -> bool:
        if self.service.state is ServeState.FAILED:
            raise PhaseTimeout("service failed closed")
        return True

    async def _saturate_windows(self) -> List[Dict[str, float]]:
        windows = max(round(self.seconds * SATURATE_SHARE / WINDOW_S), 3)
        edges = []
        for _ in range(windows + 1):
            if edges:
                await asyncio.sleep(edges[-1][0] + WINDOW_S - time.perf_counter())
            self._serving()
            audited = self.service.counters()["audited"]
            edges.append((time.perf_counter(), audited, cpu_seconds()))
            self.rss_samples.append(rss_mb_above(self.rss_baseline_kb))
        windows = []
        for (t0, n0, c0), (t1, n1, c1) in zip(edges, edges[1:]):
            if n1 <= n0:
                raise PhaseTimeout("saturate")
            windows.append(
                {
                    "pps": (n1 - n0) / (t1 - t0),
                    "cpu_us_per_pkt": (c1 - c0) / (n1 - n0) * 1e6,
                }
            )
        return windows

    def _traced_gates(self, result: Dict[str, object]) -> None:
        """Fixed work instead of fixed time: one reference lap with the
        wrappers off, the same lap again with them on, then the paced phase
        — each starting from an empty pipeline, each marked (time, CPU)."""
        clock, n_lap = self.clock, len(self.lap)
        marks: Dict[str, tuple] = {}

        def mark(name: str, then: Callable[[], None] = lambda: None):
            def gate() -> None:
                marks[name] = (time.perf_counter(), cpu_seconds())
                then()

            return gate

        reference = clock.last_index + 1
        traced = reference + n_lap
        # The gate burst itself is pulled before install() can stamp it, so
        # the traced segment runs one burst longer than a lap.
        paced = traced + n_lap + 1
        clock.gates[reference] = mark("reference")
        clock.gates[traced] = mark("traced", self.recorder.install)
        clock.gates[paced] = mark("paced", clock.start_paced)
        self.source.stop_at = paced - 1 + self.paced_bursts
        result["marks"] = marks
        result["segments"] = {"reference": (reference, traced), "traced": (traced, paced)}

    async def _updates(self, batches, idle: bool) -> None:
        """install at t=k s, remove at t=k+0.5 s (back to back when idle)."""
        started = time.perf_counter()
        for k, batch in enumerate(batches):
            if not idle:
                await asyncio.sleep(started + k - time.perf_counter())
            if self.stop_updates:
                return
            t = time.perf_counter()
            await self.service.install_rules(batch)
            self.update_ms.append((time.perf_counter() - t) * 1e3)
            if not idle:
                await asyncio.sleep(started + k + 0.5 - time.perf_counter())
            await self.service.remove_rules([rule.rule_id for rule in batch])

    async def run(self) -> Dict[str, object]:
        wl, n_lap = self.wl, len(self.lap)
        batches = [
            wl.update_batch(j)
            for j in range(math.ceil(self.seconds) + 1 if wl.churn else IDLE_UPDATES)
        ]
        self.rss_baseline_kb = rss_kb()
        reps = 1 if self.traced else SETUP_REPS
        setup_s = []
        for rep in range(reps):
            self.progress("setup", wl.burst)
            last = rep == reps - 1
            setup_s.append(await self._start(last))
            if not last:
                await self._quiesce_and_drain()
        service, clock, source = self.service, self.clock, self.source
        result: Dict[str, object] = {"setup_s": setup_s}
        lap_packets = n_lap * wl.burst
        lap_timeout = PHASE_SLACK_S + self.seconds
        try:
            self.progress("warmup", lap_packets)
            await _until(
                lambda: self._serving() and clock.closed >= n_lap, lap_timeout, "warmup"
            )
            churn = (
                asyncio.ensure_future(self._updates(batches, idle=False))
                if wl.churn
                else None
            )
            self.progress("saturate", lap_packets)
            if self.traced:
                self._traced_gates(result)
            else:
                result["windows"] = await self._saturate_windows()
                clock.gates[clock.last_index + 1] = clock.start_paced
                source.stop_at = source.pulled + self.paced_bursts
            self.progress("paced", self.paced_bursts * wl.burst)
            await _until(
                lambda: self._serving() and clock.closed >= source.stop_at,
                self.paced_s + (2 * lap_timeout if self.traced else PHASE_SLACK_S),
                "paced",
            )
            if churn is not None:
                self.stop_updates = True
                await asyncio.wait_for(churn, PHASE_SLACK_S)
            else:
                self.progress("updates", 0)
                await asyncio.wait_for(
                    self._updates(batches, idle=True), PHASE_SLACK_S
                )
            self.rss_samples.append(rss_mb_above(self.rss_baseline_kb))
            self.progress("drain", 0)
            result["drain"] = (await self._quiesce_and_drain()).as_dict()
        except (PhaseTimeout, asyncio.TimeoutError) as exc:
            # Book whatever was pulled but never audited; tear down hard.
            counters = service.counters()
            result["timed_out"] = str(exc) or "drain"
            result["drain"] = dict(
                ingested=counters["ingested"],
                shed=counters["shed"],
                unaccounted=counters["ingested"] - counters["audited"] - counters["shed"],
                stage_restarts=sum(service.stage_restarts.values()),
            )
            service.backend.close()
        return result


def segment_latencies_ms(clock: BurstClock, q: float) -> List[float]:
    """The ``q``-th percentile of burst latency (due -> close, milliseconds)
    within each full segment of the paced phase."""
    segments: Dict[int, List[float]] = {}
    for k, latency in enumerate(clock.latencies):
        segments.setdefault(int(k * clock.period_s / SEGMENT_S), []).append(latency)
    full = max(len(values) for values in segments.values())
    return [
        percentile(values, q) * 1e3
        for values in segments.values()
        if len(values) >= full - 1
    ]


def _summarize(run: Run, raw: Dict[str, object]) -> Dict[str, object]:
    wl, clock = run.wl, run.clock
    drain = raw["drain"]
    attempted = max(int(drain["ingested"]), 1)
    failed = int(drain["shed"]) + int(drain["unaccounted"]) + run.mismatched
    out: Dict[str, object] = {
        "workload": wl.name,
        "traced": run.traced,
        "seconds": run.seconds,
        "sizes": wl.sizes,
        "trace_digest": trace_digest(wl.trace),
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "correct": failed == 0 and "timed_out" not in raw,
        "metrics": {},
        "detail": {
            "shed": drain["shed"],
            "unaccounted": drain["unaccounted"],
            "verdict_mismatches": run.mismatched,
            "timed_out": raw.get("timed_out"),
            "stage_restarts": drain["stage_restarts"],
            "paced_bursts": len(clock.latencies),
            "rule_updates": len(run.update_ms),
        },
    }
    if "timed_out" in raw:
        return out
    out["detail"].update(
        ingest_lag_ms_p95=percentile(clock.lags, 95) * 1e3,
        latency_ms_overall={
            f"p{q}": percentile(clock.latencies, q) * 1e3 for q in (50, 95, 99)
        },
    )
    if run.traced:
        out["metrics"] = layers.metrics(run, raw, probes.unit_costs(wl))
        traced_from = raw["segments"]["traced"][0]
        out["spans"] = run.recorder.spans(range(traced_from + 1, clock.last_index + 1))
        return out
    windows = raw["windows"]
    segments = {q: segment_latencies_ms(clock, q) for q in (50, 95)}
    out["detail"].update(
        windows=windows,
        setup_s=raw["setup_s"],
        latency_segments_ms={f"p{q}": values for q, values in segments.items()},
    )
    out["metrics"] = {
        "setup_s": (statistics.median(raw["setup_s"]), "s"),
        "throughput_pps": (statistics.median(w["pps"] for w in windows), "pkt/s"),
        "cpu_us_per_pkt": (
            statistics.median(w["cpu_us_per_pkt"] for w in windows),
            "us",
        ),
        "burst_latency_p50_ms": (percentile(segments[50], 25), "ms"),
        "burst_latency_p95_ms": (percentile(segments[95], 25), "ms"),
        "rule_update_p50_ms": (statistics.median(run.update_ms), "ms"),
        "peak_rss_mb": (max(run.rss_samples), "MB"),
    }
    return out


def measure(
    workload: Workload,
    seconds: float,
    traced: bool = False,
    tamper: Optional[Callable] = None,
    progress: Callable[[str, int], None] = lambda phase, packets: None,
) -> Dict[str, object]:
    """Run ``workload`` once; returns the result record bench/run.py prints.

    ``tamper`` wraps the backend's ``process_burst`` underneath the verdict
    check — the self-test uses it to prove a wrong verdict is caught.
    ``progress(phase, planned_packets)`` is called as each phase starts.
    """
    run = Run(workload, seconds, traced, tamper, progress)
    try:
        raw = asyncio.run(run.run())
    finally:
        # Orphan-worker cleanup on every exit path.
        for child in multiprocessing.active_children():
            child.terminate()
            child.join(timeout=5.0)
    return _summarize(run, raw)
