"""Traced runs: spans around the calls into each layer, and per-layer metrics.

Nothing here touches ``src/``: every span comes from a stamp the benchmark
takes itself — the ``chaos`` hook at the entry of each stage, the ``slo``
probe at the end of audit, and instance-level wrappers around public methods
(``backend.process_burst`` / ``apply_delta``, ``LoadBalancer.route``,
``Enclave.ecall``, ``ShardedDataPlane.process`` / ``finish``).  The shard
task queues' ``put`` is wrapped too: the only place the pickled batch is
visible from outside.  Counts come from the program's own metrics registry
(worker registries merge into it at ``finish()``).

Span tree per burst (``burst`` runs due -> close when paced, pull -> close
when saturated)::

    burst
      ingest.pull  service.rxq_wait  backend.process_burst
                                       lb.route*  enclave.ecall*  shard.process
      service.auditq_wait  service.audit

``*`` per-packet calls: one aggregate child per burst carrying sum and count.
Self time is a span's duration minus the part its children cover.
"""

from __future__ import annotations

import pickle
import statistics
import time
from collections import deque
from typing import Dict, List, Sequence

from repro import obs
from repro.util.stats import percentile

from bench.seams import BurstClock

#: Every N-th shard batch is pickled a second time to size it.
WIRE_SAMPLE_EVERY = 8


class TracingClock(BurstClock):
    """BurstClock that also stamps each burst at every stage entry.

    The hook is told the *ingest* index whatever stage calls it, so the
    filter and audit stamps are matched to bursts by FIFO order (the queues
    are FIFO; a shed burst is taken back out when its close arrives early).
    """

    def __init__(self, period_s: float) -> None:
        super().__init__(period_s)
        self.stamping = False
        self.stamps: Dict[int, Dict[str, float]] = {}
        self.in_filter = 0
        self._to_filter: deque = deque()
        self._to_audit: deque = deque()

    async def chaos(self, stage: str, index: int) -> None:
        now = time.perf_counter()
        if stage == "ingest":
            await self.hold(index)
            if self.stamping:
                self.stamps[index] = {"release": time.perf_counter()}
                self._to_filter.append(index)
        elif self.stamping:
            if stage == "filter" and self._to_filter:
                self.in_filter = index = self._to_filter.popleft()
                self._to_audit.append(index)
            elif stage == "audit" and self._to_audit:
                index = self._to_audit.popleft()
            else:
                return
            self.stamps[index][stage] = now

    def close_burst(self, index: int) -> None:
        super().close_burst(index)
        if self._to_filter and self._to_filter[-1] == index:
            self._to_filter.pop()  # shed before it was queued
        elif index in self.stamps:
            self.stamps[index]["close"] = time.perf_counter()


class Recorder:
    """Timing wrappers around one backend; pass-through until ``install``."""

    def __init__(self, backend, source, clock: TracingClock) -> None:
        self.backend, self.source, self.clock = backend, source, clock
        self.on = False
        self.bursts: Dict[int, Dict[str, float]] = {}
        self.apply_delta_s: List[float] = []
        self.finish_s = 0.0
        self.first_pull_index = 0
        self._cur: Dict[str, float] = self._blank()
        self._batch_seq = 0
        backend.process_burst = self._burst(backend.process_burst)
        backend.apply_delta = self._apply_delta(backend.apply_delta)
        fleet = getattr(backend, "fleet", None)
        if fleet is not None:
            lb = fleet.controller.load_balancer
            lb.route = self._summed(lb.route, "route")
            for enclave in fleet.controller.enclaves:
                enclave.ecall = self._ecall(enclave.ecall)
        plane = getattr(backend, "plane", None)
        if plane is not None:
            plane.process = self._shard_process(plane.process)
            plane.finish = self._finish(plane.finish)

    def install(self) -> None:
        """Switch stamping and timing on (runs at a flushed-pipeline gate)."""
        self.on = self.clock.stamping = True
        self.source.pull_stamps = []
        self.first_pull_index = self.source.pulled + 1
        plane = getattr(self.backend, "plane", None)
        if plane is not None:
            # Created by plane.start(), hence wrapped only now.
            for task_queue in plane._task_queues:
                task_queue.put = self._queue_put(task_queue.put)

    @staticmethod
    def _blank() -> Dict[str, float]:
        return dict(
            route_s=0.0, route_n=0, ecall_s=0.0, ecall_n=0, ecall_pkts=0,
            batches=0, wire_flows=0, sized_flows=0, sized_bytes=0,
        )

    # -- wrappers ----------------------------------------------------------------

    def _burst(self, inner):
        def process_burst(burst):
            if not self.on:
                return inner(burst)
            cur = self._cur = self._blank()
            cur["packets"] = len(burst)
            cpu = time.process_time()
            cur["start"] = time.perf_counter()
            try:
                return inner(burst)
            finally:
                cur["end"] = time.perf_counter()
                cur["cpu_s"] = time.process_time() - cpu
                self.bursts[self.clock.in_filter] = cur

        return process_burst

    def _summed(self, inner, key):
        def call(*args):
            if not self.on:
                return inner(*args)
            started = time.perf_counter()
            try:
                return inner(*args)
            finally:
                self._cur[key + "_s"] += time.perf_counter() - started
                self._cur[key + "_n"] += 1

        return call

    def _ecall(self, inner):
        summed = self._summed(inner, "ecall")

        def ecall(name, *args, **kwargs):
            # heal() pings enclaves between bursts; only burst ECalls count.
            if name != "process_burst":
                return inner(name, *args, **kwargs)
            self._cur["ecall_pkts"] += len(args[0])
            return summed(name, *args)

        return ecall

    def _shard_process(self, inner):
        def process(packets):
            self._cur["shard_start"] = time.perf_counter()
            try:
                return inner(packets)
            finally:
                self._cur["shard_end"] = time.perf_counter()

        return process

    def _queue_put(self, inner):
        def put(item, *args, **kwargs):
            inner(item, *args, **kwargs)
            if item is not None and item[0] == "batch":
                cur = self._cur
                cur["batches"] += 1
                cur["wire_flows"] += len(item[2])
                self._batch_seq += 1
                if self._batch_seq % WIRE_SAMPLE_EVERY == 0:
                    cur["sized_flows"] += len(item[2])
                    cur["sized_bytes"] += len(pickle.dumps(item))

        return put

    def _apply_delta(self, inner):
        def apply_delta(delta):
            started = time.perf_counter()
            try:
                return inner(delta)
            finally:
                if self.on:
                    self.apply_delta_s.append(time.perf_counter() - started)

        return apply_delta

    def _finish(self, inner):
        def finish():
            started = time.perf_counter()
            try:
                return inner()
            finally:
                self.finish_s = time.perf_counter() - started

        return finish

    # -- spans -------------------------------------------------------------------

    def complete(self, indexes: Sequence[int]) -> List[int]:
        """The bursts of ``indexes`` that carry every stamp (all of them, on
        a run without sheds or stage restarts)."""
        stamps = self.clock.stamps
        return [
            i
            for i in indexes
            if i in self.bursts and {"filter", "audit", "close"} <= stamps.get(i, {}).keys()
        ]

    def burst_spans(self, index: int) -> List[dict]:
        """The span tree of one fully stamped burst."""
        stamps, rec = self.clock.stamps[index], self.bursts[index]
        pull = self.source.pull_stamps[index - self.first_pull_index]
        paced = index >= self.clock.paced_from
        begin = self.clock.due(index) if paced else pull[0]
        process = "backend.process_burst"
        tree = [
            ("burst", begin, stamps["close"], "", {}),
            ("ingest.pull", pull[0], pull[1], "burst", {}),
            ("service.rxq_wait", stamps["release"], stamps["filter"], "burst", {}),
            (process, rec["start"], rec["end"], "burst",
             {"packets": rec["packets"], "cpu_us": rec["cpu_s"] * 1e6}),
            ("service.auditq_wait", rec["end"], stamps["audit"], "burst", {}),
            ("service.audit", stamps["audit"], stamps["close"], "burst", {}),
        ]
        for name, key in (("lb.route", "route"), ("enclave.ecall", "ecall")):
            if rec[key + "_n"]:
                # Per-packet calls: one aggregate child, laid at the start.
                tree.append(
                    (name, rec["start"], rec["start"] + rec[key + "_s"], process,
                     {"sum_us": rec[key + "_s"] * 1e6, "count": rec[key + "_n"]})
                )
        if "shard_end" in rec:
            tree.append(
                ("shard.process", rec["shard_start"], rec["shard_end"], process,
                 {"batches": rec["batches"], "wire_flows": rec["wire_flows"]})
            )
        phase = "paced" if paced else "saturate"
        return [
            dict(name=name, start=start, end=end, parent=parent, burst=index,
                 phase=phase, args=args)
            for name, start, end, parent, args in tree
        ]

    def spans(self, indexes: Sequence[int]) -> List[dict]:
        return [span for i in self.complete(indexes) for span in self.burst_spans(i)]


def chrome_trace(spans: List[dict]) -> dict:
    """Chrome-trace (``chrome://tracing`` / Perfetto) form of ``spans``: one
    lane per stage, so the overlapping bursts of a pipeline do not stack."""
    lanes = {"burst": 0, "ingest.pull": 1, "service.rxq_wait": 1,
             "service.auditq_wait": 3, "service.audit": 3}
    origin = min((span["start"] for span in spans), default=0.0)
    return {
        "displayTimeUnit": "ms",
        "traceEvents": [
            {
                "name": span["name"],
                "ph": "X",
                "pid": 1,
                "tid": lanes.get(span["name"], 2),
                "ts": (span["start"] - origin) * 1e6,
                "dur": (span["end"] - span["start"]) * 1e6,
                "args": dict(
                    span["args"], burst=span["burst"], parent=span["parent"],
                    phase=span["phase"],
                ),
            }
            for span in spans
        ],
    }


def self_times(spans: List[dict]) -> Dict[str, float]:
    """Total self time (seconds) per span name: duration minus the part of
    the interval its child spans cover (children clipped to the parent)."""
    by_burst: Dict[int, List[dict]] = {}
    for span in spans:
        by_burst.setdefault(span["burst"], []).append(span)
    totals: Dict[str, float] = {}
    for tree in by_burst.values():
        for span in tree:
            covered = sum(
                max(min(c["end"], span["end"]) - max(c["start"], span["start"]), 0.0)
                for c in tree
                if c["parent"] == span["name"]
            )
            own = span["end"] - span["start"] - covered
            totals[span["name"]] = totals.get(span["name"], 0.0) + own
    return totals


# -- per-layer metrics ---------------------------------------------------------------

_SHARD_ZEROS = {
    "shard.coordinator_cpu_us_per_pkt": (0.0, "us"),
    "shard.worker_cpu_us_per_pkt_max": (0.0, "us"),
    "shard.worker_cpu_us_per_pkt_sum": (0.0, "us"),
    "shard.worker_skew": (0.0, "ratio"),
    "shard.wait_share": (0.0, "ratio"),
    "shard.bottleneck_pps": (0.0, "pkt/s"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(run, raw: Dict[str, object], unit: Dict[str, float]) -> Dict[str, tuple]:
    """Every ``per_layer`` metric of BENCHMARK.json as ``name -> (value, unit)``.

    Timings of CPU-bound spans come from the traced lap (fixed work); queue
    waits and latencies from the paced phase (queues are empty unless the
    service is late); counts from the registry, over the whole run.
    """
    rec: Recorder = run.recorder
    clock: TracingClock = run.clock
    total = obs.get_registry().total
    drain = raw["drain"]
    ingested = int(drain["ingested"])
    traced_from, paced_from = raw["segments"]["traced"]
    # The gate burst was pulled before install() could stamp it.
    lap = rec.complete(range(traced_from + 1, paced_from))
    paced = rec.complete(range(paced_from, clock.last_index + 1))
    stamps, bursts = clock.stamps, rec.bursts
    lap_packets = sum(bursts[i]["packets"] for i in lap)
    own = self_times(rec.spans(lap))

    def lap_sum(key: str) -> float:
        return sum(bursts[i][key] for i in lap)

    def per_pkt_us(seconds: float) -> float:
        return _ratio(seconds, lap_packets) * 1e6

    def per_burst_us(seconds: float) -> float:
        return _ratio(seconds, len(lap)) * 1e6

    def paced_p50_ms(values) -> float:
        return percentile(list(values), 50) * 1e3

    burst_s = [bursts[i]["end"] - bursts[i]["start"] for i in lap]
    # Burst wall minus backend minus audit: what the service's own stages
    # and queue hops cost a burst that never had to queue.
    overhead_s = [
        (stamps[i]["close"] - clock.due(i))
        - (bursts[i]["end"] - bursts[i]["start"])
        - (stamps[i]["close"] - stamps[i]["audit"])
        for i in paced
    ]
    out: Dict[str, tuple] = {
        "ingest.pull_us_per_burst": (per_burst_us(own.get("ingest.pull", 0.0)), "us"),
        "ingest.lag_ms_p95": (percentile(clock.lags, 95) * 1e3, "ms"),
        "service.rxq_wait_ms_p50": (
            paced_p50_ms(stamps[i]["filter"] - stamps[i]["release"] for i in paced), "ms"),
        "service.auditq_wait_ms_p50": (
            paced_p50_ms(stamps[i]["audit"] - bursts[i]["end"] for i in paced), "ms"),
        "service.audit_us_per_burst": (per_burst_us(own.get("service.audit", 0.0)), "us"),
        "service.stage_overhead_us_per_burst": (percentile(overhead_s, 50) * 1e6, "us"),
        "service.burst_latency_p99_ms": (percentile(clock.latencies, 99) * 1e3, "ms"),
        "service.drain_s": (float(drain["drain_seconds"]), "s"),
        "service.shed_packets": (int(drain["shed"]), "count"),
        "service.stage_restarts": (int(drain["stage_restarts"]), "count"),
        "backend.process_burst_ms_p50": (percentile(burst_s, 50) * 1e3, "ms"),
        "backend.process_burst_ms_p95": (percentile(burst_s, 95) * 1e3, "ms"),
        "backend.process_burst_cpu_us_per_pkt": (per_pkt_us(lap_sum("cpu_s")), "us"),
        "backend.apply_delta_ms_p50": (percentile(rec.apply_delta_s, 50) * 1e3, "ms"),
        "lb.route_us_per_pkt": (per_pkt_us(lap_sum("route_s")), "us"),
        "lb.route_calls_per_pkt": (_ratio(lap_sum("route_n"), lap_packets), "count"),
        "lb.unrouted_share": (
            _ratio(total("vif_lb_unrouted_packets_total"), ingested), "ratio"),
        "fleet.adjudicate_self_us_per_pkt": (
            per_pkt_us(own.get("backend.process_burst", 0.0)), "us"),
        "fleet.ecalls_per_burst": (_ratio(lap_sum("ecall_n"), len(lap)), "count"),
        "fleet.pkts_per_ecall": (
            _ratio(lap_sum("ecall_pkts"), lap_sum("ecall_n")), "count"),
        "enclave.ecall_us_per_pkt": (per_pkt_us(lap_sum("ecall_s")), "us"),
        "enclave.ecalls_total": (total("vif_tee_ecalls_total"), "count"),
        "enclave.epc_used_mb": (total("vif_tee_epc_used_bytes") / 2**20, "MB"),
        "enclave.epc_paging_events": (
            total("vif_tee_epc_paging_events_total"), "count"),
    }

    hits = total("vif_fastpath_decision_cache_hits_total")
    misses = total("vif_fastpath_decision_cache_misses_total")
    queries = total("vif_membership_queries_total")
    offered = total("vif_offload_ingress_total")
    updates = total("vif_sketch_updates_total")

    def offload_share(name: str) -> tuple:
        return (_ratio(total(f"vif_offload_{name}_total"), offered), "ratio")

    out.update({
        "filter.memo_hit_ratio": (_ratio(hits, hits + misses), "ratio"),
        "filter.coalesce_factor": (
            _ratio(
                total("vif_fastpath_burst_packets_total"),
                total("vif_fastpath_burst_unique_flows_total"),
            ),
            "ratio",
        ),
        "filter.ipaddress_parses_per_pkt": (
            _ratio(total("vif_fastpath_ipaddress_parses_total"), ingested), "count"),
        "sketch.digests_per_pkt": (
            _ratio(total("vif_fastpath_sha256_digests_total"), ingested), "count"),
        "sketch.updates_per_pkt": (_ratio(updates, ingested), "count"),
        "membership.queries_per_pkt": (_ratio(queries, ingested), "count"),
        "membership.bloom_negative_ratio": (
            _ratio(total("vif_membership_bloom_negatives_total"), queries), "ratio"),
        "membership.resizes": (total("vif_membership_resizes_total"), "count"),
        "offload.drop_share": offload_share("drops"),
        "offload.sampled_share": offload_share("sampled"),
        "offload.passed_share": offload_share("passed"),
        "offload.disagreements": (total("vif_offload_disagreements_total"), "count"),
        "offload.audit_rounds": (total("vif_offload_audit_rounds_total"), "count"),
    })

    backend = run.service.backend
    # ShardBackend.finish() ran inside drain(); asking again hands back the
    # same merged ShardRunResult.
    shard = backend.finish() if hasattr(backend, "plane") else None
    out.update(_SHARD_ZEROS)
    if shard is not None:
        busy = shard.worker_busy_seconds

        def us(seconds: float) -> tuple:
            return (_ratio(seconds, shard.packets) * 1e6, "us")

        out.update({
            "shard.coordinator_cpu_us_per_pkt": us(shard.coordinator_busy_seconds),
            "shard.worker_cpu_us_per_pkt_max": us(max(busy)),
            "shard.worker_cpu_us_per_pkt_sum": us(sum(busy)),
            "shard.worker_skew": (
                _ratio(max(shard.worker_packets), statistics.mean(shard.worker_packets)),
                "ratio",
            ),
            "shard.wait_share": (
                1.0 - _ratio(shard.coordinator_busy_seconds, shard.wall_seconds),
                "ratio",
            ),
            "shard.bottleneck_pps": (shard.bottleneck_pps, "pkt/s"),
        })
    flows_per_pkt = _ratio(lap_sum("wire_flows"), lap_packets)
    out.update({
        "shard.batches_per_burst": (_ratio(lap_sum("batches"), len(lap)), "count"),
        "shard.wire_bytes_per_pkt": (
            _ratio(lap_sum("sized_bytes"), lap_sum("sized_flows")) * flows_per_pkt, "B"),
        "shard.finish_s": (rec.finish_s, "s"),
    })
    out.update({name: (value, "us") for name, value in unit.items()})

    # Attribution over the traced segment: the main-process spans that burn
    # CPU (pull, process_burst by process_time, audit) plus the workers'
    # inner work priced as count x unit cost, against the CPU really used.
    marks = raw["marks"]
    segment_packets = (paced_from - traced_from) * run.wl.burst
    measured_us = (marks["paced"][1] - marks["traced"][1]) / segment_packets * 1e6
    attributed_us = per_pkt_us(
        own.get("ingest.pull", 0.0) + lap_sum("cpu_s") + own.get("service.audit", 0.0)
    )
    if shard is not None:
        attributed_us += (
            flows_per_pkt
            * (unit["probe.pickle_loads_us_per_flow"] + unit["probe.fivetuple_build_us"])
            + _ratio(offered, ingested) * unit["probe.offload_classify_us"]
            + _ratio(hits, ingested) * unit["probe.decide_flow_hit_us"]
            + _ratio(misses, ingested) * unit["probe.decide_flow_miss_us"]
            + _ratio(updates, ingested) * unit["probe.sketch_update_us_per_key"]
        )
    reference_from = raw["segments"]["reference"][0]
    reference_pps = (traced_from - reference_from) * run.wl.burst / (
        marks["traced"][0] - marks["reference"][0]
    )
    traced_pps = segment_packets / (marks["paced"][0] - marks["traced"][0])
    out.update({
        "attrib.covered_share": (_ratio(attributed_us, measured_us), "ratio"),
        "attrib.unattributed_us_per_pkt": (measured_us - attributed_us, "us"),
        "trace.overhead_share": (1.0 - _ratio(traced_pps, reference_pps), "ratio"),
    })
    return out
