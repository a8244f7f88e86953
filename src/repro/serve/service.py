"""The always-on serve runtime (asyncio).

Turns the batch-oriented fleet/pipeline/shard stack into an operable
long-running process with four cooperating stage tasks over **bounded**
hops:

.. code-block:: text

    ingest ──rx_q──> filter ──audit_q──> audit
       ▲                │
       │            control_q  (rule deltas, applied between bursts)
    watchdog  (heartbeats, restarts, fail-closed)

Design rules the tests enforce:

* **Ring hand-offs.**  Each hop is a :class:`_Hop`: a deque of at most
  ``queue_depth`` bursts between one producer and one consumer, the
  asyncio analogue of a DPDK ring.  A hand-off that need not wait is a
  deque operation; only a stage that must wait parks (on a bare future,
  never a Task).  Stages run until they would block, except that the
  filter stage hands the loop over every :data:`HANDOFF_PACKETS`
  adjudicated packets, or at once when a rule delta is queued, and
  ingest hands it over when its put woke an idle filter stage.
* **Backpressure, never buffering.**  Every inter-stage hop is bounded.
  When the filter stage falls behind, ``rx_q.put`` blocks and ingest
  simply stops pulling bursts; if a burst cannot be enqueued within
  ``shed_timeout_s`` it is **shed** — counted, never silently dropped —
  and the conservation invariant still balances.
* **Hot rule updates.**  ``install_rule``/``remove_rule`` enqueue deltas
  on the control queue; a dedicated task applies them through the backend
  (re-solve + diff-install + re-attest for fleets, acked broadcast for
  shards, memo invalidation everywhere) strictly *between* bursts —
  asyncio's cooperative scheduling guarantees a synchronous
  ``process_burst`` is never interleaved with a delta.
* **Supervision.**  Every stage beats a heartbeat each loop iteration;
  the watchdog cancels and restarts a stage whose heartbeat goes stale
  (capped exponential backoff) and fails closed once a stage exhausts its
  restart budget.  A restarted filter stage resumes its in-flight burst:
  the burst rides in ``self._filter_pending`` from dequeue to hand-off,
  so a restart re-processes instead of losing it.
* **Graceful drain.**  ``drain()`` stops ingest, flushes both hops
  through filter and audit, emits the final journal/metrics snapshot,
  and returns a report with **zero** unaccounted packets:
  ``ingested == allowed + dropped + unrouted + shed`` exactly.

The conservation predicate is registered as a metrics-registry invariant
(``serve_conservation/<label>``), so ``repro metrics`` audits every live
service the same way it audits pipelines and fleets.
"""

from __future__ import annotations

import asyncio
import enum
import time
from collections import deque
from dataclasses import dataclass
from typing import Awaitable, Callable, Deque, Dict, Optional, Sequence, Tuple

from repro import obs
from repro.core.rules import FilterRule
from repro.dataplane.pipeline import UNROUTED
from repro.errors import ConfigurationError
from repro.obs.slo import (
    SLO_CONSERVATION,
    SLO_OFFLOAD_AUDIT,
    SLO_SHED_RATIO,
    SLO_STAGE_LATENCY,
    SLOEngine,
)
from repro.obs.telemetry import StageLatencyTracker, TelemetryServer
from repro.serve.backends import RuleDelta

STAGES = ("ingest", "filter", "audit")

#: The filter stage yields the event loop once this many packets were
#: adjudicated since its last yield: the paper's calibrated DPDK burst
#: (``CostModel.calibrated_batch_size``).  A 256-packet burst is handed to
#: audit before the next is adjudicated; 8-packet bursts share a loop turn
#: four at a time.
HANDOFF_PACKETS = 32
#: A consumer stage parked this long on an empty hop returns idle, so its
#: heartbeat stays fresh while no traffic flows.
_IDLE_GET_S = 0.05
#: Ingest's pause while it has nothing to pull (source exhausted, or not
#: serving).
_INGEST_IDLE_S = 0.005

#: Chaos hook signature: ``await hook(stage_name, burst_index)``; hooks are
#: await points, so a hanging hook is cancellable by the watchdog.
ChaosHook = Callable[[str, int], Awaitable[None]]


class ServeState(enum.Enum):
    STARTING = "starting"
    SERVING = "serving"
    DRAINING = "draining"
    DRAINED = "drained"
    FAILED = "failed"


_STATE_CODES = {state: i for i, state in enumerate(ServeState)}


def _wake(waiter: Optional[asyncio.Future]) -> None:
    if waiter is not None and not waiter.done():
        waiter.set_result(None)


async def _park(waiter: asyncio.Future, timeout: Optional[float]) -> None:
    """Await ``waiter`` until it is woken or ``timeout`` seconds pass."""
    if timeout is None:
        await waiter
        return
    timer = asyncio.get_running_loop().call_later(timeout, _wake, waiter)
    try:
        await waiter
    finally:
        timer.cancel()


class _Hop:
    """A bounded hand-off between two stages: a deque of at most
    ``maxsize`` items, one producer, one consumer.  An unbounded hop
    (``maxsize`` 0) never parks a producer, so it may have several.

    A put or get that need not wait is a plain deque operation.  One that
    must wait parks on a bare future with a loop timer for its timeout.
    No Task is created, and a cancel of the waiting stage always
    propagates — unlike ``asyncio.wait_for``, which returns normally when
    the cancel arrives just after the inner put completed.
    """

    def __init__(self, maxsize: int = 0) -> None:
        self._items: Deque = deque()
        self._maxsize = maxsize
        self._getter: Optional[asyncio.Future] = None
        self._putter: Optional[asyncio.Future] = None

    def empty(self) -> bool:
        return not self._items

    def full(self) -> bool:
        return 0 < self._maxsize <= len(self._items)

    def waiting_consumer(self) -> bool:
        """True while the consumer is parked on an empty hop."""
        return self._getter is not None

    def put_nowait(self, item) -> None:
        self._items.append(item)
        _wake(self._getter)

    def get_nowait(self):
        item = self._items.popleft()
        _wake(self._putter)
        return item

    async def put(self, item, timeout: Optional[float] = None) -> bool:
        """Append ``item``, waiting up to ``timeout`` seconds for room;
        False (nothing appended) if the hop stayed full."""
        if self.full():
            self._putter = asyncio.get_running_loop().create_future()
            try:
                await _park(self._putter, timeout)
            finally:
                self._putter = None
            if self.full():
                return False
        self.put_nowait(item)
        return True

    async def get(self, timeout: Optional[float] = None):
        """Pop the oldest item, waiting up to ``timeout`` seconds for one;
        None if the hop stayed empty."""
        if not self._items:
            self._getter = asyncio.get_running_loop().create_future()
            try:
                await _park(self._getter, timeout)
            finally:
                self._getter = None
            if not self._items:
                return None
        return self.get_nowait()


@dataclass
class ServeConfig:
    """Knobs for the serve runtime (see docs/OPERATIONS.md)."""

    #: Bursts each bounded inter-stage hop holds before backpressure.
    queue_depth: int = 8
    #: How long ingest waits on a full filter hop before shedding the
    #: burst.  Backpressure below this bound is free; beyond it, shedding
    #: keeps memory bounded and the books honest.
    shed_timeout_s: float = 0.25
    #: A stage whose heartbeat is older than this is presumed hung.
    heartbeat_deadline_s: float = 2.0
    #: Watchdog poll interval.
    watchdog_interval_s: float = 0.05
    #: Stage restarts before the watchdog fails closed.
    max_stage_restarts: int = 3
    #: Capped exponential backoff between restarts of the same stage.
    restart_backoff_base_s: float = 0.05
    restart_backoff_factor: float = 2.0
    restart_backoff_cap_s: float = 1.0
    #: Drain gives in-flight bursts this long to flush before giving up.
    drain_timeout_s: float = 30.0
    #: Pause between ingest bursts (0 = as fast as backpressure allows).
    ingest_interval_s: float = 0.0
    #: When the backend carries an offload tier, the audit stage closes one
    #: offload audit round (sampled re-verdicts scored against the enclave,
    #: ``offload_bypass`` alerting) every this many audited bursts.
    offload_audit_every_bursts: int = 8
    #: Track per-stage / end-to-end latency into streaming quantile
    #: sketches (published as ``vif_serve_stage_latency_seconds`` on
    #: scrape).  Off = the telemetry-off baseline the overhead benchmark
    #: compares against.
    track_latency: bool = True
    #: A stage iteration slower than this marks its burst bad for the
    #: ``stage-latency`` SLO.  Deliberately huge by default: only injected
    #: LATENCY_SPIKE chaos (or a true outage) crosses it, so same-seed
    #: journals stay byte-identical under real measured jitter.
    slo_latency_threshold_s: float = 30.0
    #: Bind the telemetry HTTP endpoint when set (0 = ephemeral port; read
    #: ``service.telemetry.port`` after start).
    telemetry_port: Optional[int] = None
    telemetry_host: str = "127.0.0.1"
    #: After any stage restart, ``/readyz`` reports not-ready for this
    #: long.  The heartbeat-staleness window alone closes within one
    #: watchdog tick of the restart, so without the hold a load balancer
    #: polling at human rates would never observe the degradation.
    readiness_hold_s: float = 1.0
    #: Metrics label; auto-assigned when empty.
    label: str = ""


@dataclass
class DrainReport:
    """What ``drain()`` returns — the lossless-shutdown receipt."""

    state: str = ServeState.DRAINED.value
    ingested: int = 0
    allowed: int = 0
    dropped: int = 0
    unrouted: int = 0
    shed: int = 0
    rule_updates: int = 0
    stage_restarts: int = 0
    unaccounted: int = 0
    drain_seconds: float = 0.0

    def as_dict(self) -> dict:
        return {
            "state": self.state,
            "ingested": self.ingested,
            "allowed": self.allowed,
            "dropped": self.dropped,
            "unrouted": self.unrouted,
            "shed": self.shed,
            "rule_updates": self.rule_updates,
            "stage_restarts": self.stage_restarts,
            "unaccounted": self.unaccounted,
            "drain_seconds": self.drain_seconds,
        }


class ServeService:
    """The supervisor object owning the stage tasks and the books.

    Usage (all inside one event loop)::

        service = ServeService(source, backend)
        await service.start()
        await service.install_rule(rule)      # hot, between bursts
        ...
        report = await service.drain()        # lossless shutdown
    """

    def __init__(
        self,
        source,
        backend,
        config: Optional[ServeConfig] = None,
        chaos: Optional[ChaosHook] = None,
        slo: Optional[SLOEngine] = None,
    ) -> None:
        self.source = source
        self.backend = backend
        self.config = config or ServeConfig()
        self.chaos = chaos
        self.slo = slo
        self.state = ServeState.STARTING
        cfg = self.config
        if cfg.queue_depth < 1:
            raise ConfigurationError("queue_depth must be positive")
        if cfg.max_stage_restarts < 0:
            raise ConfigurationError("max_stage_restarts must be >= 0")
        if cfg.heartbeat_deadline_s <= cfg.shed_timeout_s:
            # Ingest legitimately blocks up to shed_timeout_s per burst on
            # a full hop; a deadline inside that window turns ordinary
            # backpressure into false hang verdicts.
            raise ConfigurationError(
                "heartbeat_deadline_s must exceed shed_timeout_s "
                "(backpressure waits would read as hangs)"
            )
        self.label = cfg.label or obs.next_instance_label("serve")

        registry = obs.get_registry()
        self._counters: Dict[str, obs.Counter] = {
            name: registry.counter(
                f"vif_serve_{name}_total", help=help_, serve=self.label
            )
            for name, help_ in (
                ("ingested", "Packets pulled from the ingest source"),
                ("allowed", "Packets the filter approved"),
                ("dropped", "Packets the filter rejected"),
                ("unrouted", "Packets forwarded on the default path"),
                ("shed", "Packets shed under backpressure or fail-closed"),
                ("audited", "Packets the audit stage accounted"),
                ("rule_updates", "Hot rule deltas applied while serving"),
                ("bursts", "Ingest bursts pulled from the source"),
            )
        }
        self._restart_counters: Dict[str, obs.Counter] = {
            stage: registry.counter(
                "vif_serve_stage_restarts_total",
                help="Watchdog-initiated stage restarts",
                serve=self.label,
                stage=stage,
            )
            for stage in STAGES
        }
        self._state_gauge = registry.gauge(
            "vif_serve_state",
            help="Serve lifecycle state (0=starting..4=failed)",
            serve=self.label,
        )
        self._state_gauge.set(_STATE_CODES[self.state])
        registry.register_invariant(
            f"serve_conservation/{self.label}", self._conservation_violation
        )

        self._rx_q = _Hop(cfg.queue_depth)
        self._audit_q = _Hop(cfg.queue_depth)
        #: Unbounded: any number of callers may queue deltas, none waits.
        self._control_q = _Hop()
        self._tasks: Dict[str, asyncio.Task] = {}
        self._control_task: Optional[asyncio.Task] = None
        self._watchdog_task: Optional[asyncio.Task] = None
        self._heartbeats: Dict[str, float] = {}
        self._restarts: Dict[str, int] = {stage: 0 for stage in STAGES}
        #: Packets accepted onto rx_q but not yet booked by the filter
        #: stage (the conservation invariant's in-flight term).
        self._inflight = 0
        #: The ingest stage's resume cell: the pulled-but-unqueued burst.
        self._ingest_pending: Optional[list] = None
        #: The filter stage's resume cell: [burst_index, burst,
        #: verdicts-or-None].  Each hop item carries its burst's ingest
        #: index, so every stage's chaos hook names the burst it handles.
        self._filter_pending: Optional[list] = None
        #: The audit stage's resume cell: (burst_index, burst, verdicts).
        self._audit_pending: Optional[tuple] = None
        self._burst_index = 0
        #: Packets the filter stage adjudicated since it last yielded.
        self._unyielded = 0
        self._audited_bursts = 0
        self._offload_rounds = 0
        self._source_exhausted = False
        self._started_at = 0.0
        #: Per-stage / e2e streaming latency quantiles (published on scrape).
        self.latency = StageLatencyTracker()
        self._track_latency = cfg.track_latency
        #: FIFO of (burst_index, enqueue_perf_counter) for bursts accepted
        #: onto rx_q — popped when that burst finishes audit (e2e latency,
        #: SLO burst close).  Shed bursts never enter; fail-closed clears it.
        self._burst_marks: Deque[Tuple[int, float]] = deque()
        self.telemetry: Optional[TelemetryServer] = None
        self._watchdog_beat = 0.0
        #: ``/readyz`` reports not-ready until this loop-time (set by stage
        #: restarts; see ``ServeConfig.readiness_hold_s``).
        self._degraded_until = 0.0
        #: Last offload audit round's verdict (readyz + offload-audit SLO).
        self._offload_suspicious = False
        #: Set once fail-closed shedding finished; drain() awaits it so a
        #: report taken on the failure path never snapshots mid-shed books.
        self._fail_closed_complete: Optional[asyncio.Event] = None

    # -- accounting -------------------------------------------------------------

    def _conservation_violation(self) -> Optional[str]:
        c = self._counters
        accounted = (
            c["allowed"].value
            + c["dropped"].value
            + c["unrouted"].value
            + c["shed"].value
        )
        # A pulled burst is counted ``ingested`` immediately but only
        # joins ``_inflight`` once the hop put lands; the audit stage
        # (conservation SLO) can observe that await window, so the burst
        # riding in ``_ingest_pending`` must count toward the balance.
        pending = (
            len(self._ingest_pending) if self._ingest_pending is not None else 0
        )
        if c["ingested"].value == accounted + self._inflight + pending:
            return None
        return (
            f"serve lost packets untracked: ingested={c['ingested'].value}, "
            f"allowed={c['allowed'].value}, dropped={c['dropped'].value}, "
            f"unrouted={c['unrouted'].value}, shed={c['shed'].value}, "
            f"in_flight={self._inflight}, pending={pending}"
        )

    def check_conservation(self) -> None:
        violation = self._conservation_violation()
        if violation is not None:
            raise RuntimeError(violation)

    def counters(self) -> Dict[str, int]:
        return {name: c.value for name, c in self._counters.items()}

    # -- lifecycle --------------------------------------------------------------

    def _set_state(self, state: ServeState, **payload) -> None:
        previous, self.state = self.state, state
        self._state_gauge.set(_STATE_CODES[state])
        journal = obs.get_journal()
        if journal.enabled:
            journal.emit(
                "serve_state",
                serve=self.label,
                state=state.value,
                previous=previous.value,
                **payload,
            )

    async def start(self) -> "ServeService":
        if self._tasks:
            raise ConfigurationError("service already started")
        cfg = self.config
        self._source_iter = iter(self.source.bursts())
        self._started_at = time.perf_counter()
        if hasattr(self.backend, "start"):
            self.backend.start()
        loop = asyncio.get_running_loop()
        now = loop.time()
        for stage in STAGES:
            self._heartbeats[stage] = now
            self._tasks[stage] = asyncio.create_task(
                self._run_stage(stage), name=f"serve-{self.label}-{stage}"
            )
        self._control_task = asyncio.create_task(
            self._control_stage(), name=f"serve-{self.label}-control"
        )
        self._watchdog_task = asyncio.create_task(
            self._watchdog(), name=f"serve-{self.label}-watchdog"
        )
        self._watchdog_beat = now
        if cfg.telemetry_port is not None:
            self.telemetry = TelemetryServer(
                host=cfg.telemetry_host,
                port=cfg.telemetry_port,
                health=self._health_status,
                ready=self._ready_status,
                varz=self._varz_view,
                refresh=self._publish_latency,
            )
            await self.telemetry.start()
        self._set_state(ServeState.SERVING)
        return self

    def _beat(self, stage: str) -> None:
        self._heartbeats[stage] = asyncio.get_running_loop().time()

    def _credit_heartbeats(self, blocked_s: float) -> None:
        """Move every heartbeat forward by ``blocked_s`` (never past now):
        time the event loop was blocked does not count toward a deadline."""
        now = asyncio.get_running_loop().time()
        for stage, beat in self._heartbeats.items():
            self._heartbeats[stage] = min(now, beat + blocked_s)

    async def _maybe_chaos(self, stage: str, burst_index: int) -> None:
        if self.chaos is not None:
            await self.chaos(stage, burst_index)

    # -- stages -----------------------------------------------------------------

    def _stage_body(self, stage: str):
        return {
            "ingest": self._ingest_once,
            "filter": self._filter_once,
            "audit": self._audit_once,
        }[stage]

    async def _run_stage(self, stage: str) -> None:
        body = self._stage_body(stage)
        while True:
            self._beat(stage)
            if self._track_latency:
                t0 = time.perf_counter()
                idle = await body()
                if not idle:
                    elapsed = time.perf_counter() - t0
                    self.latency.observe(stage, elapsed)
                    if elapsed > self.config.slo_latency_threshold_s:
                        self._slo_observe(
                            SLO_STAGE_LATENCY,
                            self._burst_index,
                            bad=True,
                            worst=self.latency.sketch(stage).bucket_bound(elapsed),
                        )
            else:
                await body()

    async def _ingest_once(self) -> bool:
        """Pull one burst and enqueue it (or shed under backpressure).

        The pulled burst rides in ``self._ingest_pending`` until it is
        either queued (counted in-flight) or shed, so a cancellation at
        any await point — chaos hook, hop put — can never leak an
        ingested-but-unaccounted burst: a restarted stage resumes it, and
        drain/fail-closed sheds it explicitly.
        """
        if self.state is not ServeState.SERVING or self._source_exhausted:
            await asyncio.sleep(_INGEST_IDLE_S)
            return True
        if self._ingest_pending is None:
            try:
                burst = next(self._source_iter)
            except StopIteration:
                self._source_exhausted = True
                await asyncio.sleep(_INGEST_IDLE_S)
                return True
            self._ingest_pending = burst
            self._burst_index += 1
            self._counters["bursts"].inc()
            self._counters["ingested"].inc(len(burst))
        burst = self._ingest_pending
        await self._maybe_chaos("ingest", self._burst_index)
        wakes_filter = self._rx_q.waiting_consumer()
        if await self._rx_q.put(
            (self._burst_index, burst), self.config.shed_timeout_s
        ):
            self._inflight += len(burst)
            self._burst_marks.append((self._burst_index, time.perf_counter()))
        else:
            # The filter hop stayed full past the bound: shed the burst
            # (counted, conservation-visible) instead of buffering it.
            self._counters["shed"].inc(len(burst))
            # A shed burst never reaches audit, so its SLO window closes
            # here: one bad shed-ratio sample.
            self._slo_observe(SLO_SHED_RATIO, self._burst_index, bad=True)
            self._slo_close(self._burst_index)
        self._ingest_pending = None
        if wakes_filter:
            # The filter was idle: let it start on this burst now rather
            # than after ingest has filled the hop.
            await asyncio.sleep(0)
        if self.config.ingest_interval_s:
            await asyncio.sleep(self.config.ingest_interval_s)
        return False

    async def _filter_once(self) -> bool:
        """Adjudicate one burst; resumes the in-flight burst after restart."""
        if self._filter_pending is None:
            item = await self._rx_q.get(_IDLE_GET_S)
            if item is None:
                return True
            self._filter_pending = [*item, None]
        index, burst, verdicts = self._filter_pending
        await self._maybe_chaos("filter", index)
        if verdicts is None:
            # Synchronous adjudication: no await between the verdict and
            # the booking, so a cancellation can never half-book a burst.
            verdicts = self.backend.process_burst(burst)
            self._filter_pending[2] = verdicts
            allowed = dropped = unrouted = 0
            for verdict in verdicts:
                if verdict is UNROUTED:
                    unrouted += 1
                elif verdict:
                    allowed += 1
                else:
                    dropped += 1
            self._counters["allowed"].inc(allowed)
            self._counters["dropped"].inc(dropped)
            self._counters["unrouted"].inc(unrouted)
            self._inflight -= len(burst)
        await self._audit_q.put((index, burst, verdicts))
        self._filter_pending = None
        # Hand the loop to audit (and to a queued delta) every
        # HANDOFF_PACKETS: a burst waits for audit at most one calibrated
        # DPDK burst, and a delta at most one adjudicated burst.
        self._unyielded += len(burst)
        if self._unyielded >= HANDOFF_PACKETS or not self._control_q.empty():
            self._unyielded = 0
            await asyncio.sleep(0)
        return False

    async def _audit_once(self) -> bool:
        """Account one adjudicated burst (and feed the flight recorder)."""
        if self._audit_pending is None:
            self._audit_pending = await self._audit_q.get(_IDLE_GET_S)
            if self._audit_pending is None:
                return True
        index, burst, verdicts = self._audit_pending
        await self._maybe_chaos("audit", index)
        recorder = obs.get_flight_recorder()
        if recorder.enabled:
            recorder.record_batch(
                (
                    packet.five_tuple.key().decode(),
                    None,
                    UNROUTED
                    if verdict is UNROUTED
                    else ("allowed" if verdict else "dropped"),
                    None,
                )
                for packet, verdict in zip(burst, verdicts)
            )
        self._counters["audited"].inc(len(burst))
        self._audit_pending = None
        self._audited_bursts += 1
        if self._burst_marks:
            mark_index, mark_t = self._burst_marks.popleft()
        else:
            mark_index, mark_t = self._burst_index, 0.0
        if self._track_latency and mark_t:
            self.latency.observe("e2e", time.perf_counter() - mark_t)
        every = self.config.offload_audit_every_bursts
        if (
            every > 0
            and self._audited_bursts % every == 0
            and getattr(self.backend, "offload", None) is not None
        ):
            # Synchronous (no awaits): a watchdog cancellation can never
            # split a round between scoring and reset.
            self._offload_rounds += 1
            report = self.backend.offload_close_round(self._offload_rounds)
            self._offload_suspicious = bool(
                getattr(report, "suspicious", False)
            )
            self._slo_observe(
                SLO_OFFLOAD_AUDIT, mark_index, bad=self._offload_suspicious
            )
        self._slo_observe(
            SLO_CONSERVATION,
            mark_index,
            bad=self._conservation_violation() is not None,
        )
        self._slo_close(mark_index)
        return False

    async def _control_stage(self) -> None:
        """Apply queued rule deltas between bursts, journaling each one."""
        while True:
            delta, done = await self._control_q.get()
            apply_started = time.perf_counter() if self._track_latency else 0.0
            try:
                self.backend.apply_delta(delta)
            except Exception as exc:  # surface to the caller, keep serving
                if done is not None and not done.done():
                    done.set_exception(exc)
                continue
            if self._track_latency:
                self.latency.observe(
                    "control", time.perf_counter() - apply_started
                )
            self._counters["rule_updates"].inc()
            journal = obs.get_journal()
            if journal.enabled and not hasattr(self.backend, "fleet"):
                # FleetBackend journals rule_update itself (with slots);
                # journal here for the backends that don't.
                journal.emit(
                    "rule_update",
                    serve=self.label,
                    action=delta.action,
                    rule_id=delta.target_rule_id,
                    ruleset_version=getattr(
                        self.backend, "ruleset_version", None
                    ),
                )
            if done is not None and not done.done():
                done.set_result(None)

    # -- control-plane API -------------------------------------------------------

    async def apply_delta(self, delta: RuleDelta) -> None:
        """Queue one rule delta and wait until the backend applied it."""
        if self.state not in (ServeState.SERVING, ServeState.STARTING):
            raise ConfigurationError(
                f"cannot apply rule deltas while {self.state.value}"
            )
        done: asyncio.Future = asyncio.get_running_loop().create_future()
        self._control_q.put_nowait((delta, done))
        await done

    async def install_rule(self, rule: FilterRule) -> None:
        await self.apply_delta(RuleDelta(action="install", rule=rule))

    async def remove_rule(self, rule_id: int) -> None:
        await self.apply_delta(RuleDelta(action="remove", rule_id=rule_id))

    async def install_rules(self, rules) -> None:
        """Install a batch of rules as **one** delta (one acked shard
        broadcast) — the membership-tier churn path."""
        await self.apply_delta(RuleDelta(action="install", rules=tuple(rules)))

    async def remove_rules(self, rule_ids) -> None:
        """Remove a batch of rules as one delta."""
        await self.apply_delta(RuleDelta(action="remove", rule_ids=tuple(rule_ids)))

    # -- watchdog ----------------------------------------------------------------

    async def _watchdog(self) -> None:
        """Supervision loop; any unexpected error here fails closed —
        a silently dead watchdog would leave hangs unsupervised."""
        try:
            await self._watchdog_loop()
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            if self.state not in (ServeState.DRAINED, ServeState.FAILED):
                await self._fail_closed(f"watchdog crashed: {exc!r}")

    async def _watchdog_loop(self) -> None:
        cfg = self.config
        loop = asyncio.get_running_loop()
        last_poll = loop.time()
        while True:
            await asyncio.sleep(cfg.watchdog_interval_s)
            self._watchdog_beat = loop.time()
            if self.state in (ServeState.DRAINED, ServeState.FAILED):
                return
            now = loop.time()
            starved = now - last_poll > cfg.watchdog_interval_s * 4
            if starved:
                # The event loop itself was blocked (a synchronous burst —
                # e.g. sharded-plane recovery — ran long), so *every*
                # heartbeat looks stale.  That is busyness, not a hang:
                # credit every stage with the blocked time instead of
                # mass-restarting healthy stages.  Only the blocked time is
                # forgiven: a hung stage keeps the staleness it gathered
                # before and between blocking calls (a storm of fleet rule
                # deltas, say), so it trips the deadline once the loop is
                # free again.
                self._credit_heartbeats(
                    now - last_poll - cfg.watchdog_interval_s
                )
                last_poll = now
                continue
            last_poll = now
            # Backend self-heal (sharded planes restart dead workers here).
            if hasattr(self.backend, "heal"):
                try:
                    healed = self.backend.heal()
                except RuntimeError as exc:
                    await self._fail_closed(f"backend heal failed: {exc}")
                    return
                if healed:
                    self._journal_restart("worker", healed)
            now = loop.time()
            if now - last_poll > cfg.watchdog_interval_s * 4:
                # heal() itself ran long (worker respawn + re-dispatch);
                # same starvation story as above.
                self._credit_heartbeats(now - last_poll)
                last_poll = now
                continue
            last_poll = now
            for stage in STAGES:
                task = self._tasks.get(stage)
                if task is None:
                    continue
                stale = (
                    now - self._heartbeats[stage] > cfg.heartbeat_deadline_s
                )
                died = task.done()
                if not (stale or died):
                    continue
                if self._restarts[stage] >= cfg.max_stage_restarts:
                    await self._fail_closed(
                        f"stage {stage!r} exhausted its restart budget "
                        f"({cfg.max_stage_restarts})"
                    )
                    return
                await self._restart_stage(stage, hung=stale and not died)

    async def _restart_stage(self, stage: str, hung: bool) -> None:
        cfg = self.config
        self._degraded_until = max(
            self._degraded_until,
            asyncio.get_running_loop().time() + cfg.readiness_hold_s,
        )
        task = self._tasks[stage]
        if not task.done():
            task.cancel()
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        else:
            # Surface (and swallow) the stage's exception so it is not an
            # un-retrieved task error; the restart is the handling.
            exc = task.exception() if not task.cancelled() else None
            if exc is not None:
                self._journal_restart(stage, error=repr(exc))
        self._restarts[stage] += 1
        self._restart_counters[stage].inc()
        delay = min(
            cfg.restart_backoff_base_s
            * (cfg.restart_backoff_factor ** (self._restarts[stage] - 1)),
            cfg.restart_backoff_cap_s,
        )
        await asyncio.sleep(delay)
        self._beat(stage)
        self._tasks[stage] = asyncio.create_task(
            self._run_stage(stage), name=f"serve-{self.label}-{stage}"
        )
        self._journal_restart(
            stage, hung=hung, attempt=self._restarts[stage], backoff_s=delay
        )

    def _journal_restart(self, stage, healed_workers=None, **payload) -> None:
        journal = obs.get_journal()
        if journal.enabled:
            body = {"serve": self.label, "stage": str(stage)}
            if healed_workers is not None:
                body["workers"] = list(healed_workers)
            body.update(payload)
            journal.emit("stage_restart", **body)

    async def _fail_closed(self, reason: str) -> None:
        """Restart budget exhausted: stop serving, shed, blackhole."""
        if self._fail_closed_complete is None:
            self._fail_closed_complete = asyncio.Event()
        self._set_state(ServeState.FAILED, reason=reason)
        # Stop every stage; book everything still queued as shed so the
        # conservation invariant balances on the way down.
        await self._cancel_stages()
        shed = 0
        inflight_shed = 0
        if self._ingest_pending is not None:
            # Pulled but never queued: counted ingested, not yet in-flight.
            shed += len(self._ingest_pending)
            self._ingest_pending = None
        if self._filter_pending is not None and self._filter_pending[2] is None:
            shed += len(self._filter_pending[1])
            inflight_shed += len(self._filter_pending[1])
            self._filter_pending = None
        while not self._rx_q.empty():
            _, burst = self._rx_q.get_nowait()
            shed += len(burst)
            inflight_shed += len(burst)
        if shed:
            self._counters["shed"].inc(shed)
            self._inflight -= inflight_shed
        self._burst_marks.clear()
        if hasattr(self.backend, "fail_closed"):
            self.backend.fail_closed()
        self.check_conservation()
        self._fail_closed_complete.set()

    async def _cancel_stages(self, include_control: bool = True) -> None:
        tasks = [t for t in self._tasks.values() if not t.done()]
        if include_control and self._control_task is not None:
            if not self._control_task.done():
                tasks.append(self._control_task)
        for task in tasks:
            task.cancel()
        for task in tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        # Retrieve exceptions from already-done tasks too.
        for task in list(self._tasks.values()):
            if task.done() and not task.cancelled():
                task.exception()

    # -- drain -------------------------------------------------------------------

    async def drain(self) -> DrainReport:
        """Graceful shutdown: stop ingest, flush everything, settle books."""
        if self.state is ServeState.FAILED:
            if self._fail_closed_complete is not None:
                await self._fail_closed_complete.wait()
            return await self._finish_drain(time.perf_counter())
        started = time.perf_counter()
        self._set_state(ServeState.DRAINING)
        # 1. Stop ingest (state gate makes _ingest_once a no-op; cancel the
        #    task so a burst stuck in a shed-wait is shed deterministically —
        #    the hop's put parks on a bare future, so the cancel cannot be
        #    swallowed by a put that completed in the same loop turn).
        ingest = self._tasks.pop("ingest", None)
        if ingest is not None and not ingest.done():
            ingest.cancel()
            try:
                await ingest
            except (asyncio.CancelledError, Exception):
                pass
        if self._ingest_pending is not None:
            # A burst caught between pull and enqueue at shutdown is shed
            # (counted), never silently lost.
            self._counters["shed"].inc(len(self._ingest_pending))
            self._ingest_pending = None
        # 2. Flush: wait for both hops and both resume cells to empty.
        deadline = started + self.config.drain_timeout_s
        while (
            not self._rx_q.empty()
            or self._filter_pending is not None
            or not self._audit_q.empty()
            or self._audit_pending is not None
        ):
            if time.perf_counter() > deadline:
                await self._fail_closed("drain timed out with bursts in flight")
                return await self._finish_drain(started)
            if self.state is ServeState.FAILED:
                if self._fail_closed_complete is not None:
                    await self._fail_closed_complete.wait()
                return await self._finish_drain(started)
            await asyncio.sleep(0.01)
        # 3. Stop the remaining stages and the watchdog.
        if self._watchdog_task is not None and not self._watchdog_task.done():
            self._watchdog_task.cancel()
            try:
                await self._watchdog_task
            except (asyncio.CancelledError, Exception):
                pass
        await self._cancel_stages()
        if getattr(self.backend, "offload", None) is not None:
            # Score whatever the last partial round accumulated; a lying
            # tier must not escape by the run ending mid-round.
            self._offload_rounds += 1
            self.backend.offload_close_round(self._offload_rounds)
        self._set_state(ServeState.DRAINED)
        self.check_conservation()
        if hasattr(self.backend, "finish"):
            try:
                self.backend.finish()
            except Exception:
                pass
        self.backend.close()
        return await self._finish_drain(started)

    async def _finish_drain(self, drain_started: float) -> DrainReport:
        report = self._final_report(drain_started)
        if self.telemetry is not None:
            await self.telemetry.stop()
        return report

    def _final_report(self, drain_started: float) -> DrainReport:
        c = self.counters()
        report = DrainReport(
            state=self.state.value,
            ingested=c["ingested"],
            allowed=c["allowed"],
            dropped=c["dropped"],
            unrouted=c["unrouted"],
            shed=c["shed"],
            rule_updates=c["rule_updates"],
            stage_restarts=sum(self._restarts.values()),
            unaccounted=(
                c["ingested"]
                - c["allowed"]
                - c["dropped"]
                - c["unrouted"]
                - c["shed"]
            ),
            drain_seconds=time.perf_counter() - drain_started,
        )
        if self._track_latency:
            self.latency.observe("drain", report.drain_seconds)
            self._publish_latency()
        journal = obs.get_journal()
        if journal.enabled:
            # drain_seconds is wall-clock and would make otherwise
            # identical same-seed journals diverge byte-wise; the caller's
            # DrainReport still carries it, the journal omits it.
            journaled = report.as_dict()
            journaled.pop("drain_seconds", None)
            journal.emit(
                "serve_state",
                serve=self.label,
                state=self.state.value,
                previous=self.state.value,
                **{"report": journaled},
            )
        if journal.sink is not None:
            journal.sink.flush()
        return report

    @property
    def stage_restarts(self) -> Dict[str, int]:
        return dict(self._restarts)

    # -- telemetry & SLO ---------------------------------------------------------

    def _publish_latency(self) -> None:
        """Refresh latency-quantile gauges (runs before every scrape)."""
        if self._track_latency:
            self.latency.publish()

    def _slo_observe(
        self, name: str, burst: int, bad: bool, worst: float = 0.0
    ) -> None:
        if self.slo is not None and self.slo.has(name):
            self.slo.observe(name, burst, bad, worst)

    def _slo_close(self, burst: int) -> None:
        if self.slo is not None:
            self.slo.close_burst(burst)

    def inject_stage_latency(
        self, stage: str, seconds: float, burst: Optional[int] = None
    ) -> None:
        """Chaos entry point (LATENCY_SPIKE): record a synthetic latency.

        Feeds the quantile tracker and — when the spike crosses the SLO
        threshold — marks the burst bad with a *bucket-quantized* worst
        value, so the resulting ``slo_violation`` payload is deterministic.
        The violation fires when this burst closes in the audit stage,
        i.e. in the same round the spike was injected.
        """
        burst_index = self._burst_index if burst is None else burst
        self.latency.observe(stage, seconds)
        self._slo_observe(
            SLO_STAGE_LATENCY,
            burst_index,
            bad=seconds > self.config.slo_latency_threshold_s,
            worst=self.latency.sketch(stage).bucket_bound(seconds),
        )

    def _health_status(self) -> Tuple[bool, Dict[str, object]]:
        """Liveness: the event loop turns and the watchdog itself is fresh.

        Deliberately stays true through a STAGE_HANG — the watchdog is
        alive and will restart the stage; killing the process would lose
        the drain.
        """
        try:
            now = asyncio.get_running_loop().time()
        except RuntimeError:
            return False, {"state": self.state.value, "reason": "no event loop"}
        task = self._watchdog_task
        alive = task is not None and not task.done()
        # The watchdog beats every watchdog_interval_s; allow generous slack
        # for loop starvation before declaring the supervisor itself dead.
        deadline = max(self.config.watchdog_interval_s * 20, 2.0)
        age = now - self._watchdog_beat if self._watchdog_beat else 0.0
        ok = alive and age <= deadline
        return ok, {
            "state": self.state.value,
            "watchdog_alive": alive,
            "watchdog_beat_age_s": round(age, 3),
        }

    def _ready_status(self) -> Tuple[bool, Dict[str, object]]:
        """Readiness: serving, every stage running with a fresh heartbeat,
        no post-restart degraded hold, offload auditor within bounds."""
        try:
            now = asyncio.get_running_loop().time()
        except RuntimeError:
            return False, {"state": self.state.value, "reason": "no event loop"}
        stages: Dict[str, object] = {}
        stages_ok = True
        for stage in STAGES:
            task = self._tasks.get(stage)
            alive = task is not None and not task.done()
            age = now - self._heartbeats.get(stage, 0.0)
            fresh = age <= self.config.heartbeat_deadline_s
            stages[stage] = {
                "alive": alive,
                "beat_age_s": round(age, 3),
                "fresh": fresh,
            }
            stages_ok = stages_ok and alive and fresh
        backend_health = None
        if hasattr(self.backend, "health_summary"):
            try:
                backend_health = self.backend.health_summary()
            except Exception as exc:
                backend_health = {"error": repr(exc)}
        degraded = now < self._degraded_until
        ok = (
            self.state is ServeState.SERVING
            and stages_ok
            and not degraded
            and not self._offload_suspicious
        )
        detail: Dict[str, object] = {
            "state": self.state.value,
            "stages": stages,
            "degraded": degraded,
            "offload_suspicious": self._offload_suspicious,
        }
        if backend_health is not None:
            detail["backend"] = backend_health
        return ok, detail

    def _varz_view(self) -> Dict[str, object]:
        """The service-state block of ``/varz``."""
        view: Dict[str, object] = {
            "label": self.label,
            "state": self.state.value,
            "counters": self.counters(),
            "stage_restarts": dict(self._restarts),
            "bursts": self._burst_index,
            "stage_latency": self.latency.snapshot(),
        }
        if self.slo is not None:
            view["slo"] = self.slo.status()
        if hasattr(self.backend, "health_summary"):
            try:
                view["backend"] = self.backend.health_summary()
            except Exception as exc:
                view["backend"] = {"error": repr(exc)}
        return view


async def serve_bounded(
    source,
    backend,
    config: Optional[ServeConfig] = None,
    chaos: Optional[ChaosHook] = None,
    deltas: Optional[Sequence[RuleDelta]] = None,
    delta_every_bursts: int = 0,
    slo: Optional[SLOEngine] = None,
) -> DrainReport:
    """Run a finite source to exhaustion, then drain (smoke/bench helper).

    ``deltas`` are applied round-robin every ``delta_every_bursts`` ingest
    bursts — the simplest way to exercise rule churn under load.
    """
    service = ServeService(source, backend, config=config, chaos=chaos, slo=slo)
    await service.start()
    pending = list(deltas or [])
    applied_at = 0
    while not service._source_exhausted:
        if service.state is ServeState.FAILED:
            break
        if (
            pending
            and delta_every_bursts
            and service._burst_index >= applied_at + delta_every_bursts
        ):
            applied_at = service._burst_index
            await service.apply_delta(pending.pop(0))
        await asyncio.sleep(0.005)
    return await service.drain()
