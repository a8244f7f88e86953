"""The always-on serve runtime: lifecycle, backpressure, hot rules, watchdog.

Everything here runs against :class:`LocalBackend` (one in-process
StatelessFilter) — the chaos suite in ``test_serve_chaos.py`` covers the
fleet and sharded backends.  All timings are generous multiples of the
watchdog knobs so the tests stay deterministic on loaded CI hosts.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro import obs
from repro.core.filter import StatelessFilter
from repro.core.rules import Action, FilterRule, FlowPattern
from repro.dataplane.packet import FiveTuple, Packet, Protocol
from repro.errors import ConfigurationError
from repro.obs.events import EventJournal
from repro.obs.metrics import MetricsRegistry
from repro.serve import (
    LocalBackend,
    PktgenSource,
    RuleDelta,
    ServeConfig,
    ServeService,
    ServeState,
    TraceReplaySource,
    serve_bounded,
)

SECRET = "vif-serve-test"


@pytest.fixture(autouse=True)
def fresh_obs():
    """Isolated metrics registry + enabled journal per test."""
    registry = obs.set_registry(MetricsRegistry())
    journal = obs.set_journal(EventJournal(enabled=True))
    yield obs.get_journal()
    obs.set_registry(registry)
    obs.set_journal(journal)


def _rule(rule_id: int, octet: int, action: Action = Action.DROP) -> FilterRule:
    return FilterRule(
        rule_id=rule_id,
        pattern=FlowPattern(dst_prefix=f"203.0.{octet}.0/24"),
        action=action,
        requested_by="victim.example",
    )


def _packet(dst_ip: str) -> Packet:
    return Packet(
        five_tuple=FiveTuple(
            src_ip="198.51.100.7",
            dst_ip=dst_ip,
            src_port=40000,
            dst_port=80,
            protocol=Protocol.TCP,
        )
    )


def _backend(rules=()):
    filter_ = StatelessFilter(secret=SECRET)
    backend = LocalBackend(filter_)
    backend.install_rules(list(rules))
    return backend


async def _run_to_exhaustion(service: ServeService, timeout: float = 30.0):
    """Let a finite-source service consume everything, then drain."""
    deadline = asyncio.get_running_loop().time() + timeout
    while not service._source_exhausted:
        if service.state is ServeState.FAILED:
            break
        assert asyncio.get_running_loop().time() < deadline, "service stalled"
        await asyncio.sleep(0.005)
    return await service.drain()


# -- lifecycle ----------------------------------------------------------------


def test_lifecycle_start_serve_drain_lossless():
    rules = [_rule(1, 100), _rule(2, 101)]
    source = PktgenSource(rules, packets_per_rule=3, background_packets=2,
                          total_bursts=12)

    async def scenario():
        service = ServeService(source, _backend(rules))
        assert service.state is ServeState.STARTING
        await service.start()
        assert service.state is ServeState.SERVING
        return service, await _run_to_exhaustion(service)

    service, report = asyncio.run(scenario())
    assert service.state is ServeState.DRAINED
    assert report.state == "drained"
    # 12 bursts × (2 rules × 3 + 2 background) packets, fully accounted.
    assert report.ingested == 12 * 8
    assert report.unaccounted == 0
    assert report.shed == 0
    assert report.dropped == 12 * 6      # both rules DROP
    assert report.allowed == 12 * 2      # background on the default path
    assert service.counters()["audited"] == report.ingested
    assert obs.get_registry().check_invariants() == []


def test_drain_emits_final_state_journal(fresh_obs):
    source = PktgenSource([_rule(1, 100)], total_bursts=3)

    async def scenario():
        service = ServeService(source, _backend([_rule(1, 100)]))
        await service.start()
        return await _run_to_exhaustion(service)

    report = asyncio.run(scenario())
    states = [e.payload["state"] for e in fresh_obs.of_type("serve_state")]
    assert states == ["serving", "draining", "drained", "drained"]
    final = fresh_obs.of_type("serve_state")[-1]
    # The journal omits wall-clock drain_seconds (it would break same-seed
    # byte-identity); everything else matches the returned report exactly.
    expected = report.as_dict()
    expected.pop("drain_seconds")
    assert final.payload["report"] == expected


def test_config_validation():
    source = PktgenSource([_rule(1, 100)], total_bursts=1)
    with pytest.raises(ConfigurationError, match="queue_depth"):
        ServeService(source, _backend(), ServeConfig(queue_depth=0))
    with pytest.raises(ConfigurationError, match="max_stage_restarts"):
        ServeService(source, _backend(), ServeConfig(max_stage_restarts=-1))
    with pytest.raises(ConfigurationError, match="heartbeat_deadline_s"):
        ServeService(
            source,
            _backend(),
            ServeConfig(heartbeat_deadline_s=0.2, shed_timeout_s=0.25),
        )


def test_double_start_rejected():
    source = PktgenSource([_rule(1, 100)], total_bursts=2)

    async def scenario():
        service = ServeService(source, _backend([_rule(1, 100)]))
        await service.start()
        with pytest.raises(ConfigurationError, match="already started"):
            await service.start()
        await _run_to_exhaustion(service)

    asyncio.run(scenario())


# -- backpressure -------------------------------------------------------------


def test_backpressure_sheds_instead_of_buffering():
    """A slow filter behind a depth-1 queue: overflow is shed and counted."""
    rules = [_rule(1, 100)]
    source = PktgenSource(rules, packets_per_rule=4, background_packets=0,
                          total_bursts=30)

    async def slow_filter(stage, burst_index):
        if stage == "filter":
            await asyncio.sleep(0.03)

    async def scenario():
        service = ServeService(
            source,
            _backend(rules),
            ServeConfig(
                queue_depth=1,
                shed_timeout_s=0.01,
                heartbeat_deadline_s=2.0,
            ),
            chaos=slow_filter,
        )
        await service.start()
        return await _run_to_exhaustion(service)

    report = asyncio.run(scenario())
    assert report.state == "drained"
    assert report.shed > 0
    assert report.ingested == 30 * 4
    # Shed is *counted*, so the books still balance exactly.
    assert report.unaccounted == 0
    assert report.dropped + report.allowed == report.ingested - report.shed
    assert obs.get_registry().check_invariants() == []


# -- hot rule updates ---------------------------------------------------------


def test_hot_install_and_remove_mid_stream(fresh_obs):
    """Deltas applied between bursts flip live verdicts both ways."""
    trace = [_packet(f"203.0.50.{i % 250 + 1}") for i in range(400)]
    source = TraceReplaySource(trace, burst_size=20)
    backend = _backend()
    drop_rule = _rule(7, 50)
    probe = _packet("203.0.50.9")
    state = {"installed": False, "removed": False, "service": None}

    async def hook(stage, burst_index):
        service = state["service"]
        if stage != "ingest" or service is None:
            return
        if burst_index == 8 and not state["installed"]:
            state["installed"] = True
            # Wait until at least one burst was adjudicated under the old
            # rules, so allowed>0 is guaranteed, then install hot.
            while service.counters()["audited"] == 0:
                await asyncio.sleep(0.005)
            await service.install_rule(drop_rule)
            assert backend.process_burst([probe]) == [False]
        elif burst_index == 16 and not state["removed"]:
            state["removed"] = True
            await service.remove_rule(drop_rule.rule_id)
            assert backend.process_burst([probe]) == [True]

    async def scenario():
        service = ServeService(
            source, backend, ServeConfig(ingest_interval_s=0.002), chaos=hook
        )
        state["service"] = service
        await service.start()
        return await _run_to_exhaustion(service)

    report = asyncio.run(scenario())
    assert state["installed"] and state["removed"]
    assert report.rule_updates == 2
    assert report.allowed > 0 and report.dropped > 0
    assert report.unaccounted == 0
    actions = [e.payload["action"] for e in fresh_obs.of_type("rule_update")]
    assert actions == ["install", "remove"]


def test_delta_error_surfaces_and_service_keeps_serving():
    source = PktgenSource([_rule(1, 100)], total_bursts=40,
                          packets_per_rule=1, background_packets=0)

    async def scenario():
        service = ServeService(
            source,
            _backend([_rule(1, 100)]),
            ServeConfig(ingest_interval_s=0.005),
        )
        await service.start()
        with pytest.raises(ConfigurationError, match="unknown rule"):
            await service.remove_rule(999)
        assert service.state is ServeState.SERVING
        # The control stage survived the bad delta: a good one still works.
        await service.install_rule(_rule(2, 101))
        report = await _run_to_exhaustion(service)
        return service, report

    service, report = asyncio.run(scenario())
    assert report.state == "drained"
    assert report.rule_updates == 1  # the failed delta is not counted
    assert report.unaccounted == 0


def test_deltas_rejected_after_drain():
    source = PktgenSource([_rule(1, 100)], total_bursts=2)

    async def scenario():
        service = ServeService(source, _backend([_rule(1, 100)]))
        await service.start()
        await _run_to_exhaustion(service)
        with pytest.raises(ConfigurationError, match="drained"):
            await service.install_rule(_rule(2, 101))

    asyncio.run(scenario())


def test_rule_delta_validation():
    with pytest.raises(ConfigurationError, match="needs a rule"):
        RuleDelta(action="install")
    with pytest.raises(ConfigurationError, match="needs a rule_id"):
        RuleDelta(action="remove")
    with pytest.raises(ConfigurationError, match="unknown delta action"):
        RuleDelta(action="upsert", rule=_rule(1, 100))
    assert RuleDelta(action="remove", rule=_rule(3, 100)).target_rule_id == 3


# -- watchdog -----------------------------------------------------------------


def test_watchdog_restarts_hung_filter_stage_losslessly(fresh_obs):
    """One transient filter hang: restarted, burst resumed, zero loss."""
    rules = [_rule(1, 100)]
    source = PktgenSource(rules, packets_per_rule=4, background_packets=2,
                          total_bursts=15)
    fired = {"hang": False}

    async def hang_once(stage, burst_index):
        if stage == "filter" and burst_index >= 5 and not fired["hang"]:
            fired["hang"] = True
            await asyncio.sleep(30.0)  # cancelled by the watchdog restart

    async def scenario():
        service = ServeService(
            source,
            _backend(rules),
            ServeConfig(
                shed_timeout_s=0.05,
                heartbeat_deadline_s=0.2,
                watchdog_interval_s=0.02,
                restart_backoff_base_s=0.01,
            ),
            chaos=hang_once,
        )
        await service.start()
        report = await _run_to_exhaustion(service)
        return service, report

    service, report = asyncio.run(scenario())
    assert fired["hang"]
    assert report.state == "drained"
    assert service.stage_restarts["filter"] == 1
    assert report.stage_restarts == 1
    # The hung burst was resumed, not lost: everything is accounted and
    # nothing needed shedding.
    assert report.unaccounted == 0
    assert report.ingested == 15 * 6
    assert report.allowed + report.dropped == report.ingested - report.shed
    restarts = fresh_obs.of_type("stage_restart")
    assert any(
        e.payload["stage"] == "filter" and e.payload.get("hung") is True
        for e in restarts
    )


def test_restart_budget_exhaustion_fails_closed():
    """A permanently hung filter: budget burns out, service fails closed."""
    rules = [_rule(1, 100)]
    source = PktgenSource(rules, packets_per_rule=2, background_packets=0,
                          total_bursts=None)  # always-on

    async def hang_always(stage, burst_index):
        if stage == "filter":
            await asyncio.sleep(30.0)

    async def scenario():
        service = ServeService(
            source,
            _backend(rules),
            ServeConfig(
                shed_timeout_s=0.02,
                heartbeat_deadline_s=0.1,
                watchdog_interval_s=0.02,
                max_stage_restarts=1,
                restart_backoff_base_s=0.01,
            ),
            chaos=hang_always,
        )
        await service.start()
        deadline = asyncio.get_running_loop().time() + 30.0
        while service.state is not ServeState.FAILED:
            assert asyncio.get_running_loop().time() < deadline
            await asyncio.sleep(0.01)
        report = await service.drain()
        return service, report

    service, report = asyncio.run(scenario())
    assert report.state == "failed"
    assert service.stage_restarts["filter"] == 1
    # Fail-closed shed everything still in flight: the books balance even
    # on the failure path.
    assert report.ingested > 0
    assert report.unaccounted == 0
    assert report.shed > 0
    assert obs.get_registry().check_invariants() == []

    async def late_delta():
        with pytest.raises(ConfigurationError, match="failed"):
            await service.install_rule(_rule(2, 101))

    asyncio.run(late_delta())


# -- serve_bounded helper -----------------------------------------------------


def test_serve_bounded_applies_deltas_and_drains():
    rules = [_rule(1, 100)]
    source = PktgenSource(rules, packets_per_rule=2, background_packets=2,
                          total_bursts=20)
    deltas = [
        RuleDelta(action="install", rule=_rule(5, 105)),
        RuleDelta(action="remove", rule_id=5),
    ]
    report = asyncio.run(
        serve_bounded(
            source,
            _backend(rules),
            config=ServeConfig(ingest_interval_s=0.005),
            deltas=deltas,
            delta_every_bursts=3,
        )
    )
    assert report.state == "drained"
    assert report.rule_updates == 2
    assert report.unaccounted == 0
    assert report.ingested == 20 * 4


# -- stage hand-offs ----------------------------------------------------------


class _NullBackend:
    """Allows everything, and logs each call for the ordering tests."""

    def __init__(self, log=None) -> None:
        self.log = [] if log is None else log

    def process_burst(self, burst):
        self.log.append(("process", len(burst)))
        return [True] * len(burst)

    def apply_delta(self, delta) -> None:
        self.log.append(("apply",))

    def close(self) -> None:
        pass


class _RepeatSource:
    """``count`` bursts of ``size`` identical packets."""

    def __init__(self, size: int, count: int) -> None:
        self.burst = [_packet("203.0.50.9")] * size
        self.count = count

    def bursts(self):
        for _ in range(self.count):
            yield self.burst


class _CloseLog:
    """A duck-typed ``slo=`` probe that only logs ``close_burst``."""

    def __init__(self, log) -> None:
        self.log = log

    def has(self, name: str) -> bool:
        return False

    def close_burst(self, index: int) -> None:
        self.log.append(("close", index))


def test_saturated_bursts_create_no_tasks():
    """Hops park on bare futures: after start() the service creates no
    Task at all (asyncio.wait_for made three per burst, one per hop)."""
    bursts = 500

    async def scenario():
        created = []

        def factory(loop, coro, **kwargs):
            created.append(coro)
            return asyncio.Task(coro, loop=loop, **kwargs)

        asyncio.get_running_loop().set_task_factory(factory)
        service = ServeService(_RepeatSource(8, bursts), _NullBackend())
        await service.start()
        at_start = len(created)
        report = await _run_to_exhaustion(service)
        return at_start, len(created) - at_start, report

    at_start, after_start, report = asyncio.run(scenario())
    assert report.ingested == bursts * 8
    assert report.shed == 0 and report.unaccounted == 0
    assert at_start == 5  # three stages, control, watchdog
    assert after_start == 0


def test_delta_behind_a_full_filter_hop_waits_at_most_one_burst():
    """The filter stage hands over at once when a delta is queued, not
    only every 32 packets: the delta waits for at most one burst."""
    log = []

    async def scenario():
        gate = asyncio.Event()

        async def hold_filter(stage, index):
            if stage == "filter":
                await gate.wait()

        service = ServeService(
            _RepeatSource(8, 400), _NullBackend(log), chaos=hold_filter
        )
        await service.start()
        while not service._rx_q.full():
            await asyncio.sleep(0)
        # The filter resumes before the control stage sees the delta.
        gate.set()
        log.append(("queued",))
        await service.install_rule(_rule(9, 109))
        return await _run_to_exhaustion(service)

    report = asyncio.run(scenario())
    assert report.rule_updates == 1 and report.unaccounted == 0
    queued, applied = log.index(("queued",)), log.index(("apply",))
    between = [entry for entry in log[queued:applied] if entry[0] == "process"]
    assert len(between) <= 1


@pytest.mark.parametrize("size,most_open", [(32, 1), (256, 1), (8, 4)])
def test_audit_closes_bursts_every_handoff(size, most_open):
    """A burst of >= 32 packets is closed by audit before the next one is
    adjudicated; 8-packet bursts share a hand-off at most four at a time."""
    log = []

    async def scenario():
        service = ServeService(
            _RepeatSource(size, 60), _NullBackend(log), slo=_CloseLog(log)
        )
        await service.start()
        return await _run_to_exhaustion(service)

    report = asyncio.run(scenario())
    assert report.shed == 0 and report.unaccounted == 0
    processed = closed = widest = 0
    for entry in log:
        if entry[0] == "process":
            processed += 1
            widest = max(widest, processed - closed)
        elif entry[0] == "close":
            closed += 1
            assert entry[1] == closed  # closes arrive in burst order
    assert processed == closed == 60
    assert widest <= most_open


def test_chaos_hooks_name_the_burst_each_stage_handles():
    """Ingest runs up to ``queue_depth`` bursts ahead of the filter, so the
    filter and audit hooks get the index carried with the burst, not
    ingest's counter: an event aimed at burst k fires on burst k."""
    bursts = 20
    seen = {stage: [] for stage in ("ingest", "filter", "audit")}
    processed = []

    class _Sized:
        def bursts(self):
            for k in range(1, bursts + 1):
                yield [_packet("203.0.50.9")] * k

    class _Backend(_NullBackend):
        def process_burst(self, burst):
            processed.append(len(burst))
            return super().process_burst(burst)

    async def record(stage, index):
        seen[stage].append(index)

    async def scenario():
        service = ServeService(_Sized(), _Backend(), chaos=record)
        await service.start()
        return await _run_to_exhaustion(service)

    report = asyncio.run(scenario())
    assert report.unaccounted == 0 and report.shed == 0
    in_order = list(range(1, bursts + 1))
    assert processed == in_order  # burst k holds k packets
    assert seen == {stage: in_order for stage in seen}


def test_put_that_wakes_an_idle_filter_hands_it_the_burst_at_once():
    """An idle filter starts on the burst that woke it; it does not wait
    for ingest to pull the next ones and fill the hop first."""
    log = []

    async def scenario():
        async def pull(stage, index):
            if stage == "ingest":
                if index == 1:
                    await asyncio.sleep(0.01)  # the filter parks meanwhile
                log.append(("pull", index))

        service = ServeService(
            _RepeatSource(4, 3), _NullBackend(log), chaos=pull
        )
        await service.start()
        return await _run_to_exhaustion(service)

    report = asyncio.run(scenario())
    assert report.unaccounted == 0
    assert log[:3] == [("pull", 1), ("process", 4), ("pull", 2)]


def test_hang_outlasting_a_storm_of_blocking_deltas_is_restarted():
    """A starved watchdog poll forgives only the time the loop was blocked.
    A filter hang that began before a storm of loop-blocking rule deltas
    and outlasts it by less than the deadline is still restarted; when
    every starved poll re-beat all stages, the storm hid the hang."""

    class _BlockingDeltas(_NullBackend):
        def apply_delta(self, delta) -> None:
            time.sleep(0.1)  # e.g. a synchronous re-attestation

    async def scenario():
        loop = asyncio.get_running_loop()
        hung_at = loop.create_future()

        async def hang_filter(stage, index):
            if stage == "filter" and index == 1:
                hung_at.set_result(loop.time())
                await asyncio.sleep(3.8)

        service = ServeService(
            _RepeatSource(4, 10_000),
            _BlockingDeltas(),
            ServeConfig(heartbeat_deadline_s=1.0, shed_timeout_s=0.1,
                        watchdog_interval_s=0.02),
            chaos=hang_filter,
        )
        await service.start()
        start = await hung_at
        await asyncio.sleep(0.8)
        rule_id = 100
        while loop.time() < start + 3.3:
            await service.install_rule(_rule(rule_id, 10))
            rule_id += 1
        while loop.time() < start + 3.8 and not service._restarts["filter"]:
            await asyncio.sleep(0.01)
        restarts = service._restarts["filter"]
        return restarts, await service.drain()

    restarts, report = asyncio.run(scenario())
    assert restarts == 1
    assert report.unaccounted == 0


def test_idle_consumer_reparks_without_sleeping():
    """A consumer whose 50 ms get timed out re-parks in the same step, so a
    burst put during its idle return is picked up at once (it used to
    sleep another 5 ms before looking again)."""
    log = []

    async def scenario():
        idled = asyncio.get_running_loop().create_future()

        async def hold_second_burst(stage, index):
            if stage == "ingest" and index == 2:
                await idled
                log.append(("put",))

        service = ServeService(
            _RepeatSource(4, 2), _NullBackend(log), chaos=hold_second_burst
        )
        inner_get = service._rx_q.get

        async def get(timeout=None):
            log.append(("get",))
            item = await inner_get(timeout)
            if item is None:
                log.append(("idle",))
                if not idled.done():
                    idled.set_result(None)
            return item

        service._rx_q.get = get
        await service.start()
        return await _run_to_exhaustion(service)

    report = asyncio.run(scenario())
    assert report.ingested == 8 and report.unaccounted == 0
    idle = log.index(("idle",))
    assert log[idle + 1 : idle + 4] == [("get",), ("put",), ("process", 4)]


def test_drain_returns_when_a_parked_put_was_freed_in_the_same_turn():
    """Regression: ingest parked on a full hop, the filter frees a slot,
    and drain() cancels ingest before ingest ran again.  asyncio.wait_for
    swallowed that cancel once its inner put had completed, so the ingest
    task never ended and drain() awaited it forever."""

    async def scenario():
        loop = asyncio.get_running_loop()
        gate = asyncio.Event()

        async def hold_filter(stage, index):
            if stage == "filter":
                await gate.wait()

        service = ServeService(
            _RepeatSource(4, 50),
            _NullBackend(),
            ServeConfig(queue_depth=1, shed_timeout_s=5.0,
                        heartbeat_deadline_s=10.0),
            chaos=hold_filter,
        )
        await service.start()
        # The filter holds burst 1, the hop holds burst 2, and ingest is
        # parked on the full hop with burst 3.
        while not (service._rx_q.full() and service._ingest_pending):
            await asyncio.sleep(0)
        gate.set()
        # The filter runs first: it adjudicates burst 1 and takes burst 2,
        # which frees the slot ingest is parked on.
        while service._rx_q.full():
            await asyncio.sleep(0)
        assert service._ingest_pending  # ingest has not run since
        hung = []
        task = asyncio.current_task()
        timer = loop.call_later(1.0, lambda: (hung.append(True), task.cancel()))
        report = await service.drain()
        timer.cancel()
        return hung, report

    hung, report = asyncio.run(scenario())
    assert not hung, "drain() did not return within 1 s"
    assert report.state == "drained"
    assert report.unaccounted == 0
    assert report.shed == 4  # burst 3, pulled but never queued
    assert report.ingested == 3 * 4
