"""Chaos acceptance for the serve runtime: seeded faults, lossless drains.

The PR's acceptance gate lives here: under a seeded
:class:`~repro.faults.schedule.FaultSchedule` mixing worker kills, stage
hangs, IAS flakes and rule-churn storms, the service must keep serving
(the watchdog restarts what died), and a graceful drain must account for
every packet — ``ingested == allowed + dropped + unrouted + shed`` with
zero unaccounted.
"""

from __future__ import annotations

import asyncio

import pytest

from repro import obs
from repro.core.controller import IXPController
from repro.core.fleet import FleetConfig, FleetManager
from repro.core.rules import Action, FilterRule, FlowPattern, RPKIRegistry, RuleSet
from repro.core.session import VIFSession
from repro.dataplane.shard import ShardedDataPlane
from repro.errors import ConfigurationError
from repro.faults import FaultEvent, FaultKind, FaultSchedule, FlakyIAS
from repro.faults.injector import FaultInjector
from repro.obs.events import EventJournal
from repro.obs.metrics import MetricsRegistry
from repro.serve import (
    FleetBackend,
    PktgenSource,
    RuleDelta,
    ServeChaosDriver,
    ServeConfig,
    ServeService,
    ServeState,
    ShardBackend,
)
from repro.util.units import GBPS

VICTIM = "victim.example"


@pytest.fixture(autouse=True)
def fresh_obs():
    registry = obs.set_registry(MetricsRegistry())
    journal = obs.set_journal(EventJournal(enabled=True))
    yield obs.get_journal()
    obs.set_registry(registry)
    obs.set_journal(journal)


def _rules(count: int = 6, rate_bps: float = 2.0 * GBPS) -> RuleSet:
    rules = RuleSet()
    for i in range(count):
        rules.add(
            FilterRule(
                rule_id=i + 1,
                pattern=FlowPattern(dst_prefix=f"203.0.{100 + i}.0/24"),
                action=Action.DROP if i % 2 else Action.ALLOW,
                requested_by=VICTIM,
                rate_bps=rate_bps,
            )
        )
    return rules


async def _run_to_exhaustion(service: ServeService, timeout: float = 60.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while not service._source_exhausted:
        if service.state is ServeState.FAILED:
            break
        assert asyncio.get_running_loop().time() < deadline, "service stalled"
        await asyncio.sleep(0.005)
    return await service.drain()


# -- the acceptance gate: sharded backend under the full chaos mix ------------


def test_shard_backend_survives_kill_hang_and_churn_storm(fresh_obs):
    """Worker kill + filter-stage hang + rule-churn storm, drained lossless.

    This is the scenario ISSUE.md gates the PR on: the watchdog (or the
    plane's own death-recovery) restarts the killed worker while the
    service keeps serving, the hung stage is cancelled and resumes its
    burst, churn rides the control plane between bursts, and the final
    drain accounts for every packet.
    """
    bursts = 25
    ruleset = _rules()
    schedule = FaultSchedule(
        rounds=bursts,
        events=(
            FaultEvent(round_index=4, kind=FaultKind.WORKER_KILL, target=0),
            FaultEvent(
                round_index=10, kind=FaultKind.STAGE_HANG, target=1, magnitude=1
            ),
            FaultEvent(round_index=16, kind=FaultKind.RULE_CHURN, magnitude=3),
        ),
        seed="serve-chaos-gate",
    )
    driver = ServeChaosDriver(schedule)
    source = PktgenSource(
        ruleset.rules(), packets_per_rule=3, background_packets=2,
        total_bursts=bursts,
    )
    plane = ShardedDataPlane(
        ruleset.rules(),
        num_workers=2,
        decision_secret="vif-serve-chaos",
        restart_dead_workers=True,
    )
    backend = ShardBackend(plane)

    async def scenario():
        service = ServeService(
            source,
            backend,
            # queue_depth >= bursts: ingest never blocks, so any packet
            # "loss" would have to show up as unaccounted, not shed.
            ServeConfig(
                queue_depth=bursts + 1,
                shed_timeout_s=0.1,
                heartbeat_deadline_s=0.75,
                watchdog_interval_s=0.02,
                restart_backoff_base_s=0.01,
            ),
            chaos=driver,
        )
        driver.bind(service)
        await service.start()
        report = await _run_to_exhaustion(service)
        return service, report

    service, report = asyncio.run(scenario())
    assert report.state == "drained"
    # Lossless: every ingested packet is accounted, nothing shed.
    assert report.ingested == bursts * (6 * 3 + 2)
    assert report.shed == 0
    assert report.unaccounted == 0
    assert report.allowed + report.dropped == report.ingested
    # The killed worker came back (plane restart budget consumed once)
    # and the service kept serving through it.
    assert sum(plane._worker_restarts) == 1
    # The hang was detected and the filter stage restarted, resuming its
    # in-flight burst instead of losing it.
    assert service.stage_restarts["filter"] == 1
    # The storm applied 3 installs + 3 removals through the control plane.
    assert report.rule_updates == 6
    assert len(driver.applied) == 3
    fired = [e.payload["kind"] for e in fresh_obs.of_type("fault_injected")]
    assert sorted(fired) == ["rule-churn", "stage-hang", "worker-kill"]
    assert obs.get_registry().check_invariants() == []


def test_shard_backend_generated_schedule_replays_deterministically():
    """The same seed drives the same chaos; the drain is lossless anyway."""
    bursts = 15
    schedule = FaultSchedule.generate_serve(
        seed="serve-replay",
        bursts=bursts,
        workers=2,
        worker_kill_prob=0.1,
        stage_hang_prob=0.0,  # hangs are slow; covered by the gate above
        rule_churn_prob=0.15,
        churn_size=2,
    )
    again = FaultSchedule.generate_serve(
        seed="serve-replay",
        bursts=bursts,
        workers=2,
        worker_kill_prob=0.1,
        stage_hang_prob=0.0,
        rule_churn_prob=0.15,
        churn_size=2,
    )
    assert schedule.events == again.events
    assert schedule.events, "seed must produce at least one event"

    ruleset = _rules(4)
    source = PktgenSource(
        ruleset.rules(), packets_per_rule=2, background_packets=2,
        total_bursts=bursts,
    )
    plane = ShardedDataPlane(
        ruleset.rules(), num_workers=2, restart_dead_workers=True
    )
    driver = ServeChaosDriver(schedule)

    async def scenario():
        service = ServeService(
            source,
            ShardBackend(plane),
            ServeConfig(
                queue_depth=bursts + 1,
                shed_timeout_s=0.1,
                heartbeat_deadline_s=0.75,
                watchdog_interval_s=0.02,
            ),
            chaos=driver,
        )
        driver.bind(service)
        await service.start()
        return await _run_to_exhaustion(service)

    report = asyncio.run(scenario())
    assert report.state == "drained"
    assert report.unaccounted == 0
    assert report.shed == 0
    kills = [e for e in schedule.events if e.kind is FaultKind.WORKER_KILL]
    assert sum(plane._worker_restarts) == len(kills)
    assert len(driver.applied) == len(schedule.events)
    assert obs.get_registry().check_invariants() == []


# -- fleet backend: churn storms re-attest through a flaky IAS ----------------


def test_fleet_backend_churn_reattests_through_ias_outage(fresh_obs):
    """An IAS flake armed right before a churn storm: the hot installs'
    re-attestation rides the fleet's bounded retry/backoff and succeeds."""
    bursts = 12
    ias = FlakyIAS()
    controller = IXPController(ias)
    fleet = FleetManager(controller, config=FleetConfig(seed="serve-fleet"))
    ruleset = _rules(6)
    fleet.deploy(ruleset, enclaves_override=3)
    rpki = RPKIRegistry()
    rpki.authorize(VICTIM, "203.0.0.0/16")
    session = VIFSession(VICTIM, rpki, ias, controller)
    session.attest_filters()
    fleet.session = session

    schedule = FaultSchedule(
        rounds=bursts,
        events=(
            FaultEvent(round_index=2, kind=FaultKind.IAS_OUTAGE, magnitude=2),
            FaultEvent(round_index=4, kind=FaultKind.RULE_CHURN, magnitude=2),
        ),
        seed="serve-fleet-chaos",
    )
    driver = ServeChaosDriver(schedule, ias=ias)
    source = PktgenSource(
        ruleset.rules(), packets_per_rule=2, background_packets=2,
        total_bursts=bursts,
    )

    async def scenario():
        service = ServeService(
            source,
            FleetBackend(fleet),
            ServeConfig(
                queue_depth=bursts + 1,
                shed_timeout_s=0.1,
                heartbeat_deadline_s=0.75,
                watchdog_interval_s=0.02,
            ),
            chaos=driver,
        )
        driver.bind(service)
        await service.start()
        return await _run_to_exhaustion(service)

    report = asyncio.run(scenario())
    assert report.state == "drained"
    assert report.unaccounted == 0
    assert report.rule_updates == 4  # 2 installs + 2 removals
    # Background packets matched no rule: forwarded on the default path.
    assert report.unrouted == bursts * 2
    # The armed outage forced the churn re-attestation onto the retry path.
    assert fleet.counters.attestation_retries > 0
    # FleetBackend journals its own rule_update events (with slot detail).
    updates = fresh_obs.of_type("rule_update")
    assert [e.payload["action"] for e in updates] == [
        "install", "install", "remove", "remove",
    ]
    assert obs.get_registry().check_invariants() == []


def test_fleet_backend_ruleset_version_is_monotonic():
    """It used to be ``len(active_rule_ids)``: an install followed by a
    remove reported the version it started from."""
    fleet = FleetManager(IXPController(FlakyIAS()))
    fleet.deploy(_rules(4), enclaves_override=2)
    backend = FleetBackend(fleet)
    start = backend.ruleset_version
    extra = FilterRule(
        rule_id=99,
        pattern=FlowPattern(dst_prefix="203.0.200.0/24"),
        action=Action.DROP,
        requested_by=VICTIM,
        rate_bps=0.1 * GBPS,
    )
    backend.apply_delta(RuleDelta("install", rule=extra))
    installed = backend.ruleset_version
    backend.apply_delta(RuleDelta("remove", rule_id=99))
    assert start < installed < backend.ruleset_version
    assert fleet.active_rule_ids == [1, 2, 3, 4]


# -- scoping: serve faults and round faults stay on their own replay paths ---


def test_fault_injector_rejects_serve_scoped_kinds():
    ias = FlakyIAS()
    controller = IXPController(ias)
    fleet = FleetManager(controller)
    fleet.deploy(_rules(4), enclaves_override=2)
    injector = FaultInjector(fleet, ias=ias)
    for kind in (FaultKind.WORKER_KILL, FaultKind.STAGE_HANG, FaultKind.RULE_CHURN):
        with pytest.raises(ConfigurationError, match="serve-scoped"):
            injector.apply(FaultEvent(round_index=0, kind=kind))


def test_chaos_driver_rejects_round_scoped_kinds_and_missing_bindings():
    schedule = FaultSchedule(
        rounds=2,
        events=(FaultEvent(round_index=0, kind=FaultKind.CRASH, target=0),),
    )
    driver = ServeChaosDriver(schedule)
    with pytest.raises(ConfigurationError, match="not bound"):
        asyncio.run(driver("ingest", 0))

    class _FakeService:
        backend = object()
        config = ServeConfig()

        async def install_rule(self, rule):  # pragma: no cover - not reached
            pass

    driver.bind(_FakeService())
    with pytest.raises(ConfigurationError, match="round-scoped"):
        asyncio.run(driver("ingest", 0))

    kill = ServeChaosDriver(
        FaultSchedule(
            rounds=1,
            events=(FaultEvent(round_index=0, kind=FaultKind.WORKER_KILL),),
        )
    ).bind(_FakeService())
    with pytest.raises(ConfigurationError, match="kill_worker"):
        asyncio.run(kill("ingest", 0))

    flake = ServeChaosDriver(
        FaultSchedule(
            rounds=1,
            events=(FaultEvent(round_index=0, kind=FaultKind.IAS_OUTAGE),),
        )
    ).bind(_FakeService())
    with pytest.raises(ConfigurationError, match="FlakyIAS"):
        asyncio.run(flake("ingest", 0))


def test_generate_serve_is_seeded_and_bounded():
    schedule = FaultSchedule.generate_serve(
        seed="gen", bursts=50, workers=4,
        worker_kill_prob=0.2, stage_hang_prob=0.2, rule_churn_prob=0.2,
        ias_outage_prob=0.2,
    )
    assert schedule.rounds == 50
    serve_kinds = {
        FaultKind.WORKER_KILL, FaultKind.STAGE_HANG,
        FaultKind.RULE_CHURN, FaultKind.IAS_OUTAGE,
    }
    assert schedule.events
    for event in schedule.events:
        assert 0 <= event.round_index < 50
        assert event.kind in serve_kinds
        if event.kind is FaultKind.WORKER_KILL:
            assert 0 <= event.target < 4
    other = FaultSchedule.generate_serve(
        seed="gen-2", bursts=50, workers=4,
        worker_kill_prob=0.2, stage_hang_prob=0.2, rule_churn_prob=0.2,
        ias_outage_prob=0.2,
    )
    assert other.events != schedule.events
    with pytest.raises(ConfigurationError, match="workers"):
        FaultSchedule.generate_serve(seed="gen", bursts=5, workers=0)
    quiet = FaultSchedule.generate_serve(
        seed="gen", bursts=10, workers=1,
        worker_kill_prob=0.0, stage_hang_prob=0.0, rule_churn_prob=0.0,
    )
    assert quiet.events == ()
