"""FleetManager: health probes, failover, re-distribution, degradation."""

from __future__ import annotations

import random

import pytest

from repro import obs
from repro.core.controller import IXPController
from repro.core.fleet import (
    EnclaveHealth,
    FleetBurstFilter,
    FleetConfig,
    FleetManager,
)
from repro.core.rules import Action, FilterRule, FlowPattern, RPKIRegistry, RuleSet
from repro.core.session import VIFSession
from repro.errors import (
    ConfigurationError,
    EnclaveSealedError,
    FleetError,
    RecoveryFailed,
)
from repro.dataplane.pipeline import UNROUTED
from repro.faults import FlakyIAS
from repro.obs.flight import FlightRecorder
from repro.optim import validate_allocation
from repro.tee.attestation import IASService
from repro.util.units import GBPS
from tests.conftest import VICTIM, linear_match, make_packet


def build_rules(count: int = 8, rate_bps: float = 2.0 * GBPS) -> RuleSet:
    """One /24 per rule under 203.0.x.0; alternating DROP/ALLOW."""
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


def rule_packet(i: int, src_ip: str = "10.9.8.7"):
    return make_packet(src_ip=src_ip, dst_ip=f"203.0.{100 + i}.5")


def build_fleet(
    rules: RuleSet,
    enclaves: int = 4,
    config: FleetConfig = None,
    ias: IASService = None,
    **deploy_params,
):
    controller = IXPController(ias or IASService())
    fleet = FleetManager(controller, config=config)
    fleet.deploy(rules, enclaves_override=enclaves, **deploy_params)
    return fleet


class TestDeployAndHealth:
    def test_deploy_launches_fleet_and_serves(self):
        rules = build_rules()
        fleet = build_fleet(rules, enclaves=4)
        assert len(fleet.controller.enclaves) == 4
        assert validate_allocation(fleet.allocation) == []
        result = fleet.carry([rule_packet(i) for i in range(8)])
        assert result.allowed == 4 and result.dropped_filtered == 4
        assert result.dropped_failclosed == 0
        assert fleet.counters.unfiltered_packets == 0

    def test_deploy_rejects_empty_and_mismatched_input(self):
        controller = IXPController(IASService())
        fleet = FleetManager(controller)
        with pytest.raises(ConfigurationError, match="at least one rule"):
            fleet.deploy(RuleSet())
        with pytest.raises(ConfigurationError, match="do not match"):
            fleet.deploy(build_rules(4), bandwidths=[1.0])

    def test_ping_heartbeat_is_a_cheap_counter_ecall(self):
        fleet = build_fleet(build_rules(), enclaves=2)
        enclave = fleet.controller.enclaves[0]
        assert enclave.ecall("ping") == 1
        assert enclave.ecall("ping") == 2

    def test_probe_all_healthy(self):
        fleet = build_fleet(build_rules(), enclaves=3)
        assert fleet.probe() == [EnclaveHealth.HEALTHY] * 3
        assert fleet.counters.probes == 3
        assert fleet.counters.probe_misses == 0

    def test_probe_suspect_then_dead_at_miss_threshold(self):
        fleet = build_fleet(
            build_rules(), enclaves=3, config=FleetConfig(miss_threshold=2)
        )
        fleet.controller.enclaves[1].destroy()
        assert fleet.probe()[1] is EnclaveHealth.SUSPECT
        assert fleet.probe()[1] is EnclaveHealth.DEAD
        # dead slots are no longer probed
        probes_before = fleet.counters.probes
        fleet.probe()
        assert fleet.counters.probes == probes_before + 2

    def test_transient_probe_miss_recovers_to_healthy(self, monkeypatch):
        fleet = build_fleet(
            build_rules(), enclaves=2, config=FleetConfig(miss_threshold=2)
        )
        enclave = fleet.controller.enclaves[0]
        original = enclave.ecall
        state = {"failed": False}

        def flaky(name, *args):
            if name == "ping" and not state["failed"]:
                state["failed"] = True
                raise EnclaveSealedError("transient probe loss")
            return original(name, *args)

        monkeypatch.setattr(enclave, "ecall", flaky)
        assert fleet.probe()[0] is EnclaveHealth.SUSPECT
        assert fleet.probe()[0] is EnclaveHealth.HEALTHY
        # a SUSPECT slot that recovers is never put through failover
        assert fleet.recover().acted is False


class TestFailover:
    def test_crash_recovery_relaunches_and_reinstalls(self):
        rules = build_rules()
        fleet = build_fleet(rules, enclaves=4)
        victim_slot = 1
        installed_before = {
            r.rule_id
            for r in fleet.controller.enclaves[victim_slot].ecall("installed_rules")
        }
        fleet.inject_crash(victim_slot)
        fleet.probe(), fleet.probe()
        report = fleet.recover()
        assert report.relaunched_slots == [victim_slot]
        assert not report.orphaned_slots
        replacement = fleet.controller.enclaves[victim_slot]
        assert not replacement.destroyed
        installed_after = {
            r.rule_id for r in replacement.ecall("installed_rules")
        }
        assert installed_after == installed_before
        assert fleet.counters.relaunches == 1
        assert fleet.counters.failovers == 1
        assert validate_allocation(fleet.allocation) == []
        result = fleet.carry([rule_packet(i) for i in range(8)])
        assert result.dropped_failclosed == 0
        assert fleet.counters.unfiltered_packets == 0

    def test_data_path_discovers_death_and_fails_closed(self):
        rules = build_rules()
        fleet = build_fleet(rules, enclaves=4)
        fleet.inject_crash(0)  # no probe round: data path finds out first
        packets = [rule_packet(i) for i in range(8)]
        result = fleet.carry(packets)
        assert result.dropped_failclosed > 0
        assert len(result.delivered) + result.dropped_filtered \
            + result.dropped_failclosed == len(packets)
        assert fleet.counters.unfiltered_packets == 0
        # the death was flagged for recovery without any probe
        report = fleet.recover()
        assert report.relaunched_slots
        assert fleet.carry(packets).dropped_failclosed == 0

    def test_platform_loss_recovers_onto_spare(self):
        fleet = build_fleet(
            build_rules(), enclaves=3, config=FleetConfig(spare_platforms=1)
        )
        old_platform = fleet.controller.enclaves[2].platform.platform_id
        fleet.inject_crash(2, platform_lost=True)
        report = fleet.recover()
        assert report.relaunched_slots == [2]
        new_platform = fleet.controller.enclaves[2].platform.platform_id
        assert new_platform != old_platform
        assert new_platform.startswith("ixp-spare-")

    def test_platform_loss_without_spares_repairs_allocation(self):
        rules = build_rules()
        fleet = build_fleet(
            rules, enclaves=4, config=FleetConfig(spare_platforms=0)
        )
        fleet.inject_crash(3, platform_lost=True)
        report = fleet.recover()
        assert report.orphaned_slots == [3]
        assert report.repaired
        assert report.rules_rehomed > 0
        assert fleet.counters.repairs == 1
        assert fleet.counters.relaunches == 0
        assert validate_allocation(fleet.allocation) == []
        # orphaned slot holds nothing; survivors serve everything
        assert fleet.allocation.assignments[3] == {}
        result = fleet.carry([rule_packet(i) for i in range(8)])
        assert result.dropped_failclosed == 0
        assert fleet.counters.unfiltered_packets == 0

    def test_epc_exhaustion_forces_orphan_path(self):
        fleet = build_fleet(
            build_rules(), enclaves=4, config=FleetConfig(spare_platforms=0)
        )
        fleet.inject_epc_exhaustion(1)
        report = fleet.recover()
        assert report.orphaned_slots == [1]
        assert report.repaired
        assert fleet.counters.unfiltered_packets == 0

    def test_inject_on_empty_fleet_raises(self):
        fleet = FleetManager(IXPController(IASService()))
        with pytest.raises(FleetError, match="empty"):
            fleet.inject_crash(0)


class TestGracefulDegradation:
    def tight_fleet(self, priorities=None, spares=0):
        """Two enclaves at 100% utilisation: losing one forces shedding."""
        rules = build_rules(count=4, rate_bps=5.0 * GBPS)  # 20G over 2x10G
        fleet = build_fleet(
            rules,
            enclaves=2,
            config=FleetConfig(spare_platforms=spares),
            priorities=priorities,
        )
        return fleet

    def test_capacity_loss_sheds_fail_closed(self):
        fleet = self.tight_fleet()
        fleet.inject_crash(0, platform_lost=True)
        report = fleet.recover()
        assert report.full_resolve
        assert report.shed_rule_ids  # survivors cannot hold 20G
        assert report.shed_bandwidth_bps > 0
        assert fleet.counters.rules_shed == len(report.shed_rule_ids)
        assert fleet.shed_rule_ids == set(report.shed_rule_ids)
        lb = fleet.controller.load_balancer
        assert fleet.shed_rule_ids <= lb.blackholed_rule_ids

        packets = [rule_packet(i) for i in range(4)]
        result = fleet.carry(packets)
        # shed-rule traffic is dropped at the balancer, never delivered
        assert result.dropped_shed > 0
        assert fleet.counters.unfiltered_packets == 0
        delivered_dsts = {p.five_tuple.dst_ip for p in result.delivered}
        for rid in report.shed_rule_ids:
            assert f"203.0.{99 + rid}.5" not in delivered_dsts

    def test_shed_order_respects_priorities(self):
        # rule 1 is precious; the sheds must come from the others
        fleet = self.tight_fleet(priorities={1: 10})
        fleet.inject_crash(1, platform_lost=True)
        report = fleet.recover()
        assert report.shed_rule_ids
        assert 1 not in report.shed_rule_ids

    def test_surviving_rules_still_filter_after_shed(self):
        fleet = self.tight_fleet()
        fleet.inject_crash(0, platform_lost=True)
        fleet.recover()
        assert validate_allocation(fleet.allocation) == []
        kept = set(fleet.active_rule_ids)
        assert kept and kept.isdisjoint(fleet.shed_rule_ids)
        result = fleet.carry([rule_packet(rid - 1) for rid in sorted(kept)])
        assert result.allowed + result.dropped_filtered == len(kept)


class TestAttestationRetry:
    def attested_fleet(self, ias, config=None):
        rules = build_rules()
        controller = IXPController(ias)
        fleet = FleetManager(controller, config=config)
        fleet.deploy(rules, enclaves_override=3)
        rpki = RPKIRegistry()
        rpki.authorize(VICTIM, "203.0.0.0/16")
        session = VIFSession(VICTIM, rpki, ias, controller)
        session.attest_filters()
        fleet.session = session
        return fleet

    def test_recovery_rides_out_transient_ias_outage(self):
        ias = FlakyIAS()
        fleet = self.attested_fleet(ias)
        fleet.inject_crash(0)
        ias.fail_next(2)
        report = fleet.recover()
        assert report.relaunched_slots == [0]
        assert fleet.counters.attestation_retries == 2
        assert ias.outage_remaining == 0
        # replacement was re-attested: the session holds a fresh report
        assert 0 in fleet.session.attestation_reports
        assert fleet.counters.recovery_time_s > 3.0  # paper-scale attestation

    def test_recovery_failed_after_retry_budget(self):
        ias = FlakyIAS()
        fleet = self.attested_fleet(
            ias, config=FleetConfig(max_attestation_attempts=3)
        )
        fleet.inject_crash(1)
        ias.fail_next(100)
        with pytest.raises(RecoveryFailed, match="after 3 attempts"):
            fleet.recover()
        assert fleet.counters.attestation_retries == 3
        # traffic for the un-attested slot still fails closed
        result = fleet.carry([rule_packet(i) for i in range(8)])
        assert fleet.counters.unfiltered_packets == 0

    def test_backoff_is_deterministic_per_seed(self):
        times = []
        for _ in range(2):
            ias = FlakyIAS()
            fleet = self.attested_fleet(
                ias, config=FleetConfig(seed="backoff-test")
            )
            fleet.inject_crash(0)
            ias.fail_next(3)
            fleet.recover()
            times.append(fleet.counters.recovery_time_s)
        assert times[0] == times[1]


class TestSlotGrouping:
    """One ECall burst per live slot, whatever the arrival order."""

    @staticmethod
    def mixed_burst(n: int = 64):
        """8 rule prefixes (4 enclaves) interleaved with off-rule packets,
        half-probability rules so verdicts depend on the flow."""
        return [
            make_packet(
                src_ip=f"10.9.{i % 7}.{i}",
                dst_ip=f"203.0.{100 + i % 8}.5" if i % 5 else f"198.51.100.{i}",
                src_port=2000 + i,
            )
            for i in range(n)
        ]

    @staticmethod
    def half_rules() -> RuleSet:
        return RuleSet(
            FilterRule(
                rule_id=i + 1,
                pattern=FlowPattern(dst_prefix=f"203.0.{100 + i}.0/24"),
                p_allow=0.5,
                requested_by=VICTIM,
                rate_bps=2.0 * GBPS,
            )
            for i in range(8)
        )

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_permuting_a_burst_changes_no_verdict_and_no_log(self, seed):
        """Equation 2: f(p) does not depend on arrival order, and count-min
        updates commute — so regrouping a burst by slot is invisible."""
        packets = self.mixed_burst()
        order = list(range(len(packets)))
        random.Random(seed).shuffle(order)

        def run(positions):
            fleet = build_fleet(self.half_rules(), enclaves=4)
            verdicts = FleetBurstFilter(fleet).process_burst(
                [packets[pos] for pos in positions]
            )
            logs = [
                sketch.serialize()
                for sketch in fleet.controller.collect_incoming_logs()
                + fleet.controller.collect_outgoing_logs()
            ]
            return dict(zip(positions, verdicts)), logs

        straight, straight_logs = run(range(len(packets)))
        shuffled, shuffled_logs = run(order)
        assert shuffled == straight
        assert {True, False, UNROUTED} <= set(straight.values())
        assert shuffled_logs == straight_logs

    def test_one_ecall_per_enclave_and_one_match_per_packet(self):
        class CountingRuleSet(RuleSet):
            matches = 0

            def match(self, flow):
                self.matches += 1
                return super().match(flow)

        rules = CountingRuleSet(self.half_rules())
        fleet = build_fleet(rules, enclaves=4)
        packets = self.mixed_burst(64)
        total = obs.get_registry().total
        # The flight recorder wants every packet's rule id as well.
        previous = obs.set_flight_recorder(FlightRecorder(capacity=64, enabled=True))
        try:
            ecalls_before = total("vif_tee_ecalls_total")
            verdicts = FleetBurstFilter(fleet).process_burst(packets)
            ecalls = total("vif_tee_ecalls_total") - ecalls_before
            recorded = obs.get_flight_recorder().entries
        finally:
            obs.set_flight_recorder(previous)
        assert ecalls <= 4
        assert rules.matches == len(packets)
        assert verdicts.count(UNROUTED) == 13  # every fifth packet
        assert len(recorded) == len(packets)
        # ... and through carry(), final audit included.
        rules.matches = 0
        fleet.carry(packets)
        assert rules.matches == len(packets)

    def test_carry_burst_size_still_caps_one_ecall(self):
        fleet = build_fleet(build_rules(count=2), enclaves=1)
        enclave = fleet.controller.enclaves[0]
        before = enclave.ecall_count
        size = fleet.controller.carry_burst_size
        result = fleet.carry([rule_packet(0, src_ip=f"10.9.8.{i}") for i in range(size + 1)])
        assert result.allowed == size + 1
        assert enclave.ecall_count == before + 2

    def test_slot_dying_mid_burst_fails_closed_for_its_own_positions(self):
        fleet = build_fleet(build_rules(), enclaves=4)
        lb = fleet.controller.load_balancer
        packets = [rule_packet(i % 8, src_ip=f"10.9.8.{i}") for i in range(32)]
        slots = [lb.route(p) for p in packets]
        doomed = slots[0]
        victim = fleet.controller.enclaves[doomed]
        real_ecall = victim.ecall

        def dies_on_entry(name, *args, **kwargs):
            if name == "process_burst":
                victim.destroy()  # killed between routing and its ECall
            return real_ecall(name, *args, **kwargs)

        victim.ecall = dies_on_entry
        healthy = build_fleet(build_rules(), enclaves=4)
        expected = FleetBurstFilter(healthy).process_burst(packets)
        verdicts = FleetBurstFilter(fleet).process_burst(packets)
        for slot, got, want in zip(slots, verdicts, expected):
            assert got == (False if slot == doomed else want)
        assert fleet.health[doomed] is EnclaveHealth.DEAD
        assert fleet.counters.failclosed_drops == slots.count(doomed)
        assert fleet.counters.unfiltered_packets == 0


class TestHotRuleUpdates:
    """Hot installs/removes pack into the existing allocation in place."""

    @staticmethod
    def hot_rule(rule_id: int, third: int, rate_bps: float, fourth=None):
        prefix = (
            f"203.1.{third}.0/24" if fourth is None else f"203.1.{third}.{fourth}/32"
        )
        return FilterRule(
            rule_id=rule_id,
            pattern=FlowPattern(dst_prefix=prefix),
            action=Action.DROP if rule_id % 2 else Action.ALLOW,
            requested_by=VICTIM,
            rate_bps=rate_bps,
        )

    @staticmethod
    def attach_session(fleet: FleetManager) -> VIFSession:
        rpki = RPKIRegistry()
        rpki.authorize(VICTIM, "203.0.0.0/15")
        session = VIFSession(VICTIM, rpki, fleet.controller.ias, fleet.controller)
        session.attest_filters()
        fleet.session = session
        return session

    @staticmethod
    def installed(fleet: FleetManager):
        return [
            {r.rule_id for r in enclave.ecall("installed_rules")}
            for enclave in fleet.controller.enclaves
        ]

    @staticmethod
    def assert_coherent(fleet: FleetManager) -> None:
        if fleet.allocation is not None:
            assert validate_allocation(fleet.allocation) == []
        state = fleet.controller.state
        lb = fleet.controller.load_balancer
        assert state.rule_order == fleet.active_rule_ids
        assert sorted(state.rule_order) == sorted(
            r.rule_id for r in lb.rules if r.rule_id not in fleet.shed_rule_ids
        )

    @staticmethod
    def assert_oracle_verdicts(fleet: FleetManager, packets) -> None:
        rules = list(fleet.controller.load_balancer.rules)
        verdicts = FleetBurstFilter(fleet).process_burst(packets)
        for packet, got in zip(packets, verdicts):
            rule = linear_match(rules, packet.five_tuple)
            if rule is None:
                want = UNROUTED
            elif rule.rule_id in fleet.shed_rule_ids:
                want = False
            else:
                want = rule.action is Action.ALLOW
            assert got == want, (packet.five_tuple, rule)

    @staticmethod
    def probe_trace():
        """Every hot /24 at two hosts (one a possible /32), the deployed
        rules, and off-rule traffic."""
        dsts = [f"203.1.{third}.{host}" for third in range(64) for host in (1, 5)]
        dsts += [f"203.0.{100 + i % 8}.{i}" for i in range(32)]
        dsts += [f"198.51.100.{i}" for i in range(32)]
        return [
            make_packet(src_ip=f"10.9.{i % 5}.{i % 250}", dst_ip=dst)
            for i, dst in enumerate(dsts)
        ]

    def test_one_install_touches_and_reattests_one_slot(self):
        fleet = build_fleet(build_rules(count=40, rate_bps=0.5 * GBPS), enclaves=4)
        session = self.attach_session(fleet)
        before = self.installed(fleet)
        reports = dict(session.attestation_reports)
        changed = fleet.install_rule(self.hot_rule(500, 1, 0.1 * GBPS))
        after = self.installed(fleet)
        touched = [j for j in range(4) if before[j] != after[j]]
        assert changed == touched and len(touched) == 1
        assert after[touched[0]] - before[touched[0]] == {500}
        fresh = [
            j for j in range(4)
            if session.attestation_reports[j] is not reports[j]
        ]
        assert fresh == touched
        self.assert_coherent(fleet)

    def test_batch_delta_is_one_change(self):
        fleet = build_fleet(build_rules(count=40, rate_bps=0.5 * GBPS), enclaves=4)
        session = self.attach_session(fleet)
        attested = []
        real_attest = session.attest_filters

        def counting_attest():
            attested.append(real_attest())
            return attested[-1]

        session.attest_filters = counting_attest
        batch = [self.hot_rule(600 + k, k, 0.4 * GBPS) for k in range(12)]
        changed = fleet.install_rules(batch)
        assert attested == [len(changed)]
        assert set(fleet.active_rule_ids[-12:]) == {r.rule_id for r in batch}
        self.assert_coherent(fleet)
        self.assert_oracle_verdicts(fleet, self.probe_trace())
        attested.clear()
        changed = fleet.remove_rules([r.rule_id for r in batch])
        assert attested == [len(changed)]
        assert fleet.active_rule_ids == list(range(1, 41))
        self.assert_coherent(fleet)

    def test_seeded_walk_stays_valid_and_matches_the_oracle(self):
        rng = random.Random(2019)
        fleet = build_fleet(build_rules(count=8, rate_bps=1.5 * GBPS), enclaves=4)
        probes = self.probe_trace()
        next_id = 100
        for _ in range(200):
            current = fleet.controller.load_balancer.rules.rules()
            removable = [r.rule_id for r in current if r.rule_id >= 100]
            if removable and rng.random() < 0.45:
                fleet.remove_rule(rng.choice(removable))
            else:
                fourth = rng.choice((1, 9)) if rng.random() < 0.3 else None
                third = rng.randrange(64)
                rule = self.hot_rule(
                    next_id, third, rng.uniform(0.0, 6.0) * GBPS, fourth
                )
                if not any(r.pattern == rule.pattern for r in current):
                    fleet.install_rule(rule)
                next_id += 1
            self.assert_coherent(fleet)
            self.assert_oracle_verdicts(fleet, probes)
        assert fleet.counters.unfiltered_packets == 0

    def test_unplaceable_rule_is_shed_fail_closed(self):
        rules = build_rules(count=4, rate_bps=5.0 * GBPS)  # 20G over 2x10G
        fleet = build_fleet(rules, enclaves=2)
        before = self.installed(fleet)
        changed = fleet.install_rule(self.hot_rule(700, 3, 1.0 * GBPS))
        assert changed == []
        assert self.installed(fleet) == before
        assert fleet.shed_rule_ids == {700}
        assert 700 in fleet.controller.load_balancer.blackholed_rule_ids
        assert fleet.counters.rules_shed == 1
        result = fleet.carry([make_packet(dst_ip="203.1.3.9")])
        assert result.dropped_shed == 1 and not result.delivered
        self.assert_coherent(fleet)
        assert fleet.remove_rule(700) == []
        assert fleet.shed_rule_ids == set()

    def test_failover_repair_after_hot_updates(self):
        fleet = build_fleet(
            build_rules(count=8, rate_bps=1.0 * GBPS),
            enclaves=4,
            config=FleetConfig(spare_platforms=0),
        )
        rng = random.Random(7)
        for k in range(20):
            if k % 3 == 2:
                fleet.remove_rule(rng.choice(fleet.active_rule_ids))
            else:
                fleet.install_rule(self.hot_rule(800 + k, k, 0.5 * GBPS))
        fleet.inject_crash(2, platform_lost=True)
        report = fleet.recover()
        assert report.orphaned_slots == [2] and report.repaired
        assert fleet.allocation.assignments[2] == {}
        self.assert_coherent(fleet)
        self.assert_oracle_verdicts(fleet, self.probe_trace())
        assert fleet.counters.unfiltered_packets == 0

    def test_removing_a_split_rule_touches_every_replica(self):
        fleet = build_fleet(build_rules(count=8, rate_bps=3.0 * GBPS), enclaves=4)
        fleet.install_rule(self.hot_rule(900, 9, 9.0 * GBPS))
        index = fleet.active_rule_ids.index(900)
        replicas = fleet.allocation.rule_replicas(index)
        assert len(replicas) > 1
        before = self.installed(fleet)
        assert fleet.remove_rule(900) == replicas
        after = self.installed(fleet)
        assert [j for j in range(4) if before[j] != after[j]] == replicas
        self.assert_coherent(fleet)
