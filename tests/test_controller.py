"""Untrusted controller + load balancer."""

import pytest

from repro.core.controller import BLACKHOLE, IXPController, LoadBalancer
from repro.core.rules import Action, FilterRule, FlowPattern, RuleSet
from repro.errors import ConfigurationError, DistributionError
from repro.optim.problem import Allocation, RuleDistributionProblem
from repro.tee.attestation import IASService
from repro.util.rng import stable_hash64
from repro.util.units import GBPS
from tests.conftest import VICTIM_PREFIX, make_packet


def rule(rule_id, prefix=VICTIM_PREFIX, p_allow=None, action=Action.DROP):
    if p_allow is not None:
        return FilterRule(
            rule_id=rule_id, pattern=FlowPattern(dst_prefix=prefix), p_allow=p_allow
        )
    return FilterRule(
        rule_id=rule_id, pattern=FlowPattern(dst_prefix=prefix), action=action
    )


# -- LoadBalancer -------------------------------------------------------------


def test_lb_routes_matching_packet():
    lb = LoadBalancer()
    rules = RuleSet([rule(1)])
    lb.configure(rules, {1: [(0, 1.0)]})
    assert lb.route(make_packet()) == 0


def test_lb_unmatched_returns_none():
    lb = LoadBalancer()
    lb.configure(RuleSet([rule(1)]), {1: [(0, 1.0)]})
    assert lb.route(make_packet(dst_ip="192.0.2.1")) is None
    assert lb.unrouted_packets == 1


def test_lb_flow_stickiness():
    lb = LoadBalancer()
    lb.configure(RuleSet([rule(1)]), {1: [(0, 0.5), (1, 0.5)]})
    packet = make_packet()
    first = lb.route(packet)
    assert all(lb.route(packet) == first for _ in range(10))


def test_lb_weighted_split_roughly_proportional():
    lb = LoadBalancer()
    lb.configure(RuleSet([rule(1)]), {1: [(0, 0.8), (1, 0.2)]})
    choices = [lb.route(make_packet(src_port=1024 + i)) for i in range(1000)]
    share0 = choices.count(0) / len(choices)
    assert 0.73 < share0 < 0.87


def test_lb_compiled_split_picks_the_replica_the_formula_does():
    """The per-rule cumulative bounds and salt are compiled in configure();
    every flow must land where hashing against the raw weights put it."""
    replicas = [(2, 0.3), (0, 0.0), (5, 1.2), (1, 0.5)]
    lb = LoadBalancer()
    lb.configure(RuleSet([rule(7)]), {7: replicas})
    total = sum(w for _, w in replicas)
    for i in range(300):
        packet = make_packet(src_port=1024 + i)
        point = stable_hash64(packet.five_tuple.key(), salt="lb/7") / float(2**64) * total
        cumulative, expected = 0.0, replicas[-1][0]
        for enclave_index, weight in replicas:
            cumulative += weight
            if point < cumulative:
                expected = enclave_index
                break
        assert lb.route(packet) == expected


def test_lb_route_burst_pairs_each_verdict_with_its_rule():
    rules = RuleSet([rule(1), rule(2, prefix="10.9.0.0/16")])
    lb = LoadBalancer()
    lb.configure(rules, {1: [(3, 1.0)]})
    lb.blackhole([2])
    packets = [make_packet(), make_packet(dst_ip="10.9.0.1"), make_packet(dst_ip="192.0.2.1")]
    assert lb.route_burst(packets) == [
        (3, rules.get(1)), (BLACKHOLE, rules.get(2)), (None, None),
    ]
    assert (lb.unrouted_packets, lb.blackholed_packets) == (1, 1)

    class Detour(LoadBalancer):
        def route(self, packet):  # never reaches the base lookup
            return 0

    detour = Detour()
    detour.configure(rules, {1: [(3, 1.0)]})
    assert detour.route_burst(packets[:1]) == [(0, rules.get(1))]


def test_lb_configure_validation():
    lb = LoadBalancer()
    with pytest.raises(ConfigurationError):
        lb.configure(RuleSet(), {1: [(0, 1.0)]})
    with pytest.raises(ConfigurationError):
        lb.configure(RuleSet([rule(1)]), {1: []})
    with pytest.raises(ConfigurationError):
        lb.configure(RuleSet([rule(1)]), {1: [(0, -1.0)]})


def test_lb_zero_weight_single_replica():
    lb = LoadBalancer()
    lb.configure(RuleSet([rule(1)]), {1: [(0, 0.0), (1, 0.0)]})
    assert lb.route(make_packet()) == 0


def test_lb_configure_rejects_nonfinite_weights():
    # Regression: a NaN weight passes the `w < 0` check (every NaN
    # comparison is False), poisons the running total in route(), and
    # silently lands all of the rule's traffic on the last replica.
    lb = LoadBalancer()
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ConfigurationError):
            lb.configure(RuleSet([rule(1)]), {1: [(0, 0.5), (1, bad)]})


def test_lb_shard_for_flow_stable_and_uniform():
    packet = make_packet()
    flow = packet.five_tuple
    shard = LoadBalancer.shard_for_flow(flow, 4)
    assert shard == LoadBalancer.shard_for_flow(flow, 4)
    assert LoadBalancer.shard_for_flow(flow, 1) == 0
    with pytest.raises(ConfigurationError):
        LoadBalancer.shard_for_flow(flow, 0)
    # Different salts reshuffle; many flows spread over all shards.
    shards = {
        LoadBalancer.shard_for_flow(
            make_packet(src_port=1024 + i).five_tuple, 4
        )
        for i in range(64)
    }
    assert shards == {0, 1, 2, 3}


# -- IXPController --------------------------------------------------------------


def make_controller(n=1):
    controller = IXPController(IASService())
    controller.launch_filters(n)
    return controller


def test_launch_and_retire():
    controller = make_controller(3)
    assert len(controller.enclaves) == 3
    controller.retire_filters(2)
    assert len(controller.enclaves) == 1
    with pytest.raises(ConfigurationError):
        controller.retire_filters(5)
    with pytest.raises(ConfigurationError):
        controller.launch_filters(0)


def test_install_single_filter_and_carry():
    controller = make_controller(1)
    controller.install_single_filter(RuleSet([rule(1)]))
    delivered = controller.carry([make_packet(), make_packet(dst_ip="192.0.2.1")])
    # Matching packet dropped by rule; non-matching forwarded unfiltered.
    assert len(delivered) == 1
    assert delivered[0].dst_ip == "192.0.2.1"


def test_apply_allocation_installs_subsets():
    controller = make_controller(1)
    rules = RuleSet([rule(i, prefix=f"10.{i}.0.0/16") for i in range(1, 5)])
    problem = RuleDistributionProblem(
        bandwidths=[1 * GBPS] * 4, enclave_bandwidth=2 * GBPS, headroom=0.0
    )
    allocation = Allocation(
        problem=problem,
        assignments=[{0: 1 * GBPS, 1: 1 * GBPS}, {2: 1 * GBPS, 3: 1 * GBPS}],
    )
    controller.apply_allocation(rules, allocation)
    assert len(controller.enclaves) == 2
    ids_0 = {r.rule_id for r in controller.enclaves[0].ecall("installed_rules")}
    ids_1 = {r.rule_id for r in controller.enclaves[1].ecall("installed_rules")}
    assert ids_0 == {1, 2} and ids_1 == {3, 4}


def test_apply_allocation_rule_count_mismatch():
    controller = make_controller(1)
    rules = RuleSet([rule(1)])
    problem = RuleDistributionProblem(bandwidths=[1.0, 2.0])
    allocation = Allocation(problem=problem, assignments=[{0: 1.0, 1: 2.0}])
    with pytest.raises(DistributionError):
        controller.apply_allocation(rules, allocation)


def test_carry_through_allocation_routes_to_owner():
    controller = make_controller(1)
    rules = RuleSet(
        [rule(1, prefix="10.1.0.0/16"), rule(2, prefix="10.2.0.0/16")]
    )
    problem = RuleDistributionProblem(
        bandwidths=[1 * GBPS, 1 * GBPS], enclave_bandwidth=10 * GBPS, headroom=1.0
    )
    allocation = Allocation(
        problem=problem, assignments=[{0: 1 * GBPS}, {1: 1 * GBPS}]
    )
    controller.apply_allocation(rules, allocation)
    controller.carry(
        [make_packet(dst_ip="10.1.0.9"), make_packet(dst_ip="10.2.0.9")]
    )
    assert controller.enclaves[0].ecall("report").packets_processed == 1
    assert controller.enclaves[1].ecall("report").packets_processed == 1
    assert controller.misbehavior_reports() == []


def test_carry_batches_ecalls():
    """carry() must group same-enclave packets into burst ECalls instead of
    one transition per packet."""
    controller = make_controller(1)
    controller.install_single_filter(RuleSet([rule(1, p_allow=1.0)]))
    enclave = controller.enclaves[0]
    before = enclave.ecall_count
    delivered = controller.carry(
        [make_packet(src_port=1024 + i) for i in range(50)]
    )
    assert len(delivered) == 50
    # 50 packets for one enclave, carry_burst_size=64 -> 1 ECall.
    assert enclave.ecall_count == before + 1
    assert enclave.ecall("report").packets_processed == 50


def test_carry_groups_interleaved_packets_by_enclave():
    """Packets alternating between two enclaves still cost one ECall each,
    and delivery keeps the arrival order."""
    controller = make_controller(1)
    rules = RuleSet(
        [
            rule(1, prefix="10.1.0.0/16", p_allow=1.0),
            rule(2, prefix="10.2.0.0/16", p_allow=1.0),
        ]
    )
    problem = RuleDistributionProblem(
        bandwidths=[1 * GBPS, 1 * GBPS], enclave_bandwidth=10 * GBPS, headroom=1.0
    )
    controller.apply_allocation(
        rules,
        Allocation(problem=problem, assignments=[{0: 1 * GBPS}, {1: 1 * GBPS}]),
    )
    before = [e.ecall_count for e in controller.enclaves]
    packets = [
        make_packet(dst_ip=f"10.{1 + i % 2}.0.9" if i % 3 else "192.0.2.1", src_port=1024 + i)
        for i in range(30)
    ]
    assert controller.carry(packets) == packets
    assert [e.ecall_count for e in controller.enclaves] == [b + 1 for b in before]
    assert controller.misbehavior_reports() == []


def test_collect_rule_rates():
    controller = make_controller(1)
    controller.install_single_filter(RuleSet([rule(1, p_allow=1.0)]))
    for _ in range(4):
        controller.carry([make_packet(size=125)])
    rates = controller.collect_rule_rates(window_s=1.0)
    assert rates[1] == pytest.approx(4 * 125 * 8)
    with pytest.raises(ConfigurationError):
        controller.collect_rule_rates(0)


def test_rule_update_tick_propagates():
    controller = make_controller(2)
    controller.install_single_filter(RuleSet([rule(1, p_allow=0.5)]))
    for i in range(6):
        controller.carry([make_packet(src_port=1024 + i)])
    assert controller.rule_update_tick() == 6
