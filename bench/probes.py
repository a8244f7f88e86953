"""Unit-cost probes: one isolated call into each layer's public entry point.

The workers' inner work cannot be spanned from outside their processes, so
the traced run prices it instead: every probe replays the workload's own
keys through one structure built from the workload's own rules, timed with
``time.process_time`` (CPU, so a busy neighbour does not inflate it).  The
attribution in bench/layers.py multiplies these by the program's own
counters.  A workload without a blocklist gets a small stand-in so the
membership and offload probes still report a number.
"""

from __future__ import annotations

import hashlib
import pickle
import time
from typing import Callable, Dict, Iterable, List

from repro import obs
from repro.core.enclave_filter import EnclaveFilter
from repro.core.filter import StatelessFilter
from repro.core.rules import RuleSet
from repro.dataplane.offload import FastDropTier, VerifiableSampler
from repro.dataplane.packet import FiveTuple, Packet, Protocol
from repro.lookup.membership import MembershipRule
from repro.obs.telemetry import StageLatencyTracker
from repro.sketch.countmin import CountMinSketch
from repro.sketch.hashing import HashFamily

KEYS = 2048
#: RuleSet.match walks every rule (~0.15 us each), so it gets fewer keys.
SLOW_KEYS = 128
_STAND_IN_BLOCKLIST = [(9_000_000 + i, 0x64400000 + i) for i in range(4096)]


def _us_per_item(fn: Callable[[object], object], items: Iterable[object]) -> float:
    items = list(items)
    started = time.process_time()
    for item in items:
        fn(item)
    return (time.process_time() - started) / len(items) * 1e6


def _wire(flow: FiveTuple):
    # One row of dataplane.shard's BatchWire: five-tuple fields + frame sizes.
    return (
        (flow.src_ip, flow.dst_ip, flow.src_port, flow.dst_port, int(flow.protocol)),
        [64],
    )


def unit_costs(workload) -> Dict[str, float]:
    """``probe.*`` metrics (microseconds) for ``workload``'s keys and rules."""
    # The probed structures count into the process registry like the real
    # ones; a scratch registry keeps the run's own counters clean.
    previous = obs.set_registry(obs.MetricsRegistry())
    try:
        return _unit_costs(workload)
    finally:
        obs.set_registry(previous)


def _unit_costs(workload) -> Dict[str, float]:
    packets: List[Packet] = workload.trace[:KEYS]
    flows = [packet.five_tuple for packet in packets]
    keys = [flow.key() for flow in flows]
    blocklist = workload.blocklist or _STAND_IN_BLOCKLIST
    blocked = [src for _, src in blocklist[:KEYS]]
    clean = [0xC6336400 + i % 256 for i in range(KEYS)]

    ruleset = RuleSet(workload.rules)
    program = StatelessFilter(secret="vif-bench/probe", decision_cache_size=65536)
    program.install_rules(workload.rules)
    program.load_blocklist(blocklist)
    membership = program.store.membership
    enclave = EnclaveFilter(secret="vif-bench/probe")
    enclave.install_rules(workload.rules)
    enclave.load_blocklist(blocklist)
    sampler = VerifiableSampler(0.1, seed="vif-bench/probe")
    tier = FastDropTier(sampler, label="bench-probe")
    tier.install_rules([MembershipRule(rule_id=r, src_int=s) for r, s in blocklist])
    family = HashFamily(depth=4, width=65536, family_seed="vif-bench/probe")
    sketch = CountMinSketch()
    tracker = StageLatencyTracker()
    wire = [_wire(flow) for flow in flows]
    blob = pickle.dumps(("batch", 0, wire))
    burst = workload.burst

    return {
        "probe.fivetuple_build_us": _us_per_item(
            lambda row: FiveTuple(
                src_ip=row[0][0], dst_ip=row[0][1], src_port=row[0][2],
                dst_port=row[0][3], protocol=Protocol(row[0][4]),
            ),
            wire,
        ),
        "probe.ruleset_match_us": _us_per_item(ruleset.match, flows[:SLOW_KEYS]),
        "probe.trie_lookup_us": _us_per_item(program.store.trie.lookup, flows),
        "probe.store_lookup_us": _us_per_item(program.store.lookup, flows),
        "probe.membership_query_hit_us": _us_per_item(membership.query, blocked),
        "probe.membership_query_miss_us": _us_per_item(membership.query, clean),
        # First pass fills the memo (all misses), second pass only hits it.
        "probe.decide_flow_miss_us": _us_per_item(program.decide_flow, flows),
        "probe.decide_flow_hit_us": _us_per_item(program.decide_flow, flows),
        "probe.enclave_burst_us_per_pkt": _us_per_item(
            enclave.process_burst,
            [packets[i : i + burst] for i in range(0, len(packets), burst)],
        ) / burst,
        "probe.sketch_update_us_per_key": _us_per_item(sketch.update, keys),
        "probe.hash_lanes_us": _us_per_item(family.lanes, keys),
        "probe.sha256_raw_us": _us_per_item(
            lambda key: hashlib.sha256(key).digest(), keys
        ),
        "probe.offload_classify_us": _us_per_item(tier.classify, packets),
        "probe.pickle_dumps_us_per_flow": _us_per_item(
            pickle.dumps, [("batch", 0, wire)] * 32
        ) / len(wire),
        "probe.pickle_loads_us_per_flow": _us_per_item(pickle.loads, [blob] * 32)
        / len(wire),
        "probe.latency_observe_us": _us_per_item(
            lambda i: tracker.observe("filter", 1e-4 * (1 + i % 97)), range(KEYS)
        ),
    }
