"""The four seeded workloads: rules, backend builder and one cyclic lap.

Everything that depends on ``--seed`` is traffic (addresses, ports, order);
rule sets and backend configuration are fixed, and every mix is built with
exact class counts, so two seeds offer the program the same amount of work.
The program only ever sees the resulting ``Packet`` lists.

Why each workload exists is recorded in ``WHY`` (and in BENCHMARK.json).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.core.controller import IXPController
from repro.core.fleet import FleetConfig, FleetManager
from repro.core.rules import Action, FilterRule, FlowPattern, RPKIRegistry, RuleSet
from repro.core.session import VIFSession
from repro.dataplane.packet import FiveTuple, Packet, Protocol
from repro.dataplane.shard import ShardedDataPlane
from repro.faults import FlakyIAS
from repro.serve import FleetBackend, ShardBackend
from repro.util.addrs import int_to_ipv4
from repro.util.rng import deterministic_rng
from repro.util.units import GBPS

WHY = {
    "fleet_paper3k": (
        "paper's 3k-rule point on the FleetBackend path repro serve ships: "
        "LoadBalancer.route, burst fragmentation and ECalls do the work"
    ),
    "shard_flood": (
        "~3k flows replayed, memo hit ratio ~1: worker filtering is cheap, so "
        "shard IPC (pickle, FiveTuple rebuild) and asyncio stage overhead dominate"
    ),
    "shard_blocklist": (
        "every packet a distinct five-tuple, 90% from blocklisted sources, "
        "offload tier on: flat-map probe and per-flow wire cost dominate"
    ),
    "shard_churn": (
        "shard_blocklist with a 2,000-rule install/remove every second: memo "
        "invalidation, tier recompile and the event-loop stall of the write path"
    ),
}

#: Sizes of record.  ``smoke`` exists for bench/test_harness.py only.
SCALES: Dict[str, Dict[str, Dict[str, object]]] = {
    "full": {
        "fleet_paper3k": dict(
            rules=3000, enclaves=4, lap=4096, flows=2048,
            burst=8, period_ms=17.5, update_batch=1,
        ),
        "shard_flood": dict(
            rules=200, workers=2, lap=65536, benign_flows=1000,
            attack_sources=254, attack_ports=8,
            burst=256, period_ms=16.0, update_batch=2000,
        ),
        "shard_blocklist": dict(
            rules=100, workers=2, lap=65536, blocklist=16384,
            offload_sample_rate=0.1,
            burst=256, period_ms=16.0, update_batch=2000,
        ),
    },
    "smoke": {
        "fleet_paper3k": dict(
            rules=300, enclaves=4, lap=512, flows=256,
            burst=8, period_ms=17.5, update_batch=1,
        ),
        "shard_flood": dict(
            rules=200, workers=2, lap=8192, benign_flows=1000,
            attack_sources=254, attack_ports=8,
            burst=256, period_ms=16.0, update_batch=200,
        ),
        "shard_blocklist": dict(
            rules=100, workers=2, lap=8192, blocklist=2048,
            offload_sample_rate=0.1,
            burst=256, period_ms=16.0, update_batch=200,
        ),
    },
}
for _scale in SCALES.values():
    _scale["shard_churn"] = dict(_scale["shard_blocklist"], churn=True)

_BLOCK_BASE = 0x64400000  # 100.64.0.0/10: every blocklisted source
_FRESH_BASE = 0x0B000000  # 11.0.0.0/8: update-batch sources, never in a trace
_BLOCK_RULE_ID = 1_000_000
_UPDATE_RULE_ID = 5_000_000


@dataclass
class Workload:
    name: str
    sizes: Dict[str, object]
    trace: List[Packet]
    rules: List[FilterRule]
    blocklist: List[Tuple[int, int]]
    build_backend: Callable[[], object]
    #: ``update_batch(j)`` is the j-th control-plane write: fresh rules that
    #: match no packet of the trace, so the verdict oracle is unchanged.
    update_batch: Callable[[int], List[FilterRule]]
    #: Unmatched packets ride the default path (fleet) instead of ALLOW.
    unmatched_unrouted: bool = False

    @property
    def burst(self) -> int:
        return int(self.sizes["burst"])

    @property
    def period_s(self) -> float:
        return float(self.sizes["period_ms"]) / 1000.0

    @property
    def churn(self) -> bool:
        return bool(self.sizes.get("churn", False))


def trace_digest(trace: List[Packet]) -> str:
    """SHA-256 over every packet's five-tuple key and size, in lap order."""
    digest = hashlib.sha256()
    for packet in trace:
        digest.update(packet.five_tuple.key())
        digest.update(packet.size.to_bytes(2, "big"))
    return digest.hexdigest()


def _exact_mask(rng: random.Random, n: int, share: float) -> List[bool]:
    """``n`` booleans with exactly ``round(n * share)`` True, shuffled."""
    mask = [i < round(n * share) for i in range(n)]
    rng.shuffle(mask)
    return mask


def _src_drop_batch(size: int) -> Callable[[int], List[FilterRule]]:
    def batch(j: int) -> List[FilterRule]:
        return [
            FilterRule(
                rule_id=_UPDATE_RULE_ID + j * size + i,
                pattern=FlowPattern(src_prefix=f"{int_to_ipv4(_FRESH_BASE + j * size + i)}/32"),
                action=Action.DROP,
            )
            for i in range(size)
        ]

    return batch


# -- fleet_paper3k --------------------------------------------------------------


def _fleet_rule(rule_id: int, i: int, rate: float, second_octet: int = 0) -> FilterRule:
    # The rule shape of ``repro serve`` (cli.run_serve).
    return FilterRule(
        rule_id=rule_id,
        pattern=FlowPattern(
            dst_prefix=f"10.{second_octet + (i // 256) % 50}.{i % 256}.0/24"
        ),
        action=Action.DROP if i % 2 else Action.ALLOW,
        requested_by="victim.example",
        rate_bps=rate,
    )


def _fleet(sizes: Dict[str, object], rng: random.Random) -> Workload:
    num_rules, enclaves = int(sizes["rules"]), int(sizes["enclaves"])
    rate = 0.6 * enclaves * 10 * GBPS / num_rules
    rules = [_fleet_rule(i + 1, i, rate) for i in range(num_rules)]

    def build_backend() -> FleetBackend:
        # FlakyIAS -> IXPController -> FleetManager.deploy -> attest_filters,
        # the chain cli.run_serve builds.
        ias = FlakyIAS()
        controller = IXPController(ias)
        fleet = FleetManager(controller, config=FleetConfig(seed="vif-bench"))
        fleet.deploy(RuleSet(rules), enclaves_override=enclaves)
        rpki = RPKIRegistry()
        rpki.authorize("victim.example", "10.0.0.0/8")
        session = VIFSession("victim.example", rpki, ias, controller)
        session.attest_filters()
        fleet.session = session
        return FleetBackend(fleet)

    def flow(dst_ip: str) -> FiveTuple:
        return FiveTuple(
            src_ip=f"172.16.{rng.randrange(256)}.{rng.randrange(256)}",
            dst_ip=dst_ip,
            src_port=rng.randrange(1024, 65536),
            dst_port=80,
            protocol=Protocol.TCP,
        )

    num_flows = int(sizes["flows"])
    ruled = []
    for _ in range(round(num_flows * 0.8)):
        r = rng.randrange(num_rules)
        ruled.append(flow(f"10.{(r // 256) % 256}.{r % 256}.{rng.randrange(1, 255)}"))
    unrouted = [
        flow(f"198.{18 + rng.randrange(2)}.{rng.randrange(256)}.{rng.randrange(256)}")
        for _ in range(num_flows - len(ruled))
    ]
    # u**3 popularity inside each class; the 80/20 packet split is exact.
    trace = []
    for into_rule in _exact_mask(rng, int(sizes["lap"]), 0.8):
        pool = ruled if into_rule else unrouted
        trace.append(
            Packet(five_tuple=pool[int(len(pool) * rng.random() ** 3)], size=64)
        )
    size = int(sizes["update_batch"])
    return Workload(
        name="fleet_paper3k",
        sizes=sizes,
        trace=trace,
        rules=rules,
        blocklist=[],
        build_backend=build_backend,
        # 10.200+.x.0/24: outside both the installed rules and the trace.
        update_batch=lambda j: [
            _fleet_rule(_UPDATE_RULE_ID + k, k, rate, second_octet=200)
            for k in range(j * size, (j + 1) * size)
        ],
        unmatched_unrouted=True,
    )


# -- shard_* ---------------------------------------------------------------------


def _mixed_rules(n: int) -> List[FilterRule]:
    """Deterministic + probabilistic rules over nested /16, /24+port and /26
    prefixes (the shape benchmarks/test_shard_scaling.py sweeps)."""
    rules = []
    for i in range(n):
        variant = i % 3
        if variant == 0:
            pattern = FlowPattern(dst_prefix=f"10.{i % 200}.0.0/16")
        elif variant == 1:
            pattern = FlowPattern(
                dst_prefix=f"10.{i % 200}.{(i // 200) % 250}.0/24", dst_ports=(80, 80)
            )
        else:
            pattern = FlowPattern(dst_prefix=f"10.{i % 200}.{(i // 200) % 250}.128/26")
        if i % 2 == 0:
            rules.append(FilterRule(rule_id=i + 1, pattern=pattern, p_allow=0.5))
        else:
            action = Action.DROP if i % 4 == 1 else Action.ALLOW
            rules.append(FilterRule(rule_id=i + 1, pattern=pattern, action=action))
    return rules


def _shard_backend(sizes, rules, blocklist=()) -> Callable[[], ShardBackend]:
    def build_backend() -> ShardBackend:
        return ShardBackend(
            ShardedDataPlane(
                rules,
                num_workers=int(sizes["workers"]),
                restart_dead_workers=True,
                blocklist=blocklist,
                offload_sample_rate=float(sizes.get("offload_sample_rate", 0.0)),
            )
        )

    return build_backend


def _shard_flood(sizes: Dict[str, object], rng: random.Random) -> Workload:
    rules = _mixed_rules(int(sizes["rules"]))
    benign = [
        FiveTuple(
            src_ip=f"172.16.{rng.randrange(256)}.{rng.randrange(256)}",
            dst_ip=f"10.{rng.randrange(200)}.{rng.randrange(250)}.{rng.randrange(256)}",
            src_port=rng.randrange(1024, 65536),
            dst_port=rng.choice([80, 80, 443, 53]),
            protocol=Protocol.TCP,
        )
        for _ in range(int(sizes["benign_flows"]))
    ]
    # The attack prefix floods one victim /24 (10.6.0.0/24, under the
    # probabilistic /16 rule 7) from 203.0.113.0/24.
    attack = [
        FiveTuple(
            src_ip=f"203.0.113.{1 + source}",
            dst_ip=f"10.6.0.{rng.randrange(1, 255)}",
            src_port=rng.randrange(1024, 65536),
            dst_port=80,
            protocol=Protocol.TCP,
        )
        for source in range(int(sizes["attack_sources"]))
        for _ in range(int(sizes["attack_ports"]))
    ]
    trace = [
        Packet(five_tuple=rng.choice(benign), size=rng.choice([64, 600, 1500]))
        if is_benign
        else Packet(five_tuple=rng.choice(attack), size=64)
        for is_benign in _exact_mask(rng, int(sizes["lap"]), 0.2)
    ]
    return Workload(
        name="shard_flood",
        sizes=sizes,
        trace=trace,
        rules=rules,
        blocklist=[],
        build_backend=_shard_backend(sizes, rules),
        update_batch=_src_drop_batch(int(sizes["update_batch"])),
    )


def _shard_blocklist(name: str, sizes: Dict[str, object], rng: random.Random) -> Workload:
    rules = [
        FilterRule(
            rule_id=i + 1, pattern=FlowPattern(dst_prefix=f"10.{i}.0.0/16"), p_allow=0.5
        )
        for i in range(int(sizes["rules"]))
    ]
    entries = int(sizes["blocklist"])
    blocklist = [(_BLOCK_RULE_ID + i, _BLOCK_BASE + i) for i in range(entries)]
    seen = set()
    trace = []
    for blocked in _exact_mask(rng, int(sizes["lap"]), 0.9):
        while True:
            if blocked:
                src = _BLOCK_BASE + rng.randrange(entries)
            else:
                src = 0xC6336400 + rng.randrange(256)  # 198.51.100.0/24, clean
            bits = rng.getrandbits(24)
            dst = 0x0A000000 | (bits % len(rules)) << 16 | bits >> 8
            key = (src, dst, rng.randrange(1024, 65536))
            if key not in seen:
                seen.add(key)
                break
        trace.append(
            Packet(
                five_tuple=FiveTuple(
                    src_ip=int_to_ipv4(src),
                    dst_ip=int_to_ipv4(dst),
                    src_port=key[2],
                    dst_port=80,
                    protocol=Protocol.UDP,
                ),
                size=64,
            )
        )
    return Workload(
        name=name,
        sizes=sizes,
        trace=trace,
        rules=rules,
        blocklist=blocklist,
        build_backend=_shard_backend(sizes, rules, blocklist),
        update_batch=_src_drop_batch(int(sizes["update_batch"])),
    )


def build(name: str, seed: int, scale: str = "full") -> Workload:
    """The workload ``name`` with its lap generated from ``seed``."""
    sizes = dict(SCALES[scale][name])
    # shard_churn replays shard_blocklist's lap, so the pair differs only in
    # the control-plane writes.
    traffic = "shard_blocklist" if name == "shard_churn" else name
    rng = deterministic_rng(f"vif-bench/{traffic}/{seed}")
    if name == "fleet_paper3k":
        return _fleet(sizes, rng)
    if name == "shard_flood":
        return _shard_flood(sizes, rng)
    return _shard_blocklist(name, sizes, rng)
