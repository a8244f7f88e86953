"""Property tests: the compiled fast path is bit-identical to the spec.

The hot-path compilation (integer rule matching, single-digest sketch
hashing, decision memoization, flow-coalesced bursts) is only admissible if
it is *semantically invisible*: every verdict, trie answer, and sketch bin
must equal what the straightforward interpreted implementation produces.
These tests pin that equivalence against independent reference
implementations over seeded random rule/flow populations — including
non-stride prefix lengths, overlapping rules, and cross-family addresses.
"""

from __future__ import annotations

import hashlib
import ipaddress
import random
from typing import List, Optional

from repro.core.filter import ConnectionPreservingMode, StatelessFilter
from repro.core.rules import Action, FilterRule, FlowPattern, RuleSet
from repro.dataplane.packet import FiveTuple, Packet, Protocol
from repro.lookup.multibit_trie import MultiBitTrie
from repro.sketch.countmin import CountMinSketch
from repro.sketch.hashing import HashFamily
from tests.conftest import linear_match

SEED = 0xF117E2


# ---------------------------------------------------------------------------
# Reference implementations (deliberately naive: ipaddress / hashlib direct).
# ---------------------------------------------------------------------------


def ref_matches(pattern: FlowPattern, flow: FiveTuple) -> bool:
    """The pre-compilation FlowPattern.matches, via the ipaddress module."""
    src_net = ipaddress.ip_network(pattern.src_prefix, strict=False)
    dst_net = ipaddress.ip_network(pattern.dst_prefix, strict=False)
    if ipaddress.ip_address(flow.src_ip) not in src_net:
        return False
    if ipaddress.ip_address(flow.dst_ip) not in dst_net:
        return False
    if pattern.src_ports is not None and not (
        pattern.src_ports[0] <= flow.src_port <= pattern.src_ports[1]
    ):
        return False
    if pattern.dst_ports is not None and not (
        pattern.dst_ports[0] <= flow.dst_port <= pattern.dst_ports[1]
    ):
        return False
    return pattern.protocol is None or flow.protocol == pattern.protocol


def ref_indexes(depth: int, width: int, seed: str, key) -> List[int]:
    """Independent rebuild of the documented single-digest derivation."""
    if isinstance(key, str):
        key = key.encode("utf-8")
    blocks = (depth + 3) // 4
    buf = b"".join(
        hashlib.sha256(
            seed.encode("utf-8") + b"\x02" + block.to_bytes(4, "big") + b"\x00" + key
        ).digest()
        for block in range(blocks)
    )
    return [
        int.from_bytes(buf[8 * row : 8 * row + 8], "big") % width
        for row in range(depth)
    ]


# ---------------------------------------------------------------------------
# Random populations (seeded — failures reproduce).
# ---------------------------------------------------------------------------


def random_flow(rng: random.Random) -> FiveTuple:
    return FiveTuple(
        src_ip=f"{rng.randrange(1, 224)}.{rng.randrange(256)}."
        f"{rng.randrange(256)}.{rng.randrange(256)}",
        dst_ip=f"10.{rng.randrange(8)}.{rng.randrange(256)}.{rng.randrange(256)}",
        src_port=rng.randrange(65536),
        dst_port=rng.choice([80, 443, 53, rng.randrange(65536)]),
        protocol=rng.choice([Protocol.TCP, Protocol.UDP, Protocol.ICMP]),
    )


def random_pattern(rng: random.Random) -> FlowPattern:
    """Random pattern biased to overlap the random_flow population.

    Prefix lengths are drawn from the full 0..32 range, so non-stride
    lengths (/11, /19, /27...) and overlapping coarse/fine pairs are common.
    """

    def prefix(base: str) -> str:
        length = rng.choice([0, 4, 8, 11, 16, 19, 24, 27, 30, 32])
        return f"{base}/{length}"

    def ports():
        if rng.random() < 0.5:
            return None
        lo = rng.randrange(65536)
        if rng.random() < 0.5:
            return (lo, lo)
        return (lo, min(0xFFFF, lo + rng.randrange(1, 2048)))

    src_base = (
        f"{rng.randrange(1, 224)}.{rng.randrange(256)}."
        f"{rng.randrange(256)}.{rng.randrange(256)}"
    )
    dst_base = f"10.{rng.randrange(8)}.{rng.randrange(256)}.{rng.randrange(256)}"
    return FlowPattern(
        src_prefix=prefix(src_base),
        dst_prefix=prefix(dst_base),
        src_ports=ports(),
        dst_ports=ports(),
        protocol=rng.choice([None, Protocol.TCP, Protocol.UDP]),
    )


def random_rules(rng: random.Random, count: int) -> List[FilterRule]:
    rules = []
    for rule_id in range(1, count + 1):
        if rng.random() < 0.6:
            rules.append(
                FilterRule(
                    rule_id=rule_id,
                    pattern=random_pattern(rng),
                    action=rng.choice([Action.ALLOW, Action.DROP]),
                )
            )
        else:
            rules.append(
                FilterRule(
                    rule_id=rule_id,
                    pattern=random_pattern(rng),
                    p_allow=rng.choice([0.0, 0.25, 0.5, 0.9, 1.0]),
                )
            )
    return rules


# ---------------------------------------------------------------------------
# 1. Compiled pattern matching == ipaddress reference.
# ---------------------------------------------------------------------------


class TestCompiledMatchEquivalence:
    def test_random_patterns_and_flows(self):
        rng = random.Random(SEED)
        patterns = [random_pattern(rng) for _ in range(400)]
        flows = [random_flow(rng) for _ in range(25)]
        checked = 0
        for pattern in patterns:
            for flow in flows:
                assert pattern.matches(flow) == ref_matches(pattern, flow), (
                    pattern,
                    flow,
                )
                checked += 1
        assert checked == 10_000

    def test_targeted_flows_inside_each_pattern(self):
        """Flows constructed to sit just inside/outside each prefix edge."""
        rng = random.Random(SEED + 1)
        for _ in range(2_000):
            pattern = random_pattern(rng)
            net = ipaddress.ip_network(pattern.dst_prefix, strict=False)
            for raw in (
                int(net.network_address),
                int(net.broadcast_address),
                (int(net.network_address) - 1) % 2**32,
                (int(net.broadcast_address) + 1) % 2**32,
            ):
                flow = FiveTuple(
                    src_ip=str(ipaddress.ip_address(rng.randrange(2**32))),
                    dst_ip=str(ipaddress.ip_address(raw)),
                    src_port=rng.randrange(65536),
                    dst_port=rng.randrange(65536),
                    protocol=Protocol.TCP,
                )
                assert pattern.matches(flow) == ref_matches(pattern, flow)

    def test_cross_family_never_matches(self):
        pattern = FlowPattern(src_prefix="0.0.0.0/0", dst_prefix="10.0.0.0/8")
        v6_flow = FiveTuple(
            src_ip="2001:db8::1",
            dst_ip="2001:db8::2",
            src_port=1,
            dst_port=2,
            protocol=Protocol.TCP,
        )
        assert pattern.matches(v6_flow) is False
        assert ref_matches(pattern, v6_flow) is False

    def test_v6_patterns_match_v6_flows(self):
        pattern = FlowPattern(src_prefix="2001:db8::/32", dst_prefix="::/0")
        v6_flow = FiveTuple(
            src_ip="2001:db8::1",
            dst_ip="2001:db8::2",
            src_port=1,
            dst_port=2,
            protocol=Protocol.TCP,
        )
        assert pattern.matches(v6_flow) is True
        assert ref_matches(pattern, v6_flow) is True


# ---------------------------------------------------------------------------
# 2. Trie lookup == linear most-specific scan, over overlapping rules.
# ---------------------------------------------------------------------------


class TestTrieEquivalence:
    def test_trie_agrees_with_linear_scan(self):
        rng = random.Random(SEED + 2)
        rules = random_rules(rng, 1_500)
        ruleset = RuleSet(rules)
        for stride in (4, 8, 16):
            trie = MultiBitTrie(stride_bits=stride)
            trie.insert_batch(rules)
            for _ in range(2_000):
                flow = random_flow(rng)
                expected = linear_match(rules, flow)
                assert ruleset.match(flow) is expected
                got = trie.lookup(flow)
                expected_id = expected.rule_id if expected else None
                got_id = got.rule_id if got else None
                assert got_id == expected_id, (stride, flow)

    def test_nested_overlapping_prefixes(self):
        """A /8, /16, /24 and /32 ladder over one address resolves by depth."""
        ladder = [
            FilterRule(
                rule_id=i + 1,
                pattern=FlowPattern(dst_prefix=f"10.1.2.3/{length}"),
                action=Action.DROP,
            )
            for i, length in enumerate([8, 16, 24, 32])
        ]
        trie = MultiBitTrie()
        trie.insert_batch(ladder)
        ruleset = RuleSet(ladder)
        flow = FiveTuple("1.2.3.4", "10.1.2.3", 1, 2, Protocol.TCP)
        assert trie.lookup(flow).rule_id == ruleset.match(flow).rule_id == 4
        sibling = FiveTuple("1.2.3.4", "10.1.2.9", 1, 2, Protocol.TCP)
        assert trie.lookup(sibling).rule_id == ruleset.match(sibling).rule_id == 3


# ---------------------------------------------------------------------------
# 3. Single-digest HashFamily == documented derivation; vectors == transpose.
# ---------------------------------------------------------------------------


class TestHashFamilyEquivalence:
    def test_indexes_match_reference(self):
        rng = random.Random(SEED + 3)
        for depth, width in [(1, 7), (2, 64 * 1024), (3, 1000), (4, 13), (5, 97), (9, 512)]:
            family = HashFamily(depth, width, "vif/test")
            for _ in range(300):
                key = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 40)))
                assert list(family.indexes(key)) == ref_indexes(
                    depth, width, "vif/test", key
                )

    def test_str_and_bytes_keys_agree(self):
        family = HashFamily(2, 4096, "vif")
        assert list(family.indexes("10.0.0.1")) == list(
            family.indexes(b"10.0.0.1")
        )

    def test_index_vectors_is_transpose_of_indexes(self):
        rng = random.Random(SEED + 4)
        family = HashFamily(3, 777, "vif/x")
        keys = [str(rng.random()).encode() for _ in range(200)]
        vectors = family.index_vectors(keys)
        per_key = [family.indexes(k) for k in keys]
        for row in range(family.depth):
            assert vectors[row] == [idx[row] for idx in per_key]

    def test_empty_batch(self):
        family = HashFamily(2, 10, "vif")
        assert family.index_vectors([]) == [[], []]


# ---------------------------------------------------------------------------
# 4. Decision cache is pure memoization: verdicts agree packet-for-packet.
# ---------------------------------------------------------------------------


class TestDecisionCacheEquivalence:
    def _packet_stream(self, rng: random.Random, n: int) -> List[Packet]:
        flows = [random_flow(rng) for _ in range(max(1, n // 8))]
        return [
            Packet(five_tuple=rng.choice(flows), size=100) for _ in range(n)
        ]

    def test_cached_filter_agrees_with_uncached(self):
        for mode in ConnectionPreservingMode:
            rng = random.Random(SEED + 5)
            rules = random_rules(rng, 600)
            plain = StatelessFilter("s3cret", mode=mode)
            cached = StatelessFilter("s3cret", mode=mode, decision_cache_size=64)
            plain.install_rules(rules)
            cached.install_rules(rules)
            for i, packet in enumerate(self._packet_stream(rng, 3_000)):
                a = plain.decide(packet)
                b = cached.decide(packet)
                assert a.allowed == b.allowed, (mode, packet.five_tuple)
                assert (a.rule.rule_id if a.rule else None) == (
                    b.rule.rule_id if b.rule else None
                )
                if mode is ConnectionPreservingMode.HYBRID and i % 500 == 499:
                    plain.rule_update_tick()
                    cached.rule_update_tick()

    def test_cache_invalidated_on_rule_changes(self):
        f = StatelessFilter("s3cret", decision_cache_size=1024)
        rule = FilterRule(
            rule_id=1,
            pattern=FlowPattern(dst_prefix="10.0.0.0/8"),
            action=Action.DROP,
        )
        flow = FiveTuple("1.1.1.1", "10.2.3.4", 5, 6, Protocol.TCP)
        assert f.decide_flow(flow).allowed is True
        f.install_rule(rule)
        assert f.decide_flow(flow).allowed is False
        f.remove_rule(rule)
        assert f.decide_flow(flow).allowed is True

    def test_cache_bounded(self):
        f = StatelessFilter("s3cret", decision_cache_size=8)
        rng = random.Random(SEED + 6)
        for _ in range(200):
            f.decide_flow(random_flow(rng))
        assert len(f._decision_cache) <= 8


# ---------------------------------------------------------------------------
# 5. Victim-vs-enclave sketch comparison survives the hash-family change.
# ---------------------------------------------------------------------------


class TestSketchComparisonAcrossFastPath:
    def test_weighted_update_bit_identical_to_per_packet(self):
        rng = random.Random(SEED + 7)
        keys = [f"src-{rng.randrange(50)}".encode() for _ in range(5_000)]
        per_packet = CountMinSketch(2, 1024, "vif/in")
        weighted = CountMinSketch(2, 1024, "vif/in")
        for key in keys:
            per_packet.update(key)
        counts: dict = {}
        for key in keys:
            counts[key] = counts.get(key, 0) + 1
        weighted.update_weighted(counts)
        assert per_packet.bins() == weighted.bins()
        assert per_packet.total == weighted.total

    def test_victim_and_enclave_sketches_compare_equal(self):
        """Victim builds per-packet, enclave coalesces; serialized transport
        round-trips; the bins compare equal bin-for-bin."""
        rng = random.Random(SEED + 8)
        keys = [random_flow(rng).key() for _ in range(2_000)]
        victim = CountMinSketch(2, 4096, "vif/out")
        for key in keys:
            victim.update(key)
        enclave = CountMinSketch(2, 4096, "vif/out")
        counts: dict = {}
        for key in keys:
            counts[key] = counts.get(key, 0) + 1
        enclave.update_weighted(counts)
        shipped = CountMinSketch.deserialize(enclave.serialize())
        assert victim.family.compatible_with(shipped.family)
        assert victim.bins() == shipped.bins()
        for key in set(keys):
            assert victim.estimate(key) == shipped.estimate(key)

    def test_family_version_participates_in_compatibility(self):
        a = HashFamily(2, 64, "vif")
        b = HashFamily(2, 64, "vif")
        assert a.compatible_with(b)
        # Simulate a peer still on the old per-row derivation.
        b.version = 1  # type: ignore[misc]
        assert not a.compatible_with(b)

    def test_stale_derivation_blob_rejected(self):
        sketch = CountMinSketch(2, 64, "vif")
        sketch.update(b"k")
        blob = bytearray(sketch.serialize())
        blob[1] = 1  # family derivation version byte
        try:
            CountMinSketch.deserialize(bytes(blob))
        except ValueError as exc:
            assert "derivation" in str(exc)
        else:
            raise AssertionError("stale family version must be rejected")


# ---------------------------------------------------------------------------
# 6. FiveTuple cached encodings.
# ---------------------------------------------------------------------------


class TestFiveTupleCachedEncodings:
    def test_key_formats_unchanged(self):
        flow = FiveTuple("10.0.0.1", "203.0.113.9", 1234, 80, Protocol.TCP)
        assert flow.key() == b"10.0.0.1|203.0.113.9|1234|80|6"
        assert flow.src_ip_key() == b"10.0.0.1"
        assert str(flow) == "TCP 10.0.0.1:1234 -> 203.0.113.9:80"

    def test_key_is_cached_object(self):
        flow = FiveTuple("10.0.0.1", "203.0.113.9", 1234, 80, Protocol.TCP)
        assert flow.key() is flow.key()
        assert flow.src_ip_key() is flow.src_ip_key()

    def test_int_caches_match_ipaddress(self):
        rng = random.Random(SEED + 9)
        for _ in range(1_000):
            flow = random_flow(rng)
            assert flow.src_ip_int == int(ipaddress.ip_address(flow.src_ip))
            assert flow.dst_ip_int == int(ipaddress.ip_address(flow.dst_ip))
            assert flow.src_ip_version == 4 and flow.dst_ip_version == 4
