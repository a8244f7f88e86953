"""The multi-bit trie — must agree exactly with a linear most-specific scan."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rules import Action, FilterRule, FlowPattern, RuleSet
from repro.dataplane.packet import FiveTuple, Protocol
from repro.errors import LookupError_
from repro.lookup.multibit_trie import MultiBitTrie
from tests.conftest import linear_match


def flow(dst_ip="203.0.113.10", dst_port=80, src_ip="10.0.0.1", src_port=999):
    return FiveTuple(
        src_ip=src_ip, dst_ip=dst_ip, src_port=src_port, dst_port=dst_port,
        protocol=Protocol.TCP,
    )


def rule(rule_id, dst_prefix="0.0.0.0/0", **kw):
    return FilterRule(
        rule_id=rule_id,
        pattern=FlowPattern(dst_prefix=dst_prefix, **kw),
        action=Action.DROP,
    )


def test_lookup_exact_prefix():
    trie = MultiBitTrie()
    trie.insert(rule(1, "203.0.113.0/24"))
    assert trie.lookup(flow()).rule_id == 1
    assert trie.lookup(flow(dst_ip="198.51.100.1")) is None


def test_lookup_most_specific_among_nested_prefixes():
    trie = MultiBitTrie()
    trie.insert(rule(1, "203.0.0.0/8"))
    trie.insert(rule(2, "203.0.113.0/24"))
    trie.insert(rule(3, "203.0.113.10/32"))
    assert trie.lookup(flow()).rule_id == 3
    assert trie.lookup(flow(dst_ip="203.0.113.99")).rule_id == 2
    assert trie.lookup(flow(dst_ip="203.9.9.9")).rule_id == 1


def test_non_stride_aligned_prefix():
    trie = MultiBitTrie(stride_bits=8)
    trie.insert(rule(1, "203.0.112.0/20"))  # /20 is not a multiple of 8
    assert trie.lookup(flow(dst_ip="203.0.113.5")).rule_id == 1
    assert trie.lookup(flow(dst_ip="203.0.128.5")) is None


def test_duplicate_insert_rejected():
    trie = MultiBitTrie()
    trie.insert(rule(1))
    with pytest.raises(LookupError_):
        trie.insert(rule(1))


def test_remove():
    trie = MultiBitTrie()
    r = rule(1, "203.0.113.0/24")
    trie.insert(r)
    trie.remove(r)
    assert trie.lookup(flow()) is None
    assert len(trie) == 0
    with pytest.raises(LookupError_):
        trie.remove(r)


def test_batch_insert_and_len():
    trie = MultiBitTrie()
    rules = [rule(i, f"10.{i}.0.0/16") for i in range(50)]
    assert trie.insert_batch(rules) == 50
    assert len(trie) == 50
    assert 25 in trie and 99 not in trie


def test_stats():
    trie = MultiBitTrie()
    trie.insert_batch(rule(i, f"10.{i}.0.0/16") for i in range(10))
    stats = trie.stats()
    assert stats.num_rules == 10
    assert stats.num_nodes >= 3
    assert stats.max_depth >= 2


def test_rules_listing_sorted():
    trie = MultiBitTrie()
    trie.insert(rule(5, "10.0.0.0/8"))
    trie.insert(rule(1, "11.0.0.0/8"))
    assert [r.rule_id for r in trie.rules()] == [1, 5]


def test_various_strides_agree():
    rules = [rule(i, f"10.{i}.{i}.0/24") for i in range(20)]
    tries = []
    for stride in (1, 2, 4, 8, 16):
        trie = MultiBitTrie(stride_bits=stride)
        trie.insert_batch(rules)
        tries.append(trie)
    probe = flow(dst_ip="10.7.7.9")
    results = {t.lookup(probe).rule_id for t in tries}
    assert results == {7}


def test_stride_validation():
    with pytest.raises(ValueError):
        MultiBitTrie(stride_bits=3)


_octet = st.integers(min_value=0, max_value=255)


@settings(max_examples=50, deadline=None)
@given(
    prefixes=st.lists(
        st.tuples(_octet, _octet, st.sampled_from([8, 12, 16, 20, 24, 28, 32])),
        min_size=1,
        max_size=15,
    ),
    probe_octets=st.tuples(_octet, _octet, _octet, _octet),
)
def test_trie_agrees_with_linear_scan(prefixes, probe_octets):
    """For random prefix rules and probes: trie == linear reference (and so
    is the trie-backed RuleSet)."""
    rules = []
    for i, (a, b, plen) in enumerate(prefixes):
        rules.append(rule(i, f"{a}.{b}.0.0/{min(plen, 16)}"))
    trie = MultiBitTrie()
    reference = RuleSet()
    for r in rules:
        trie.insert(r)
        reference.add(r)
    probe = flow(dst_ip=".".join(str(o) for o in probe_octets))
    expected = linear_match(rules, probe)
    assert reference.match(probe) is expected
    actual = trie.lookup(probe)
    if expected is None:
        assert actual is None
    else:
        assert actual is not None and actual.rule_id == expected.rule_id


class TestFailedInsertLeavesNoOrphans:
    """A rejected insert must not allocate interior nodes or skew counters."""

    def test_duplicate_insert_allocates_no_nodes(self):
        trie = MultiBitTrie()
        trie.insert(rule(1, "203.0.113.0/24"))
        before = trie.stats()
        # Same id, different (deeper) prefix: the walk for this prefix would
        # allocate fresh interior nodes if validation ran after it.
        with pytest.raises(LookupError_):
            trie.insert(rule(1, "198.51.100.0/24"))
        after = trie.stats()
        assert after == before
        assert trie._num_nodes == after.num_nodes
        assert len(trie) == 1

    def test_batch_with_internal_duplicate_allocates_no_orphan_path(self):
        trie = MultiBitTrie()
        batch = [
            rule(1, "203.0.113.0/24"),
            rule(2, "198.51.100.0/24"),
            rule(2, "192.0.2.0/24"),  # duplicate id, distinct prefix
        ]
        with pytest.raises(LookupError_):
            trie.insert_batch(batch)
        stats = trie.stats()
        # The failed third insert must not have materialized 192.0.2.0/24's
        # path: incremental counter and walked count agree, and the node
        # count is exactly the two inserted /24 paths plus the root.
        assert trie._num_nodes == stats.num_nodes == 7
        assert len(trie) == 2
        assert trie.lookup(flow(dst_ip="192.0.2.5")) is None

    def test_counters_stay_consistent_after_many_failed_inserts(self):
        trie = MultiBitTrie(stride_bits=4)
        trie.insert(rule(1, "10.0.0.0/8"))
        for i in range(20):
            with pytest.raises(LookupError_):
                trie.insert(rule(1, f"10.{i}.{i}.0/28"))
        assert trie._num_nodes == trie.stats().num_nodes
        assert len(trie) == 1

    def test_ipv6_destination_rejected_before_any_allocation(self):
        """An IPv6 prefix used to die in ``_chunk`` with a bare ValueError
        (negative shift) three nodes into the walk."""
        trie = MultiBitTrie()
        trie.insert(rule(1, "203.0.113.0/24"))
        before = trie.stats()
        v6 = rule(2, "2001:db8::/32", src_prefix="::/0")
        with pytest.raises(LookupError_, match="IPv4"):
            trie.insert(v6)
        assert trie.stats() == before
        assert trie._num_nodes == before.num_nodes
        assert 2 not in trie and len(trie) == 1
