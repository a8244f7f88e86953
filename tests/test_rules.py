"""Rules: patterns, rule sets, RPKI validation, wire format."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rules import (
    Action,
    FilterRule,
    FlowPattern,
    RPKIRegistry,
    RuleSet,
)
from repro.dataplane.packet import FiveTuple, Protocol
from repro.errors import RuleError, RuleValidationError
from repro.util.addrs import int_to_ipv4
from tests.conftest import VICTIM, VICTIM_PREFIX, linear_match


def flow(**kw) -> FiveTuple:
    base = dict(
        src_ip="10.1.2.3",
        dst_ip="203.0.113.10",
        src_port=4000,
        dst_port=80,
        protocol=Protocol.TCP,
    )
    base.update(kw)
    return FiveTuple(**base)


# -- FlowPattern -----------------------------------------------------------


def test_wildcard_pattern_matches_everything():
    assert FlowPattern().matches(flow())
    assert FlowPattern().matches(flow(protocol=Protocol.UDP, dst_port=53))


def test_prefix_matching():
    pattern = FlowPattern(src_prefix="10.1.0.0/16")
    assert pattern.matches(flow(src_ip="10.1.255.255"))
    assert not pattern.matches(flow(src_ip="10.2.0.1"))


def test_port_range_matching():
    pattern = FlowPattern(dst_ports=(80, 443))
    assert pattern.matches(flow(dst_port=80))
    assert pattern.matches(flow(dst_port=443))
    assert not pattern.matches(flow(dst_port=444))


def test_protocol_matching():
    pattern = FlowPattern(protocol=Protocol.UDP)
    assert not pattern.matches(flow())
    assert pattern.matches(flow(protocol=Protocol.UDP))


def test_exact_pattern_matches_only_its_flow():
    f = flow()
    pattern = FlowPattern.exact(f)
    assert pattern.is_exact_match
    assert pattern.matches(f)
    assert not pattern.matches(flow(src_port=4001))
    assert not pattern.matches(flow(src_ip="10.1.2.4"))


def test_specificity_ordering():
    exact = FlowPattern.exact(flow())
    coarse = FlowPattern(dst_prefix="203.0.113.0/24")
    wildcard = FlowPattern()
    assert exact.specificity > coarse.specificity > wildcard.specificity


def test_pattern_validation():
    with pytest.raises(RuleError):
        FlowPattern(src_prefix="not-a-prefix")
    with pytest.raises(RuleError):
        FlowPattern(dst_ports=(10, 5))
    with pytest.raises(RuleError):
        FlowPattern(src_ports=(-1, 5))


def test_pattern_str():
    text = str(FlowPattern(dst_prefix="203.0.113.0/24", dst_ports=(80, 80),
                           protocol=Protocol.TCP))
    assert "TCP" in text and "203.0.113.0/24" in text and "80-80" in text


# -- FilterRule ---------------------------------------------------------------


def test_rule_needs_exactly_one_of_action_or_p_allow():
    pattern = FlowPattern()
    with pytest.raises(RuleError):
        FilterRule(rule_id=1, pattern=pattern)
    with pytest.raises(RuleError):
        FilterRule(rule_id=1, pattern=pattern, action=Action.DROP, p_allow=0.5)


def test_rule_p_allow_bounds():
    with pytest.raises(RuleError):
        FilterRule(rule_id=1, pattern=FlowPattern(), p_allow=1.5)
    with pytest.raises(RuleError):
        FilterRule(rule_id=1, pattern=FlowPattern(), p_allow=-0.1)


def test_rule_p_drop():
    assert FilterRule(rule_id=1, pattern=FlowPattern(), action=Action.DROP).p_drop == 1.0
    assert FilterRule(rule_id=1, pattern=FlowPattern(), action=Action.ALLOW).p_drop == 0.0
    assert FilterRule(rule_id=1, pattern=FlowPattern(), p_allow=0.3).p_drop == pytest.approx(0.7)


def test_rule_with_rate():
    rule = FilterRule(rule_id=1, pattern=FlowPattern(), p_allow=0.5)
    updated = rule.with_rate(1e9)
    assert updated.rate_bps == 1e9
    assert updated.rule_id == rule.rule_id and updated.p_allow == rule.p_allow


def test_rule_describe():
    rule = FilterRule(rule_id=1, pattern=FlowPattern(), p_allow=0.5)
    assert "DROP 50%" in rule.describe()
    det = FilterRule(rule_id=2, pattern=FlowPattern(), action=Action.ALLOW)
    assert "ALLOW" in det.describe()


def test_rule_wire_roundtrip():
    rule = FilterRule(
        rule_id=9,
        pattern=FlowPattern(
            src_prefix="10.0.0.0/8",
            dst_prefix=VICTIM_PREFIX,
            dst_ports=(80, 443),
            protocol=Protocol.TCP,
        ),
        p_allow=0.25,
        rate_bps=5e8,
        requested_by=VICTIM,
    )
    restored = FilterRule.from_dict(rule.to_dict())
    assert restored == rule


def test_rule_wire_roundtrip_deterministic_rule():
    rule = FilterRule(
        rule_id=3, pattern=FlowPattern(), action=Action.DROP, requested_by=VICTIM
    )
    assert FilterRule.from_dict(rule.to_dict()) == rule


# -- RuleSet ----------------------------------------------------------------------


def test_ruleset_most_specific_wins():
    rules = RuleSet(
        [
            FilterRule(
                rule_id=1,
                pattern=FlowPattern(dst_prefix="203.0.113.0/24"),
                action=Action.ALLOW,
            ),
            FilterRule(
                rule_id=2,
                pattern=FlowPattern.exact(flow()),
                action=Action.DROP,
            ),
        ]
    )
    assert rules.match(flow()).rule_id == 2
    assert rules.match(flow(src_port=9999)).rule_id == 1


def test_ruleset_tie_breaks_on_lowest_id():
    pattern = FlowPattern(dst_prefix="203.0.113.0/24")
    rules = RuleSet(
        [
            FilterRule(rule_id=5, pattern=pattern, action=Action.ALLOW),
            FilterRule(rule_id=3, pattern=pattern, action=Action.DROP),
        ]
    )
    assert rules.match(flow()).rule_id == 3


def test_ruleset_duplicate_id_rejected():
    rules = RuleSet()
    rules.add(FilterRule(rule_id=1, pattern=FlowPattern(), action=Action.DROP))
    with pytest.raises(RuleError):
        rules.add(FilterRule(rule_id=1, pattern=FlowPattern(), action=Action.ALLOW))


def test_ruleset_remove_and_get():
    rule = FilterRule(rule_id=1, pattern=FlowPattern(), action=Action.DROP)
    rules = RuleSet([rule])
    assert rules.get(1) == rule
    assert rules.remove(1) == rule
    with pytest.raises(RuleError):
        rules.get(1)
    with pytest.raises(RuleError):
        rules.remove(1)


def test_ruleset_iteration_in_id_order():
    rules = RuleSet(
        FilterRule(rule_id=i, pattern=FlowPattern(), action=Action.DROP)
        for i in (5, 1, 3)
    )
    assert [r.rule_id for r in rules] == [1, 3, 5]
    assert len(rules) == 3
    assert 3 in rules and 2 not in rules


def test_ruleset_subset_and_total_rate():
    rules = RuleSet(
        FilterRule(
            rule_id=i, pattern=FlowPattern(), action=Action.DROP, rate_bps=i * 1e6
        )
        for i in (1, 2, 3)
    )
    subset = rules.subset([1, 3])
    assert [r.rule_id for r in subset] == [1, 3]
    assert rules.total_rate_bps() == pytest.approx(6e6)


def test_ruleset_no_match_returns_none():
    rules = RuleSet(
        [FilterRule(rule_id=1, pattern=FlowPattern(dst_prefix="198.51.100.0/24"),
                    action=Action.DROP)]
    )
    assert rules.match(flow()) is None


# -- RPKI ---------------------------------------------------------------------------


def test_rpki_validates_authorized_rule():
    rpki = RPKIRegistry()
    rpki.authorize(VICTIM, VICTIM_PREFIX)
    rule = FilterRule(
        rule_id=1,
        pattern=FlowPattern(dst_prefix="203.0.113.128/25"),
        action=Action.DROP,
        requested_by=VICTIM,
    )
    rpki.validate_rule(rule)  # no raise


def test_rpki_rejects_foreign_destination():
    rpki = RPKIRegistry()
    rpki.authorize(VICTIM, VICTIM_PREFIX)
    rule = FilterRule(
        rule_id=1,
        pattern=FlowPattern(dst_prefix="198.51.100.0/24"),
        action=Action.DROP,
        requested_by=VICTIM,
    )
    with pytest.raises(RuleValidationError):
        rpki.validate_rule(rule)


def test_rpki_rejects_anonymous_rule():
    rpki = RPKIRegistry()
    rpki.authorize(VICTIM, VICTIM_PREFIX)
    rule = FilterRule(
        rule_id=1,
        pattern=FlowPattern(dst_prefix=VICTIM_PREFIX),
        action=Action.DROP,
    )
    with pytest.raises(RuleValidationError):
        rpki.validate_rule(rule)


def test_rpki_rejects_wider_than_authorized():
    # A /24 holder cannot filter the covering /16.
    rpki = RPKIRegistry()
    rpki.authorize(VICTIM, VICTIM_PREFIX)
    rule = FilterRule(
        rule_id=1,
        pattern=FlowPattern(dst_prefix="203.0.0.0/16"),
        action=Action.DROP,
        requested_by=VICTIM,
    )
    with pytest.raises(RuleValidationError):
        rpki.validate_rule(rule)


def test_rpki_validate_rules_stops_at_first_violation():
    rpki = RPKIRegistry()
    rpki.authorize(VICTIM, VICTIM_PREFIX)
    good = FilterRule(
        rule_id=1,
        pattern=FlowPattern(dst_prefix=VICTIM_PREFIX),
        action=Action.DROP,
        requested_by=VICTIM,
    )
    bad = FilterRule(
        rule_id=2,
        pattern=FlowPattern(dst_prefix="198.51.100.0/24"),
        action=Action.DROP,
        requested_by=VICTIM,
    )
    with pytest.raises(RuleValidationError):
        rpki.validate_rules([good, bad])


# -- property: RuleSet.match agrees with brute force ---------------------------------

_ips = st.integers(min_value=0, max_value=2**32 - 1).map(
    lambda v: ".".join(str((v >> s) & 0xFF) for s in (24, 16, 8, 0))
)


@settings(max_examples=50, deadline=None)
@given(
    src=_ips,
    dst=_ips,
    sp=st.integers(min_value=0, max_value=65535),
    dp=st.integers(min_value=0, max_value=65535),
)
def test_match_is_most_specific(src, dst, sp, dp):
    f = FiveTuple(src_ip=src, dst_ip=dst, src_port=sp, dst_port=dp,
                  protocol=Protocol.TCP)
    rules = RuleSet(
        [
            FilterRule(rule_id=1, pattern=FlowPattern(), action=Action.ALLOW),
            FilterRule(
                rule_id=2,
                pattern=FlowPattern(dst_prefix=f"{dst}/24"),
                action=Action.DROP,
            ),
            FilterRule(
                rule_id=3,
                pattern=FlowPattern(dst_prefix=f"{dst}/32",
                                    dst_ports=(dp, dp)),
                action=Action.ALLOW,
            ),
        ]
    )
    matched = rules.match(f)
    candidates = [r for r in rules if r.pattern.matches(f)]
    best = max(candidates, key=lambda r: (r.pattern.specificity, -r.rule_id))
    assert matched.rule_id == best.rule_id


# -- the match index against a linear reference --------------------------------


def _random_rule(rng: random.Random, rule_id: int) -> FilterRule:
    if rng.random() < 0.08:
        # The index keeps non-IPv4 destinations outside the trie.
        length = rng.choice([32, 48, 64])
        pattern = FlowPattern(
            src_prefix="::/0",
            dst_prefix=f"2001:db8:{rng.randrange(4):x}::/{length}",
        )
    else:
        # Few distinct networks per length, so rules overlap and tie.
        length = rng.choice([0, 8, 12, 16, 20, 24, 28, 32])
        dst = (0xCB000000 | rng.randrange(4) << 20 | rng.randrange(4) << 6) & (
            (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF
        )
        pattern = FlowPattern(
            src_prefix=rng.choice(["0.0.0.0/0", "10.0.0.0/8", "10.1.0.0/16"]),
            dst_prefix=f"{int_to_ipv4(dst)}/{length}",
            dst_ports=rng.choice([None, None, (80, 80), (0, 1023)]),
            protocol=rng.choice([None, None, Protocol.TCP, Protocol.UDP]),
        )
    return FilterRule(rule_id=rule_id, pattern=pattern, action=Action.DROP)


def _random_flow(rng: random.Random) -> FiveTuple:
    if rng.random() < 0.1:
        return FiveTuple(
            src_ip="2001:db8:ffff::1",
            dst_ip=f"2001:db8:{rng.randrange(4):x}::{rng.randrange(1, 9):x}",
            src_port=4000,
            dst_port=80,
            protocol=Protocol.TCP,
        )
    dst = 0xCB000000 | rng.randrange(4) << 20 | rng.randrange(4) << 6 | rng.randrange(4)
    return FiveTuple(
        src_ip=rng.choice(["10.1.2.3", "10.200.0.1", "172.16.0.1"]),
        dst_ip=int_to_ipv4(dst),
        src_port=4000,
        dst_port=rng.choice([80, 443, 8080]),
        protocol=rng.choice([Protocol.TCP, Protocol.UDP]),
    )


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_match_index_agrees_with_linear_scan_under_churn(seed):
    """Interleaved add/remove on overlapping rules, before and after the
    index exists: every flow's match() is the linear most-specific one."""
    rng = random.Random(seed)
    rules = RuleSet(_random_rule(rng, i) for i in range(60))
    flows = [_random_flow(rng) for _ in range(60)]
    next_id = 60
    hits = 0
    for step in range(40):
        if step % 2:
            rules.remove(rng.choice(rules.rules()).rule_id)
        else:
            rules.add(_random_rule(rng, next_id))
            next_id += 1
        live = rules.rules()
        rng.shuffle(live)  # the reference must not lean on iteration order
        for f in flows:
            expected = linear_match(live, f)
            assert rules.match(f) is expected
            hits += expected is not None
    assert hits > 500  # the rules really do overlap the flows


def test_ipv6_rules_still_match_beside_the_index():
    v6 = FilterRule(
        rule_id=1,
        pattern=FlowPattern(src_prefix="::/0", dst_prefix="2001:db8::/32"),
        action=Action.DROP,
    )
    finer = FilterRule(
        rule_id=2,
        pattern=FlowPattern(src_prefix="::/0", dst_prefix="2001:db8::/64"),
        action=Action.ALLOW,
    )
    v4 = FilterRule(rule_id=3, pattern=FlowPattern(), action=Action.ALLOW)
    rules = RuleSet([v6, v4])
    v6_flow = FiveTuple(
        src_ip="2001:db8:1::1", dst_ip="2001:db8::2",
        src_port=1, dst_port=2, protocol=Protocol.TCP,
    )
    assert rules.match(v6_flow) is v6
    assert rules.match(flow()) is v4
    rules.add(finer)  # after the index was built
    assert rules.match(v6_flow) is finer
    rules.remove(2)
    assert rules.match(v6_flow) is v6
    rules.remove(1)
    assert rules.match(v6_flow) is None
