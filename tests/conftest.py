"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.core.controller import IXPController
from repro.core.rules import Action, FilterRule, FlowPattern, RPKIRegistry
from repro.core.session import VIFSession
from repro.dataplane.packet import FiveTuple, Packet, Protocol
from repro.tee.attestation import IASService

VICTIM = "victim.example"
VICTIM_PREFIX = "203.0.113.0/24"
VICTIM_IP = "203.0.113.10"


@pytest.fixture
def http_flow() -> FiveTuple:
    return FiveTuple(
        src_ip="10.1.2.3",
        dst_ip=VICTIM_IP,
        src_port=43210,
        dst_port=80,
        protocol=Protocol.TCP,
    )


@pytest.fixture
def drop_rule() -> FilterRule:
    """Deterministic DROP for all TCP/80 to the victim prefix."""
    return FilterRule(
        rule_id=1,
        pattern=FlowPattern(
            dst_prefix=VICTIM_PREFIX, dst_ports=(80, 80), protocol=Protocol.TCP
        ),
        action=Action.DROP,
        requested_by=VICTIM,
    )


@pytest.fixture
def half_rule() -> FilterRule:
    """The paper's running example: drop 50% of HTTP connections."""
    return FilterRule(
        rule_id=2,
        pattern=FlowPattern(
            dst_prefix=VICTIM_PREFIX, dst_ports=(80, 80), protocol=Protocol.TCP
        ),
        p_allow=0.5,
        requested_by=VICTIM,
    )


@pytest.fixture
def ias() -> IASService:
    return IASService()


@pytest.fixture
def rpki() -> RPKIRegistry:
    registry = RPKIRegistry()
    registry.authorize(VICTIM, VICTIM_PREFIX)
    return registry


@pytest.fixture
def controller(ias) -> IXPController:
    ctl = IXPController(ias)
    ctl.launch_filters(1)
    return ctl


@pytest.fixture
def session(rpki, ias, controller) -> VIFSession:
    sess = VIFSession(VICTIM, rpki, ias, controller)
    sess.attest_filters()
    return sess


def make_packet(
    src_ip: str = "10.1.2.3",
    dst_ip: str = VICTIM_IP,
    src_port: int = 43210,
    dst_port: int = 80,
    protocol: Protocol = Protocol.TCP,
    size: int = 64,
    ingress_as=None,
) -> Packet:
    """Loose helper used across test modules."""
    return Packet(
        five_tuple=FiveTuple(
            src_ip=src_ip,
            dst_ip=dst_ip,
            src_port=src_port,
            dst_port=dst_port,
            protocol=protocol,
        ),
        size=size,
        ingress_as=ingress_as,
    )


def linear_match(rules, flow: FiveTuple):
    """Reference most-specific match: scan every rule, highest specificity
    wins, ties to the lowest id.  ``RuleSet.match`` is an indexed lookup;
    this scan is the oracle it (and the trie) are tested against."""
    best = None
    for rule in rules:
        if not rule.pattern.matches(flow):
            continue
        if (
            best is None
            or rule.pattern.specificity > best.pattern.specificity
            or (
                rule.pattern.specificity == best.pattern.specificity
                and rule.rule_id < best.rule_id
            )
        ):
            best = rule
    return best
