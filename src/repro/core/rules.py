"""Victim-submitted filter rules (paper sections II, III-A, Appendix A).

A rule binds a :class:`FlowPattern` — an n-tuple match over
``(srcIP, dstIP, srcPort, dstPort, protocol)`` supporting exact values, CIDR
prefixes, port ranges and wildcards — to either a deterministic action
(``ALLOW``/``DROP``) or a non-deterministic drop probability
(``P_ALLOW + P_DROP = 1``) executed connection-preservingly by the filter.

Rules are validated RPKI-style before installation: the destination of every
pattern must fall inside a prefix the requesting victim is authorized for,
which is the paper's answer to "what if victim networks cause DoS by
blocking arbitrary packets?" (section VII).
"""

from __future__ import annotations

import enum
import ipaddress
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.dataplane.packet import FiveTuple, Protocol
from repro.errors import RuleError, RuleValidationError
from repro.lookup.multibit_trie import MultiBitTrie
from repro.util.addrs import parse_network


class Action(enum.Enum):
    """Deterministic filtering actions."""

    ALLOW = "allow"
    DROP = "drop"


@dataclass(frozen=True)
class FlowPattern:
    """An n-tuple match specification.

    ``src_prefix``/``dst_prefix`` are CIDR strings (``"0.0.0.0/0"`` matches
    everything).  Port fields are inclusive ``(lo, hi)`` ranges, ``None``
    meaning any.  ``protocol`` of ``None`` matches any protocol.

    Examples from the paper: an exact-match five-tuple flow ("a specific TCP
    flow between two hosts") or a coarse-grained specification ("HTTP
    connections from hosts in a /24 prefix").

    Construction *compiles* both prefixes to ``(network_int, netmask_int)``
    pairs (plus version and prefix length), so :meth:`matches` is pure
    integer mask-and-compare with zero :mod:`ipaddress` calls per packet.
    The specificity score and the exact-match flag are precomputed for the
    same reason — the trie's most-specific tiebreak reads them per candidate
    rule on every lookup.
    """

    src_prefix: str = "0.0.0.0/0"
    dst_prefix: str = "0.0.0.0/0"
    src_ports: Optional[Tuple[int, int]] = None
    dst_ports: Optional[Tuple[int, int]] = None
    protocol: Optional[Protocol] = None

    def __post_init__(self) -> None:
        try:
            src_version, src_net, src_len, src_mask = parse_network(self.src_prefix)
        except ValueError as exc:
            raise RuleError(f"bad prefix {self.src_prefix!r}: {exc}") from exc
        try:
            dst_version, dst_net, dst_len, dst_mask = parse_network(self.dst_prefix)
        except ValueError as exc:
            raise RuleError(f"bad prefix {self.dst_prefix!r}: {exc}") from exc
        for ports in (self.src_ports, self.dst_ports):
            if ports is None:
                continue
            lo, hi = ports
            if not (0 <= lo <= hi <= 0xFFFF):
                raise RuleError(f"bad port range {ports}")
        set_ = object.__setattr__  # frozen dataclass: bypass the guard
        set_(self, "src_version", src_version)
        set_(self, "src_net_int", src_net)
        set_(self, "src_prefix_len", src_len)
        set_(self, "src_mask", src_mask)
        set_(self, "dst_version", dst_version)
        set_(self, "dst_net_int", dst_net)
        set_(self, "dst_prefix_len", dst_len)
        set_(self, "dst_mask", dst_mask)
        host_bits = {4: 32, 6: 128}
        set_(
            self,
            "_is_exact",
            src_len == host_bits[src_version]
            and dst_len == host_bits[dst_version]
            and self.src_ports is not None
            and self.src_ports[0] == self.src_ports[1]
            and self.dst_ports is not None
            and self.dst_ports[0] == self.dst_ports[1]
            and self.protocol is not None,
        )
        score = src_len + dst_len
        if self.src_ports is not None:
            score += 8 if self.src_ports[0] != self.src_ports[1] else 16
        if self.dst_ports is not None:
            score += 8 if self.dst_ports[0] != self.dst_ports[1] else 16
        if self.protocol is not None:
            score += 8
        set_(self, "_specificity", score)

    # -- matching ------------------------------------------------------------

    def matches(self, flow: FiveTuple) -> bool:
        """True when ``flow`` falls inside this pattern.

        Compiled form: integer mask comparisons against the five-tuple's
        cached address integers.  Version mismatches fail the match, exactly
        as ``ip_address(x) in ip_network(y)`` answered False across families.
        """
        if (
            flow.src_ip_version != self.src_version  # type: ignore[attr-defined]
            or (flow.src_ip_int & self.src_mask) != self.src_net_int  # type: ignore[attr-defined]
        ):
            return False
        if (
            flow.dst_ip_version != self.dst_version  # type: ignore[attr-defined]
            or (flow.dst_ip_int & self.dst_mask) != self.dst_net_int  # type: ignore[attr-defined]
        ):
            return False
        ports = self.src_ports
        if ports is not None and not ports[0] <= flow.src_port <= ports[1]:
            return False
        ports = self.dst_ports
        if ports is not None and not ports[0] <= flow.dst_port <= ports[1]:
            return False
        return self.protocol is None or flow.protocol == self.protocol

    @property
    def is_exact_match(self) -> bool:
        """True when the pattern pins a single five-tuple."""
        return self._is_exact  # type: ignore[attr-defined]

    @property
    def specificity(self) -> int:
        """Longest-prefix-match style tiebreak: more specific wins.

        Counts matched bits across both prefixes plus bonuses for pinned
        ports/protocol, so an exact-match rule always beats a coarse one.
        Precomputed at construction.
        """
        return self._specificity  # type: ignore[attr-defined]

    @classmethod
    def from_src_host(cls, src_int: int) -> "FlowPattern":
        """The ``/32``-source, wildcard-everything-else pattern for one IPv4
        host, built from its integer address.

        This is the exact shape of a blocklist entry (the membership tier's
        input), and blocklists come in the millions — the normal constructor
        pays two :func:`~repro.util.addrs.parse_network` calls per pattern,
        which dominates bulk installs.  Here the compiled fields are written
        directly; the result is field-for-field identical to
        ``FlowPattern(src_prefix=f"{dotted}/32")`` (pinned by a test).
        """
        if not 0 <= src_int <= 0xFFFFFFFF:
            raise RuleError(f"src_int {src_int} outside the IPv4 address space")
        self = object.__new__(cls)
        set_ = object.__setattr__
        dotted = (
            f"{(src_int >> 24) & 0xFF}.{(src_int >> 16) & 0xFF}"
            f".{(src_int >> 8) & 0xFF}.{src_int & 0xFF}"
        )
        set_(self, "src_prefix", f"{dotted}/32")
        set_(self, "dst_prefix", "0.0.0.0/0")
        set_(self, "src_ports", None)
        set_(self, "dst_ports", None)
        set_(self, "protocol", None)
        set_(self, "src_version", 4)
        set_(self, "src_net_int", src_int)
        set_(self, "src_prefix_len", 32)
        set_(self, "src_mask", 0xFFFFFFFF)
        set_(self, "dst_version", 4)
        set_(self, "dst_net_int", 0)
        set_(self, "dst_prefix_len", 0)
        set_(self, "dst_mask", 0)
        set_(self, "_is_exact", False)
        set_(self, "_specificity", 32)
        return self

    @classmethod
    def exact(cls, flow: FiveTuple) -> "FlowPattern":
        """The exact-match pattern for one five-tuple."""
        return cls(
            src_prefix=f"{flow.src_ip}/32",
            dst_prefix=f"{flow.dst_ip}/32",
            src_ports=(flow.src_port, flow.src_port),
            dst_ports=(flow.dst_port, flow.dst_port),
            protocol=flow.protocol,
        )

    def __str__(self) -> str:
        proto = self.protocol.name if self.protocol else "any"
        sp = f"{self.src_ports[0]}-{self.src_ports[1]}" if self.src_ports else "*"
        dp = f"{self.dst_ports[0]}-{self.dst_ports[1]}" if self.dst_ports else "*"
        return f"{proto} {self.src_prefix}:{sp} -> {self.dst_prefix}:{dp}"


@dataclass(frozen=True)
class FilterRule:
    """One victim-submitted rule.

    Deterministic rules carry ``action``; non-deterministic rules carry
    ``p_allow`` (the probability that a matching *connection* is allowed —
    all packets of one TCP/UDP flow share the decision, Appendix A).
    Exactly one of the two must be set.

    ``rate_bps`` is the measured average inbound rate matching this rule
    (the ``b_i`` of the optimizer); it is maintained by the enclave's byte
    counters, not trusted timestamps (paper footnote 6).
    """

    rule_id: int
    pattern: FlowPattern
    action: Optional[Action] = None
    p_allow: Optional[float] = None
    rate_bps: float = 0.0
    requested_by: str = ""

    def __post_init__(self) -> None:
        if (self.action is None) == (self.p_allow is None):
            raise RuleError(
                "exactly one of action / p_allow must be set "
                f"(rule {self.rule_id})"
            )
        if self.p_allow is not None and not 0.0 <= self.p_allow <= 1.0:
            raise RuleError(f"p_allow {self.p_allow} outside [0, 1]")
        if self.rate_bps < 0:
            raise RuleError("rate_bps must be non-negative")

    @property
    def deterministic(self) -> bool:
        return self.action is not None

    @property
    def p_drop(self) -> float:
        """The drop probability (0/1 for deterministic rules)."""
        if self.action is not None:
            return 1.0 if self.action is Action.DROP else 0.0
        assert self.p_allow is not None
        return 1.0 - self.p_allow

    def with_rate(self, rate_bps: float) -> "FilterRule":
        """Copy of this rule with an updated measured rate."""
        return FilterRule(
            rule_id=self.rule_id,
            pattern=self.pattern,
            action=self.action,
            p_allow=self.p_allow,
            rate_bps=rate_bps,
            requested_by=self.requested_by,
        )

    def describe(self) -> str:
        """Human-readable form, e.g. for audit logs."""
        if self.deterministic:
            assert self.action is not None
            verdict = self.action.value.upper()
        else:
            verdict = f"DROP {self.p_drop:.0%} of connections"
        return f"[{verdict}] {self.pattern}"

    # -- wire format (rules travel over the victim<->enclave secure channel) --

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe encoding used by the secure-channel rule install."""
        return {
            "rule_id": self.rule_id,
            "src_prefix": self.pattern.src_prefix,
            "dst_prefix": self.pattern.dst_prefix,
            "src_ports": list(self.pattern.src_ports) if self.pattern.src_ports else None,
            "dst_ports": list(self.pattern.dst_ports) if self.pattern.dst_ports else None,
            "protocol": int(self.pattern.protocol) if self.pattern.protocol else None,
            "action": self.action.value if self.action else None,
            "p_allow": self.p_allow,
            "rate_bps": self.rate_bps,
            "requested_by": self.requested_by,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FilterRule":
        """Inverse of :meth:`to_dict`; validates through the constructors."""
        pattern = FlowPattern(
            src_prefix=str(data["src_prefix"]),
            dst_prefix=str(data["dst_prefix"]),
            src_ports=tuple(data["src_ports"]) if data.get("src_ports") else None,  # type: ignore[arg-type]
            dst_ports=tuple(data["dst_ports"]) if data.get("dst_ports") else None,  # type: ignore[arg-type]
            protocol=Protocol(data["protocol"]) if data.get("protocol") else None,
        )
        action_value = data.get("action")
        return cls(
            rule_id=int(data["rule_id"]),  # type: ignore[arg-type]
            pattern=pattern,
            action=Action(action_value) if action_value else None,
            p_allow=data.get("p_allow"),  # type: ignore[arg-type]
            rate_bps=float(data.get("rate_bps", 0.0)),  # type: ignore[arg-type]
            requested_by=str(data.get("requested_by", "")),
        )


class RuleSet:
    """An ordered collection of rules with most-specific-match semantics.

    Lookup returns the matching rule with the highest pattern specificity
    (ties broken by lowest rule id) — the multi-bit-trie lookup table's own
    resolution of overlapping entries, because :meth:`match` *is* a trie
    walk.  The trie is built by the first :meth:`match` and kept current by
    :meth:`add` / :meth:`remove` from then on, so a set that is never
    matched (an optimizer :meth:`subset`, a rule-update diff) pays nothing.
    """

    def __init__(self, rules: Iterable[FilterRule] = ()) -> None:
        self._rules: Dict[int, FilterRule] = {}
        self._trie: Optional[MultiBitTrie] = None
        #: Indexed rules the trie cannot hold (non-IPv4 destinations): scanned.
        self._residual: List[FilterRule] = []
        for rule in rules:
            self.add(rule)

    def add(self, rule: FilterRule) -> None:
        if rule.rule_id in self._rules:
            raise RuleError(f"duplicate rule id {rule.rule_id}")
        self._rules[rule.rule_id] = rule
        if self._trie is not None:
            self._index(rule)

    def remove(self, rule_id: int) -> FilterRule:
        try:
            rule = self._rules.pop(rule_id)
        except KeyError as exc:
            raise RuleError(f"unknown rule id {rule_id}") from exc
        if self._trie is not None:
            if rule.pattern.dst_version == 4:  # type: ignore[attr-defined]
                self._trie.remove(rule)
            else:
                self._residual.remove(rule)
        return rule

    def get(self, rule_id: int) -> FilterRule:
        try:
            return self._rules[rule_id]
        except KeyError as exc:
            raise RuleError(f"unknown rule id {rule_id}") from exc

    def _index(self, rule: FilterRule) -> None:
        if rule.pattern.dst_version == 4:  # type: ignore[attr-defined]
            self._trie.insert(rule)  # type: ignore[union-attr]
        else:
            self._residual.append(rule)

    def match(self, flow: FiveTuple) -> Optional[FilterRule]:
        """Most-specific rule matching ``flow``, or None."""
        trie = self._trie
        if trie is None:
            trie = self._trie = MultiBitTrie()
            for rule in self._rules.values():
                self._index(rule)
        if flow.dst_ip_version == 4:  # type: ignore[attr-defined]
            # A pattern never matches across address families, so the trie
            # alone answers for an IPv4 destination.
            return trie.lookup(flow)
        return max(
            (rule for rule in self._residual if rule.pattern.matches(flow)),
            key=lambda rule: (rule.pattern.specificity, -rule.rule_id),
            default=None,
        )

    def total_rate_bps(self) -> float:
        """Sum of measured rates across rules (the optimizer's Σ b_i)."""
        return sum(rule.rate_bps for rule in self._rules.values())

    def __len__(self) -> int:
        return len(self._rules)

    def __iter__(self) -> Iterator[FilterRule]:
        return iter(sorted(self._rules.values(), key=lambda r: r.rule_id))

    def __contains__(self, rule_id: int) -> bool:
        return rule_id in self._rules

    def rules(self) -> List[FilterRule]:
        """Rules in id order."""
        return list(self)

    def subset(self, rule_ids: Iterable[int]) -> "RuleSet":
        """A new RuleSet holding only ``rule_ids`` (used by the optimizer)."""
        return RuleSet(self.get(rid) for rid in rule_ids)


@dataclass
class RPKIRegistry:
    """A toy Resource Public Key Infrastructure.

    Maps network names to the prefixes they are authorized to originate.
    The filtering network validates every submitted rule's destination
    against the requester's authorization before installing it (paper VI-B,
    VII), so a "victim" cannot filter traffic bound for someone else.
    """

    authorizations: Dict[str, List[str]] = field(default_factory=dict)

    def authorize(self, network: str, prefix: str) -> None:
        """Register ``prefix`` as originated by ``network``."""
        ipaddress.ip_network(prefix, strict=False)
        self.authorizations.setdefault(network, []).append(prefix)

    def covers(self, network: str, dst_prefix: str) -> bool:
        """True when ``dst_prefix`` lies inside a prefix of ``network``."""
        target = ipaddress.ip_network(dst_prefix, strict=False)
        for prefix in self.authorizations.get(network, []):
            net = ipaddress.ip_network(prefix, strict=False)
            if target.subnet_of(net):
                return True
        return False

    def validate_rule(self, rule: FilterRule) -> None:
        """Raise :class:`RuleValidationError` unless the rule is authorized."""
        if not rule.requested_by:
            raise RuleValidationError(
                f"rule {rule.rule_id} carries no requester identity"
            )
        if not self.covers(rule.requested_by, rule.pattern.dst_prefix):
            raise RuleValidationError(
                f"rule {rule.rule_id}: {rule.requested_by!r} is not authorized "
                f"for destination {rule.pattern.dst_prefix}"
            )

    def validate_rules(self, rules: Iterable[FilterRule]) -> None:
        """Validate every rule; raises on the first violation."""
        for rule in rules:
            self.validate_rule(rule)
