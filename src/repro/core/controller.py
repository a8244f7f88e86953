"""The untrusted IXP controller and load balancer (paper IV-B, VI-B, Fig 4/10).

Both components are *outside* the TCB.  The controller launches enclaves on
SGX platforms, learns the victim's rules (the paper accepts that "the VIF
IXP eventually learns and analyzes all the rules"), and programs the
switching fabric; the load balancer steers each inbound flow to the enclave
holding its rule.  Neither can undetectably misbehave:

* mis-steering a flow to an enclave that does not own its rule is flagged by
  that enclave's ``set_assigned_rules`` check;
* dropping flows instead of steering them shows up in the neighbor-side
  incoming-log audit;
* bypassing the filters entirely shows up in the victim-side outgoing-log
  audit.

The honest implementations live here; adversarial variants subclass
:class:`LoadBalancer` in :mod:`repro.adversary.filtering_network`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro import obs
from repro.core.enclave_filter import EnclaveFilter
from repro.core.filter import ConnectionPreservingMode
from repro.core.rules import FilterRule, RuleSet
from repro.dataplane.packet import FiveTuple, Packet
from repro.errors import ConfigurationError, DistributionError
from repro.optim.problem import Allocation
from repro.sketch.countmin import CountMinSketch
from repro.tee.attestation import IASService
from repro.tee.enclave import Enclave, Platform
from repro.tee.epc import EPCAccounting
from repro.util.rng import stable_hash64


#: Sentinel verdict from :meth:`LoadBalancer.route` for packets matching a
#: *shed* rule: the rule lost its enclave in a capacity-loss failover and its
#: traffic must be dropped at the switch, never forwarded unfiltered
#: (fail-closed degradation).
BLACKHOLE = "blackhole"

#: ``(route verdict, matched rule)`` for one packet, from
#: :meth:`LoadBalancer.route_burst`.
Routed = Tuple[Union[int, str, None], Optional[FilterRule]]

_UNSET = object()


def record_flight(
    rows: Iterable[Tuple[Packet, Optional[FilterRule], str]]
) -> None:
    """Batch ``(packet, matched rule, outcome)`` rows into the flight
    recorder ring; ``rows`` is not consumed unless someone has opted into
    forensic capture."""
    recorder = obs.get_flight_recorder()
    if not recorder.enabled:
        return
    round_id = obs.get_journal().current_round
    recorder.record_batch(
        [
            (
                packet.five_tuple.key().decode(),
                rule.rule_id if rule is not None else None,
                outcome,
                round_id,
            )
            for packet, rule, outcome in rows
        ]
    )


class _RoutePlan:
    """One rule's replicas, compiled for :meth:`LoadBalancer.route`.

    ``salt`` is None when every flow lands on ``first`` (a single replica,
    or no positive weight); otherwise a flow hashes under ``salt`` to a
    point in ``[0, total)`` and takes the first replica whose cumulative
    weight bound exceeds it.
    """

    __slots__ = ("first", "salt", "total", "bounds")

    def __init__(self, rule_id: int, replicas: List[Tuple[int, float]]) -> None:
        self.first = replicas[0][0]
        self.salt: Optional[str] = None
        self.total = 0.0
        self.bounds: Tuple[Tuple[float, int], ...] = ()
        if len(replicas) > 1:
            self.total = sum(w for _, w in replicas)
            if self.total > 0:
                self.salt = f"lb/{rule_id}"
                self.bounds = tuple(
                    zip(accumulate(w for _, w in replicas), (j for j, _ in replicas))
                )


class LoadBalancer:
    """Flow-sticky weighted routing of packets to enclaves.

    Routing state is a map ``rule_id -> [(enclave_index, weight)]`` derived
    from an :class:`~repro.optim.problem.Allocation`: a split rule's traffic
    is divided across its replicas in proportion to the allocated bandwidth,
    with per-flow stickiness (a flow hashes to exactly one replica, so
    connection preservation survives the split).

    A rule may additionally be *blackholed* (graceful degradation under
    capacity loss): matching packets get the :data:`BLACKHOLE` verdict and
    are dropped by the carrier instead of being routed or forwarded.
    """

    def __init__(self) -> None:
        self._rules = RuleSet()
        self._routes: Dict[int, _RoutePlan] = {}
        self._blackholed: Set[int] = set()
        self._matched: object = _UNSET
        registry = obs.get_registry()
        label = obs.next_instance_label("lb")
        self._unrouted_c = registry.counter(
            "vif_lb_unrouted_packets_total",
            help="Packets matching no installed rule (default path)",
            lb=label,
        )
        self._blackholed_c = registry.counter(
            "vif_lb_blackholed_packets_total",
            help="Packets for shed rules, dropped fail-closed at the switch",
            lb=label,
        )

    @property
    def unrouted_packets(self) -> int:
        """Packets routed to no enclave (stored in the metrics registry)."""
        return self._unrouted_c.value

    @property
    def blackholed_packets(self) -> int:
        """Packets dropped fail-closed (stored in the metrics registry)."""
        return self._blackholed_c.value

    def configure(
        self, rules: RuleSet, routes: Dict[int, List[Tuple[int, float]]]
    ) -> None:
        """Install the (untrusted copies of) rules and the routing map."""
        for rule_id, replicas in routes.items():
            if rule_id not in rules:
                raise ConfigurationError(f"route for unknown rule {rule_id}")
            if not replicas:
                raise ConfigurationError(f"rule {rule_id} has no replicas")
            # A NaN weight passes ``w < 0`` (every NaN comparison is False),
            # poisons ``total`` in route(), and silently lands all of the
            # rule's traffic on the last replica; infinities skew the split
            # just as silently.  Reject anything non-finite loudly.
            if any(not math.isfinite(w) for _, w in replicas):
                raise ConfigurationError(f"rule {rule_id} has a non-finite weight")
            if any(w < 0 for _, w in replicas):
                raise ConfigurationError(f"rule {rule_id} has a negative weight")
        self._rules = rules
        self._routes = {rid: _RoutePlan(rid, reps) for rid, reps in routes.items()}
        self._blackholed -= set(self._routes)

    @property
    def rules(self) -> RuleSet:
        """The rule set routing decisions are matched against."""
        return self._rules

    def blackhole(self, rule_ids: Iterable[int]) -> None:
        """Mark shed rules: their traffic is dropped, not forwarded."""
        for rule_id in rule_ids:
            self._blackholed.add(rule_id)
            self._routes.pop(rule_id, None)

    @property
    def blackholed_rule_ids(self) -> Set[int]:
        return set(self._blackholed)

    @staticmethod
    def shard_for_flow(
        flow: "FiveTuple", num_shards: int, salt: str = "rss"
    ) -> int:
        """RSS-style deterministic shard assignment for a flow.

        The multi-core data plane (:mod:`repro.dataplane.shard`) splits
        traffic across worker processes the way a NIC's receive-side scaling
        splits it across cores: a flow hash over the five-tuple, modulo the
        worker count.  Built on :func:`~repro.util.rng.stable_hash64`, so the
        assignment is identical in every process — the coordinator, a
        worker, and a victim replaying the trace all agree which worker owned
        which flow, which is what makes per-worker sketch logs auditable
        after a central merge.  Flow-granular by construction: every packet
        of a flow lands on the same worker, so per-flow state (connection
        preservation, exact-match entries) never straddles shards.
        """
        if num_shards <= 0:
            raise ConfigurationError("num_shards must be positive")
        if num_shards == 1:
            return 0
        return stable_hash64(flow.key(), salt=f"rss/{salt}") % num_shards

    def route(self, packet: Packet) -> Union[int, str, None]:
        """The enclave index for ``packet``, or a non-routing verdict.

        Returns ``None`` when no rule matches — unmatched traffic takes the
        default path (no filtering requested for it), the honest behavior —
        or :data:`BLACKHOLE` when the matching rule was shed and its traffic
        must be dropped fail-closed.
        """
        flow = packet.five_tuple
        rule = self._matched = self._rules.match(flow)  # kept for route_burst
        plan = self._routes.get(rule.rule_id) if rule is not None else None
        if plan is None:
            if rule is not None and rule.rule_id in self._blackholed:
                self._blackholed_c.inc()
                return BLACKHOLE
            self._unrouted_c.inc()
            return None
        if plan.salt is None:
            return plan.first
        point = (
            stable_hash64(flow.key(), salt=plan.salt) / float(2**64)
        ) * plan.total
        for bound, enclave_index in plan.bounds:
            if point < bound:
                return enclave_index
        return plan.bounds[-1][1]

    def route_burst(self, packets: Sequence[Packet]) -> List[Routed]:
        """:meth:`route` every packet, pairing each verdict with the rule it
        matched, so a carrier that shares :attr:`rules` never matches twice.

        Goes through ``self.route`` per packet: a subclass (or wrapper) that
        steers differently is honoured, and one that never reaches the base
        lookup gets the rule matched here instead.
        """
        route = self.route
        routed: List[Routed] = []
        for packet in packets:
            self._matched = _UNSET
            target = route(packet)
            rule = self._matched
            if rule is _UNSET:
                rule = self._rules.match(packet.five_tuple)
            routed.append((target, rule))  # type: ignore[arg-type]
        return routed


@dataclass
class DeploymentState:
    """What the controller currently has installed."""

    rules: RuleSet = field(default_factory=RuleSet)
    allocation: Optional[Allocation] = None
    rule_order: List[int] = field(default_factory=list)  # index -> rule_id


class IXPController:
    """Launches filters, applies allocations, and moves packets through them."""

    def __init__(
        self,
        ias: IASService,
        enclave_secret_seed: str = "vif-ixp",
        mode: ConnectionPreservingMode = ConnectionPreservingMode.HYBRID,
        sketch_seed: str = "vif",
    ) -> None:
        self.ias = ias
        self.enclave_secret_seed = enclave_secret_seed
        self.mode = mode
        self.sketch_seed = sketch_seed
        self.load_balancer = LoadBalancer()
        self.enclaves: List[Enclave] = []
        self.programs: List[EnclaveFilter] = []
        self.state = DeploymentState()
        self._platform_counter = 0

    # -- enclave lifecycle ------------------------------------------------------

    def launch_filters(self, count: int, scale_out: Optional[bool] = None) -> List[Enclave]:
        """Launch ``count`` fresh filter enclaves on fresh platforms.

        ``scale_out`` defaults to True when the deployment will hold more
        than one enclave (enables the assigned-rules misbehavior check).
        """
        if count <= 0:
            raise ConfigurationError("count must be positive")
        if scale_out is None:
            scale_out = (len(self.enclaves) + count) > 1
        launched: List[Enclave] = []
        for _ in range(count):
            self._platform_counter += 1
            platform = Platform(f"ixp-server-{self._platform_counter}")
            self.ias.provision(platform)
            program = EnclaveFilter(
                secret=f"{self.enclave_secret_seed}/{self._platform_counter}",
                mode=self.mode,
                sketch_seed=self.sketch_seed,
                scale_out_mode=scale_out,
                decision_secret=f"{self.enclave_secret_seed}/fleet",
            )
            enclave = platform.launch(program)
            self.enclaves.append(enclave)
            self.programs.append(program)
            launched.append(enclave)
        return launched

    def relaunch_filter(
        self,
        index: int,
        platform: Optional[Platform] = None,
        epc: Optional["EPCAccounting"] = None,
    ) -> Enclave:
        """Replace the (dead) enclave at ``index`` with a fresh launch.

        Reuses the dead enclave's platform unless a replacement ``platform``
        is supplied (platform loss).  The fresh program gets a new channel
        secret — the victim must re-attest it — but the shared fleet
        decision secret, so hash-based flow verdicts survive the failover.
        The replacement starts with empty rule tables and sketch logs;
        callers reinstall rules and re-base audits.
        """
        if not 0 <= index < len(self.enclaves):
            raise ConfigurationError(f"no enclave at index {index}")
        old = self.enclaves[index]
        old.destroy()  # idempotent: usually already dead
        if platform is None:
            platform = old.platform
        self.ias.provision(platform)
        self._platform_counter += 1
        program = EnclaveFilter(
            secret=f"{self.enclave_secret_seed}/relaunch-{self._platform_counter}",
            mode=self.mode,
            sketch_seed=self.sketch_seed,
            scale_out_mode=len(self.enclaves) > 1,
            decision_secret=f"{self.enclave_secret_seed}/fleet",
        )
        enclave = platform.launch(program, epc=epc)
        self.enclaves[index] = enclave
        self.programs[index] = program
        return enclave

    def retire_filters(self, count: int) -> None:
        """Destroy the last ``count`` enclaves (shrinking deployments)."""
        if count <= 0 or count > len(self.enclaves):
            raise ConfigurationError("bad retire count")
        for _ in range(count):
            enclave = self.enclaves.pop()
            self.programs.pop()
            enclave.destroy()

    # -- rule installation ---------------------------------------------------------

    def install_single_filter(self, rules: RuleSet) -> None:
        """The single-enclave deployment: all rules on filter 0."""
        if not self.enclaves:
            self.launch_filters(1, scale_out=False)
        rule_list = rules.rules()
        self.enclaves[0].ecall("install_rules", rule_list)
        routes = {rule.rule_id: [(0, 1.0)] for rule in rule_list}
        self.load_balancer.configure(rules, routes)
        self.state.rules = rules
        self.state.rule_order = [rule.rule_id for rule in rule_list]
        self.state.allocation = None

    def apply_allocation(self, rules: RuleSet, allocation: Allocation) -> None:
        """Install an optimizer allocation across the enclave fleet.

        ``allocation`` indexes rules by position in ``rules.rules()`` order;
        the fleet is grown/shrunk to the allocation's enclave count, each
        enclave gets its subset (and its assigned-id list for misbehavior
        detection), and the load balancer gets the weighted routes.
        """
        rule_list = rules.rules()
        if allocation.problem.num_rules != len(rule_list):
            raise DistributionError(
                "allocation rule count does not match the rule set"
            )
        needed = len(allocation.assignments)
        if needed > len(self.enclaves):
            self.launch_filters(needed - len(self.enclaves), scale_out=True)
        elif needed < len(self.enclaves):
            self.retire_filters(len(self.enclaves) - needed)

        scale_out = len(allocation.assignments) > 1
        routes: Dict[int, List[Tuple[int, float]]] = {}
        for j, share_map in enumerate(allocation.assignments):
            self.enclaves[j].ecall("set_scale_out_mode", scale_out)
            subset = [rule_list[i] for i in sorted(share_map)]
            installed = {r.rule_id for r in self.enclaves[j].ecall("installed_rules")}
            to_remove = installed - {r.rule_id for r in subset}
            to_add = [r for r in subset if r.rule_id not in installed]
            if to_remove:
                self.enclaves[j].ecall("remove_rules", sorted(to_remove))
            if to_add:
                self.enclaves[j].ecall("install_rules", to_add)
            self.enclaves[j].ecall(
                "set_assigned_rules", [r.rule_id for r in subset]
            )
            for i, share in share_map.items():
                routes.setdefault(rule_list[i].rule_id, []).append((j, share))

        self.load_balancer.configure(rules, routes)
        self.state.rules = rules
        self.state.rule_order = [rule.rule_id for rule in rule_list]
        self.state.allocation = allocation

    # -- data path --------------------------------------------------------------

    #: Max packets per ``process_burst`` ECall on the carry path (stays
    #: well under :attr:`EnclaveFilter.MAX_BURST`).
    carry_burst_size = 64

    def bursts_by_slot(
        self, routed: Sequence[Routed]
    ) -> Iterator[Tuple[int, List[int]]]:
        """``(slot, positions)`` ECall bursts for one routed packet burst.

        Positions steered to the same enclave share one burst wherever they
        sit in the arrival order (split only at :attr:`carry_burst_size`),
        so a burst costs one ECall per enclave it touches, not one per run
        of neighbours.  Equation 2 is what makes the regrouping safe:
        ``f(p)`` does not depend on arrival order and count-min updates
        commute, so verdicts and logs equal the per-packet path's.
        """
        by_slot: Dict[int, List[int]] = {}
        for pos, (target, _) in enumerate(routed):
            if target is not None and target is not BLACKHOLE:
                by_slot.setdefault(target, []).append(pos)  # type: ignore[arg-type]
        size = self.carry_burst_size
        for slot, positions in by_slot.items():
            for start in range(0, len(positions), size):
                yield slot, positions[start : start + size]

    def carry(self, packets: Iterable[Packet]) -> List[Packet]:
        """Move packets through the deployment; returns the forwarded ones.

        Honest behavior: every packet matching an installed rule goes through
        its enclave; unmatched packets are forwarded unfiltered.  Packets
        routed to the same enclave share ``process_burst`` ECalls (see
        :meth:`bursts_by_slot`), so the enclave-transition count scales with
        bursts, not packets; verdicts and log contents are identical to the
        per-packet path, and delivery order is preserved.
        """
        packets = list(packets)
        routed = self.load_balancer.route_burst(packets)
        # Unrouted packets are forwarded as they are; a blackholed one (shed
        # rule: fail-closed drop, counted by the LB) never is.
        forward = [target is None for target, _ in routed]
        filtered: List[int] = []
        for slot, positions in self.bursts_by_slot(routed):
            verdicts = self.enclaves[slot].ecall(
                "process_burst", [packets[pos] for pos in positions]
            )
            for pos, ok in zip(positions, verdicts):
                forward[pos] = ok
            filtered.extend(positions)
        rules = self.state.rules
        own = self.load_balancer.rules is rules
        record_flight(
            (
                packets[pos],
                routed[pos][1] if own else rules.match(packets[pos].five_tuple),
                "allowed" if forward[pos] else "dropped",
            )
            for pos in sorted(filtered)
        )
        return [packet for packet, ok in zip(packets, forward) if ok]

    # -- telemetry ---------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Deployment-level counters, including the load balancer's.

        ``unrouted_packets`` (traffic matching no installed rule, forwarded
        on the default path) and ``blackholed_packets`` (traffic for shed
        rules, dropped fail-closed) previously accumulated invisibly inside
        the load balancer; surfacing them here keeps the controller's books
        reconcilable against pipeline accounting.  Destroyed enclaves are
        skipped rather than queried (their counters are unreachable), and
        reported under ``dead_enclaves``.
        """
        totals = {
            "enclaves": len(self.enclaves),
            "dead_enclaves": sum(1 for e in self.enclaves if e.destroyed),
            "unrouted_packets": self.load_balancer.unrouted_packets,
            "blackholed_packets": self.load_balancer.blackholed_packets,
            "packets_processed": 0,
            "packets_allowed": 0,
            "packets_dropped": 0,
        }
        for enclave in self.enclaves:
            if enclave.destroyed:
                continue
            report = enclave.ecall("report")
            totals["packets_processed"] += report.packets_processed
            totals["packets_allowed"] += report.packets_allowed
            totals["packets_dropped"] += report.packets_dropped
        return totals

    def collect_rule_rates(self, window_s: float) -> Dict[int, float]:
        """Aggregate per-rule byte counters into bps over ``window_s``.

        The division by wall time happens *here*, on the untrusted side,
        because enclave clocks are untrusted (paper footnote 6).  A lying
        controller only sabotages its own optimizer input.
        """
        if window_s <= 0:
            raise ConfigurationError("window must be positive")
        totals: Dict[int, int] = {}
        for enclave in self.enclaves:
            for rule_id, nbytes in enclave.ecall("export_rule_rates").items():
                totals[rule_id] = totals.get(rule_id, 0) + nbytes
        return {rid: nbytes * 8 / window_s for rid, nbytes in totals.items()}

    def collect_incoming_logs(self) -> List[CountMinSketch]:
        """Each enclave's incoming sketch (for neighbor audits in tests)."""
        return [p._logs.incoming.sketch.copy() for p in self.programs]

    def collect_outgoing_logs(self) -> List[CountMinSketch]:
        """Each enclave's outgoing sketch (for victim audits in tests).

        The production path fetches these through the sealed channel
        (:meth:`EnclaveFilter.export_logs`); tests shortcut via this helper.
        """
        return [p._logs.outgoing.sketch.copy() for p in self.programs]

    def misbehavior_reports(self) -> List[str]:
        """Load-balancer misbehavior events from every enclave."""
        events: List[str] = []
        for enclave in self.enclaves:
            events.extend(enclave.ecall("misbehavior_report"))
        return events

    def rule_update_tick(self) -> int:
        """Run the Appendix-F batch conversion on every enclave."""
        return sum(enclave.ecall("rule_update_tick") for enclave in self.enclaves)
